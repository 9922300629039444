package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// maxSpans bounds the in-memory span buffer of one traced run; spans
// beyond it are counted as dropped, not recorded.
const maxSpans = 1 << 20

// span is one timed call into a layer. Times are offsets from the
// tracer's epoch on the monotonic clock. parent indexes the enclosing
// span of the same request (-1 for a root) and is resolved when the run
// ends, from the recorded intervals.
type span struct {
	name       string
	start, end time.Duration
	req        int64
	parent     int32
}

// tracer records spans from the benchmark's own wrappers around the
// program's public seams: the station's net.Conn, the selector, the
// association observer, the refresher and the journal's segment files.
// Spans stay in memory until the run ends.
type tracer struct {
	epoch   time.Time
	nextReq atomic.Int64
	ambient atomic.Int64 // request of calls that carry no user (simulator)
	dropped atomic.Int64

	mu    sync.Mutex
	spans []span

	umu   sync.RWMutex
	users map[trace.UserID]int64
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		spans: make([]span, 0, 1<<16),
		users: make(map[trace.UserID]int64),
	}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// newReq allocates a request id; ids start at 1, 0 means "no request".
func (t *tracer) newReq() int64 { return t.nextReq.Add(1) }

func (t *tracer) add(name string, start, end time.Duration, req int64) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{name: name, start: start, end: end, req: req, parent: -1})
	} else {
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

// bind routes server-side spans for user u (the selector and observer
// see only the user) to the client request currently in flight for it.
func (t *tracer) bind(u trace.UserID, req int64) {
	t.umu.Lock()
	t.users[u] = req
	t.umu.Unlock()
}

func (t *tracer) reqOf(u trace.UserID) int64 {
	t.umu.RLock()
	req, ok := t.users[u]
	t.umu.RUnlock()
	if ok {
		return req
	}
	return t.ambient.Load()
}

// spanP50 is the median duration of the named spans.
func (t *tracer) spanP50(name string) time.Duration { return quantile(t.durations(name), 0.5) }

// spanMax is the longest of the named spans.
func (t *tracer) spanMax(name string) time.Duration { return quantile(t.durations(name), 1) }

// durations are the sorted durations of the named spans.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			ds = append(ds, s.end-s.start)
		}
	}
	t.mu.Unlock()
	return sortedCopy(ds)
}

// reset drops everything recorded so far (the warm-up's spans).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
	t.dropped.Store(0)
}

// layerOf names the module a span measures: the text before the first
// dot, with the load generator's own op spans counted as "client".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		name = name[:i]
	}
	if name == "op" {
		return "client"
	}
	return name
}

// spanLayers are the layers a span can be attributed to; selfPct reports
// one share for each, zero where the workload does not reach the layer.
var spanLayers = []string{"client", "protocol", "core", "society", "journal", "wlan"}

// spanSummary is the analysis of one traced run.
type spanSummary struct {
	ops        int
	spans      int
	dropped    int64
	opTime     time.Duration            // summed duration of the root op spans
	self       map[string]time.Duration // layer -> self time inside ops
	background map[string]time.Duration // span name -> time outside any op
	byName     map[string][]time.Duration
}

// summarize resolves parents and computes self times. Spans recorded
// without a request (journal file writes happen under the controller's
// lock, with no user in hand) are attributed to the protocol.server span
// that contains them, if any; the rest (interval fsyncs, refresher
// ticks) are background work and reported apart from the op breakdown.
// A span's self time is its duration minus the time its children cover.
// Background goroutines may still record while it runs, so it holds the
// span lock throughout.
func (t *tracer) summarize() spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	sum := spanSummary{
		spans:      len(spans),
		dropped:    t.dropped.Load(),
		self:       make(map[string]time.Duration),
		background: make(map[string]time.Duration),
		byName:     make(map[string][]time.Duration),
	}
	for _, s := range spans {
		sum.byName[s.name] = append(sum.byName[s.name], s.end-s.start)
	}

	var servers []int
	for i, s := range spans {
		if s.name == "protocol.server" {
			servers = append(servers, i)
		}
	}
	sort.Slice(servers, func(a, b int) bool { return spans[servers[a]].start < spans[servers[b]].start })
	for i := range spans {
		s := &spans[i]
		if s.req != 0 {
			continue
		}
		// Only the latest server spans starting before s can contain it:
		// with two generator connections at most two are open at once.
		k := sort.Search(len(servers), func(j int) bool { return spans[servers[j]].start > s.start }) - 1
		for stop := k - 8; k >= 0 && k > stop; k-- {
			p := spans[servers[k]]
			if p.start <= s.start && s.end <= p.end {
				s.req = p.req
				break
			}
		}
	}

	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.req != y.req {
			return x.req < y.req
		}
		if x.start != y.start {
			return x.start < y.start
		}
		return x.end > y.end
	})
	childTime := make([]time.Duration, len(spans))
	root := make([]int, len(spans)) // the outermost span enclosing each span
	var stack []int
	var curReq int64 = -1
	for _, i := range order {
		s := &spans[i]
		if s.req == 0 {
			sum.background[s.name] += s.end - s.start
			continue
		}
		if s.req != curReq {
			stack, curReq = stack[:0], s.req
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].end < s.end {
			stack = stack[:len(stack)-1]
		}
		root[i] = i
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			s.parent = int32(p)
			childTime[p] += s.end - s.start
			root[i] = root[p]
		}
		stack = append(stack, i)
	}
	for i, s := range spans {
		if s.req == 0 {
			continue
		}
		if !strings.HasPrefix(spans[root[i]].name, "op.") {
			// Outside every op: e.g. an observer call that ran after its
			// session had already closed.
			sum.background[s.name] += s.end - s.start
			continue
		}
		if s.parent < 0 {
			sum.ops++
			sum.opTime += s.end - s.start
		}
		self := s.end - s.start - childTime[i]
		if self < 0 {
			self = 0
		}
		sum.self[layerOf(s.name)] += self
	}
	return sum
}

// selfPct is a layer's self time as a share of all op time.
func (s spanSummary) selfPct(layer string) float64 {
	if s.opTime <= 0 {
		return 0
	}
	return 100 * float64(s.self[layer]) / float64(s.opTime)
}

// dump writes up to limit spans as CSV (req,parent,name,start_ns,end_ns),
// the raw material behind the summary.
func (t *tracer) dump(path string, limit int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req,parent,name,start_ns,end_ns")
	t.mu.Lock()
	for i, s := range t.spans {
		if i >= limit {
			break
		}
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", s.req, s.parent, s.name, int64(s.start), int64(s.end))
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
