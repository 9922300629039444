// Command assocbench is the association-path benchmark. It runs one of
// four workloads in process, driving the controller, the federation
// relay and the simulator only through their public calls, checks the
// outputs, and prints its metrics. With -trace 0 the last line carries
// the end-to-end metrics; with -trace 1 it carries per-layer metrics
// from spans the benchmark records around the calls into each layer.
// See README.md in this directory.
//
//	assocbench -workload assoc-100k -seed 1 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// instance is one set-up copy of a workload, ready to be measured.
type instance interface {
	// measure drives the workload for d and returns what it observed.
	measure(d time.Duration) (*phase, error)
	// probe adds the per-layer numbers of a traced run: standalone calls
	// into single layers with the workload's inputs, and counters.
	probe(ph *phase, rep *report) error
	// check verifies the program's outputs once measuring is over.
	check(rep *report) error
	close() error
}

// workload describes one benchmark input set.
type workload struct {
	name    string
	fsync   string // journal fsync policy, recorded in the header
	network string // what the traffic crossed, recorded in the header
	setup   func(seed int64, tr *tracer) (instance, error)
}

var workloads = []workload{
	{"assoc-100k", "off (setup ledger only; no journal while measuring)", loopback, setupAssoc},
	{"churn-s3live", "interval", loopback, setupChurn},
	{"relay-2node", "interval", loopback, setupRelay},
	{"sim-fig12", "none (no journal)", "none: in-process simulation, no sockets", setupSim},
}

const loopback = "TCP over the host loopback interface (127.0.0.1), not a real link"

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRepeats = 5

// phase is what one measuring window observed.
type phase struct {
	op        []time.Duration // latency of each completed op
	at        []time.Duration // when each op began, from the window's start
	attempted int
	failed    int
	elapsed   time.Duration
	balance   float64 // balance_index over the window
	busy      time.Duration
	// named carries the workload's own metrics under the names the
	// benchmark doc uses (assoc_p50_us, join_p99_us, eval_s, ...).
	named []metric
	// memory deltas over the window, filled by window()
	mallocs, allocBytes uint64
	gcs                 uint32
	gcPauses            []time.Duration
}

type metric struct {
	name, unit string
	value      float64
}

func (p *phase) add(name, unit string, v float64) {
	p.named = append(p.named, metric{name, unit, v})
}

// slices is how many equal parts of the window the sliced statistics
// take a median over.
const slices = 10

// sliced returns the median over the window's slices of each slice's
// p90 latency (an op belongs to the slice it completed in) and of each
// slice's throughput (an op counts in each slice in proportion to the
// part of its duration inside it). A stall shorter than half the window
// moves neither; the whole-window p99 is printed beside them.
func (p *phase) sliced() (p90 time.Duration, rate float64) {
	width := p.elapsed / slices
	if width <= 0 {
		return 0, 0
	}
	lat := make([][]time.Duration, slices)
	work := make([]float64, slices)
	for i, d := range p.op {
		start, end := p.at[i], p.at[i]+d
		k := min(int(end/width), slices-1)
		lat[k] = append(lat[k], d)
		if d <= 0 {
			work[k]++
			continue
		}
		for j := max(int(start/width), 0); j < slices && time.Duration(j)*width < end; j++ {
			lo, hi := max(start, time.Duration(j)*width), min(end, time.Duration(j+1)*width)
			if hi > lo {
				work[j] += float64(hi-lo) / float64(d)
			}
		}
	}
	var p90s, rates []float64
	for j := 0; j < slices; j++ {
		if len(lat[j]) > 0 {
			p90s = append(p90s, float64(quantile(sortedCopy(lat[j]), 0.90)))
		}
		rates = append(rates, work[j]/width.Seconds())
	}
	return time.Duration(median(p90s)), median(rates)
}

// report gathers the per-layer metrics of a traced run and the
// informational lines printed before the result.
type report struct {
	out   io.Writer
	layer map[string]float64
}

// metric prints one informational metric line.
func (r *report) metric(name, unit string, v float64) {
	fmt.Fprintf(r.out, "metric %-34s %14.4f %s\n", name, v, unit)
}

// set records a per-layer metric of the result line.
func (r *report) set(name string, v float64) {
	r.layer[name] = v
}

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"op_p50_us", "us"},
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"allocs_per_op", "count"},
	{"balance_index", "ratio"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
// Every workload reports each of them; a layer a workload does not
// reach reads 0 in its count, ratio and share metrics.
var perLayer = []struct{ name, unit string }{
	{"core.select_us", "us"},
	{"core.select_calls_per_op", "count"},
	{"core.guard_fallback_ratio", "ratio"},
	{"domain.views_us", "us"},
	{"domain.views_bytes_copied", "B"},
	{"domain.views_alloc_bytes", "B"},
	{"domain.commit_us", "us"},
	{"domain.commit_stale_ratio", "ratio"},
	{"protocol.wire_bytes_per_op", "B"},
	{"protocol.shed_ratio", "ratio"},
	{"journal.bytes_per_op", "B"},
	{"journal.syncs_per_s", "1/s"},
	{"federation.relay_errors", "count"},
	{"loadgen.busy_frac", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"runtime.gc_pause_p99_us", "us"},
	{"self_pct.client", "%"},
	{"self_pct.protocol", "%"},
	{"self_pct.core", "%"},
	{"self_pct.society", "%"},
	{"self_pct.journal", "%"},
	{"self_pct.wlan", "%"},
	{"trace.spans_per_op", "count"},
	{"trace.overhead_pct", "%"},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("assocbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: assoc-100k, churn-s3live, relay-2node or sim-fig12")
	seed := fs.Int64("seed", 1, "input seed; equal seeds give equal inputs")
	seconds := fs.Int("seconds", 10, "measuring time of the run")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for temporary state and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "assocbench: need -workload (one of assoc-100k, churn-s3live, relay-2node, sim-fig12), -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "assocbench: %v\n", err)
		return 1
	}
	printHeader(stdout, w, *seed, *seconds, *traced == 1)
	d := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(stdout, w, *seed, d, *out)
	} else {
		res, err = runUntraced(stdout, w, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(stderr, "assocbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "assocbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// warmup runs the workload briefly, untimed, so caches fill and lazy
// set-up finishes before the window.
func warmup(in instance, d time.Duration) error {
	w := d / 10
	if w > time.Second {
		w = time.Second
	}
	_, err := in.measure(w)
	return err
}

// window measures one phase and records the process's allocation and
// GC activity across it.
func window(in instance, d time.Duration) (*phase, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ph, err := in.measure(d)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	ph.mallocs = after.Mallocs - before.Mallocs
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc
	ph.gcs = after.NumGC - before.NumGC
	for n := before.NumGC + 1; n <= after.NumGC && after.NumGC-n < 256; n++ {
		ph.gcPauses = append(ph.gcPauses, time.Duration(after.PauseNs[(n+255)%256]))
	}
	return ph, nil
}

// liveHeapMB is HeapAlloc after forced collections: two, so that
// sync.Pool contents, which survive one collection in the victim cache,
// do not count as live. It is the median of three readings 50 ms apart,
// so a buffer that happens to be live at one instant does not set it.
func liveHeapMB() float64 {
	var reads []float64
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(50 * time.Millisecond)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		reads = append(reads, float64(ms.HeapAlloc)/(1<<20))
	}
	return median(reads)
}

// recentGCPauses are the process's last GC pauses (at most 256), for
// windows too short or too calm to have collected at all.
func recentGCPauses() []time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ps []time.Duration
	for i := uint32(0); i < ms.NumGC && i < 256; i++ {
		ps = append(ps, time.Duration(ms.PauseNs[(ms.NumGC-1-i)%256]))
	}
	return ps
}

func perOp(total uint64, ph *phase) float64 {
	if len(ph.op) == 0 {
		return 0
	}
	return float64(total) / float64(len(ph.op))
}

func runUntraced(out io.Writer, w *workload, seed int64, d time.Duration) (*result, error) {
	var setups []float64
	var in instance
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		cur, err := w.setup(seed, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			if err := cur.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
			continue
		}
		in = cur
	}
	defer in.close()
	if err := warmup(in, d); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	ph, err := window(in, d)
	if err != nil {
		return nil, err
	}
	if len(ph.op) == 0 {
		return nil, errors.New("no op completed in the window")
	}
	sorted := sortedCopy(ph.op)
	p90, rate := ph.sliced()
	nOps := len(ph.op)
	vals := map[string]float64{
		"op_p50_us":     micros(quantile(sorted, 0.50)),
		"ops_per_s":     rate,
		"setup_s":       median(setups),
		"allocs_per_op": float64(ph.mallocs) / float64(nOps),
		"balance_index": ph.balance,
	}
	info := []metric{
		{"op_p90_us", "us", micros(p90)},
		{"op_p90_whole_window_us", "us", micros(quantile(sorted, 0.90))},
		{"op_p99_us", "us", micros(quantile(sorted, 0.99))},
		{"ops_per_s_whole_window", "1/s", float64(nOps) / ph.elapsed.Seconds()},
		{"fail_ratio", "ratio", ratio(ph.failed, ph.attempted)},
		{"setup_runs", "count", float64(len(setups))},
		{"op_samples", "count", float64(nOps)},
	}
	// The latency samples are the benchmark's own memory (16 B per op);
	// release them before reading the program's live heap.
	ph.op, ph.at = nil, nil
	vals["heap_mb"] = liveHeapMB()

	rep := &report{out: out, layer: map[string]float64{}}
	correct := true
	if err := in.check(rep); err != nil {
		fmt.Fprintf(out, "check FAILED: %v\n", err)
		correct = false
	} else {
		fmt.Fprintln(out, "check ok")
	}
	for _, m := range append(ph.named, info...) {
		rep.metric(m.name, m.unit, m.value)
	}
	res := &result{Correct: correct, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range endToEnd {
		v := vals[m.name]
		rep.metric(m.name, m.unit, v)
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// runTraced measures half the window on an unwrapped instance and half
// on an instance built with the tracing wrappers, so the end-to-end
// numbers of both sit side by side and their difference is the tracing
// overhead.
func runTraced(out io.Writer, w *workload, seed int64, d time.Duration, dir string) (*result, error) {
	half := d / 2
	plain, err := w.setup(seed, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := warmup(plain, half); err != nil {
		plain.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	phU, err := window(plain, half)
	if err != nil {
		plain.close()
		return nil, err
	}
	rep := &report{out: out, layer: map[string]float64{}}
	correct := true
	if err := plain.check(rep); err != nil {
		fmt.Fprintf(out, "check FAILED (untraced half): %v\n", err)
		correct = false
	}
	if err := plain.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	tr := newTracer()
	start := time.Now()
	in, err := w.setup(seed, tr)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer in.close()
	fmt.Fprintf(out, "metric %-34s %14.4f s\n", "traced_setup_s", time.Since(start).Seconds())
	if err := warmup(in, half); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	tr.reset()
	ph, err := window(in, half)
	if err != nil {
		return nil, err
	}
	sum := tr.summarize()
	if err := in.probe(ph, rep); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	if err := in.check(rep); err != nil {
		fmt.Fprintf(out, "check FAILED (traced half): %v\n", err)
		correct = false
	} else {
		fmt.Fprintln(out, "check ok")
	}
	if len(ph.op) == 0 || len(phU.op) == 0 {
		return nil, errors.New("no op completed in the window")
	}

	// End-to-end numbers of both halves, and the overhead.
	var p50, rate [2]float64
	for i, side := range []struct {
		label string
		p     *phase
	}{{"untraced", phU}, {"traced", ph}} {
		sorted := sortedCopy(side.p.op)
		p90, r := side.p.sliced()
		p50[i], rate[i] = micros(quantile(sorted, 0.5)), r
		rep.metric(side.label+".op_p50_us", "us", p50[i])
		rep.metric(side.label+".op_p90_us", "us", micros(p90))
		rep.metric(side.label+".op_p99_us", "us", micros(quantile(sorted, 0.99)))
		rep.metric(side.label+".ops_per_s", "1/s", rate[i])
		rep.metric(side.label+".allocs_per_op", "count", perOp(side.p.mallocs, side.p))
		for _, m := range side.p.named {
			rep.metric(side.label+"."+m.name, m.unit, m.value)
		}
	}
	rep.set("trace.overhead_pct", 100*(p50[1]/p50[0]-1))
	rep.metric("trace.throughput_overhead_pct", "%", 100*(1-rate[1]/rate[0]))

	// Self time per layer, from the spans.
	for _, l := range spanLayers {
		rep.set("self_pct."+l, sum.selfPct(l))
		rep.metric("self_us_per_op."+l, "us", micros(sum.self[l])/float64(max(sum.ops, 1)))
	}
	for _, name := range sortedKeys(sum.background) {
		rep.metric("background_ms_per_s."+name, "ms/s", millis(sum.background[name])/ph.elapsed.Seconds())
	}
	for _, name := range sortedKeys(sum.byName) {
		ds := sum.byName[name]
		rep.metric("span_p50_us."+name, "us", micros(quantile(sortedCopy(ds), 0.5)))
		rep.metric("span_count."+name, "count", float64(len(ds)))
	}
	rep.set("trace.spans_per_op", float64(sum.spans)/float64(len(ph.op)))
	rep.metric("trace.spans_dropped", "count", float64(sum.dropped))
	if sel := sum.byName["core.select"]; len(sel) > 0 {
		rep.set("core.select_us", micros(quantile(sortedCopy(sel), 0.5)))
	}
	rep.set("runtime.alloc_bytes_per_op", perOp(ph.allocBytes, ph))
	rep.set("runtime.gc_cycles_per_kop", 1000*float64(ph.gcs)/float64(len(ph.op)))
	pauses := ph.gcPauses
	if len(pauses) == 0 {
		pauses = recentGCPauses()
	}
	rep.set("runtime.gc_pause_p99_us", micros(quantile(sortedCopy(pauses), 0.99)))
	rep.set("loadgen.busy_frac", ph.busy.Seconds()/ph.elapsed.Seconds())

	spanFile := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.csv", w.name, seed))
	if err := tr.dump(spanFile, 200_000); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s (%d recorded)\n", spanFile, sum.spans)

	res := &result{Correct: correct, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range perLayer {
		v, ok := rep.layer[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not measured", m.name)
		}
		rep.metric(m.name, m.unit, v)
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
