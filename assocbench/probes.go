package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Standalone per-layer probes: each calls one layer's public functions
// with the workload's own inputs, outside the measured window.

// probeTime bounds each probe loop.
const probeTime = 250 * time.Millisecond

type apSpec struct {
	id       trace.APID
	capacity float64
}

type resident struct {
	user   trace.UserID
	ap     trace.APID
	demand float64
}

// probeDomain loads a fresh domain with the workload's APs and residents
// and times Domain.ViewsInto and, from two goroutines, versioned
// Domain.Commit calls, the controller's view-select-commit cycle minus
// the policy.
func probeDomain(rep *report, aps []apSpec, residents []resident) error {
	d := domain.New(domain.Config{Mode: domain.LoadMax})
	for _, a := range aps {
		if err := d.AddAP(a.id, a.capacity); err != nil {
			return err
		}
	}
	ps := make([]domain.Placement, 0, 1024)
	for i, r := range residents {
		ps = append(ps, domain.Placement{User: r.user, AP: r.ap, DemandBps: r.demand})
		if len(ps) == cap(ps) || i == len(residents)-1 {
			if _, err := d.Commit(ps, nil); err != nil {
				return fmt.Errorf("domain probe: load residents: %w", err)
			}
			ps = ps[:0]
		}
	}

	var buf domain.ViewBuf
	d.ViewsInto("probe-view", &buf) // size the buffers once
	var lat []time.Duration
	var copied float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for end := time.Now().Add(probeTime); time.Now().Before(end); {
		t0 := time.Now()
		d.ViewsInto("probe-view", &buf)
		lat = append(lat, time.Since(t0))
		for _, v := range buf.Views() {
			copied += float64(unsafe.Sizeof(v)) +
				float64(len(v.Users))*float64(unsafe.Sizeof(trace.UserID(""))) +
				float64(len(v.UserDemands))*8
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(lat))
	rep.set("domain.views_us", micros(quantile(sortedCopy(lat), 0.5)))
	rep.set("domain.views_bytes_copied", copied/n)
	// The latency slice itself grows by appending; at 8 B per call it
	// is a small, known share of the figure.
	rep.set("domain.views_alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc)/n)

	var (
		mu       sync.Mutex
		commits  []time.Duration
		stale    int
		attempts int
		firstErr error
		wg       sync.WaitGroup
	)
	end := time.Now().Add(probeTime)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			u := trace.UserID(fmt.Sprintf("probe-commit-%d", g))
			var vb domain.ViewBuf
			var prev trace.APID
			var local []time.Duration
			nStale, nAttempts := 0, 0
			for time.Now().Before(end) {
				d.ViewsInto(u, &vb)
				views := vb.Views()
				best := 0
				for i := range views {
					if views[i].LoadBps < views[best].LoadBps {
						best = i
					}
				}
				p := []domain.Placement{{User: u, AP: views[best].ID, Prev: prev, DemandBps: 1000}}
				t0 := time.Now()
				_, err := d.Commit(p, vb.Version())
				local = append(local, time.Since(t0))
				nAttempts++
				switch {
				case errors.Is(err, domain.ErrStale):
					nStale++
				case err != nil:
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				default:
					prev = views[best].ID
				}
			}
			mu.Lock()
			commits = append(commits, local...)
			stale += nStale
			attempts += nAttempts
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("domain probe: commit: %w", firstErr)
	}
	rep.set("domain.commit_us", micros(quantile(sortedCopy(commits), 0.5)))
	rep.set("domain.commit_stale_ratio", ratio(stale, attempts))
	return nil
}

// memConn is an in-memory net.Conn: writes append to a buffer that reads
// drain, so Conn.Send/Receive over it cost only the codec.
type memConn struct{ buf bytes.Buffer }

func (c *memConn) Read(p []byte) (int, error)       { return c.buf.Read(p) }
func (c *memConn) Write(p []byte) (int, error)      { return c.buf.Write(p) }
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// probeCodec times the binary codec alone on the workload's message mix:
// n sends, then n receives of what was sent.
func probeCodec(rep *report, mix []protocol.Message) error {
	const n = 20000
	c := protocol.NewConnCodec(&memConn{}, time.Second, protocol.CodecBinary)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := c.Send(mix[i%len(mix)]); err != nil {
			return fmt.Errorf("codec probe: send: %w", err)
		}
	}
	enc := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		m, err := c.Receive()
		if err != nil {
			return fmt.Errorf("codec probe: receive: %w", err)
		}
		if m.Type != mix[i%len(mix)].Type {
			return fmt.Errorf("codec probe: message %d decoded as %s, sent %s", i, m.Type, mix[i%len(mix)].Type)
		}
	}
	dec := time.Since(t0)
	rep.metric("protocol.codec_encode_ns", "ns", float64(enc)/n)
	rep.metric("protocol.codec_decode_ns", "ns", float64(dec)/n)
	return nil
}

// probeJournal times journal.Append on the workload's record stream
// under its fsync policy, in a fresh directory.
func probeJournal(rep *report, dir string, opts journal.Options, recs []journal.Record) error {
	j, _, err := journal.Open(dir, opts)
	if err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	lat := make([]time.Duration, 0, len(recs))
	for _, r := range recs {
		t0 := time.Now()
		if err := j.Append(r); err != nil {
			j.Close()
			return fmt.Errorf("journal probe: %w", err)
		}
		lat = append(lat, time.Since(t0))
	}
	if err := j.Close(); err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	rep.metric("journal.append_us", "us", micros(quantile(sortedCopy(lat), 0.5)))
	return nil
}

// counter reads an obs counter by name (registering it at zero if the
// program has not yet).
func counter(name string) int64 { return obs.GetCounter(name).Value() }

// histMark is a point-in-time reading of an obs histogram.
type histMark struct {
	count int64
	total time.Duration
}

func markHist(name string) histMark {
	h := obs.GetHistogram(name)
	return histMark{h.Count(), h.Total()}
}

// addHistDelta adds the count and mean latency of the named histogram's
// observations since m to ph, e.g. journal fsyncs and checkpoints, whose
// stalls set the tail of the journaled workloads.
func addHistDelta(ph *phase, name string, m histMark) {
	now := markHist(name)
	n := now.count - m.count
	ph.add(name+".count", "count", float64(n))
	if n > 0 {
		ph.add(name+".mean_ms", "ms", millis((now.total-m.total)/time.Duration(n)))
	}
}
