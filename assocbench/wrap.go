package main

import (
	"io"
	"net"
	"os"
	"sync/atomic"
	"time"

	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// The wrappers below exist only in traced runs. Each one times the call
// it forwards and keeps every interface the program type-asserts on the
// wrapped value, so a traced run makes the same decisions as an untraced
// one: wlan.Simulate and Controller.AssociateBatch branch on
// wlan.BatchSelector, and the controller checkpoints an observer that
// implements protocol.ObserverState.

// tracedSelector wraps a policy (the *core.Selector itself, not its
// social index, so core.NewSelector still detects a FriendIndex).
type tracedSelector struct {
	inner wlan.Selector
	tr    *tracer
	calls atomic.Int64
}

func (s *tracedSelector) Name() string { return s.inner.Name() }

func (s *tracedSelector) Select(req wlan.Request, aps []wlan.APView) (trace.APID, error) {
	s.calls.Add(1)
	start := s.tr.now()
	ap, err := s.inner.Select(req, aps)
	s.tr.add("core.select", start, s.tr.now(), s.tr.reqOf(req.User))
	return ap, err
}

type tracedBatchSelector struct {
	*tracedSelector
	batch wlan.BatchSelector
}

func (s *tracedBatchSelector) SelectBatch(reqs []wlan.Request, aps []wlan.APView) (map[trace.UserID]trace.APID, error) {
	req := s.tr.ambient.Load()
	if len(reqs) > 0 {
		req = s.tr.reqOf(reqs[0].User)
	}
	start := s.tr.now()
	m, err := s.batch.SelectBatch(reqs, aps)
	s.tr.add("core.batch_place", start, s.tr.now(), req)
	return m, err
}

// selectorCalls counts Select calls through a wrapper from wrapSelector.
func selectorCalls(sel wlan.Selector) int64 {
	switch s := sel.(type) {
	case *tracedSelector:
		return s.calls.Load()
	case *tracedBatchSelector:
		return s.calls.Load()
	}
	return 0
}

// wrapSelector returns sel itself when tr is nil (untraced runs carry no
// wrappers).
func wrapSelector(sel wlan.Selector, tr *tracer) wlan.Selector {
	if tr == nil {
		return sel
	}
	ts := &tracedSelector{inner: sel, tr: tr}
	if bs, ok := sel.(wlan.BatchSelector); ok {
		return &tracedBatchSelector{tracedSelector: ts, batch: bs}
	}
	return ts
}

type tracedObserver struct {
	inner protocol.AssociationObserver
	tr    *tracer
}

func (o *tracedObserver) Connect(u trace.UserID, ap trace.APID, ts int64) {
	start := o.tr.now()
	o.inner.Connect(u, ap, ts)
	o.tr.add("society.observe", start, o.tr.now(), o.tr.reqOf(u))
}

func (o *tracedObserver) Disconnect(u trace.UserID, ap trace.APID, ts int64) error {
	start := o.tr.now()
	err := o.inner.Disconnect(u, ap, ts)
	o.tr.add("society.observe", start, o.tr.now(), o.tr.reqOf(u))
	return err
}

type tracedStatefulObserver struct {
	*tracedObserver
	state protocol.ObserverState
}

func (o *tracedStatefulObserver) WriteState(w io.Writer) error { return o.state.WriteState(w) }
func (o *tracedStatefulObserver) ReadState(r io.Reader) error  { return o.state.ReadState(r) }

func wrapObserver(obsv protocol.AssociationObserver, tr *tracer) protocol.AssociationObserver {
	if tr == nil {
		return obsv
	}
	to := &tracedObserver{inner: obsv, tr: tr}
	if st, ok := obsv.(protocol.ObserverState); ok {
		return &tracedStatefulObserver{tracedObserver: to, state: st}
	}
	return to
}

// wrapRefresh times each refresher tick as background work.
func wrapRefresh(fn func(), tr *tracer) func() {
	if tr == nil {
		return fn
	}
	return func() {
		start := tr.now()
		fn()
		tr.add("society.refresh", start, tr.now(), 0)
	}
}

// ioCounters tallies journal segment I/O seen by tracedFile.
type ioCounters struct {
	bytes atomic.Int64
	syncs atomic.Int64
}

// tracedOpenFile is a journal.Options.OpenFile that creates segments the
// way the journal's default does (os.Create) and times their writes and
// fsyncs.
func tracedOpenFile(tr *tracer, c *ioCounters) func(string) (journal.File, error) {
	return func(path string) (journal.File, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		return &tracedFile{f: f, tr: tr, c: c}, nil
	}
}

type tracedFile struct {
	f  *os.File
	tr *tracer
	c  *ioCounters
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := f.tr.now()
	n, err := f.f.Write(p)
	f.tr.add("journal.write", start, f.tr.now(), 0)
	f.c.bytes.Add(int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	start := f.tr.now()
	err := f.f.Sync()
	f.tr.add("journal.sync", start, f.tr.now(), 0)
	f.c.syncs.Add(1)
	return err
}

func (f *tracedFile) Close() error { return f.f.Close() }

// wireCounters tallies bytes a station's connection moved.
type wireCounters struct {
	written atomic.Int64
	read    atomic.Int64
}

// tracedConn is a station's net.Conn in a traced run. The time from the
// end of the last request write to the return of the first read after it
// is the server's share of a round trip (protocol.server): the controller,
// and for relayed stations the relay hop, as seen from the client. One
// station goroutine uses the conn, so only the counters are shared.
type tracedConn struct {
	net.Conn
	tr        *tracer
	c         *wireCounters
	req       int64
	lastWrite time.Duration
	pending   bool
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.lastWrite, c.pending = c.tr.now(), true
	c.c.written.Add(int64(n))
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.pending {
		c.tr.add("protocol.server", c.lastWrite, c.tr.now(), c.req)
		c.pending = false
	}
	c.c.read.Add(int64(n))
	return n, err
}

// dialer returns a protocol.Dialer. Untraced (tr nil) it is a plain TCP
// dial; traced, it wraps the conn and hands it to got, so the station
// loop can tag it with the request in flight.
func dialer(tr *tracer, wc *wireCounters, req int64, got func(*tracedConn)) protocol.Dialer {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		raw, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil || tr == nil {
			return raw, err
		}
		tc := &tracedConn{Conn: raw, tr: tr, c: wc, req: req}
		if got != nil {
			got(tc)
		}
		return tc, nil
	}
}
