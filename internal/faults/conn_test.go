package faults

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// fixed is a schedule that never changes.
func fixed[T any](v T) func() T { return func() T { return v } }

// fakeConn is an in-memory net.Conn half for write-side tests.
type fakeConn struct {
	mu     sync.Mutex
	wrote  bytes.Buffer
	closed bool
}

func (f *fakeConn) Read(p []byte) (int, error) { return 0, io.EOF }

func (f *fakeConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, net.ErrClosed
	}
	return f.wrote.Write(p)
}

func (f *fakeConn) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	return nil
}

func (f *fakeConn) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

func (f *fakeConn) written() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.wrote.Len()
}

func (f *fakeConn) LocalAddr() net.Addr                { return nil }
func (f *fakeConn) RemoteAddr() net.Addr               { return nil }
func (f *fakeConn) SetDeadline(t time.Time) error      { return nil }
func (f *fakeConn) SetReadDeadline(t time.Time) error  { return nil }
func (f *fakeConn) SetWriteDeadline(t time.Time) error { return nil }

func TestTransparentWithZeroConfig(t *testing.T) {
	fc := &fakeConn{}
	c := WrapConn(fc, 0, fixed(ConnFaults{}))
	for i := 0; i < 100; i++ {
		if n, err := c.Write([]byte("hello")); n != 5 || err != nil {
			t.Fatalf("write %d = %d, %v", i, n, err)
		}
	}
	if fc.written() != 500 {
		t.Errorf("underlying got %d bytes, want 500", fc.written())
	}
}

func TestDropWrite(t *testing.T) {
	fc := &fakeConn{}
	c := WrapConn(fc, 1, fixed(ConnFaults{DropWriteProb: 1}))
	n, err := c.Write([]byte("lost report"))
	if n != 11 || err != nil {
		t.Fatalf("dropped write = %d, %v; want full length, nil", n, err)
	}
	if fc.written() != 0 {
		t.Errorf("underlying got %d bytes, want 0", fc.written())
	}
}

func TestPartialWriteTearsFrame(t *testing.T) {
	fc := &fakeConn{}
	c := WrapConn(fc, 1, fixed(ConnFaults{PartialWriteProb: 1}))
	n, err := c.Write([]byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if n != 5 || fc.written() != 5 {
		t.Errorf("prefix = %d/%d, want 5/5", n, fc.written())
	}
	if !fc.isClosed() {
		t.Error("transport should be closed after a torn frame")
	}
}

func TestCloseAfterWrites(t *testing.T) {
	fc := &fakeConn{}
	c := WrapConn(fc, 1, fixed(ConnFaults{CloseAfterWrites: 2}))
	for i := 0; i < 2; i++ {
		if _, err := c.Write([]byte("ok")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if _, err := c.Write([]byte("boom")); !errors.Is(err, ErrInjected) {
		t.Fatalf("third write err = %v, want ErrInjected", err)
	}
	if !fc.isClosed() {
		t.Error("transport should be closed mid-stream")
	}
}

func TestReadErr(t *testing.T) {
	fc := &fakeConn{}
	c := WrapConn(fc, 1, fixed(ConnFaults{ReadErrProb: 1}))
	if _, err := c.Read(make([]byte, 8)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read err = %v, want ErrInjected", err)
	}
	if !fc.isClosed() {
		t.Error("transport should be closed after injected read error")
	}
}

// TestSeededDeterminism: the same seed yields the same fault schedule.
func TestSeededDeterminism(t *testing.T) {
	run := func() []bool {
		fc := &fakeConn{}
		c := WrapConn(fc, 42, fixed(ConnFaults{DropWriteProb: 0.3}))
		var dropped []bool
		for i := 0; i < 200; i++ {
			before := fc.written()
			if _, err := c.Write([]byte("x")); err != nil {
				t.Fatal(err)
			}
			dropped = append(dropped, fc.written() == before)
		}
		return dropped
	}
	a, b := run(), run()
	anyDrop, anyPass := false, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at write %d", i)
		}
		anyDrop = anyDrop || a[i]
		anyPass = anyPass || !a[i]
	}
	if !anyDrop || !anyPass {
		t.Errorf("schedule degenerate: drops=%v passes=%v", anyDrop, anyPass)
	}
}

func TestFlakyListenerSchedule(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fl := &FlakyListener{Listener: ln, FailFirst: 2}
	for i := 0; i < 2; i++ {
		_, err := fl.Accept()
		if err == nil {
			t.Fatalf("accept %d should fail", i)
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Temporary() {
			t.Fatalf("accept %d error not transient: %v", i, err)
		}
	}
	done := make(chan error, 1)
	go func() {
		conn, err := fl.Accept()
		if conn != nil {
			conn.Close()
		}
		done <- err
	}()
	dial, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer dial.Close()
	if err := <-done; err != nil {
		t.Fatalf("accept after schedule: %v", err)
	}
}

// TestReadStallHangsWithoutClose: a stalled read hangs for StallDur and
// then proceeds with the real read — the transport stays open, unlike
// every error-injecting mode. This is the half-open-peer primitive the
// hello-timeout and circuit-breaker suites build on.
func TestReadStallHangsWithoutClose(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	c := WrapConn(client, 7, fixed(ConnFaults{ReadStallProb: 1, StallDur: 50 * time.Millisecond}))
	defer c.Close()
	go server.Write([]byte("hi"))
	buf := make([]byte, 2)
	start := time.Now()
	n, err := c.Read(buf)
	if err != nil || n != 2 {
		t.Fatalf("stalled read = %d, %v (stall must not close)", n, err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("read returned after %v, want >= 50ms stall", d)
	}
}

// TestWrapConnFollowsSchedule: a wrapper consults its schedule per
// operation, so flipping the schedule changes behavior mid-stream
// without re-wrapping the connection.
func TestWrapConnFollowsSchedule(t *testing.T) {
	fc := &fakeConn{}
	var mu sync.Mutex
	cfg := ConnFaults{}
	src := func() ConnFaults {
		mu.Lock()
		defer mu.Unlock()
		return cfg
	}
	c := WrapConn(fc, 42, src)
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatalf("clean write: %v", err)
	}
	mu.Lock()
	cfg.WriteErrProb = 1
	mu.Unlock()
	if _, err := c.Write([]byte("boom")); !errors.Is(err, ErrInjected) {
		t.Fatalf("faulted write = %v, want ErrInjected", err)
	}
	if !fc.isClosed() {
		t.Error("injected write error should close the transport")
	}
}
