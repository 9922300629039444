package faults

import (
	"math/rand"
	"net"
	"testing"
	"time"
)

func TestParsePlan(t *testing.T) {
	p, err := Parse("clean 500ms -> storm 2s drop=0.05 delay=2ms -> stall 1s stall=1 stalldur=300ms -> clean 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Phases) != 4 {
		t.Fatalf("phases = %d, want 4", len(p.Phases))
	}
	if p.Phases[0].Name != "clean" || !p.Phases[0].Clean() || p.Phases[0].Dur != 500*time.Millisecond {
		t.Fatalf("phase 0 = %+v", p.Phases[0])
	}
	storm := p.Phases[1]
	if storm.Name != "storm" || storm.Conn.DropWriteProb != 0.05 || storm.Conn.MaxDelay != 2*time.Millisecond {
		t.Fatalf("phase 1 = %+v", storm)
	}
	if storm.Conn.DelayProb != 1 {
		t.Fatalf("delay= should imply delayp=1, got %v", storm.Conn.DelayProb)
	}
	stall := p.Phases[2]
	if stall.Conn.ReadStallProb != 1 || stall.Conn.StallDur != 300*time.Millisecond {
		t.Fatalf("phase 2 = %+v", stall)
	}
	if !p.Phases[3].Clean() {
		t.Fatalf("phase 3 should be clean: %+v", p.Phases[3])
	}
}

func TestParseFileFaults(t *testing.T) {
	p, err := Parse("wal 1s short=0.1 torn=4096 bitflip=0.01 syncerr=0.2 failsync=3")
	if err != nil {
		t.Fatal(err)
	}
	f := p.Phases[0].File
	if f.ShortWriteProb != 0.1 || f.TornAtByte != 4096 || f.BitFlipProb != 0.01 ||
		f.SyncErrProb != 0.2 || f.FailSyncAfter != 3 {
		t.Fatalf("file schedule = %+v", f)
	}
}

func TestParseRejects(t *testing.T) {
	for _, spec := range []string{
		"",                  // empty plan
		"clean",             // no duration
		"clean 1s drop=1.5", // probability out of range
		"clean 1s bogus=1",  // unknown key
		"clean 1s delay=-1s",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
}

func TestPhaseAtAndTerminal(t *testing.T) {
	p := MustParse("a 100ms drop=0.1 -> b 200ms -> c 0 rerr=1")
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "a"},
		{99 * time.Millisecond, "a"},
		{100 * time.Millisecond, "b"},
		{299 * time.Millisecond, "b"},
		{300 * time.Millisecond, "c"},
		{time.Hour, "c"}, // terminal phase applies forever
	}
	for _, tc := range cases {
		if _, ph := p.PhaseAt(tc.d); ph.Name != tc.want {
			t.Errorf("PhaseAt(%v) = %q, want %q", tc.d, ph.Name, tc.want)
		}
	}
	if got := p.PhaseStart(2); got != 300*time.Millisecond {
		t.Errorf("PhaseStart(2) = %v", got)
	}
}

func TestStringRoundTrip(t *testing.T) {
	spec := "clean 500ms -> storm 2s drop=0.05 delayp=1 delay=2ms -> stall 1s stall=1 stalldur=300ms"
	p := MustParse(spec)
	q := MustParse(p.String())
	if len(q.Phases) != len(p.Phases) {
		t.Fatalf("round trip lost phases: %q", p.String())
	}
	for i := range p.Phases {
		if p.Phases[i] != q.Phases[i] {
			t.Errorf("phase %d: %+v != %+v (spec %q)", i, p.Phases[i], q.Phases[i], p.String())
		}
	}
}

// TestEnginePhaseClock drives the engine with a fake clock and checks
// the active schedule flips at phase boundaries.
func TestEnginePhaseClock(t *testing.T) {
	e := NewEngine(MustParse("clean 1s -> storm 1s drop=1 -> clean 0"))
	base := time.Unix(1000, 0)
	now := base
	e.now = func() time.Time { return now }
	e.Start()
	if e.PhaseIndex() != 0 || e.ConnConfig().DropWriteProb != 0 {
		t.Fatalf("phase at t=0: %d %+v", e.PhaseIndex(), e.ConnConfig())
	}
	now = base.Add(1500 * time.Millisecond)
	if e.PhaseIndex() != 1 || e.ConnConfig().DropWriteProb != 1 {
		t.Fatalf("phase at t=1.5s: %d %+v", e.PhaseIndex(), e.ConnConfig())
	}
	now = base.Add(5 * time.Second)
	if e.PhaseIndex() != 2 || !e.Phase().Clean() {
		t.Fatalf("phase at t=5s: %d %+v", e.PhaseIndex(), e.Phase())
	}
}

// TestEngineDynamicConn proves an engine-wrapped connection changes
// behavior across a phase flip without being re-wrapped: writes succeed
// in the clean phase, fail once the fault phase begins, and the
// connection is the same object throughout.
func TestEngineDynamicConn(t *testing.T) {
	e := NewEngine(MustParse("clean 1s -> dead 0 werr=1"))
	base := time.Unix(2000, 0)
	now := base
	e.now = func() time.Time { return now }
	e.Start()

	client, server := net.Pipe()
	defer server.Close()
	wrapped := e.Conn(client)
	defer wrapped.Close()
	go func() { // sink
		buf := make([]byte, 64)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()
	if _, err := wrapped.Write([]byte("ok")); err != nil {
		t.Fatalf("clean-phase write: %v", err)
	}
	now = base.Add(2 * time.Second)
	if _, err := wrapped.Write([]byte("boom")); err == nil {
		t.Fatal("fault-phase write should fail")
	}
}

// TestEngineListener checks accepted connections get engine-scheduled
// wrappers with distinct derived seeds.
func TestEngineListener(t *testing.T) {
	e := NewEngine(MustParse("clean 0"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := e.Listener(ln)
	defer wrapped.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := wrapped.Accept()
		if err != nil {
			done <- nil
			return
		}
		done <- c
	}()
	cl, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sv := <-done
	if sv == nil {
		t.Fatal("accept failed")
	}
	defer sv.Close()
	if _, ok := sv.(*Conn); !ok {
		t.Fatalf("accepted conn is %T, want *Conn", sv)
	}
}

// TestEngineSeedsStable pins the per-connection and per-file seeds: the
// n-th connection an Engine wraps is seeded DeriveSeed(plan seed, n-1),
// exactly the seed the static chaos listener derived for its n-th
// accepted connection, so recorded chaos runs replay the same fault
// streams. The expected seeds are literals, not recomputed.
func TestEngineSeedsStable(t *testing.T) {
	e := NewEngine(&Plan{Seed: 42})
	for n, seed := range []int64{-4767286540954276203, 2949826092126892291, 5139283748462763858} {
		c := e.Conn(&fakeConn{}).(*Conn)
		if got, want := c.rng.Int63(), rand.New(rand.NewSource(seed)).Int63(); got != want {
			t.Errorf("connection %d not seeded %d", n+1, seed)
		}
	}
	for n, seed := range []int64{-5741028276819968005, -145214172877774779} {
		f := e.File(&memSink{}).(*File)
		if got, want := f.rng.Int63(), rand.New(rand.NewSource(seed)).Int63(); got != want {
			t.Errorf("file %d not seeded %d", n+1, seed)
		}
	}
}
