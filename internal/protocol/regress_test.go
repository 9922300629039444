package protocol

import (
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/society/incremental"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// TestSameAPReassociationKeepsSession: re-associating onto the current
// AP is a demand refresh, not a move. The session stays continuous (one
// trace record at the end, carrying all served bytes), the move counter
// does not tick, and the association timestamp survives.
func TestSameAPReassociationKeepsSession(t *testing.T) {
	var fakeMu sync.Mutex
	var fake int64
	var logBuf syncBuffer
	c, err := NewController(baseline.LLF{},
		WithTimeout(testTimeout),
		WithSessionLog(&logBuf),
		WithClock(func() int64 {
			fakeMu.Lock()
			defer fakeMu.Unlock()
			fake += 50
			return fake
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One AP: every re-association necessarily lands on the same AP.
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}

	movesBefore := obs.Default.GetCounter("protocol.assoc.moves").Value()
	st, err := DialStation(addr, "stayer", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Associate(100); err != nil {
		t.Fatal(err)
	}
	if err := st.SendTraffic(70); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(testTimeout)
	for c.Snapshot()["ap1"].ServedBytes != 70 {
		if time.Now().After(deadline) {
			t.Fatalf("traffic not applied: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.mu.Lock()
	firstAt := c.assignedAt["stayer"]
	c.mu.Unlock()

	// Same-AP re-association with a new demand.
	if _, err := st.Associate(250); err != nil {
		t.Fatal(err)
	}
	if err := st.SendTraffic(30); err != nil {
		t.Fatal(err)
	}
	for c.Snapshot()["ap1"].ServedBytes != 100 {
		if time.Now().After(deadline) {
			t.Fatalf("post-refresh traffic not applied: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}

	c.mu.Lock()
	refreshAt := c.assignedAt["stayer"]
	served := c.servedByUsr["stayer"]
	c.mu.Unlock()
	if refreshAt != firstAt {
		t.Errorf("refresh reset assignedAt: %d -> %d", firstAt, refreshAt)
	}
	if served != 100 {
		t.Errorf("refresh lost served bytes: %d, want 100", served)
	}
	if moves := obs.Default.GetCounter("protocol.assoc.moves").Value(); moves != movesBefore {
		t.Errorf("same-AP refresh counted as a move (%d -> %d)", movesBefore, moves)
	}
	// The demand update itself must land in the domain.
	if info, ok := c.dom.Info("ap1"); !ok || info.BelievedBps != 250 {
		t.Errorf("believed demand = %+v (%v), want 250", info, ok)
	}
	if logBuf.String() != "" {
		t.Errorf("refresh emitted a session record: %q", logBuf.String())
	}

	// Disassociating closes ONE session spanning both halves.
	if err := st.Disassociate(); err != nil {
		t.Fatal(err)
	}
	for {
		tr, err := trace.ReadJSONLines(strings.NewReader(logBuf.String()))
		if err == nil && len(tr.Sessions) == 1 {
			s := tr.Sessions[0]
			if s.User != "stayer" || s.AP != "ap1" || s.Bytes != 100 || s.ConnectAt != firstAt {
				t.Errorf("session = %+v, want one continuous ap1 session with 100 bytes from %d", s, firstAt)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("want exactly 1 session, log = %q", logBuf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSameAPRefreshJournalReplayParity: a journal replay of a same-AP
// re-association reproduces the live controller's refresh semantics —
// the session timestamp is not split on recovery either.
func TestSameAPRefreshJournalReplayParity(t *testing.T) {
	dir := t.TempDir()
	var fake int64
	clock := func() int64 { fake += 1000; return fake }
	a, err := NewController(baseline.LLF{},
		WithClock(clock),
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterAP("ap1", 1e6); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Associate("u", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Associate("u", 300); err != nil { // same-AP refresh
		t.Fatal(err)
	}
	a.mu.Lock()
	wantAt := a.assignedAt["u"]
	a.mu.Unlock()
	wantState := a.dom.ExportState()
	wantSnap := a.Snapshot()
	// Crash (no Close); recover in a fresh controller.
	b, err := NewController(baseline.LLF{},
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if rec := b.Recovery(); rec == nil || rec.ReplayErrors != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	b.mu.Lock()
	gotAt := b.assignedAt["u"]
	b.mu.Unlock()
	if gotAt != wantAt {
		t.Errorf("replayed assignedAt = %d, want %d (refresh must not split the session)", gotAt, wantAt)
	}
	if !reflect.DeepEqual(b.dom.ExportState(), wantState) {
		t.Errorf("replayed domain state diverged")
	}
	if !reflect.DeepEqual(b.Snapshot(), wantSnap) {
		t.Errorf("replayed snapshot diverged:\nwant %+v\ngot  %+v", wantSnap, b.Snapshot())
	}
}

// TestAgentDetachedOnProtocolError: when the AP handler exits because
// the agent sent an unexpected message, the connection must be detached
// from the registration (agentConn nil) exactly as on a dropped
// connection — otherwise a later supersede closes a dangling *Conn and
// lease logic believes an agent is still attached.
func TestAgentDetachedOnProtocolError(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := NewConnCodec(raw, testTimeout, CodecBinary)
	if err := conn.Send(Message{Type: MsgHello, Role: RoleAP, ID: "ap-x", CapacityBps: 1e6}); err != nil {
		t.Fatal(err)
	}
	if ok, err := conn.Receive(); err != nil || ok.Type != MsgHelloOK {
		t.Fatalf("hello reply = %+v, %v", ok, err)
	}
	// An AP has no business sending an association request.
	if err := conn.Send(Message{Type: MsgAssoc, DemandBps: 1}); err != nil {
		t.Fatal(err)
	}
	if reply, err := conn.Receive(); err != nil || reply.Type != MsgError {
		t.Fatalf("want MsgError for unexpected message, got %+v, %v", reply, err)
	}
	deadline := time.Now().Add(testTimeout)
	for {
		c.mu.Lock()
		m, ok := c.meta["ap-x"]
		detached := ok && m.agentConn == nil
		c.mu.Unlock()
		if !ok {
			t.Fatal("ap-x registration vanished")
		}
		if detached {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("agentConn still attached after protocol-error exit")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The AP survives on its lease and a fresh agent can take over.
	a2, err := DialAP(addr, "ap-x", 2e6, testTimeout)
	if err != nil {
		t.Fatalf("takeover after protocol-error exit: %v", err)
	}
	defer a2.Close()
	if err := a2.Report(55); err != nil {
		t.Fatal(err)
	}
	for c.Snapshot()["ap-x"].ReportedBps != 55 {
		if time.Now().After(deadline) {
			t.Fatalf("takeover report not applied: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrossCodecAssignmentParity drives the identical workload over the
// JSON port of one controller and the binary port of another and
// requires identical assignments and domain state: the codec is a
// transport detail, never a decision input.
func TestCrossCodecAssignmentParity(t *testing.T) {
	type driven struct {
		ctl  *Controller
		addr string
	}
	controllers := map[Codec]*driven{}
	for _, codec := range []Codec{CodecBinary, CodecJSON} {
		ctl, addr := startController(t, baseline.LLF{})
		controllers[codec] = &driven{ctl, addr}
	}
	for codec, d := range controllers {
		var agents []*APAgent
		for i := 0; i < 3; i++ {
			a, err := DialAPCodec(d.addr, trace.APID(fmt.Sprintf("ap-%d", i)), float64(i+1)*1e6, testTimeout, codec)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			if err := a.Report(float64(i) * 1e5); err != nil {
				t.Fatal(err)
			}
			agents = append(agents, a)
		}
		_ = agents
		// Wait for all reports so both controllers decide on equal state.
		deadline := time.Now().Add(testTimeout)
		for {
			snap := d.ctl.Snapshot()
			ok := len(snap) == 3
			for i := 0; i < 3; i++ {
				st, present := snap[trace.APID(fmt.Sprintf("ap-%d", i))]
				ok = ok && present && st.ReportedBps == float64(i)*1e5
			}
			if ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: reports not applied: %+v", codec, snap)
			}
			time.Sleep(5 * time.Millisecond)
		}
		// Stations stay connected until the comparison: closing one
		// disassociates its user.
		for i := 0; i < 8; i++ {
			st, err := DialStationCodec(defaultDial, d.addr, trace.UserID(fmt.Sprintf("u-%d", i)), testTimeout, codec)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if _, err := st.Associate(float64(100 * (i + 1))); err != nil {
				t.Fatal(err)
			}
			if err := st.SendTraffic(int64(10 * (i + 1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	bin, js := controllers[CodecBinary].ctl, controllers[CodecJSON].ctl
	bin.mu.Lock()
	binAssign := map[trace.UserID]trace.APID{}
	for u, ap := range bin.assignments {
		binAssign[u] = ap
	}
	bin.mu.Unlock()
	js.mu.Lock()
	jsAssign := map[trace.UserID]trace.APID{}
	for u, ap := range js.assignments {
		jsAssign[u] = ap
	}
	js.mu.Unlock()
	if !reflect.DeepEqual(binAssign, jsAssign) {
		t.Errorf("assignments diverged:\nbinary %+v\njson   %+v", binAssign, jsAssign)
	}
	a, _ := json.Marshal(bin.dom.ExportState())
	b, _ := json.Marshal(js.dom.ExportState())
	if string(a) != string(b) {
		t.Errorf("domain state diverged:\nbinary %s\njson   %s", a, b)
	}
}

// TestBinaryPortCrashRecovery: a journaled controller driven entirely
// over the binary wire protocol, abandoned without Close (the kill -9
// equivalent), warm-restarts with byte-identical recovered state.
func TestBinaryPortCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	a, err := NewController(baseline.LLF{},
		WithTimeout(testTimeout),
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		agent, err := DialAP(addr, trace.APID(fmt.Sprintf("ap-%d", i)), float64(i+1)*1e6, testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		defer agent.Close()
	}
	deadline := time.Now().Add(testTimeout)
	for len(a.Snapshot()) != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("agent registrations not applied: %+v", a.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The stations are deliberately left open and never closed: a close
	// would disassociate the user (and journal it) — a kill -9 freezes
	// the world with every association live. They stay reachable until
	// the test returns, since the finalizer of a collected connection
	// would close it; the leaked connections die with the test process.
	var stations []*Station
	for i := 0; i < 6; i++ {
		st, err := DialStation(addr, trace.UserID(fmt.Sprintf("u-%d", i)), testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Associate(float64(50 * (i + 1))); err != nil {
			t.Fatal(err)
		}
		stations = append(stations, st)
	}
	defer runtime.KeepAlive(stations)
	wantState, err := json.Marshal(a.dom.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	wantAssign, _ := json.Marshal(a.assignments)
	a.mu.Unlock()
	// Crash: no Close — journal file handle abandoned, listeners leak
	// until the test process exits.

	b, err := NewController(baseline.LLF{},
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rec := b.Recovery()
	if rec == nil || rec.ReplayErrors != 0 || rec.APs != 3 || rec.Assignments != 6 {
		t.Fatalf("recovery = %+v, want 3 APs, 6 assignments, no errors", rec)
	}
	gotState, err := json.Marshal(b.dom.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if string(gotState) != string(wantState) {
		t.Fatalf("recovered domain state not byte-identical:\nwant %s\ngot  %s", wantState, gotState)
	}
	b.mu.Lock()
	gotAssign, _ := json.Marshal(b.assignments)
	b.mu.Unlock()
	if string(gotAssign) != string(wantAssign) {
		t.Fatalf("recovered assignments not byte-identical:\nwant %s\ngot  %s", wantAssign, gotAssign)
	}
}

// TestDisassocCheckpointConsistency: a checkpoint triggered by the
// disassociation record itself (checkpoint-every-1 forces rotation on
// each append) must capture the user fully removed — assignments,
// assignedAt and servedByUsr together — never a half-deleted ghost.
func TestDisassocCheckpointConsistency(t *testing.T) {
	dir := t.TempDir()
	a, err := NewController(baseline.LLF{},
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways, CheckpointEvery: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterAP("ap1", 1e6); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Associate("ghost", 100); err != nil {
		t.Fatal(err)
	}
	a.disassociate("ghost")
	// Crash without Close; recover from the checkpoint keyed to the
	// disassoc record.
	b, err := NewController(baseline.LLF{},
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.mu.Lock()
	_, inAssign := b.assignments["ghost"]
	_, inAt := b.assignedAt["ghost"]
	_, inServed := b.servedByUsr["ghost"]
	b.mu.Unlock()
	if inAssign || inAt || inServed {
		t.Errorf("recovered ghost user: assignments=%v assignedAt=%v servedByUsr=%v",
			inAssign, inAt, inServed)
	}
}

// TestAssociateSteadyStateAllocs gates the association fast path: a
// steady-state re-association (same user, new demand) through an
// unjournaled, log-quiet controller must not allocate — the AP views,
// the friend lookups, the placement and the commit all run from pooled
// scratch. It runs under LLF and under S³-live (an incremental engine
// as FriendIndex) with 100k residents, u-0's close friends among them.
func TestAssociateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector (sync.Pool drops items)")
	}
	s3live := func(t *testing.T) wlan.Selector {
		cfg := incremental.DefaultConfig()
		cfg.Society.MinEncounters = 1
		cfg.RefreshEvents = 0
		eng := incremental.New(cfg)
		// u-0 co-leaves with five residents: close friends with θ = 1.
		for i := 1; i <= 5; i++ {
			f := trace.UserID(fmt.Sprintf("u-%d", i*1000))
			eng.Connect("u-0", "cafe", int64(i)*10000)
			eng.Connect(f, "cafe", int64(i)*10000)
			if err := eng.Disconnect("u-0", "cafe", int64(i)*10000+3600); err != nil {
				t.Fatal(err)
			}
			if err := eng.Disconnect(f, "cafe", int64(i)*10000+3650); err != nil {
				t.Fatal(err)
			}
		}
		eng.Refresh()
		if n := len(eng.CloseFriends("u-0")); n != 5 {
			t.Fatalf("u-0 has %d close friends, want 5", n)
		}
		sel, err := core.NewSelector(eng, core.DefaultSelectorConfig())
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	for _, tc := range []struct {
		name      string
		selector  func(*testing.T) wlan.Selector
		residents int
	}{
		{"LLF", func(*testing.T) wlan.Selector { return baseline.LLF{} }, 32},
		{"S3-live/100k", s3live, 100_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewController(tc.selector(t))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if err := c.RegisterAP(trace.APID(fmt.Sprintf("ap-%d", i)), 1e6); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < tc.residents; i++ {
				if _, err := c.Associate(trace.UserID(fmt.Sprintf("u-%d", i)), 100); err != nil {
					t.Fatal(err)
				}
			}
			// Warm the pools.
			for i := 0; i < 100; i++ {
				if _, err := c.Associate("u-0", float64(100+i)); err != nil {
					t.Fatal(err)
				}
			}
			var demand float64 = 100
			allocs := testing.AllocsPerRun(200, func() {
				demand += 1
				if _, err := c.Associate("u-0", demand); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("steady-state Associate allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}
