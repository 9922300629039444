package protocol

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

const testTimeout = 5 * time.Second

func startController(t *testing.T, sel wlan.Selector) (*Controller, string) {
	t.Helper()
	c, err := NewController(sel, WithTimeout(testTimeout))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, addr
}

func TestControllerRequiresSelector(t *testing.T) {
	if _, err := NewController(nil); err == nil {
		t.Error("nil selector should error")
	}
}

func TestAPRegistrationAndReports(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	agent, err := DialAP(addr, "ap1", 1e6, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if err := agent.Report(1234); err != nil {
		t.Fatal(err)
	}
	// Reports are applied asynchronously; poll the snapshot.
	deadline := time.Now().Add(testTimeout)
	for {
		snap := c.Snapshot()
		if st, ok := snap["ap1"]; ok && st.ReportedBps == 1234 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("report not applied: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDuplicateAPTakesOver: a second agent hello for the same AP is a
// renewal that supersedes the previous connection (a half-open TCP
// session is indistinguishable from a live one, so the newest agent
// wins), never a permanent "already registered" rejection.
func TestDuplicateAPTakesOver(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	a1, err := DialAP(addr, "ap1", 1e6, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	a2, err := DialAP(addr, "ap1", 2e6, testTimeout)
	if err != nil {
		t.Fatalf("re-hello should take over, got %v", err)
	}
	defer a2.Close()
	if err := a2.Report(777); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(testTimeout)
	for {
		snap := c.Snapshot()
		if st, ok := snap["ap1"]; ok && st.ReportedBps == 777 && st.CapacityBps == 2e6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("takeover not applied: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(c.Snapshot()) != 1 {
		t.Errorf("AP registered more than once: %+v", c.Snapshot())
	}
	// A static registration is not up for takeover by agents.
	if err := c.RegisterAP("ap-static", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := DialAP(addr, "ap-static", 1e6, testTimeout); err == nil {
		t.Error("agent hello for a statically registered AP should fail")
	}
}

func TestStationAssociationLifecycle(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	if err := c.RegisterAP("ap1", 1e6); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterAP("ap2", 1e6); err != nil {
		t.Fatal(err)
	}

	st, err := DialStation(addr, "user-1", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ap, err := st.Associate(100)
	if err != nil {
		t.Fatal(err)
	}
	if ap != "ap1" && ap != "ap2" {
		t.Fatalf("assigned to unknown AP %q", ap)
	}
	if st.AP() != ap {
		t.Error("station should remember its AP")
	}
	if err := st.SendTraffic(5000); err != nil {
		t.Fatal(err)
	}
	if err := st.Disassociate(); err != nil {
		t.Fatal(err)
	}
	// After disassociation the user is gone from the snapshot.
	deadline := time.Now().Add(testTimeout)
	for {
		snap := c.Snapshot()
		total := 0
		for _, s := range snap {
			total += len(s.Users)
		}
		if total == 0 && snap[ap].ServedBytes == 5000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("state not settled: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Traffic before re-association is rejected client-side.
	if err := st.SendTraffic(1); err == nil {
		t.Error("traffic without association should error")
	}
}

func TestLLFBalancesStations(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterAP("ap2", 0); err != nil {
		t.Fatal(err)
	}
	var stations []*Station
	for _, u := range []trace.UserID{"u1", "u2", "u3", "u4"} {
		st, err := DialStation(addr, u, testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.Associate(100); err != nil {
			t.Fatal(err)
		}
		stations = append(stations, st)
	}
	counts := map[trace.APID]int{}
	for _, st := range stations {
		counts[st.AP()]++
	}
	if counts["ap1"] != 2 || counts["ap2"] != 2 {
		t.Errorf("LLF placement = %v, want 2/2", counts)
	}
}

func TestS3DispersesFriendsOverTCP(t *testing.T) {
	// Two tight friends and an unrelated user: the S³ controller must put
	// the friends on different APs.
	model := &society.Model{PairProb: map[society.Pair]float64{society.MakePair("alice", "bob"): 0.9}}
	sel, err := core.NewSelector(model, core.DefaultSelectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, addr := startController(t, sel)
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterAP("ap2", 0); err != nil {
		t.Fatal(err)
	}

	assign := func(user trace.UserID) trace.APID {
		st, err := DialStation(addr, user, testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		ap, err := st.Associate(100)
		if err != nil {
			t.Fatal(err)
		}
		return ap
	}
	apAlice := assign("alice")
	apBob := assign("bob")
	if apAlice == apBob {
		t.Errorf("friends colocated on %s", apAlice)
	}
}

func TestAssociateWithoutAPs(t *testing.T) {
	_, addr := startController(t, baseline.LLF{})
	st, err := DialStation(addr, "u", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Associate(10); err == nil {
		t.Error("association without APs should fail")
	}
}

func TestBadHello(t *testing.T) {
	_, addr := startController(t, baseline.LLF{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := NewConnCodec(raw, testTimeout, CodecJSON)
	// Wrong first message type.
	if err := conn.Send(Message{Type: MsgReport}); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != MsgError {
		t.Errorf("reply = %s, want error", reply.Type)
	}
}

func TestUnknownRoleRejected(t *testing.T) {
	_, addr := startController(t, baseline.LLF{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := NewConnCodec(raw, testTimeout, CodecJSON)
	if err := conn.Send(Message{Type: MsgHello, Role: "bogus", ID: "x"}); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != MsgError || !strings.Contains(reply.Error, "unknown role") {
		t.Errorf("reply = %+v", reply)
	}
}

func TestMalformedFrame(t *testing.T) {
	_, addr := startController(t, baseline.LLF{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	// The controller drops the connection; a follow-up read sees EOF.
	buf := make([]byte, 64)
	raw.SetReadDeadline(time.Now().Add(testTimeout))
	if _, err := raw.Read(buf); err == nil {
		// Either an error frame or a close is acceptable; a successful
		// read must carry an error message.
		if !strings.Contains(string(buf), "error") {
			t.Errorf("unexpected reply to garbage: %q", buf)
		}
	}
}

func TestControllerReassociation(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterAP("ap2", 0); err != nil {
		t.Fatal(err)
	}
	st, err := DialStation(addr, "u", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Associate(100); err != nil {
		t.Fatal(err)
	}
	// Re-associate: the user must exist exactly once.
	if _, err := st.Associate(100); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	total := 0
	for _, s := range snap {
		total += len(s.Users)
	}
	if total != 1 {
		t.Errorf("user present %d times after re-association", total)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		c := NewConnCodec(server, 0, CodecJSON)
		m, err := c.Receive()
		if err != nil {
			return
		}
		_ = c.Send(m) // echo
	}()
	c := NewConnCodec(client, 0, CodecJSON)
	want := Message{Type: MsgAssign, User: "u", AP: "ap1", DemandBps: 42.5}
	if err := c.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
}

// TestOnlineLearnerIntegration wires a society.OnlineLearner into the
// controller and verifies the live association lifecycle feeds it.
func TestOnlineLearnerIntegration(t *testing.T) {
	learnerCfg := society.DefaultConfig()
	learnerCfg.MinEncounters = 1
	learnerCfg.MinEncounterSeconds = 10
	learner := society.NewOnlineLearner(learnerCfg)

	var fake int64
	c, err := NewController(baseline.LLF{},
		WithTimeout(testTimeout),
		WithObserver(learner),
		WithClock(func() int64 { fake += 100; return fake }),
	)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}

	// Two stations associate on the same AP, then leave back to back.
	var stations []*Station
	for _, u := range []trace.UserID{"a", "b"} {
		st, err := DialStation(addr, u, testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.Associate(10); err != nil {
			t.Fatal(err)
		}
		stations = append(stations, st)
	}
	for _, st := range stations {
		if err := st.Disassociate(); err != nil {
			t.Fatal(err)
		}
	}
	// Disassociations are handled asynchronously; wait for both.
	deadline := time.Now().Add(testTimeout)
	for {
		open, pairs, _ := learner.Stats()
		if open == 0 && pairs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("learner did not settle: open=%d pairs=%d", open, pairs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	m := learner.Model()
	p := society.MakePair("a", "b")
	if m.Encounters[p] == 0 {
		t.Error("learner should have recorded the encounter")
	}
	if m.CoLeaves[p] == 0 {
		t.Error("learner should have recorded the co-leaving")
	}
}

// TestSessionLogProducesParsableTrace verifies the controller's login log
// round-trips through the trace codec — the prototype collects the same
// records the paper's data center did.
func TestSessionLogProducesParsableTrace(t *testing.T) {
	var logBuf syncBuffer
	var fake int64
	c, err := NewController(baseline.LLF{},
		WithTimeout(testTimeout),
		WithSessionLog(&logBuf),
		WithClock(func() int64 { fake += 50; return fake }),
	)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}

	st, err := DialStation(addr, "logger-user", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Associate(10); err != nil {
		t.Fatal(err)
	}
	if err := st.SendTraffic(4096); err != nil {
		t.Fatal(err)
	}
	if err := st.Disassociate(); err != nil {
		t.Fatal(err)
	}
	// The log is written on the station goroutine; wait for it.
	deadline := time.Now().Add(testTimeout)
	for logBuf.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no session logged")
		}
		time.Sleep(5 * time.Millisecond)
	}
	tr, err := trace.ReadJSONLines(strings.NewReader(logBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(tr.Sessions))
	}
	s := tr.Sessions[0]
	if s.User != "logger-user" || s.AP != "ap1" || s.Bytes != 4096 {
		t.Errorf("logged session = %+v", s)
	}
	if s.DisconnectAt <= s.ConnectAt {
		t.Errorf("session times = %d..%d", s.ConnectAt, s.DisconnectAt)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for the session log.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
