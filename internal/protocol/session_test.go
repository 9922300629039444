package protocol

// Session ownership tests: the placement table is the only record of a
// live session, so the checkpoint it derives must match the format the
// per-user maps once produced, and replay must run the live paths'
// bookkeeping in the live order.

import (
	"bytes"
	"os"
	"reflect"
	"sync"
	"testing"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// pinSelector places every user where the test says: Select returns to,
// SelectBatch returns batch.
type pinSelector struct {
	to    trace.APID
	batch map[trace.UserID]trace.APID
}

func (s *pinSelector) Name() string { return "pin" }

func (s *pinSelector) Select(wlan.Request, []wlan.APView) (trace.APID, error) { return s.to, nil }

func (s *pinSelector) SelectBatch([]wlan.Request, []wlan.APView) (map[trace.UserID]trace.APID, error) {
	return s.batch, nil
}

// eventLog records observer events in delivery order.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) Connect(u trace.UserID, ap trace.APID, ts int64) {
	l.mu.Lock()
	l.events = append(l.events, "connect "+string(u)+" "+string(ap))
	l.mu.Unlock()
}

func (l *eventLog) Disconnect(u trace.UserID, ap trace.APID, ts int64) error {
	l.mu.Lock()
	l.events = append(l.events, "disconnect "+string(u)+" "+string(ap))
	l.mu.Unlock()
	return nil
}

// TestJournalReplayOrderMatchesLive: recovering from the records alone
// (no checkpoint) delivers the observer exactly the event sequence the
// live controller delivered — for a batch that moves two users, every
// disconnect before every connect.
func TestJournalReplayOrderMatchesLive(t *testing.T) {
	dir := t.TempDir()
	sel := &pinSelector{}
	live := &eventLog{}
	a, err := NewController(sel, WithObserver(live),
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	for _, ap := range []trace.APID{"ap-a", "ap-b"} {
		if err := a.RegisterAP(ap, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	reqs := []wlan.Request{{User: "u1", DemandBps: 10}, {User: "u2", DemandBps: 20}}
	for _, ap := range []trace.APID{"ap-a", "ap-b"} {
		sel.batch = map[trace.UserID]trace.APID{"u1": ap, "u2": ap}
		if _, err := a.AssociateBatch(reqs); err != nil {
			t.Fatal(err)
		}
	}
	live.mu.Lock()
	want := append([]string(nil), live.events...)
	live.mu.Unlock()
	if len(want) != 6 {
		t.Fatalf("live events = %v, want 2 connects then a 4-event move", want)
	}

	// Crash (no Close, so no shutdown checkpoint) and recover.
	replayed := &eventLog{}
	b, err := NewController(sel, WithObserver(replayed),
		WithJournal(dir, journal.Options{Fsync: journal.FsyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if rec := b.Recovery(); rec.Stats.CheckpointSeq != 0 || rec.ReplayErrors != 0 {
		t.Fatalf("recovery = %+v, want a checkpoint-free replay without errors", rec)
	}
	if !reflect.DeepEqual(replayed.events, want) {
		t.Fatalf("replayed events:\n%v\nlive events:\n%v", replayed.events, want)
	}
}

// goldenScript drives a controller through static registrations, a
// move, a same-AP refresh, traffic and a disassociation on a fixed clock,
// with no observer, and returns it with its session log.
func goldenScript(t *testing.T) (*Controller, *bytes.Buffer) {
	t.Helper()
	var now int64 = 100
	var logBuf bytes.Buffer
	sel := &pinSelector{}
	c, err := NewController(sel, WithClock(func() int64 { return now }), WithSessionLog(&logBuf))
	if err != nil {
		t.Fatal(err)
	}
	for _, ap := range []struct {
		id  trace.APID
		cap float64
	}{{"ap-a", 1e6}, {"ap-b", 2e6}, {"ap-c", 0}} {
		if err := c.RegisterAP(ap.id, ap.cap); err != nil {
			t.Fatal(err)
		}
	}
	assoc := func(ts int64, u trace.UserID, ap trace.APID, demand float64) {
		now, sel.to = ts, ap
		if got, err := c.Associate(u, demand); err != nil || got != ap {
			t.Fatalf("associate %s: %v, %v", u, got, err)
		}
	}
	traffic := func(u trace.UserID, bytes int64) {
		if !c.creditTraffic(u, bytes) {
			t.Fatalf("traffic from %s rejected", u)
		}
	}
	assoc(110, "u1", "ap-a", 100)
	assoc(120, "u2", "ap-a", 200)
	assoc(130, "u3", "ap-b", 300)
	traffic("u1", 500)
	traffic("u2", 700)
	traffic("u3", 900)
	assoc(140, "u1", "ap-b", 150) // move
	traffic("u1", 50)
	assoc(150, "u2", "ap-a", 250) // same-AP refresh
	traffic("u2", 30)
	now = 160
	c.disassociate("u3")
	assoc(170, "u4", "ap-c", 400)
	return c, &logBuf
}

// TestJournalGoldenCheckpoint pins the checkpoint format. The files in
// testdata were written by the controller that kept per-user session
// maps beside the placement table, from the same script. Deriving those
// maps from the table must reproduce the bytes, and restoring them and
// forcing a checkpoint must reproduce them again, with every session's
// start and served bytes and the snapshot intact. The session log is
// pinned the same way.
func TestJournalGoldenCheckpoint(t *testing.T) {
	want, err := os.ReadFile("testdata/checkpoint-golden.json")
	if err != nil {
		t.Fatal(err)
	}
	wantLog, err := os.ReadFile("testdata/session-log-golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	c, logBuf := goldenScript(t)
	var got bytes.Buffer
	c.mu.Lock()
	err = c.writeCheckpointLocked(&got)
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("scripted checkpoint:\n%s\nwant:\n%s", got.Bytes(), want)
	}
	if !bytes.Equal(logBuf.Bytes(), wantLog) {
		t.Errorf("session log:\n%s\nwant:\n%s", logBuf.Bytes(), wantLog)
	}
	if tr, err := trace.ReadJSONLines(bytes.NewReader(logBuf.Bytes())); err != nil || len(tr.Sessions) != 2 {
		t.Errorf("session log does not parse as two sessions: %v", err)
	}

	r, err := NewController(baseline.LLF{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreCheckpoint(want); err != nil {
		t.Fatal(err)
	}
	wantSessions := sessionState{
		assignments: map[trace.UserID]trace.APID{"u1": "ap-b", "u2": "ap-a", "u4": "ap-c"},
		assignedAt:  map[trace.UserID]int64{"u1": 140, "u2": 120, "u4": 170},
		servedByUsr: map[trace.UserID]int64{"u1": 50, "u2": 730, "u4": 0},
	}
	if got := sessionMaps(r); !reflect.DeepEqual(got, wantSessions) {
		t.Errorf("restored sessions = %+v, want %+v", got, wantSessions)
	}
	if got, want := r.Snapshot(), c.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored snapshot = %+v, want %+v", got, want)
	}

	// Force a checkpoint through a journal: Close writes one.
	dir := t.TempDir()
	if _, err := r.AttachJournal(dir, journal.Options{Fsync: journal.FsyncOff}, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	j, rec, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !bytes.Equal(rec.Checkpoint, want) {
		t.Errorf("forced checkpoint after restore:\n%s\nwant:\n%s", rec.Checkpoint, want)
	}
}
