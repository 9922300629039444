package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/experiments"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/metrics"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/society/incremental"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// churn-s3live: one controller deployed as s3-live (the incremental
// social engine as selector index, observer and refresher, seeded from
// the batch-trained default campus), with the journal and admission on.
// Half the campus population is resident; the other half arrives as an
// open loop of short station sessions at a fixed rate well below
// capacity, in the order of the campus's test-day sessions, so friends
// arrive and leave together. Every session dials, associates, sends
// traffic, sometimes re-associates, disassociates and closes: writes sit
// beside reads, and select, observer, refresh, journal, admission and
// connection setup do the work, while views stay small.
const (
	churnRate       = 300  // offered sessions per second, constant
	churnWorkers    = 2    // generator connections open at once, at most
	churnReassocP   = 0.25 // share of sessions that re-associate once
	churnRefresh    = 250 * time.Millisecond
	churnCkptEvery  = 2048
	churnMaxConns   = 64
	churnAssocRate  = 20000
	churnAssocBurst = 2000
)

type churnSession struct {
	user            trace.UserID
	demand, demand2 float64
	bytes           int64
	reassoc         bool
}

type churnInst struct {
	tr        *tracer
	dir       string
	jopts     journal.Options
	ctrl      *protocol.Controller
	sel       wlan.Selector
	addr      string
	aps       []apSpec
	known     map[trace.APID]bool
	residents []resident
	schedule  []churnSession
	next      int // schedule position; the loop continues where it stopped
	trainDur  time.Duration
	wire      wireCounters
	jio       ioCounters

	badAP     int
	shed      int
	attempts  int
	selCalls  int64
	guardFrac float64
	jBytes    int64
	jSyncs    int64
}

func setupChurn(seed int64, tr *tracer) (instance, error) {
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	data, err := experiments.Prepare(cfg, 28)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	model, err := society.Train(data.Train, data.Profiles, society.DefaultConfig())
	if err != nil {
		return nil, err
	}
	in := &churnInst{tr: tr, trainDur: time.Since(t0), known: map[trace.APID]bool{}}
	engine := incremental.New(incremental.DefaultConfig())
	engine.SetTypes(model.Types, model.TypeMatrix)
	engine.Refresh()
	s3, err := core.NewSelector(engine, core.DefaultSelectorConfig())
	if err != nil {
		return nil, err
	}
	in.sel = wrapSelector(s3, tr)
	if in.dir, err = os.MkdirTemp("", "churn-journal-"); err != nil {
		return nil, err
	}
	in.jopts = journal.Options{Fsync: journal.FsyncInterval, CheckpointEvery: churnCkptEvery}
	if tr != nil {
		in.jopts.OpenFile = tracedOpenFile(tr, &in.jio)
	}
	in.ctrl, err = protocol.NewController(in.sel,
		protocol.WithTimeout(ioTimeout),
		protocol.WithObserver(wrapObserver(engine, tr)),
		protocol.WithRefresher(wrapRefresh(func() { engine.Refresh() }, tr), churnRefresh),
		protocol.WithJournal(in.dir, in.jopts),
		protocol.WithAdmission(protocol.Admission{
			MaxConns: churnMaxConns, AssocRate: churnAssocRate, AssocBurst: churnAssocBurst,
		}))
	if err != nil {
		os.RemoveAll(in.dir)
		return nil, err
	}
	for _, ap := range data.Full.Topology.APs {
		if err := in.ctrl.RegisterAP(ap.ID, ap.CapacityBps); err != nil {
			in.close()
			return nil, err
		}
		in.aps = append(in.aps, apSpec{id: ap.ID, capacity: ap.CapacityBps})
		in.known[ap.ID] = true
	}

	rng := rand.New(rand.NewSource(seed))
	users := data.Full.Users()
	rng.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	isResident := map[trace.UserID]bool{}
	for _, u := range users[:len(users)/2] {
		demand := data.Demands.Demand(u)
		ap, err := in.ctrl.Associate(u, demand)
		if err != nil {
			in.close()
			return nil, err
		}
		in.residents = append(in.residents, resident{user: u, ap: ap, demand: demand})
		isResident[u] = true
	}
	test := append([]trace.Session(nil), data.Test.Sessions...)
	sort.SliceStable(test, func(i, j int) bool { return test[i].ConnectAt < test[j].ConnectAt })
	for _, s := range test {
		if isResident[s.User] {
			continue
		}
		demand := data.Demands.Demand(s.User)
		in.schedule = append(in.schedule, churnSession{
			user:    s.User,
			demand:  demand,
			demand2: demand * (0.5 + rng.Float64()),
			bytes:   int64(demand), // one second of the user's demand
			reassoc: rng.Float64() < churnReassocP,
		})
	}
	if len(in.schedule) == 0 {
		in.close()
		return nil, errors.New("campus test split has no non-resident sessions")
	}
	if in.addr, err = in.ctrl.Listen("127.0.0.1:0"); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

type churnTally struct {
	join, assoc []time.Duration
	joinAt      []time.Duration // due time of each joined session
	late        []time.Duration
	sessions    int
	attempted   int
	failed      int
	shed        int
	badAP       int
	busy        time.Duration
}

// measure runs the open loop: session k of the window is due at
// start + k/churnRate and goes to the worker its user hashes to, so one
// user never has two sessions in flight. Latency counts from the due
// time, so a stall delays every session queued behind it.
func (in *churnInst) measure(d time.Duration) (*phase, error) {
	interval := time.Second / churnRate
	n := int(d / interval)
	queues := make([][]int, churnWorkers)
	for k := 0; k < n; k++ {
		s := in.schedule[(in.next+k)%len(in.schedule)]
		w := int(domain.Hash(string(s.user)) % churnWorkers)
		queues[w] = append(queues[w], k)
	}
	first := in.next
	in.next += n

	served0 := in.served()
	sel0 := selectorCalls(in.sel)
	guard0, calls0 := counter("core.select.guard_fallbacks"), counter("core.select.calls")
	bytes0, syncs0 := in.jio.bytes.Load(), in.jio.syncs.Load()
	fsync0, ckpt0 := markHist("journal.fsync"), markHist("journal.checkpoint")

	tallies := make([]churnTally, churnWorkers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range queues {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := &tallies[w]
			for _, k := range queues[w] {
				due := start.Add(time.Duration(k) * interval)
				waitUntil(due)
				t.late = append(t.late, time.Since(due))
				began := time.Now()
				in.session(in.schedule[(first+k)%len(in.schedule)], due, start, t)
				t.busy += time.Since(began)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var m churnTally
	for _, t := range tallies {
		m.join = append(m.join, t.join...)
		m.joinAt = append(m.joinAt, t.joinAt...)
		m.assoc = append(m.assoc, t.assoc...)
		m.late = append(m.late, t.late...)
		m.sessions += t.sessions
		m.attempted += t.attempted
		m.failed += t.failed
		m.shed += t.shed
		m.badAP += t.badAP
		m.busy += t.busy
	}
	in.badAP += m.badAP
	in.shed, in.attempts = m.shed, m.sessions+m.failed
	in.selCalls = selectorCalls(in.sel) - sel0
	if dc := counter("core.select.calls") - calls0; dc > 0 {
		in.guardFrac = float64(counter("core.select.guard_fallbacks")-guard0) / float64(dc)
	}
	in.jBytes, in.jSyncs = in.jio.bytes.Load()-bytes0, in.jio.syncs.Load()-syncs0

	// With at most two sessions open at once, arrivals never overlap,
	// so every lone arrival goes where the policy sends a lone user and
	// the bytes credited inside the window pile onto a few APs; that
	// index is printed, but balance_index is the load balance of the
	// whole placed population, as on the other live workloads.
	served1 := in.served()
	loads := make([]float64, 0, len(in.aps))
	for _, a := range in.aps {
		loads = append(loads, float64(served1[a.id]-served0[a.id]))
	}
	servedBal, err := metrics.BalanceIndex(loads)
	if err != nil {
		return nil, fmt.Errorf("balance index: %w", err)
	}
	bal, err := snapshotBalance(in.ctrl.Snapshot(), in.loadLedger())
	if err != nil {
		return nil, fmt.Errorf("balance index: %w", err)
	}

	ph := &phase{op: m.join, at: m.joinAt, attempted: m.sessions + m.failed, failed: m.failed, elapsed: elapsed,
		balance: bal, busy: m.busy / churnWorkers}
	sj, sa := sortedCopy(m.join), sortedCopy(m.assoc)
	ph.add("join_p50_us", "us", micros(quantile(sj, 0.5)))
	ph.add("join_p99_us", "us", micros(quantile(sj, 0.99)))
	ph.add("assoc_p50_us", "us", micros(quantile(sa, 0.5)))
	ph.add("assoc_p99_us", "us", micros(quantile(sa, 0.99)))
	ph.add("sessions_per_s", "1/s", float64(m.sessions)/elapsed.Seconds())
	ph.add("offered_sessions_per_s", "1/s", churnRate)
	ph.add("served_balance_index", "ratio", servedBal)
	addHistDelta(ph, "journal.fsync", fsync0)
	addHistDelta(ph, "journal.checkpoint", ckpt0)
	sl := sortedCopy(m.late)
	ph.add("loadgen.late_p50_us", "us", micros(quantile(sl, 0.5)))
	ph.add("loadgen.late_p99_us", "us", micros(quantile(sl, 0.99)))
	return ph, nil
}

func (in *churnInst) served() map[trace.APID]int64 {
	out := make(map[trace.APID]int64, len(in.aps))
	for id, st := range in.ctrl.Snapshot() {
		out[id] = st.ServedBytes
	}
	return out
}

// session runs one station session; a failure ends it and is counted.
func (in *churnInst) session(s churnSession, due, origin time.Time, t *churnTally) {
	tr := in.tr
	var req int64
	if tr != nil {
		req = tr.newReq()
		tr.bind(s.user, req)
	}
	began := time.Now()
	fail := func(err error) {
		t.failed++
		var busy *protocol.BusyError
		if errors.As(err, &busy) {
			t.shed++
		}
	}
	defer func() {
		if tr != nil {
			tr.add("op.session", began.Sub(tr.epoch), tr.now(), req)
		}
	}()
	st, err := protocol.DialStationCodec(dialer(tr, &in.wire, req, nil),
		in.addr, s.user, ioTimeout, protocol.CodecBinary)
	if err != nil {
		fail(err)
		return
	}
	defer st.Close()
	demands := []float64{s.demand}
	if s.reassoc {
		demands = append(demands, s.demand2)
	}
	for i, demand := range demands {
		t.attempted++
		t0 := time.Now()
		ap, err := st.Associate(demand)
		if err != nil {
			fail(err)
			return
		}
		t.assoc = append(t.assoc, time.Since(t0))
		if i == 0 {
			t.join = append(t.join, time.Since(due))
			t.joinAt = append(t.joinAt, due.Sub(origin))
			if err := st.SendTraffic(s.bytes); err != nil {
				fail(err)
				return
			}
		}
		if !in.known[ap] {
			t.badAP++
		}
	}
	if err := st.Disassociate(); err != nil {
		fail(err)
		return
	}
	t.sessions++
}

// loadLedger is the ledger plus every session user's demand, so a
// session still placed when the snapshot is taken counts its load.
func (in *churnInst) loadLedger() map[trace.UserID]resident {
	m := in.ledger()
	for _, s := range in.schedule {
		if _, ok := m[s.user]; !ok {
			m[s.user] = resident{user: s.user, demand: s.demand}
		}
	}
	return m
}

// waitUntil returns at t: it sleeps while more than a millisecond is
// left, because the runtime's timers wake up to a millisecond late, and
// yields the processor for the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func (in *churnInst) ledger() map[trace.UserID]resident {
	m := make(map[trace.UserID]resident, len(in.residents))
	for _, r := range in.residents {
		m[r.user] = r
	}
	return m
}

// check verifies that only the residents remain placed once the loop
// drains, then closes the controller and reopens its journal in a fresh
// controller, whose recovery must hold exactly the residents.
func (in *churnInst) check(rep *report) error {
	if in.badAP > 0 {
		return fmt.Errorf("%d MsgAssign replies named an unregistered AP", in.badAP)
	}
	ledger := in.ledger()
	var err error
	for deadline := time.Now().Add(3 * time.Second); ; {
		if err = checkLedger(in.ctrl.Snapshot(), ledger); err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return err
	}
	if err := in.ctrl.Close(); err != nil {
		return fmt.Errorf("close controller: %w", err)
	}
	fresh, err := protocol.NewController(baseline.LLF{}, protocol.WithJournal(in.dir, journal.Options{Fsync: journal.FsyncInterval}))
	if err != nil {
		return fmt.Errorf("reopen journal: %w", err)
	}
	defer fresh.Close()
	sum := fresh.Recovery()
	if sum == nil {
		return errors.New("reopened controller reports no recovery")
	}
	if sum.Assignments != len(in.residents) || sum.ReplayErrors != 0 {
		return fmt.Errorf("recovery holds %d assignments with %d replay errors; want %d residents and 0",
			sum.Assignments, sum.ReplayErrors, len(in.residents))
	}
	if err := checkLedger(fresh.Snapshot(), ledger); err != nil {
		return fmt.Errorf("recovered state: %w", err)
	}
	rep.metric("journal.recovered_assignments", "count", float64(sum.Assignments))
	return nil
}

func (in *churnInst) probe(ph *phase, rep *report) error {
	tr := in.tr
	server := tr.spanP50("protocol.server")
	rep.metric("protocol.server_us", "us", micros(server))
	rep.set("protocol.wire_bytes_per_op", float64(in.wire.written.Load()+in.wire.read.Load())/float64(len(ph.op)))
	rep.set("protocol.shed_ratio", ratio(in.shed, in.attempts))
	rep.set("core.select_calls_per_op", float64(in.selCalls)/float64(len(ph.op)))
	rep.set("core.guard_fallback_ratio", in.guardFrac)
	rep.set("journal.bytes_per_op", float64(in.jBytes)/float64(len(ph.op)))
	rep.set("journal.syncs_per_s", float64(in.jSyncs)/ph.elapsed.Seconds())
	rep.set("federation.relay_errors", 0)
	rep.metric("society.observe_us", "us", micros(tr.spanP50("society.observe")))
	rep.metric("society.refresh_ms_p50", "ms", millis(tr.spanP50("society.refresh")))
	rep.metric("society.refresh_ms_max", "ms", millis(tr.spanMax("society.refresh")))
	rep.metric("society.train_ms", "ms", millis(in.trainDur))

	var recs []journal.Record
	for i := 0; i < 2000; i++ {
		s := in.schedule[i%len(in.schedule)]
		if i%2 == 0 {
			recs = append(recs, journal.Record{Op: journal.OpAssoc, TS: int64(i),
				Placements: []journal.Placement{{User: s.user, AP: in.aps[i%len(in.aps)].id, DemandBps: s.demand}}})
		} else {
			recs = append(recs, journal.Record{Op: journal.OpDisassoc, TS: int64(i), User: s.user})
		}
	}
	dir, err := os.MkdirTemp("", "churn-journal-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := probeJournal(rep, dir, journal.Options{Fsync: journal.FsyncInterval}, recs); err != nil {
		return err
	}
	u := string(in.schedule[0].user)
	mix := []protocol.Message{
		{Type: protocol.MsgHello, Role: protocol.RoleStation, ID: u},
		{Type: protocol.MsgHelloOK, ID: u},
		{Type: protocol.MsgAssoc, User: u, DemandBps: in.schedule[0].demand},
		{Type: protocol.MsgAssign, User: u, AP: string(in.aps[0].id)},
		{Type: protocol.MsgTraffic, AP: string(in.aps[0].id), Bytes: in.schedule[0].bytes},
		{Type: protocol.MsgDisassoc, User: u},
	}
	if err := probeCodec(rep, mix); err != nil {
		return err
	}
	return probeDomain(rep, in.aps, in.residents)
}

func (in *churnInst) close() error {
	var err error
	if in.ctrl != nil {
		err = in.ctrl.Close()
	}
	if rerr := os.RemoveAll(in.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}
