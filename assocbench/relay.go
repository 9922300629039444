package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/federation"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// relay-2node: two federation nodes in one process share a cluster root;
// group 0's 16 APs and 256 residents live on its owner, and two stations
// whose users hash to group 0 dial the other node, so every message
// crosses one relay hop. Each station reconnects (with a fresh user)
// after relayAssocsPerConn associations, so relay setup recurs but takes
// a minority of the time. The relay, the doubled codec and the
// replicated journal's per-append flush do the work; views and select
// do almost none.
const (
	relayNodes          = 2
	relayAPs            = 16
	relayResidents      = 256
	relayStations       = 2
	relayAssocsPerConn  = 50
	relayAPCapacity     = 12e6
	relaySettleTimeout  = 10 * time.Second
	relayCatchUpTimeout = 5 * time.Second
	maxFailStreak       = 20
)

type relayInst struct {
	tr        *tracer
	root      string
	own       *federation.Ownership
	nodes     []*federation.Node
	addrs     []string
	owner     int // index of the node owning group 0; the other relays
	ctrl      *protocol.Controller
	aps       []apSpec
	known     map[trace.APID]bool
	residents []resident
	rng       *rand.Rand
	userSeq   []int // per station: next candidate user number
	wire      wireCounters
	jio       ioCounters

	smu  sync.Mutex
	sels []wlan.Selector // every selector the nodes built

	badAP      int
	takeovers  int64 // federation.takeovers moved inside a window
	relayErrs  int64
	selCalls   int64
	jBytes     int64
	jSyncs     int64
	lagSamples []time.Duration
}

func setupRelay(seed int64, tr *tracer) (instance, error) {
	root, err := os.MkdirTemp("", "relay2node-")
	if err != nil {
		return nil, err
	}
	in := &relayInst{tr: tr, root: root, known: map[trace.APID]bool{}, rng: rand.New(rand.NewSource(seed))}
	names := []string{"node-0", "node-1"}
	if in.own, err = federation.DefaultOwnership(names, relayNodes); err != nil {
		in.close()
		return nil, err
	}
	jopts := journal.Options{Fsync: journal.FsyncInterval, CheckpointEvery: 4096}
	if tr != nil {
		jopts.OpenFile = tracedOpenFile(tr, &in.jio)
	}
	for _, name := range names {
		n, err := federation.NewNode(federation.Config{
			NodeID:      name,
			Root:        root,
			Ownership:   in.own,
			NewSelector: in.newSelector,
			Journal:     jopts,
			Timeout:     ioTimeout,
		})
		if err != nil {
			in.close()
			return nil, err
		}
		in.nodes = append(in.nodes, n)
		addr, err := n.Listen("127.0.0.1:0")
		if err != nil {
			in.close()
			return nil, err
		}
		in.addrs = append(in.addrs, addr)
	}
	for g := 0; g < relayNodes; g++ {
		if _, err := in.nodes[0].WaitOwner(g, relaySettleTimeout); err != nil {
			in.close()
			return nil, err
		}
	}
	for i, n := range in.nodes {
		if c, owned := n.Controller(0); owned {
			in.owner, in.ctrl = i, c
		}
	}
	if in.ctrl == nil {
		in.close()
		return nil, errors.New("group 0 has a lease but no owning node")
	}
	for i := 0; len(in.aps) < relayAPs; i++ {
		id := trace.APID(fmt.Sprintf("ap-%d", i))
		if in.own.GroupOfAP(id) != 0 {
			continue
		}
		if err := in.ctrl.RegisterAP(id, relayAPCapacity); err != nil {
			in.close()
			return nil, err
		}
		in.aps = append(in.aps, apSpec{id: id, capacity: relayAPCapacity})
		in.known[id] = true
	}
	for i := 0; len(in.residents) < relayResidents; i++ {
		u := trace.UserID(fmt.Sprintf("res-%d", i))
		if in.own.GroupOfUser(u) != 0 {
			continue
		}
		demand := 500 + in.rng.Float64()*4500
		ap, err := in.ctrl.Associate(u, demand)
		if err != nil {
			in.close()
			return nil, err
		}
		in.residents = append(in.residents, resident{user: u, ap: ap, demand: demand})
	}
	in.userSeq = make([]int, relayStations)
	if err := in.waitCaughtUp(); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func (in *relayInst) newSelector() wlan.Selector {
	sel := wrapSelector(baseline.LLF{}, in.tr)
	in.smu.Lock()
	in.sels = append(in.sels, sel)
	in.smu.Unlock()
	return sel
}

func (in *relayInst) selectorCalls() int64 {
	in.smu.Lock()
	defer in.smu.Unlock()
	var n int64
	for _, s := range in.sels {
		n += selectorCalls(s)
	}
	return n
}

// followSeq is the replication position of group 0 on the non-owner.
func (in *relayInst) followSeq() uint64 {
	return in.nodes[1-in.owner].Health().Groups[0].FollowSeq
}

// waitCaughtUp waits for the follower to reach the owner's journal head.
func (in *relayInst) waitCaughtUp() error {
	deadline := time.Now().Add(relayCatchUpTimeout)
	for {
		head := in.ctrl.JournalSeq()
		fol := in.followSeq()
		if fol >= head {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at seq %d, owner at %d after %v", fol, head, relayCatchUpTimeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// nextUser returns the station's next fresh user of group 0. A fresh
// user per connection keeps a closed session's server-side teardown
// from racing the next session's association.
func (in *relayInst) nextUser(station int) trace.UserID {
	for {
		u := trace.UserID(fmt.Sprintf("sta%d-%d", station, in.userSeq[station]))
		in.userSeq[station]++
		if in.own.GroupOfUser(u) == 0 {
			return u
		}
	}
}

type relayTally struct {
	origin      time.Time // start of the window
	assoc, join []time.Duration
	assocAt     []time.Duration // when each association began
	sessions    int
	attempted   int
	failed      int
	badAP       int
	busy        time.Duration
	err         error
}

// drive runs the closed loop against addr for d.
func (in *relayInst) drive(addr string, d time.Duration) (relayTally, time.Duration) {
	demands := make([][]float64, relayStations)
	for i := range demands {
		for k := 0; k < 1024; k++ {
			demands[i] = append(demands[i], 500+in.rng.Float64()*4500)
		}
	}
	tallies := make([]relayTally, relayStations)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range tallies {
		tallies[i].origin = start
	}
	for i := 0; i < relayStations; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := &tallies[i]
			k, streak := 0, 0
			for time.Now().Before(deadline) {
				// A failed op ends its session and is counted; only a
				// run of failures (the cluster is down) aborts the run.
				err := in.session(i, addr, demands[i], &k, t)
				if err == nil {
					streak = 0
					continue
				}
				if streak++; streak >= maxFailStreak {
					t.err = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	return mergeRelay(tallies), time.Since(start)
}

func mergeRelay(ts []relayTally) relayTally {
	var m relayTally
	var errs []error
	for _, t := range ts {
		m.assoc = append(m.assoc, t.assoc...)
		m.assocAt = append(m.assocAt, t.assocAt...)
		m.join = append(m.join, t.join...)
		m.sessions += t.sessions
		m.attempted += t.attempted
		m.failed += t.failed
		m.badAP += t.badAP
		m.busy += t.busy
		if t.err != nil {
			errs = append(errs, t.err)
		}
	}
	m.err = errors.Join(errs...)
	return m
}

// session is one station connection: dial and hello, then
// relayAssocsPerConn associations, then disassociate and close.
func (in *relayInst) session(station int, addr string, demands []float64, k *int, t *relayTally) error {
	user := in.nextUser(station)
	var tc *tracedConn
	var req int64
	tr := in.tr
	if tr != nil {
		req = tr.newReq()
		tr.bind(user, req)
	}
	t0 := time.Now()
	st, err := protocol.DialStationCodec(dialer(tr, &in.wire, req, func(c *tracedConn) { tc = c }),
		addr, user, ioTimeout, protocol.CodecBinary)
	if tr != nil {
		tr.add("op.connect", t0.Sub(tr.epoch), tr.now(), req)
	}
	t.busy += time.Since(t0)
	if err != nil {
		t.attempted++
		t.failed++
		return fmt.Errorf("station %s: dial: %w", user, err)
	}
	defer st.Close()
	for n := 0; n < relayAssocsPerConn; n++ {
		demand := demands[*k%len(demands)]
		*k++
		if tr != nil {
			req = tr.newReq()
			tr.bind(user, req)
			tc.req = req
		}
		t1 := time.Now()
		ap, err := st.Associate(demand)
		dt := time.Since(t1)
		t.busy += dt
		if tr != nil {
			tr.add("op.assoc", t1.Sub(tr.epoch), t1.Sub(tr.epoch)+dt, req)
		}
		t.attempted++
		if err != nil {
			t.failed++
			return fmt.Errorf("station %s: associate: %w", user, err)
		}
		if !in.known[ap] {
			t.badAP++
		}
		t.assoc = append(t.assoc, dt)
		t.assocAt = append(t.assocAt, t1.Sub(t.origin))
		if n == 0 {
			t.join = append(t.join, time.Since(t0))
		}
	}
	if err := st.Disassociate(); err != nil {
		return fmt.Errorf("station %s: disassociate: %w", user, err)
	}
	t.sessions++
	return nil
}

func (in *relayInst) measure(d time.Duration) (*phase, error) {
	take0 := counter("federation.takeovers")
	relay0 := counter("federation.relay_errors")
	sel0 := in.selectorCalls()
	bytes0, syncs0 := in.jio.bytes.Load(), in.jio.syncs.Load()
	fsync0, ckpt0 := markHist("journal.fsync"), markHist("journal.checkpoint")

	// Replication lag sampler: the owner's journal head against the
	// follower's position, every 10 ms.
	type sample struct {
		at        time.Time
		head, fol uint64
	}
	var samples []sample
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				samples = append(samples, sample{now, in.ctrl.JournalSeq(), in.followSeq()})
			}
		}
	}()
	t, elapsed := in.drive(in.addrs[1-in.owner], d)
	close(stop)
	<-done
	if t.err != nil {
		return nil, t.err
	}
	in.takeovers += counter("federation.takeovers") - take0
	in.relayErrs = counter("federation.relay_errors") - relay0
	in.selCalls = in.selectorCalls() - sel0
	in.jBytes, in.jSyncs = in.jio.bytes.Load()-bytes0, in.jio.syncs.Load()-syncs0
	in.badAP += t.badAP
	// A sample's lag is the time since the owner first held a record the
	// follower has not applied yet.
	in.lagSamples = in.lagSamples[:0]
	for i, s := range samples {
		var lag time.Duration
		for j := 0; j <= i; j++ {
			if samples[j].head > s.fol {
				lag = s.at.Sub(samples[j].at)
				break
			}
		}
		in.lagSamples = append(in.lagSamples, lag)
	}

	ph := &phase{op: t.assoc, at: t.assocAt, attempted: t.attempted, failed: t.failed, elapsed: elapsed,
		busy: t.busy / relayStations}
	bal, err := snapshotBalance(in.ctrl.Snapshot(), in.ledger())
	if err != nil {
		return nil, err
	}
	ph.balance = bal
	sa, sj := sortedCopy(t.assoc), sortedCopy(t.join)
	ph.add("assoc_p50_us", "us", micros(quantile(sa, 0.5)))
	ph.add("assoc_p99_us", "us", micros(quantile(sa, 0.99)))
	ph.add("assoc_per_s", "1/s", float64(len(t.assoc))/elapsed.Seconds())
	ph.add("join_p50_us", "us", micros(quantile(sj, 0.5)))
	ph.add("join_p99_us", "us", micros(quantile(sj, 0.99)))
	ph.add("join_max_us", "us", micros(quantile(sj, 1)))
	ph.add("sessions_per_s", "1/s", float64(t.sessions)/elapsed.Seconds())
	addHistDelta(ph, "journal.fsync", fsync0)
	addHistDelta(ph, "journal.checkpoint", ckpt0)
	return ph, nil
}

func (in *relayInst) ledger() map[trace.UserID]resident {
	m := make(map[trace.UserID]resident, len(in.residents))
	for _, r := range in.residents {
		m[r.user] = r
	}
	return m
}

func (in *relayInst) check(rep *report) error {
	if in.badAP > 0 {
		return fmt.Errorf("%d MsgAssign replies named an unregistered AP", in.badAP)
	}
	if in.takeovers != 0 {
		return fmt.Errorf("federation.takeovers moved by %d inside the timed window: spurious failover", in.takeovers)
	}
	// Closed stations leave asynchronously at the owner; wait for the
	// last departures before comparing with the ledger.
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
	return in.waitCaughtUp()
}

func (in *relayInst) probe(ph *phase, rep *report) error {
	server := in.tr.spanP50("protocol.server")
	rep.metric("protocol.server_us", "us", micros(server))
	rep.metric("protocol.client_us", "us", micros(quantile(sortedCopy(ph.op), 0.5)-server))
	rep.set("protocol.wire_bytes_per_op", float64(in.wire.written.Load()+in.wire.read.Load())/float64(len(ph.op)))
	rep.set("protocol.shed_ratio", 0)
	rep.set("core.select_calls_per_op", float64(in.selCalls)/float64(len(ph.op)))
	rep.set("core.guard_fallback_ratio", 0) // LLF has no balance guard
	rep.set("journal.bytes_per_op", float64(in.jBytes)/float64(len(ph.op)))
	rep.set("journal.syncs_per_s", float64(in.jSyncs)/ph.elapsed.Seconds())
	rep.set("federation.relay_errors", float64(in.relayErrs))
	rep.metric("federation.replication_lag_ms_p99", "ms", millis(quantile(sortedCopy(in.lagSamples), 0.99)))

	// Relay hop and relay setup: relayed minus direct, same cluster.
	direct, _ := in.drive(in.addrs[in.owner], time.Second)
	if direct.err != nil {
		return direct.err
	}
	relayed := namedValues(ph)
	da, dj := quantile(sortedCopy(direct.assoc), 0.5), quantile(sortedCopy(direct.join), 0.5)
	rep.metric("direct.assoc_p50_us", "us", micros(da))
	rep.metric("direct.join_p50_us", "us", micros(dj))
	rep.metric("federation.relay_hop_us", "us", relayed["assoc_p50_us"]-micros(da))
	rep.metric("federation.relay_setup_us", "us", relayed["join_p50_us"]-micros(dj))

	var recs []journal.Record
	for i := 0; i < 2000; i++ {
		r := in.residents[i%len(in.residents)]
		recs = append(recs, journal.Record{Op: journal.OpAssoc, TS: int64(i),
			Placements: []journal.Placement{{User: r.user, AP: r.ap, Prev: r.ap, DemandBps: r.demand}}})
	}
	dir, err := os.MkdirTemp("", "relay-journal-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := probeJournal(rep, dir, journal.Options{Fsync: journal.FsyncInterval, FlushEachAppend: true}, recs); err != nil {
		return err
	}
	u := string(in.residents[0].user)
	mix := []protocol.Message{
		{Type: protocol.MsgHello, Role: protocol.RoleStation, ID: u},
		{Type: protocol.MsgHelloOK, ID: u},
		{Type: protocol.MsgAssoc, User: u, DemandBps: 1234.5},
		{Type: protocol.MsgAssign, User: u, AP: string(in.aps[0].id)},
		{Type: protocol.MsgDisassoc, User: u},
	}
	if err := probeCodec(rep, mix); err != nil {
		return err
	}
	return probeDomain(rep, in.aps, in.residents)
}

// namedValues indexes a phase's named metrics by name.
func namedValues(ph *phase) map[string]float64 {
	m := make(map[string]float64, len(ph.named))
	for _, x := range ph.named {
		m[x.name] = x.value
	}
	return m
}

func (in *relayInst) close() error {
	var err error
	for _, n := range in.nodes {
		if cerr := n.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(in.root); rerr != nil && err == nil {
		err = rerr
	}
	return err
}
