package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/metrics"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// assoc-100k: one LLF controller with 64 APs and 100,000 residents; two
// binary-codec stations re-associate in a closed loop on long-lived
// connections. View assembly and commit dominate here, and the per-call
// resident copy no longer fits in cache, so this is where a change to
// the placement representation shows; codec, relay and journal do
// almost nothing.
const (
	assocAPs       = 64
	assocResidents = 100_000
	assocPerRecord = 1000
	assocStations  = 2
	ioTimeout      = 10 * time.Second
)

type assocStation struct {
	st      *protocol.Station
	tc      *tracedConn
	user    trace.UserID
	demands []float64
	next    int
	ap      trace.APID
	demand  float64
}

type assocInst struct {
	tr        *tracer
	dir       string
	ctrl      *protocol.Controller
	sel       wlan.Selector
	aps       []apSpec
	known     map[trace.APID]bool
	residents []resident
	stations  []*assocStation
	wire      wireCounters
	badAP     int   // MsgAssign naming an unregistered AP
	selCalls  int64 // selector calls in the last window

	appendLat  []time.Duration // ledger appends during setup
	recoverDur time.Duration   // AttachJournal
}

func setupAssoc(seed int64, tr *tracer) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	dir, err := os.MkdirTemp("", "assoc100k-")
	if err != nil {
		return nil, err
	}
	in := &assocInst{tr: tr, dir: dir, known: map[trace.APID]bool{}}
	for i := 0; i < assocAPs; i++ {
		a := apSpec{id: trace.APID(fmt.Sprintf("ap%03d", i)), capacity: 1e9}
		in.aps = append(in.aps, a)
		in.known[a.id] = true
	}
	if err := in.writeLedger(rng); err != nil {
		in.close()
		return nil, err
	}
	in.sel = wrapSelector(baseline.LLF{}, tr)
	in.ctrl, err = protocol.NewController(in.sel, protocol.WithTimeout(ioTimeout))
	if err != nil {
		in.close()
		return nil, err
	}
	t0 := time.Now()
	sum, err := in.ctrl.AttachJournal(dir, journal.Options{Fsync: journal.FsyncOff}, 0)
	in.recoverDur = time.Since(t0)
	if err != nil {
		in.close()
		return nil, fmt.Errorf("install residents: %w", err)
	}
	if sum.Assignments != assocResidents || sum.APs != assocAPs || sum.ReplayErrors != 0 {
		in.close()
		return nil, fmt.Errorf("install residents: recovered %d assignments on %d APs with %d replay errors",
			sum.Assignments, sum.APs, sum.ReplayErrors)
	}
	if err := in.ctrl.DetachJournal(); err != nil {
		in.close()
		return nil, err
	}
	addr, err := in.ctrl.Listen("127.0.0.1:0")
	if err != nil {
		in.close()
		return nil, err
	}
	for i := 0; i < assocStations; i++ {
		s := &assocStation{user: trace.UserID(fmt.Sprintf("station-%d", i))}
		for k := 0; k < 4096; k++ {
			s.demands = append(s.demands, 500+rng.Float64()*4500)
		}
		s.st, err = protocol.DialStationCodec(dialer(tr, &in.wire, 0, func(c *tracedConn) { s.tc = c }),
			addr, s.user, ioTimeout, protocol.CodecBinary)
		if err != nil {
			in.close()
			return nil, err
		}
		in.stations = append(in.stations, s)
	}
	return in, nil
}

// writeLedger appends the resident ledger, one journal record per 1000
// seeded placements after the 64 AP registrations, the way a controller
// that had served these residents would have written it.
func (in *assocInst) writeLedger(rng *rand.Rand) error {
	j, _, err := journal.Open(in.dir, journal.Options{Fsync: journal.FsyncOff})
	if err != nil {
		return err
	}
	for _, a := range in.aps {
		if err := j.Append(journal.Record{Op: journal.OpRegister, TS: 1, AP: a.id, CapacityBps: a.capacity, Static: true}); err != nil {
			j.Close()
			return err
		}
	}
	for start := 0; start < assocResidents; start += assocPerRecord {
		ps := make([]journal.Placement, 0, assocPerRecord)
		for i := start; i < start+assocPerRecord; i++ {
			r := resident{
				user:   trace.UserID(fmt.Sprintf("resident%06d", i)),
				ap:     in.aps[rng.Intn(len(in.aps))].id,
				demand: 500 + rng.Float64()*4500,
			}
			in.residents = append(in.residents, r)
			ps = append(ps, journal.Placement{User: r.user, AP: r.ap, DemandBps: r.demand})
		}
		t0 := time.Now()
		if err := j.Append(journal.Record{Op: journal.OpAssoc, TS: 1, Placements: ps}); err != nil {
			j.Close()
			return err
		}
		in.appendLat = append(in.appendLat, time.Since(t0))
	}
	return j.Close()
}

func (in *assocInst) measure(d time.Duration) (*phase, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		lat  []time.Duration
		at   []time.Duration
		busy time.Duration
		errs []error
		bad  int
	)
	sel0 := selectorCalls(in.sel)
	start := time.Now()
	deadline := start.Add(d)
	for _, s := range in.stations {
		wg.Add(1)
		go func(s *assocStation) {
			defer wg.Done()
			var local, localAt []time.Duration
			var localBusy time.Duration
			localBad := 0
			var err error
			for time.Now().Before(deadline) {
				demand := s.demands[s.next%len(s.demands)]
				s.next++
				var req int64
				if in.tr != nil {
					req = in.tr.newReq()
					in.tr.bind(s.user, req)
					s.tc.req = req
				}
				t0 := time.Now()
				var ap trace.APID
				ap, err = s.st.Associate(demand)
				dt := time.Since(t0)
				localBusy += dt
				if in.tr != nil {
					in.tr.add("op.assoc", t0.Sub(in.tr.epoch), t0.Sub(in.tr.epoch)+dt, req)
				}
				if err != nil {
					break
				}
				if !in.known[ap] {
					localBad++
				}
				s.ap, s.demand = ap, demand
				local = append(local, dt)
				localAt = append(localAt, t0.Sub(start))
			}
			mu.Lock()
			lat = append(lat, local...)
			at = append(at, localAt...)
			busy += localBusy
			bad += localBad
			if err != nil {
				errs = append(errs, fmt.Errorf("station %s: %w", s.user, err))
			}
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	in.badAP += bad
	in.selCalls = selectorCalls(in.sel) - sel0
	ph := &phase{op: lat, at: at, attempted: len(lat), elapsed: elapsed, busy: busy / assocStations}
	bal, err := in.balance()
	if err != nil {
		return nil, err
	}
	ph.balance = bal
	s := sortedCopy(lat)
	ph.add("assoc_p50_us", "us", micros(quantile(s, 0.5)))
	ph.add("assoc_p99_us", "us", micros(quantile(s, 0.99)))
	ph.add("assoc_per_s", "1/s", float64(len(lat))/elapsed.Seconds())
	return ph, nil
}

// ledger is the benchmark's own record of every placement: the residents
// it installed and each station's last MsgAssign.
func (in *assocInst) ledger() map[trace.UserID]resident {
	m := make(map[trace.UserID]resident, len(in.residents)+len(in.stations))
	for _, r := range in.residents {
		m[r.user] = r
	}
	for _, s := range in.stations {
		if s.ap != "" {
			m[s.user] = resident{user: s.user, ap: s.ap, demand: s.demand}
		}
	}
	return m
}

// balance is the Chiu–Jain index over per-AP load, computed from the
// ledger's demands placed where the controller's snapshot says.
func (in *assocInst) balance() (float64, error) {
	return snapshotBalance(in.ctrl.Snapshot(), in.ledger())
}

func snapshotBalance(snap map[trace.APID]protocol.APStatus, ledger map[trace.UserID]resident) (float64, error) {
	loads := make([]float64, 0, len(snap))
	for _, st := range snap {
		load := 0.0
		for _, u := range st.Users {
			load += ledger[u].demand
		}
		loads = append(loads, load)
	}
	return metrics.BalanceIndex(loads)
}

// checkLedger verifies load conservation: the controller's snapshot
// holds exactly the ledger's users, each on the ledger's AP.
func checkLedger(snap map[trace.APID]protocol.APStatus, ledger map[trace.UserID]resident) error {
	seen := 0
	for ap, st := range snap {
		for _, u := range st.Users {
			r, ok := ledger[u]
			if !ok {
				return fmt.Errorf("controller holds %s on %s; the ledger does not", u, ap)
			}
			if r.ap != ap {
				return fmt.Errorf("controller holds %s on %s; the ledger says %s", u, ap, r.ap)
			}
			seen++
		}
	}
	if seen != len(ledger) {
		return fmt.Errorf("controller holds %d users; the ledger %d", seen, len(ledger))
	}
	return nil
}

func (in *assocInst) check(rep *report) error {
	if in.badAP > 0 {
		return fmt.Errorf("%d MsgAssign replies named an unregistered AP", in.badAP)
	}
	return checkLedger(in.ctrl.Snapshot(), in.ledger())
}

func (in *assocInst) probe(ph *phase, rep *report) error {
	tr := in.tr
	server := tr.spanP50("protocol.server")
	rep.metric("protocol.server_us", "us", micros(server))
	rep.metric("protocol.client_us", "us", micros(quantile(sortedCopy(ph.op), 0.5)-server))
	rep.set("protocol.wire_bytes_per_op", float64(in.wire.written.Load()+in.wire.read.Load())/float64(len(ph.op)))
	rep.set("protocol.shed_ratio", 0)
	rep.set("core.select_calls_per_op", float64(in.selCalls)/float64(len(ph.op)))
	rep.set("core.guard_fallback_ratio", 0) // LLF has no balance guard
	rep.set("journal.bytes_per_op", 0)
	rep.set("journal.syncs_per_s", 0)
	rep.set("federation.relay_errors", 0)
	rep.metric("journal.append_us", "us", micros(quantile(sortedCopy(in.appendLat), 0.5)))
	rep.metric("journal.append_placements_per_record", "count", assocPerRecord)
	rep.metric("journal.recover_ms", "ms", millis(in.recoverDur))

	// Direct Controller.Associate on the same controller state.
	s := in.stations[0]
	var lat []time.Duration
	for end := time.Now().Add(probeTime); time.Now().Before(end); {
		demand := s.demands[s.next%len(s.demands)]
		s.next++
		t0 := time.Now()
		ap, err := in.ctrl.Associate(s.user, demand)
		lat = append(lat, time.Since(t0))
		if err != nil {
			return err
		}
		s.ap, s.demand = ap, demand
	}
	rep.metric("protocol.associate_us", "us", micros(quantile(sortedCopy(lat), 0.5)))

	mix := []protocol.Message{
		{Type: protocol.MsgAssoc, User: string(s.user), DemandBps: 1234.5},
		{Type: protocol.MsgAssign, User: string(s.user), AP: string(in.aps[7].id)},
	}
	if err := probeCodec(rep, mix); err != nil {
		return err
	}
	return probeDomain(rep, in.aps, in.residents)
}

func (in *assocInst) close() error {
	for _, s := range in.stations {
		s.st.Close()
	}
	var err error
	if in.ctrl != nil {
		err = in.ctrl.Close()
	}
	if rerr := os.RemoveAll(in.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}
