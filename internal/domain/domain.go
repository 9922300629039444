package domain

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Commit-path health, exported through the obs registry. Counters are
// process-wide (they accumulate across every Domain instance, live or
// simulated); per-shard gauges are registered only for named domains
// (Config.ObsName) so parallel experiment cells do not fight over them.
var (
	obsCommitSingle = obs.GetCounter("domain.commit.single_shard", "Placement commits on the single-shard fast path")
	obsCommitMulti  = obs.GetCounter("domain.commit.multi_shard", "Placement commits through the two-phase multi-shard path")
	obsCommitStale  = obs.GetCounter("domain.commit.stale", "Commits rejected because the shard version moved (caller retries)")
	obsCommitForced = obs.GetCounter("domain.commit.forced", "Commits applied after exhausting stale retries")
	obsOverloads    = obs.GetCounter("domain.overloads", "Placements admitted beyond AP capacity (admission override)")
	obsEvictions    = obs.GetCounter("domain.evictions", "APs removed (failures, lease expiries)")
	obsViews        = obs.GetCounter("domain.views", "APView snapshots taken")
)

// Sentinel errors returned by Commit.
var (
	// ErrUnknownAP reports a placement onto an AP the domain does not
	// know (removed, expired, or a policy bug).
	ErrUnknownAP = errors.New("unknown AP")
	// ErrFailedAP reports a placement onto an AP that is marked failed.
	ErrFailedAP = errors.New("AP is failed")
	// ErrStale reports that a shard touched by the commit changed after
	// the view snapshot was taken; the caller should re-snapshot and
	// re-select, or force the commit with a nil Version.
	ErrStale = errors.New("stale view version")
)

// LoadMode selects which load figure Views exposes to policies.
type LoadMode int

const (
	// LoadBelieved exposes the live sum of believed user demands — the
	// simulator's default (the controller performs associations itself,
	// so association state is always current).
	LoadBelieved LoadMode = iota
	// LoadReported exposes the last published report snapshot
	// (PublishReports / SetReported) — the simulator's stale-report mode
	// modelling CAPWAP-style periodic statistics.
	LoadReported
	// LoadMax exposes max(reported, believed) — the live controller's
	// mode, so a silent AP agent still yields sane decisions.
	LoadMax
)

// APView is a policy's read-only view of one AP's live state. Both the
// batch simulator and the live controller hand policies exactly this
// (internal/wlan aliases the type), assembled by Domain.Views. A view
// carries aggregates only; who sits where is read through AppendSeats,
// one user at a time.
type APView struct {
	// ID identifies the AP.
	ID trace.APID
	// CapacityBps is the AP's bandwidth W(i) in bytes/second.
	CapacityBps float64
	// LoadBps is the AP's traffic load as selected by the domain's
	// LoadMode (believed demand sum, last report, or their max).
	LoadBps float64
	// Users and UserDemands are always nil: views carry no membership.
	// Use NumUsers, and AppendSeats for who sits where.
	Users       []trace.UserID
	UserDemands []float64
	// NumUsers is the number of users holding a seat on the AP.
	NumUsers int
	// RSSI is the received signal strength the requesting user sees for
	// this AP, in dBm (higher is stronger). Synthesized via the domain's
	// RSSI function; used by the strongest-signal baseline.
	RSSI float64
}

// LessLoaded is the one load order every policy ranks by: lower load
// first, then fewer users, then the smaller ID. LLF, LeastUsers' tie
// break and S³'s least-loaded fallbacks all use it.
func (v APView) LessLoaded(w APView) bool {
	if v.LoadBps != w.LoadBps {
		return v.LoadBps < w.LoadBps
	}
	if v.NumUsers != w.NumUsers {
		return v.NumUsers < w.NumUsers
	}
	return v.ID < w.ID
}

// HasCapacityFor reports whether adding demand keeps the AP within its
// bandwidth constraint Σw(u) ≤ W(i); it is the view-level face of the
// shared Admits predicate.
func (v APView) HasCapacityFor(demand float64) bool {
	return Admits(v.CapacityBps, v.LoadBps, demand)
}

// Admits is the single capacity-admission predicate: adding demandBps to
// loadBps keeps the AP within capacityBps. APs with zero capacity are
// unconstrained (capacity not modeled). Every admission check in the
// repository — selector feasibility, simulator overload accounting,
// commit overload accounting — routes through this function.
func Admits(capacityBps, loadBps, demandBps float64) bool {
	if capacityBps <= 0 {
		return true
	}
	return loadBps+demandBps <= capacityBps
}

// FNV-1a parameters, inlined so the hot paths (per-view RSSI synthesis,
// per-placement shard routing) hash without instantiating a hash.Hash32
// — hash/fnv's New32a escapes to the heap on every call.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnv32aString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime32
	}
	return h
}

// Hash is the domain's stable FNV-1a string hash — the function behind
// ShardOf. Exported so higher layers that partition the same ID spaces
// (the federation ownership map splitting APs and users across
// controller replicas) stay aligned with the in-process shard routing:
// group = Hash(id) % groups, shard = Hash(ap) % shards, one hash.
func Hash(s string) uint32 {
	return fnv32aString(uint32(fnvOffset32), s)
}

// SyntheticRSSI derives a stable pseudo-random signal strength in
// [-90, -30] dBm from the (user, AP) pair. It stands in for physical
// proximity: each user consistently "hears" some APs louder than others,
// which is all the strongest-RSSI baseline needs. Simulator and live
// controller share it, so signal-driven policies decide identically in
// both. The hash is FNV-1a over user|0x00|AP, computed inline — bit
// identical to the historical hash/fnv implementation, without its
// per-call allocation.
func SyntheticRSSI(u trace.UserID, ap trace.APID) float64 {
	h := fnv32aString(uint32(fnvOffset32), string(u))
	h = (h ^ 0) * fnvPrime32
	h = fnv32aString(h, string(ap))
	return -90 + float64(h%61)
}

// Version is the per-shard version vector captured by Views. Commit
// validates only the entries of shards the placement set touches; nil
// skips validation entirely (forced commit).
type Version []uint64

// Placement asks the domain to associate one user with one AP.
type Placement struct {
	User trace.UserID
	AP   trace.APID
	// DemandBps is the user's believed bandwidth demand.
	DemandBps float64
	// Prev, when non-empty, names an AP the user must be fully removed
	// from in the same atomic commit — a re-association move. The
	// removal and the placement land under the same two-phase lock, so
	// a user is never observably on two APs or on none. Prev == AP is a
	// refresh: the demand is replaced and the session kept.
	Prev trace.APID
	// TS is the placement's time; a new seat or a move starts its
	// session at TS.
	TS int64
}

// CommitResult reports what a commit did beyond succeeding.
type CommitResult struct {
	// Overloads counts placements that violated the bandwidth constraint
	// (admission failed but the placement was applied anyway — the
	// domain must serve everyone; policies record the fallback).
	Overloads int
}

// Eviction is one user removed from an AP by a structural event (AP
// failure or removal): the seat they held there, closed.
type Eviction struct {
	User      trace.UserID
	DemandBps float64
	Start     int64
	Bytes     int64
}

// Seat is one place a user sits: an AP, the believed demand held there,
// and the session on it — when it started and the bytes served since.
// Only the simulator's multi-session semantics give a user more than
// one; concurrent sessions on one AP share one seat.
type Seat struct {
	AP        trace.APID
	DemandBps float64
	Start     int64
	Bytes     int64
}

// APInfo is one AP's externally visible state (Snapshot/inspection).
type APInfo struct {
	CapacityBps float64
	ReportedBps float64
	BelievedBps float64
	Failed      bool
	Users       []trace.UserID // sorted
	UserDemands []float64      // aligned with Users
}

// Config configures a Domain.
type Config struct {
	// Shards is the number of AP-partitioned lock domains; <= 1 keeps a
	// single shard. The AP→shard mapping is a stable hash, so a given
	// topology shards identically across runs.
	Shards int
	// Mode selects the load figure views expose (default LoadBelieved).
	Mode LoadMode
	// RSSI supplies the per-(user, AP) signal strength views carry;
	// defaults to SyntheticRSSI.
	RSSI func(u trace.UserID, ap trace.APID) float64
	// ObsName, when non-empty, registers per-shard gauges
	// (domain.<name>.shard<i>.aps / .users) kept current on every
	// structural change. Leave empty for throwaway domains (experiment
	// cells) that would otherwise fight over the process-wide registry.
	ObsName string
}

// apState is one AP's aggregates. Membership lives in the placement
// table; numUsers counts the seats on this AP.
type apState struct {
	id          trace.APID
	capacityBps float64
	reportedBps float64
	believedBps float64
	numUsers    int
	failed      bool
}

// shard owns a partition of the AP set behind its own lock.
type shard struct {
	mu      sync.RWMutex
	version uint64
	aps     map[trace.APID]*apState
	sorted  []*apState // aps, sorted by ID

	gaugeAPs   *obs.Gauge // nil unless ObsName set
	gaugeUsers *obs.Gauge
}

// syncGauges publishes the shard's sizes; must run with sh.mu held.
func (sh *shard) syncGauges() {
	if sh.gaugeAPs != nil {
		sh.gaugeAPs.Set(int64(len(sh.sorted)))
		users := 0
		for _, st := range sh.sorted {
			users += st.numUsers
		}
		sh.gaugeUsers.Set(int64(users))
	}
}

// index returns the position of id in sh.sorted (or its insertion point).
func (sh *shard) index(id trace.APID) int {
	at, _ := slices.BinarySearchFunc(sh.sorted, id, func(st *apState, id trace.APID) int { return cmp.Compare(st.id, id) })
	return at
}

// seatStripe is one partition of the placement table, keyed by a stable
// hash of the user ID. A seat is written only with its AP's shard lock
// held too, so that lock freezes the AP's seats; lookups take only the
// stripe lock.
type seatStripe struct {
	mu    sync.RWMutex
	first map[trace.UserID]Seat
	extra map[trace.UserID][]Seat // seats beyond the first (simulator only)
}

// find returns u's seat on ap.
func (t *seatStripe) find(u trace.UserID, ap trace.APID) (Seat, bool) {
	if s, ok := t.first[u]; ok && s.AP == ap {
		return s, true
	}
	for _, s := range t.extra[u] {
		if s.AP == ap {
			return s, true
		}
	}
	return Seat{}, false
}

// put stores s as u's seat on s.AP, adding it when u holds none there.
func (t *seatStripe) put(u trace.UserID, s Seat) {
	if f, ok := t.first[u]; !ok || f.AP == s.AP {
		t.first[u] = s
		return
	}
	more := t.extra[u]
	for i := range more {
		if more[i].AP == s.AP {
			more[i] = s
			return
		}
	}
	t.extra[u] = append(more, s)
}

// drop removes u's seat on ap, if any.
func (t *seatStripe) drop(u trace.UserID, ap trace.APID) {
	more := t.extra[u]
	if t.first[u].AP == ap {
		if len(more) == 0 {
			delete(t.first, u)
			return
		}
		t.first[u] = more[len(more)-1]
		more = more[:len(more)-1]
	}
	for i := range more {
		if more[i].AP == ap {
			more[i] = more[len(more)-1]
			more = more[:len(more)-1]
			break
		}
	}
	if len(more) == 0 {
		delete(t.extra, u)
	} else {
		t.extra[u] = more
	}
}

// Domain is the sharded association-domain state machine.
type Domain struct {
	shards []*shard
	seats  []*seatStripe // the placement table, one stripe per shard
	mode   LoadMode
	rssi   func(trace.UserID, trace.APID) float64
}

// New builds a Domain.
func New(cfg Config) *Domain {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	rssi := cfg.RSSI
	if rssi == nil {
		rssi = SyntheticRSSI
	}
	d := &Domain{
		shards: make([]*shard, n),
		seats:  make([]*seatStripe, n),
		mode:   cfg.Mode,
		rssi:   rssi,
	}
	for i := range d.shards {
		sh := &shard{aps: make(map[trace.APID]*apState)}
		if cfg.ObsName != "" {
			sh.gaugeAPs = obs.GetGauge(fmt.Sprintf("domain.%s.shard%02d.aps", cfg.ObsName, i),
				"Registered APs on one domain shard")
			sh.gaugeUsers = obs.GetGauge(fmt.Sprintf("domain.%s.shard%02d.users", cfg.ObsName, i),
				"Associated users on one domain shard")
		}
		d.shards[i] = sh
		d.seats[i] = &seatStripe{
			first: make(map[trace.UserID]Seat),
			extra: make(map[trace.UserID][]Seat),
		}
	}
	return d
}

// Shards returns the shard count.
func (d *Domain) Shards() int { return len(d.shards) }

// ShardOf returns the shard index owning ap — a stable hash, so the
// mapping survives restarts and is identical across drivers.
func (d *Domain) ShardOf(ap trace.APID) int {
	if len(d.shards) == 1 {
		return 0
	}
	return int(fnv32aString(uint32(fnvOffset32), string(ap)) % uint32(len(d.shards)))
}

func (d *Domain) shardOf(ap trace.APID) *shard { return d.shards[d.ShardOf(ap)] }

// stripeOf returns the placement-table stripe holding u's seats.
func (d *Domain) stripeOf(u trace.UserID) *seatStripe {
	if len(d.seats) == 1 {
		return d.seats[0]
	}
	return d.seats[fnv32aString(uint32(fnvOffset32), string(u))%uint32(len(d.seats))]
}

// AppendSeats appends u's current seats to dst, allocating nothing when
// dst has room. The read is live, not part of any view snapshot.
func (d *Domain) AppendSeats(dst []Seat, u trace.UserID) []Seat {
	t := d.stripeOf(u)
	t.mu.RLock()
	if s, ok := t.first[u]; ok {
		dst = append(dst, s)
		dst = append(dst, t.extra[u]...)
	}
	t.mu.RUnlock()
	return dst
}

// SeatOf returns u's first seat — the live controller's one seat per
// user — allocating nothing.
func (d *Domain) SeatOf(u trace.UserID) (Seat, bool) {
	t := d.stripeOf(u)
	t.mu.RLock()
	s, ok := t.first[u]
	t.mu.RUnlock()
	return s, ok
}

// Credit adds bytes served to u's first seat and returns its AP; ok is
// false when u holds no seat. Traffic is not structural: no shard
// version moves.
func (d *Domain) Credit(u trace.UserID, bytes int64) (ap trace.APID, ok bool) {
	t := d.stripeOf(u)
	t.mu.Lock()
	s, ok := t.first[u]
	if ok {
		s.Bytes += bytes
		t.first[u] = s
	}
	t.mu.Unlock()
	return s.AP, ok
}

// SetSession restores the session on u's first seat (a checkpoint's
// start time and served bytes); false when u holds no seat.
func (d *Domain) SetSession(u trace.UserID, start, bytes int64) bool {
	t := d.stripeOf(u)
	t.mu.Lock()
	s, ok := t.first[u]
	if ok {
		s.Start, s.Bytes = start, bytes
		t.first[u] = s
	}
	t.mu.Unlock()
	return ok
}

// EachSeat calls fn for every seat in the table, one stripe at a time
// under its read lock; fn must not call back into the domain.
func (d *Domain) EachSeat(fn func(u trace.UserID, s Seat)) {
	for _, t := range d.seats {
		t.mu.RLock()
		for u, s := range t.first {
			fn(u, s)
			for _, x := range t.extra[u] {
				fn(u, x)
			}
		}
		t.mu.RUnlock()
	}
}

// AddAP registers an AP. Duplicate IDs error.
func (d *Domain) AddAP(id trace.APID, capacityBps float64) error {
	if id == "" {
		return errors.New("domain: empty AP id")
	}
	sh := d.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.aps[id]; dup {
		return fmt.Errorf("domain: AP %q already registered", id)
	}
	st := &apState{id: id, capacityBps: capacityBps}
	sh.aps[id] = st
	sh.sorted = slices.Insert(sh.sorted, sh.index(id), st)
	sh.version++
	sh.syncGauges()
	return nil
}

// withAP runs fn on AP id under its shard's write lock and reports
// whether the AP is known.
func (d *Domain) withAP(id trace.APID, fn func(sh *shard, st *apState)) bool {
	sh := d.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.aps[id]
	if ok {
		fn(sh, st)
	}
	return ok
}

// RemoveAP deletes an AP and returns its evicted users (sorted) with the
// seats they held, for the caller to close their sessions and re-home
// them. ok is false when the AP is unknown.
func (d *Domain) RemoveAP(id trace.APID) (evicted []Eviction, ok bool) {
	ok = d.withAP(id, func(sh *shard, st *apState) {
		evicted = d.drain(st)
		delete(sh.aps, id)
		sh.sorted = slices.Delete(sh.sorted, sh.index(id), sh.index(id)+1)
		sh.version++
		sh.syncGauges()
	})
	return evicted, ok
}

// SetFailed flips an AP's failure state. Failing an AP evicts and
// returns its users (sorted); recovery returns nil. Unknown APs no-op.
func (d *Domain) SetFailed(id trace.APID, failed bool) (evicted []Eviction) {
	d.withAP(id, func(sh *shard, st *apState) {
		st.failed = failed
		if failed {
			evicted = d.drain(st)
		}
		sh.version++
		sh.syncGauges()
	})
	return evicted
}

// drain evicts every user from st and returns them sorted by user ID;
// must run with the shard lock held.
func (d *Domain) drain(st *apState) []Eviction {
	if st.numUsers == 0 {
		return nil
	}
	evicted := d.seatsOn(st)[st.id]
	for _, ev := range evicted {
		t := d.stripeOf(ev.User)
		t.mu.Lock()
		t.drop(ev.User, st.id)
		t.mu.Unlock()
	}
	st.numUsers = 0
	st.believedBps = 0
	obsEvictions.Add(int64(len(evicted)))
	return evicted
}

// SetCapacity updates an AP's capacity (an agent re-hello may revise
// it). Reports false for unknown APs.
func (d *Domain) SetCapacity(id trace.APID, capacityBps float64) bool {
	return d.withAP(id, func(sh *shard, st *apState) {
		st.capacityBps = capacityBps
		sh.version++
	})
}

// SetReported records an external load report for one AP (the live
// controller's agent reports). Reports false for unknown APs.
//
// Unlike SetCapacity this deliberately does not bump the shard version:
// load reports are advisory inputs to LoadReported/LoadMax scoring, not
// structural changes, so an in-flight decision computed from an older
// report commits without ErrStale revalidation (matching the
// pre-extraction controller, where reports never invalidated views).
func (d *Domain) SetReported(id trace.APID, loadBps float64) bool {
	return d.withAP(id, func(_ *shard, st *apState) { st.reportedBps = loadBps })
}

// PublishReports snapshots every AP's believed load into its reported
// load — the simulator's periodic report tick (LoadReported mode).
func (d *Domain) PublishReports() {
	for _, sh := range d.shards {
		sh.mu.Lock()
		for _, st := range sh.sorted {
			st.reportedBps = st.believedBps
		}
		sh.mu.Unlock()
	}
}

// Size returns the registered AP count (failed APs included).
func (d *Domain) Size() int {
	n := 0
	for _, sh := range d.shards {
		sh.mu.RLock()
		n += len(sh.sorted)
		sh.mu.RUnlock()
	}
	return n
}

// APs lists the registered AP IDs in sorted order.
func (d *Domain) APs() []trace.APID {
	var out []trace.APID
	for _, sh := range d.shards {
		sh.mu.RLock()
		for _, st := range sh.sorted {
			out = append(out, st.id)
		}
		sh.mu.RUnlock()
	}
	slices.Sort(out)
	return out
}

// Info returns one AP's state for inspection. Its membership is derived
// from the placement table — O(users), a cold path.
func (d *Domain) Info(id trace.APID) (APInfo, bool) {
	sh := d.shardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st, ok := sh.aps[id]
	if !ok {
		return APInfo{}, false
	}
	users, demands := split(d.seatsOn(st)[id])
	return APInfo{
		CapacityBps: st.capacityBps,
		ReportedBps: st.reportedBps,
		BelievedBps: st.believedBps,
		Failed:      st.failed,
		Users:       users,
		UserDemands: demands,
	}, true
}

// seatsOn derives the seat lists of the given APs from the placement
// table in one pass, each sorted by user ID. The caller holds the shard
// locks of those APs, which freezes their seats.
func (d *Domain) seatsOn(aps ...*apState) map[trace.APID][]Eviction {
	out := make(map[trace.APID][]Eviction, len(aps))
	for _, st := range aps {
		out[st.id] = make([]Eviction, 0, st.numUsers)
	}
	d.EachSeat(func(u trace.UserID, s Seat) {
		if l, ok := out[s.AP]; ok {
			out[s.AP] = append(l, Eviction{User: u, DemandBps: s.DemandBps, Start: s.Start, Bytes: s.Bytes})
		}
	})
	for _, l := range out {
		slices.SortFunc(l, func(a, b Eviction) int { return cmp.Compare(a.User, b.User) })
	}
	return out
}

// split unzips a seat list into aligned user and demand lists.
func split(seats []Eviction) ([]trace.UserID, []float64) {
	users := make([]trace.UserID, len(seats))
	demands := make([]float64, len(seats))
	for i, s := range seats {
		users[i], demands[i] = s.User, s.DemandBps
	}
	return users, demands
}

// ViewBuf is a reusable snapshot buffer for ViewsInto. Views carry
// aggregates only, so a buffer holds one APView per AP whatever the
// resident count; a pooled ViewBuf takes policy-decision snapshots
// without allocating once it has grown to the AP count. The contents
// are valid until the next ViewsInto call on the same buffer.
type ViewBuf struct {
	views []APView
	ver   Version
}

// Views returns the snapshot taken by the last ViewsInto call.
func (b *ViewBuf) Views() []APView { return b.views }

// Version returns the version vector of the last ViewsInto call.
func (b *ViewBuf) Version() Version { return b.ver }

// Views snapshots the non-failed APs for a policy decision by user u,
// with the per-shard version vector the commit validates against. APs
// are returned in sorted ID order regardless of sharding, so a policy
// sees the same candidate list for any shard count.
func (d *Domain) Views(u trace.UserID) ([]APView, Version) {
	var buf ViewBuf
	d.ViewsInto(u, &buf)
	return buf.views, buf.ver
}

// ViewsInto is Views writing into a caller-owned reusable buffer — the
// zero-allocation fast path for the live controller's Associate. It
// copies O(APs) aggregates, never memberships. The returned slices are
// buf's; see ViewBuf.
func (d *Domain) ViewsInto(u trace.UserID, buf *ViewBuf) {
	obsViews.Inc()
	buf.views = buf.views[:0]
	buf.ver = buf.ver[:0]
	for _, sh := range d.shards {
		sh.mu.RLock()
		buf.ver = append(buf.ver, sh.version)
		for _, st := range sh.sorted {
			if st.failed {
				continue
			}
			var load float64
			switch d.mode {
			case LoadReported:
				load = st.reportedBps
			case LoadMax:
				load = st.believedBps
				if st.reportedBps > load {
					load = st.reportedBps
				}
			default:
				load = st.believedBps
			}
			buf.views = append(buf.views, APView{
				ID:          st.id,
				CapacityBps: st.capacityBps,
				LoadBps:     load,
				NumUsers:    st.numUsers,
				RSSI:        d.rssi(u, st.id),
			})
		}
		sh.mu.RUnlock()
	}
	if len(d.shards) > 1 {
		slices.SortFunc(buf.views, func(a, b APView) int { return cmp.Compare(a.ID, b.ID) })
	}
}

// Commit applies a placement set atomically. Placements landing in one
// shard take the fast path (single lock, single version check); a set
// spanning shards locks the involved shards in ascending index order —
// the deterministic two-phase path — validates every involved version,
// and applies all-or-nothing. ver == nil forces the commit without
// validation. On ErrStale, ErrUnknownAP or ErrFailedAP nothing was
// applied.
func (d *Domain) Commit(ps []Placement, ver Version) (CommitResult, error) {
	var res CommitResult
	if len(ps) == 0 {
		return res, nil
	}

	// Involved shard set, in ascending index order.
	var idxs []int
	if len(d.shards) == 1 {
		idxs = []int{0}
	} else {
		seen := make([]bool, len(d.shards))
		for _, p := range ps {
			if i := d.ShardOf(p.AP); !seen[i] {
				seen[i] = true
				idxs = append(idxs, i)
			}
			if p.Prev != "" {
				if i := d.ShardOf(p.Prev); !seen[i] {
					seen[i] = true
					idxs = append(idxs, i)
				}
			}
		}
		sort.Ints(idxs)
	}
	for _, i := range idxs {
		d.shards[i].mu.Lock()
	}
	unlock := func() {
		for _, i := range idxs {
			d.shards[i].mu.Unlock()
		}
	}

	// Validate versions, then targets — all before any mutation.
	switch {
	case ver == nil:
		obsCommitForced.Inc()
	case len(ver) != len(d.shards):
		unlock()
		obsCommitStale.Inc()
		return res, ErrStale
	default:
		for _, i := range idxs {
			if d.shards[i].version != ver[i] {
				unlock()
				obsCommitStale.Inc()
				return res, ErrStale
			}
		}
	}
	for _, p := range ps {
		st, ok := d.shards[d.ShardOf(p.AP)].aps[p.AP]
		if !ok {
			unlock()
			return res, fmt.Errorf("domain: %w: %q", ErrUnknownAP, p.AP)
		}
		if st.failed {
			unlock()
			return res, fmt.Errorf("domain: %w: %q", ErrFailedAP, p.AP)
		}
	}

	// Apply in order: sequential placements see each other's load, so a
	// batch commit charges overloads exactly like sequential commits.
	for _, p := range ps {
		if d.place(p) {
			res.Overloads++
		}
	}
	for _, i := range idxs {
		d.shards[i].version++
		d.shards[i].syncGauges()
	}
	if len(idxs) == 1 {
		obsCommitSingle.Inc()
	} else {
		obsCommitMulti.Inc()
	}
	if res.Overloads > 0 {
		obsOverloads.Add(int64(res.Overloads))
	}
	unlock()
	return res, nil
}

// place applies one validated placement and reports whether it broke
// the bandwidth constraint; must run with the shard locks of p.AP and
// p.Prev held.
func (d *Domain) place(p Placement) (overload bool) {
	t := d.stripeOf(p.User)
	t.mu.Lock()
	defer t.mu.Unlock()
	seat := Seat{AP: p.AP, Start: p.TS}
	if p.Prev != "" {
		if prev, ok := d.shardOf(p.Prev).aps[p.Prev]; ok {
			if old, had := t.release(prev, p.User, math.Inf(1)); had && p.Prev == p.AP {
				seat.Start, seat.Bytes = old.Start, old.Bytes
			}
		}
	}
	st := d.shardOf(p.AP).aps[p.AP]
	overload = !Admits(st.capacityBps, st.believedBps, p.DemandBps)
	st.believedBps += p.DemandBps
	if cur, had := t.find(p.User, p.AP); had {
		seat = cur // another concurrent session joins the held seat
	} else {
		st.numUsers++
	}
	seat.DemandBps += p.DemandBps
	t.put(p.User, seat)
	return overload
}

// Leave releases demand of one of u's sessions on ap — multiplicity
// semantics for the simulator, where a user may hold several concurrent
// sessions on the same AP: the believed demand is decremented and the
// seat survives until its demand drains. Reports false when the AP or
// the user is unknown.
func (d *Domain) Leave(u trace.UserID, ap trace.APID, demandBps float64) bool {
	_, ok := d.leave(u, ap, demandBps)
	return ok
}

// LeaveAll fully detaches u from ap (the live controller's
// disassociation — one seat per user) and returns the closed seat.
func (d *Domain) LeaveAll(u trace.UserID, ap trace.APID) (Seat, bool) {
	return d.leave(u, ap, math.Inf(1))
}

func (d *Domain) leave(u trace.UserID, ap trace.APID, demandBps float64) (s Seat, ok bool) {
	d.withAP(ap, func(sh *shard, st *apState) {
		t := d.stripeOf(u)
		t.mu.Lock()
		defer t.mu.Unlock()
		if s, ok = t.release(st, u, demandBps); ok {
			sh.version++
			sh.syncGauges()
		}
	})
	return s, ok
}

// release takes up to demandBps of u's seat on st, bounded by the seat's
// demand so a misreported leave cannot erase other sessions' believed
// load; the seat goes once its demand drains. It returns the seat as it
// was. Runs with st's shard lock and u's stripe lock held.
func (t *seatStripe) release(st *apState, u trace.UserID, demandBps float64) (Seat, bool) {
	s, ok := t.find(u, st.id)
	if !ok {
		return s, false
	}
	release := min(demandBps, s.DemandBps)
	if rem := s.DemandBps - release; rem <= 1e-9 {
		t.drop(u, st.id)
		st.numUsers--
	} else {
		left := s
		left.DemandBps = rem
		t.put(u, left)
	}
	st.believedBps -= release
	if st.believedBps < 0 {
		st.believedBps = 0
	}
	return s, true
}
