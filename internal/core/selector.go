package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/metrics"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/socialgraph"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// Observability of the selector hot path. Counters are atomic and
// always on; the histogram is observed once per batch placement, not
// per candidate, so the beam search itself stays allocation-free.
var (
	obsSelects       = obs.GetCounter("core.select.calls", "Single-user Select invocations of the S³ policy")
	obsGuardFallback = obs.GetCounter("core.select.guard_fallbacks", "Selections where the balance guard overrode the social choice")
	obsBatches       = obs.GetCounter("core.batch.calls", "Group placements via Algorithm 1 (PlaceBatch invocations)")
	obsBatchUsers    = obs.GetCounter("core.batch.users", "Users placed through batch placements")
	obsCliques       = obs.GetCounter("core.batch.cliques", "Cliques extracted across batch placements")
	obsBeamCands     = obs.GetCounter("core.beam.candidates", "Candidate distributions scored by the beam search")
	obsExhaustive    = obs.GetCounter("core.beam.exhaustive_cliques", "Cliques small enough for exhaustive distribution enumeration")
	obsBatchTime     = obs.GetHistogram("core.batch.place", "Latency of one batch placement (Algorithm 1)")
)

// SocialIndex supplies the social relation index θ(u,v) between two users.
// *society.Model satisfies this interface.
type SocialIndex interface {
	Index(u, v trace.UserID) float64
}

// FriendIndex extends SocialIndex with a precomputed close-friend list:
// CloseFriends(u) returns, sorted and read-only, exactly the users v
// with θ(u,v) > FriendThreshold(). The incremental engine
// (society/incremental) satisfies it from the θ-graph it already
// maintains; society.FriendLists satisfies it for a batch model. The
// selector finds friend load by looking up where each close friend sits,
// so a decision costs O(friends), not O(residents).
type FriendIndex interface {
	SocialIndex
	CloseFriends(u trace.UserID) []trace.UserID
	FriendThreshold() float64
}

// SelectorConfig tunes the S³ policy.
type SelectorConfig struct {
	// EdgeThreshold is the θ value above which two users are considered
	// to have a close social relationship; the paper uses 0.3.
	EdgeThreshold float64
	// TopFraction is the share of best-cost candidate distributions kept
	// before the balance-index tie-break; the paper's Algorithm 1 keeps
	// the top 30%.
	TopFraction float64
	// BeamWidth bounds the candidate distributions explored per clique.
	// The paper "searches the solution space"; an exhaustive search is
	// exponential, so we beam-search the lowest-ΣC prefixes. Default 64.
	BeamWidth int
	// BalanceGuard bounds how far above the least-loaded AP a socially
	// preferable AP may be and still be chosen: candidates must satisfy
	// load ≤ minLoad + BalanceGuard·(mean domain load + demand). This
	// implements the paper's secondary objective — "prevent the balance
	// index from decreasing too much" — as a hard guard on the online
	// decision. Default 0.5.
	BalanceGuard float64
}

// DefaultSelectorConfig returns the paper's operating point.
func DefaultSelectorConfig() SelectorConfig {
	return SelectorConfig{
		EdgeThreshold: 0.3,
		TopFraction:   0.3,
		BeamWidth:     64,
		BalanceGuard:  0.5,
	}
}

func (c SelectorConfig) withDefaults() SelectorConfig {
	if c.EdgeThreshold <= 0 {
		c.EdgeThreshold = 0.3
	}
	if c.TopFraction <= 0 || c.TopFraction > 1 {
		c.TopFraction = 0.3
	}
	if c.BeamWidth <= 0 {
		c.BeamWidth = 64
	}
	if c.BalanceGuard <= 0 {
		c.BalanceGuard = 0.5
	}
	return c
}

// Selector is the S³ association policy. It implements both
// wlan.Selector (single arrivals) and wlan.BatchSelector (co-arriving
// groups, Algorithm 1).
type Selector struct {
	friends FriendIndex // close-friend lists at cfg.EdgeThreshold
	cfg     SelectorConfig
}

var (
	_ wlan.Selector      = (*Selector)(nil)
	_ wlan.BatchSelector = (*Selector)(nil)
)

// NewSelector builds an S³ selector over a sociality index. A
// *society.Model gets its close-friend lists built once, at the
// selector's EdgeThreshold; any other index must be a FriendIndex at
// that threshold.
func NewSelector(social SocialIndex, cfg SelectorConfig) (*Selector, error) {
	cfg = cfg.withDefaults()
	s := &Selector{cfg: cfg}
	switch si := social.(type) {
	case nil:
		return nil, errors.New("core: nil social index")
	case *society.Model:
		if si == nil {
			return nil, errors.New("core: nil social index")
		}
		s.friends = si.FriendLists(cfg.EdgeThreshold)
	case FriendIndex:
		if thr := si.FriendThreshold(); thr != cfg.EdgeThreshold {
			return nil, fmt.Errorf("core: friend lists are cut at θ > %v, the selector at %v", thr, cfg.EdgeThreshold)
		}
		s.friends = si
	default:
		return nil, fmt.Errorf("core: social index %T has no close-friend lists", social)
	}
	return s, nil
}

// Name implements wlan.Selector.
func (s *Selector) Name() string { return "S3" }

// ErrNoAPs is returned when Select is called with no candidates.
var ErrNoAPs = errors.New("core: no candidate APs")

// seatPool recycles the friend-seat buffers of Select, so a steady-state
// decision allocates nothing.
var seatPool = sync.Pool{New: func() any { return new([]domain.Seat) }}

// Select implements wlan.Selector: pick the feasible AP that minimizes
// the social-cost increment, then fall back to least-loaded-first, per
// the pseudocode's "if S(AP) is empty or there are multiple candidate APs
// to choose, we simply apply LLF". The ranking is lexicographic:
//
//  1. fewest close social relations on the AP (disperse co-leavers),
//  2. least loaded (the paper's secondary balance objective — with equal
//     close-relation counts the θ-strength differences are weak
//     predictors, while the load difference directly moves the balance
//     index, so LLF decides).
//
// When no AP satisfies the bandwidth constraint, S³ degrades to LLF over
// all APs rather than rejecting the user (the controller must serve
// everyone; the overload is recorded by the simulator).
func (s *Selector) Select(req wlan.Request, aps []wlan.APView) (trace.APID, error) {
	if len(aps) == 0 {
		return "", ErrNoAPs
	}
	obsSelects.Inc()
	// The balance guard: social preference may not pick an AP whose load
	// is too far above the domain minimum, or the dispersal would cost
	// more instantaneous imbalance than the co-leaving resilience buys.
	minLoad := math.Inf(1)
	var totalLoad float64
	for _, ap := range aps {
		totalLoad += ap.LoadBps
		if ap.LoadBps < minLoad {
			minLoad = ap.LoadBps
		}
	}
	guard := minLoad + s.cfg.BalanceGuard*(totalLoad/float64(len(aps))+req.DemandBps)

	// Where the requester's close friends sit, in ascending friend
	// order: one placement lookup per friend, not a scan of residents.
	buf := seatPool.Get().(*[]domain.Seat)
	seats := (*buf)[:0]
	if req.Placements != nil {
		for _, f := range s.friends.CloseFriends(req.User) {
			seats = req.Placements.AppendSeats(seats, f)
		}
	}

	// Single pass, no candidate slices: track the best guarded candidate
	// (friend buckets are computed only for those) and the least-loaded
	// feasible AP for the fallback. Replacement is strict, so ties
	// resolve to the earliest AP.
	bestIdx, feasIdx, bestFriends := -1, -1, 0
	for i := range aps {
		ap := &aps[i]
		if !ap.HasCapacityFor(req.DemandBps) {
			continue
		}
		if feasIdx < 0 || ap.LessLoaded(aps[feasIdx]) {
			feasIdx = i
		}
		if ap.LoadBps > guard {
			continue
		}
		friends := friendBuckets(req.DemandBps, seats, ap.ID)
		if bestIdx < 0 || friends < bestFriends ||
			(friends == bestFriends && ap.LessLoaded(aps[bestIdx])) {
			bestIdx, bestFriends = i, friends
		}
	}
	*buf = seats
	seatPool.Put(buf)
	if bestIdx >= 0 {
		return aps[bestIdx].ID, nil
	}
	// No AP is both feasible and within the guard: fall back to the
	// least-loaded feasible AP, and only overload when nothing can
	// absorb the demand at all.
	obsGuardFallback.Inc()
	if feasIdx >= 0 {
		return aps[feasIdx].ID, nil
	}
	best := 0
	for i := range aps {
		if aps[i].LessLoaded(aps[best]) {
			best = i
		}
	}
	return aps[best].ID, nil
}

// friendBuckets measures how much co-leaving load already sits on ap
// from the requester's perspective: the summed believed demand of the
// requester's close friends seated there, quantized in units of the
// requester's own demand. Quantizing keeps the comparison meaningful —
// differences smaller than one user's demand are noise and must not
// override the LLF tie-break. seats are the friends' seats in ascending
// friend order, so the sum adds in the same order on every run.
func friendBuckets(demandBps float64, seats []domain.Seat, ap trace.APID) int {
	unit := demandBps
	if unit <= 0 {
		unit = 1
	}
	var friendLoad float64
	for _, st := range seats {
		if st.AP == ap {
			friendLoad += st.DemandBps
		}
	}
	return int(math.Floor(friendLoad / unit))
}

// SelectBatch implements Algorithm 1 for a group of simultaneous
// arrivals:
//
//  1. Build the graph G over the batch users with edges where
//     θ(u,v) > EdgeThreshold.
//  2. Repeatedly extract a maximum clique (ties: largest edge-weight
//     sum).
//  3. For each clique, search candidate distributions of its members to
//     APs, rank by ΣᵢC(APᵢ), keep the top TopFraction, and choose the one
//     whose projected load vector has the best balance index.
//  4. Update the projected AP state — loads plus an overlay of the batch
//     placements made so far — and continue until G is empty.
func (s *Selector) SelectBatch(reqs []wlan.Request, aps []wlan.APView) (map[trace.UserID]trace.APID, error) {
	if len(aps) == 0 {
		return nil, ErrNoAPs
	}
	if len(reqs) == 0 {
		return map[trace.UserID]trace.APID{}, nil
	}
	obsBatches.Inc()
	obsBatchUsers.Add(int64(len(reqs)))
	batchStart := time.Now()
	defer func() { obsBatchTime.Observe(time.Since(batchStart)) }()

	apIdx := make(map[trace.APID]int, len(aps))
	for i, ap := range aps {
		apIdx[ap.ID] = i
	}
	b := &batch{
		demands:  make(map[trace.UserID]float64, len(reqs)),
		resident: make(map[trace.UserID][]float64, len(reqs)),
		onAP:     make([][]trace.UserID, len(aps)),
		state:    append([]wlan.APView(nil), aps...),
	}
	users := make([]trace.UserID, 0, len(reqs))
	for _, r := range reqs {
		if _, dup := b.demands[r.User]; dup {
			return nil, fmt.Errorf("core: duplicate user %q in batch", r.User)
		}
		b.demands[r.User] = r.DemandBps
		b.resident[r.User] = s.residentCost(r, apIdx)
		users = append(users, r.User)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })

	g := socialgraph.FromThreshold(users, s.cfg.EdgeThreshold, s.friends.Index)
	cover := socialgraph.ExtractCliqueCover(g)

	obsCliques.Add(int64(len(cover)))
	out := make(map[trace.UserID]trace.APID, len(users))
	for _, clique := range cover {
		members, assign, err := s.placeClique(clique, b)
		if err != nil {
			return nil, err
		}
		for i, u := range members {
			at := assign[i]
			out[u] = b.state[at].ID
			b.state[at].LoadBps += b.demands[u]
			b.onAP[at] = append(b.onAP[at], u)
		}
	}
	return out, nil
}

// batch is Algorithm 1's projected state: the views with loads updated
// as cliques are placed, an overlay of the batch users placed on each AP
// so far, and each member's social cost against the AP's residents.
type batch struct {
	demands  map[trace.UserID]float64
	resident map[trace.UserID][]float64 // per AP index: Σθ over seated close friends
	onAP     [][]trace.UserID           // batch users placed per AP, in order
	state    []wlan.APView
}

// residentCost sums, per candidate AP, θ(u,f) over u's close friends f
// seated there — the resident part of C(AP). Friends are visited in
// ascending ID order, so every AP's sum adds in the same order.
func (s *Selector) residentCost(r wlan.Request, apIdx map[trace.APID]int) []float64 {
	cost := make([]float64, len(apIdx))
	if r.Placements == nil {
		return cost
	}
	var seats []domain.Seat
	for _, f := range s.friends.CloseFriends(r.User) {
		seats = r.Placements.AppendSeats(seats[:0], f)
		for _, st := range seats {
			if i, ok := apIdx[st.AP]; ok {
				cost[i] += s.friends.Index(r.User, f)
			}
		}
	}
	return cost
}

// closeTheta returns θ(u,w) when the pair is a close relationship (θ
// above the edge threshold, the paper's 0.3 cut), else 0. Sub-threshold
// θ — mostly the dense α·T type prior every profiled pair carries — is
// noise for placement: counting it would turn C into a user-count proxy
// and override the load-aware LLF tie-break the pseudocode prescribes.
func (s *Selector) closeTheta(u, w trace.UserID) float64 {
	if theta := s.friends.Index(u, w); theta > s.cfg.EdgeThreshold {
		return theta
	}
	return 0
}

// beamCandidate is a partial distribution of a clique's members to APs.
type beamCandidate struct {
	assign []int   // assign[i] = AP index of clique member i
	cost   float64 // accumulated ΣC increment
	used   []int   // used[j] = members placed on AP index j
}

// exhaustiveLimit caps the candidate-distribution count for which
// placeClique enumerates the full solution space (the paper's "search the
// solution space of distribution users"); larger cliques use the beam.
const exhaustiveLimit = 4096

// placeClique searches distributions of the clique's members to APs and
// returns the members in placement order with their AP indices. Members
// of a clique are spread over distinct APs whenever the domain has
// enough APs; otherwise AP reuse is minimized. Small cliques are solved
// exhaustively; large ones by beam search over the lowest-ΣC prefixes.
func (s *Selector) placeClique(clique []trace.UserID, b *batch) ([]trace.UserID, []int, error) {
	// Order members by demand (desc) so the beam places heavy users
	// first; deterministic tie-break by ID.
	members := append([]trace.UserID(nil), clique...)
	sort.Slice(members, func(i, j int) bool {
		di, dj := b.demands[members[i]], b.demands[members[j]]
		if di != dj {
			return di > dj
		}
		return members[i] < members[j]
	})

	maxPerAP := (len(members) + len(b.state) - 1) / len(b.state)

	// Exhaustive when the space is small: len(state)^len(members)
	// candidates bounded by exhaustiveLimit. The beam search prunes to
	// BeamWidth per level otherwise.
	beamWidth := s.cfg.BeamWidth
	if pow := intPow(len(b.state), len(members)); pow > 0 && pow <= exhaustiveLimit {
		beamWidth = pow
		obsExhaustive.Inc()
	}

	// One batched counter update per clique: candidates generated across
	// all beam levels, accumulated locally to keep the loop atomic-free.
	var candsGenerated int64
	defer func() { obsBeamCands.Add(candsGenerated) }()

	beam := []beamCandidate{{used: make([]int, len(b.state))}}
	for mi, u := range members {
		var next []beamCandidate
		for _, cand := range beam {
			for apIdx := range b.state {
				if cand.used[apIdx] >= maxPerAP {
					continue // keep clique members dispersed
				}
				c := s.cost(u, mi, members, cand, apIdx, b)
				if math.IsInf(c, 1) {
					// Infeasible: heavily penalized but not discarded —
					// every user must land somewhere.
					c = 1e18
				}
				nc := beamCandidate{
					assign: append(append([]int(nil), cand.assign...), apIdx),
					cost:   cand.cost + c,
					used:   append([]int(nil), cand.used...),
				}
				nc.used[apIdx]++
				next = append(next, nc)
			}
		}
		candsGenerated += int64(len(next))
		sortCandidates(next)
		if len(next) > beamWidth {
			next = next[:beamWidth]
		}
		beam = next
	}
	if len(beam) == 0 {
		return nil, nil, fmt.Errorf("core: no distribution found for clique of %d", len(clique))
	}

	// Keep the top TopFraction by cost — tie-inclusive, so equal-cost
	// distributions (the common no-social-ties case) all reach the
	// balance tie-break — then pick the best projected balance index.
	keep := int(math.Ceil(float64(len(beam)) * s.cfg.TopFraction))
	if keep < 1 {
		keep = 1
	}
	for keep < len(beam) && beam[keep].cost == beam[keep-1].cost {
		keep++
	}
	finalists := beam[:keep]
	bestIdx, bestBeta := 0, -1.0
	for i, cand := range finalists {
		beta := s.projectedBalance(cand, members, b.demands, b.state)
		if beta > bestBeta {
			bestIdx, bestBeta = i, beta
		}
	}
	return members, finalists[bestIdx].assign, nil
}

// cost returns C(AP) = Σ_{w∈S(AP)} θ(u,w) for placing members[mi] on
// apIdx under the candidate's earlier placements: the seated close
// friends, then the batch users placed there by earlier cliques, then
// the candidate's own earlier members there. It is +Inf when the
// bandwidth constraint Σw(u) ≤ W(i) would be violated.
func (s *Selector) cost(u trace.UserID, mi int, members []trace.UserID,
	cand beamCandidate, apIdx int, b *batch) float64 {
	load := b.state[apIdx].LoadBps
	for i, w := range members[:mi] {
		if cand.assign[i] == apIdx {
			load += b.demands[w]
		}
	}
	if !domain.Admits(b.state[apIdx].CapacityBps, load, b.demands[u]) {
		return math.Inf(1)
	}
	c := b.resident[u][apIdx]
	for _, w := range b.onAP[apIdx] {
		c += s.closeTheta(u, w)
	}
	for i, w := range members[:mi] {
		if cand.assign[i] == apIdx {
			c += s.closeTheta(u, w)
		}
	}
	return c
}

// projectedBalance computes the normalized balance index of the AP load
// vector after applying the candidate distribution.
func (s *Selector) projectedBalance(cand beamCandidate,
	members []trace.UserID, demands map[trace.UserID]float64,
	state []wlan.APView) float64 {
	loads := make([]float64, len(state))
	for i, ap := range state {
		loads[i] = ap.LoadBps
	}
	for i, u := range members {
		loads[cand.assign[i]] += demands[u]
	}
	beta, err := metrics.NormalizedBalanceIndex(loads)
	if err != nil {
		return 0
	}
	return beta
}

// intPow returns base^exp, or -1 once the result exceeds exhaustiveLimit
// (the caller only needs to know whether exhaustive enumeration fits).
func intPow(base, exp int) int {
	result := 1
	for i := 0; i < exp; i++ {
		result *= base
		if result < 0 || result > exhaustiveLimit {
			return -1
		}
	}
	return result
}

// sortCandidates orders candidates by cost, then lexicographically by
// assignment — a total order, so the beam is deterministic.
func sortCandidates(cands []beamCandidate) {
	slices.SortFunc(cands, func(a, b beamCandidate) int {
		if c := cmp.Compare(a.cost, b.cost); c != 0 {
			return c
		}
		return slices.Compare(a.assign, b.assign)
	})
}
