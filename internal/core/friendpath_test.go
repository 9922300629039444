package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// plainIndex is a SocialIndex with no close-friend lists.
type plainIndex func(u, v trace.UserID) float64

func (f plainIndex) Index(u, v trace.UserID) float64 { return f(u, v) }

// TestNewSelectorFriendSource: the selector needs close-friend lists at
// its own edge threshold. A FriendIndex cut at another threshold, or an
// index with no lists, is refused; a *society.Model gets its lists built.
func TestNewSelectorFriendSource(t *testing.T) {
	idx := mapIndex{pair("u", "w"): 0.9}
	s, err := NewSelector(idx, SelectorConfig{EdgeThreshold: 0.3})
	if err != nil || s.friends == nil {
		t.Fatalf("matching threshold: %v", err)
	}
	if _, err := NewSelector(idx, SelectorConfig{EdgeThreshold: 0.5}); err == nil {
		t.Error("mismatched threshold must be refused (rankings would diverge)")
	}
	if _, err := NewSelector(plainIndex(idx.Index), SelectorConfig{}); err == nil {
		t.Error("an index without close-friend lists must be refused")
	}
	var nilModel *society.Model
	if _, err := NewSelector(nilModel, SelectorConfig{}); err == nil {
		t.Error("a nil model must be refused")
	}
	m := &society.Model{PairProb: map[society.Pair]float64{society.MakePair("u", "w"): 0.9}}
	s, err = NewSelector(m, SelectorConfig{EdgeThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.friends.CloseFriends("u"); len(got) != 1 || got[0] != "w" {
		t.Errorf("model close friends of u = %v, want [w]", got)
	}
}

// scanSelect is the Index-scan oracle: S³'s single-arrival ranking
// computed by evaluating θ against every resident of every AP, as the
// selector did before it looked friends up in the placement table.
// Residents without a listed demand count one requester-demand unit.
func scanSelect(idx SocialIndex, threshold, balanceGuard float64, req wlan.Request, aps []wlan.APView) trace.APID {
	unit := req.DemandBps
	if unit <= 0 {
		unit = 1
	}
	minLoad, total := math.Inf(1), 0.0
	for _, ap := range aps {
		total += ap.LoadBps
		minLoad = math.Min(minLoad, ap.LoadBps)
	}
	guard := minLoad + balanceGuard*(total/float64(len(aps))+req.DemandBps)
	less := func(a, b wlan.APView) bool {
		if a.LoadBps != b.LoadBps {
			return a.LoadBps < b.LoadBps
		}
		if len(a.Users) != len(b.Users) {
			return len(a.Users) < len(b.Users)
		}
		return a.ID < b.ID
	}
	best, bestFriends, feas := -1, 0, -1
	for i, ap := range aps {
		if !ap.HasCapacityFor(req.DemandBps) {
			continue
		}
		if feas < 0 || less(ap, aps[feas]) {
			feas = i
		}
		if ap.LoadBps > guard {
			continue
		}
		var load float64
		for k, w := range ap.Users {
			if idx.Index(req.User, w) <= threshold {
				continue
			}
			if k < len(ap.UserDemands) {
				load += ap.UserDemands[k]
			} else {
				load += unit
			}
		}
		friends := int(math.Floor(load / unit))
		if best < 0 || friends < bestFriends || (friends == bestFriends && less(ap, aps[best])) {
			best, bestFriends = i, friends
		}
	}
	switch {
	case best >= 0:
		return aps[best].ID
	case feas >= 0:
		return aps[feas].ID
	}
	least := 0
	for i := range aps {
		if less(aps[i], aps[least]) {
			least = i
		}
	}
	return aps[least].ID
}

// TestFriendFastPathParity: looking friends up in the placement table
// must return the identical AP the Index-scan oracle picks, for
// randomized memberships, loads and demands.
func TestFriendFastPathParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	users := make([]trace.UserID, 24)
	for i := range users {
		users[i] = trace.UserID(fmt.Sprintf("u%02d", i))
	}
	idx := mapIndex{}
	for i := range users {
		for j := i + 1; j < len(users); j++ {
			if rng.Float64() < 0.3 {
				idx[pair(users[i], users[j])] = rng.Float64() // some above, some below 0.3
			}
		}
	}
	cfg := DefaultSelectorConfig()
	sel, err := NewSelector(idx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 200; trial++ {
		nAPs := 2 + rng.Intn(5)
		fixtures := make([]wlan.APView, nAPs)
		perm := rng.Perm(len(users))
		at := 0
		for i := range fixtures {
			n := rng.Intn(6)
			var members []trace.UserID
			for k := 0; k < n && at < len(perm); k++ {
				members = append(members, users[perm[at]])
				at++
			}
			sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
			demands := make([]float64, len(members))
			for k := range demands {
				demands[k] = float64(1 + rng.Intn(100))
			}
			fixtures[i] = wlan.APView{
				ID:          trace.APID(fmt.Sprintf("ap%d", i)),
				CapacityBps: 1e6,
				LoadBps:     float64(rng.Intn(500)),
				Users:       members,
				UserDemands: demands,
			}
		}
		req := wlan.Request{User: users[rng.Intn(len(users))], DemandBps: float64(1 + rng.Intn(100))}
		want := scanSelect(idx, cfg.EdgeThreshold, cfg.BalanceGuard, req, fixtures)
		aps, dom := seeded(t, req.DemandBps, fixtures)
		req.Placements = dom
		got, err := sel.Select(req, aps)
		if err != nil || got != want {
			t.Fatalf("trial %d: placement lookup = %v (%v), Index-scan oracle = %v\nreq %+v\naps %+v",
				trial, got, err, want, req, fixtures)
		}
	}
}
