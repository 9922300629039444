package domain

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// State is a Domain's complete association state in portable form — the
// checkpoint payload of the journal's durability layer. It is
// shard-layout independent: exporting a 16-shard domain and importing
// into a single-shard one (or vice versa) yields identical views,
// because the AP→shard mapping is a pure function of the AP ID.
type State struct {
	Version int       `json:"version"`
	APs     []APState `json:"aps"`
}

// APState is one AP's exported state. Users and Demands are aligned and
// sorted by user ID for deterministic serialization.
type APState struct {
	ID          trace.APID     `json:"id"`
	CapacityBps float64        `json:"capacity_bps"`
	ReportedBps float64        `json:"reported_bps,omitempty"`
	Failed      bool           `json:"failed,omitempty"`
	Users       []trace.UserID `json:"users,omitempty"`
	Demands     []float64      `json:"demands,omitempty"`
}

// stateVersion guards the serialized format.
const stateVersion = 1

// ExportState snapshots the domain's full association state: every AP
// with its capacity, report, failure flag and believed users/demands.
// Every shard is read-locked for the duration, and the memberships are
// derived from the placement table in one pass, sorted by user ID. APs
// are returned in sorted ID order.
func (d *Domain) ExportState() *State {
	for _, sh := range d.shards {
		sh.mu.RLock()
	}
	var aps []*apState
	for _, sh := range d.shards {
		aps = append(aps, sh.sorted...)
	}
	seats := d.seatsOn(aps...)
	st := &State{Version: stateVersion, APs: make([]APState, 0, len(aps))}
	for _, ap := range aps {
		users, demands := split(seats[ap.id])
		st.APs = append(st.APs, APState{
			ID:          ap.id,
			CapacityBps: ap.capacityBps,
			ReportedBps: ap.reportedBps,
			Failed:      ap.failed,
			Users:       users,
			Demands:     demands,
		})
	}
	for _, sh := range d.shards {
		sh.mu.RUnlock()
	}
	slices.SortFunc(st.APs, func(a, b APState) int { return cmp.Compare(a.ID, b.ID) })
	return st
}

// ImportState loads an exported state into this domain, which must be
// empty (freshly constructed). The shard count need not match the
// exporting domain's. The whole state is checked before anything is
// applied, so a rejected state leaves the domain empty.
func (d *Domain) ImportState(st *State) error {
	if err := st.check(); err != nil {
		return err
	}
	if d.Size() != 0 {
		return fmt.Errorf("domain: import into non-empty domain (%d APs)", d.Size())
	}
	for _, ap := range st.APs {
		if err := d.AddAP(ap.ID, ap.CapacityBps); err != nil {
			return err // unreachable: check rejects empty and duplicate IDs
		}
		sh := d.shardOf(ap.ID)
		sh.mu.Lock()
		apst := sh.aps[ap.ID]
		apst.reportedBps = ap.ReportedBps
		apst.failed = ap.Failed
		for i, u := range ap.Users {
			t := d.stripeOf(u)
			t.mu.Lock()
			t.put(u, Seat{AP: ap.ID, DemandBps: ap.Demands[i]})
			t.mu.Unlock()
			apst.believedBps += ap.Demands[i]
		}
		apst.numUsers = len(ap.Users)
		sh.version++
		sh.syncGauges()
		sh.mu.Unlock()
	}
	return nil
}

// check validates a state before import: supported version, unique
// non-empty AP IDs, aligned users and demands, no user listed twice on
// one AP, and finite non-negative capacities, reports and demands.
func (st *State) check() error {
	if st == nil {
		return fmt.Errorf("domain: import nil state")
	}
	if st.Version != stateVersion {
		return fmt.Errorf("domain: unsupported state version %d", st.Version)
	}
	bad := func(v float64) bool { return !(v >= 0) || math.IsInf(v, 1) }
	seenAP := make(map[trace.APID]bool, len(st.APs))
	for _, ap := range st.APs {
		switch {
		case ap.ID == "" || seenAP[ap.ID]:
			return fmt.Errorf("domain: state has an empty or repeated AP id %q", ap.ID)
		case len(ap.Users) != len(ap.Demands):
			return fmt.Errorf("domain: AP %q state has %d users but %d demands",
				ap.ID, len(ap.Users), len(ap.Demands))
		case bad(ap.CapacityBps) || bad(ap.ReportedBps):
			return fmt.Errorf("domain: AP %q state has capacity %v, reported load %v",
				ap.ID, ap.CapacityBps, ap.ReportedBps)
		}
		seenAP[ap.ID] = true
		seenUser := make(map[trace.UserID]bool, len(ap.Users))
		for i, u := range ap.Users {
			if u == "" || seenUser[u] || bad(ap.Demands[i]) {
				return fmt.Errorf("domain: AP %q state has user %q (empty or repeated) or demand %v",
					ap.ID, u, ap.Demands[i])
			}
			seenUser[u] = true
		}
	}
	return nil
}

// WriteState serializes the domain's exported state to w as JSON.
func (d *Domain) WriteState(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(d.ExportState()); err != nil {
		return fmt.Errorf("domain: encode state: %w", err)
	}
	return nil
}

// ReadState parses a serialized state from r.
func ReadState(r io.Reader) (*State, error) {
	var st State
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("domain: decode state: %w", err)
	}
	return &st, nil
}
