package society

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// OnlineLearner persistence: the incremental engine's checkpoint path
// serializes the learner's complete working state — raw pair tallies,
// open presences and recent-leaving windows — so a restarted controller
// resumes learning mid-presence instead of forgetting every session that
// was open at the crash. The codec follows WriteModel's conventions
// ("a|b" pair keys, a version field guarding the format).

// learnerStateVersion guards the serialized learner format.
const learnerStateVersion = 1

// presenceDoc is one serialized open presence (see openPresence).
type presenceDoc struct {
	Starts []int64 `json:"starts"`
	Since  int64   `json:"since"`
}

// leaveDoc is one serialized recent-leaving event.
type leaveDoc struct {
	User trace.UserID `json:"user"`
	At   int64        `json:"at"`
}

// learnerDoc is the serialized form of an OnlineLearner's state.
type learnerDoc struct {
	Version    int                                         `json:"version"`
	Open       map[trace.APID]map[trace.UserID]presenceDoc `json:"open,omitempty"`
	RecentEnds map[trace.APID][]leaveDoc                   `json:"recent_ends,omitempty"`
	Encounters map[string]int                              `json:"encounters,omitempty"`
	CoLeaves   map[string]int                              `json:"co_leaves,omitempty"`
	Types      map[trace.UserID]int                        `json:"types,omitempty"`
	TypeMatrix [][]float64                                 `json:"type_matrix,omitempty"`
}

// WriteState serializes the learner's complete state to w as JSON.
func (l *OnlineLearner) WriteState(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	doc := learnerDoc{
		Version:    learnerStateVersion,
		Encounters: make(map[string]int, len(l.encounters)),
		CoLeaves:   make(map[string]int, len(l.coLeaves)),
		Types:      l.types,
		TypeMatrix: l.typeMatrix,
	}
	if len(l.open) > 0 {
		doc.Open = make(map[trace.APID]map[trace.UserID]presenceDoc, len(l.open))
		for ap, users := range l.open {
			m := make(map[trace.UserID]presenceDoc, len(users))
			for u, p := range users {
				m[u] = presenceDoc{Starts: p.starts, Since: p.since}
			}
			doc.Open[ap] = m
		}
	}
	if len(l.recentEnds) > 0 {
		doc.RecentEnds = make(map[trace.APID][]leaveDoc, len(l.recentEnds))
		for ap, evs := range l.recentEnds {
			ds := make([]leaveDoc, len(evs))
			for i, ev := range evs {
				ds[i] = leaveDoc{User: ev.User, At: ev.At}
			}
			doc.RecentEnds[ap] = ds
		}
	}
	for p, v := range l.encounters {
		doc.Encounters[pairKey(p)] = v
	}
	for p, v := range l.coLeaves {
		doc.CoLeaves[pairKey(p)] = v
	}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return fmt.Errorf("society: encode learner state: %w", err)
	}
	return nil
}

// ReadLearnerState builds a learner from a state serialized by
// WriteState, under the given configuration (the configuration itself
// is not serialized: windows and thresholds belong to the deployment,
// not to the learned statistics).
func ReadLearnerState(r io.Reader, cfg Config) (*OnlineLearner, error) {
	var doc learnerDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("society: decode learner state: %w", err)
	}
	if doc.Version != learnerStateVersion {
		return nil, fmt.Errorf("society: unsupported learner state version %d", doc.Version)
	}
	l := NewOnlineLearner(cfg)
	for ap, users := range doc.Open {
		m := make(map[trace.UserID]*openPresence, len(users))
		for u, p := range users {
			if len(p.Starts) == 0 {
				continue
			}
			m[u] = &openPresence{starts: append([]int64(nil), p.Starts...), since: p.Since}
		}
		if len(m) > 0 {
			l.open[ap] = m
		}
	}
	for ap, evs := range doc.RecentEnds {
		out := make([]LeaveEvent, len(evs))
		for i, ev := range evs {
			out[i] = LeaveEvent{User: ev.User, AP: ap, At: ev.At}
		}
		l.recentEnds[ap] = out
	}
	for k, v := range doc.Encounters {
		p, err := parsePairKey(k)
		if err != nil {
			return nil, err
		}
		l.encounters[p] = v
	}
	for k, v := range doc.CoLeaves {
		p, err := parsePairKey(k)
		if err != nil {
			return nil, err
		}
		l.coLeaves[p] = v
	}
	if doc.Types != nil {
		l.types = doc.Types
		l.typeMatrix = doc.TypeMatrix
	}
	return l, nil
}

// Pairs returns every pair with any recorded tally (encounter or
// co-leave), sorted — the candidate set an engine rebuild must restage.
func (l *OnlineLearner) Pairs() []Pair {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := make(map[Pair]struct{}, len(l.encounters)+len(l.coLeaves))
	for p := range l.encounters {
		seen[p] = struct{}{}
	}
	for p := range l.coLeaves {
		seen[p] = struct{}{}
	}
	out := make([]Pair, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
