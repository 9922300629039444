package incremental

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Engine persistence: the journal checkpoint captures the engine's
// learned state — the learner's raw tallies plus the seen-user set and
// type assignment — and restore rebuilds the derived θ-graph and clique
// cover from scratch. Derived state is never serialized: a full rebuild
// from tallies is batch-equivalent by construction (the property tests
// pin incremental ≡ batch), so the restored snapshot matches what the
// pre-crash engine would publish on its next full refresh.

// engineStateVersion guards the serialized engine format.
const engineStateVersion = 1

// engineDoc is the serialized form of an Engine's learned state.
type engineDoc struct {
	Version int                  `json:"version"`
	Users   []trace.UserID       `json:"users,omitempty"`
	Types   map[trace.UserID]int `json:"types,omitempty"`
	Matrix  [][]float64          `json:"matrix,omitempty"`
	Learner json.RawMessage      `json:"learner"`
}

// WriteState serializes the engine's learned state (user set, type
// assignment, learner tallies) to w as JSON. Derived graph state is
// recomputed on restore, not stored.
func (e *Engine) WriteState(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	doc := engineDoc{
		Version: engineStateVersion,
		Users:   make([]trace.UserID, 0, len(e.users)),
		Types:   e.types,
		Matrix:  e.matrix,
	}
	for u := range e.users {
		doc.Users = append(doc.Users, u)
	}
	sort.Slice(doc.Users, func(i, j int) bool { return doc.Users[i] < doc.Users[j] })
	var buf bytes.Buffer
	if err := e.learner.WriteState(&buf); err != nil {
		return err
	}
	doc.Learner = buf.Bytes()
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return fmt.Errorf("incremental: encode engine state: %w", err)
	}
	return nil
}

// ReadState replaces the engine's state with one serialized by
// WriteState: the learner is rebuilt from its tallies, the user set and
// type assignment reinstalled, and the θ-graph and clique cover fully
// rebuilt and published as a fresh snapshot. The engine's configuration
// is kept — like the learner's, it belongs to the deployment, not to
// the learned statistics.
func (e *Engine) ReadState(r io.Reader) error {
	var doc engineDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("incremental: decode engine state: %w", err)
	}
	if doc.Version != engineStateVersion {
		return fmt.Errorf("incremental: unsupported engine state version %d", doc.Version)
	}
	learner, err := society.ReadLearnerState(bytes.NewReader(doc.Learner), e.cfg.Society)
	if err != nil {
		return err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.learner = learner
	e.users = make(map[trace.UserID]struct{}, len(doc.Users))
	for _, u := range doc.Users {
		e.users[u] = struct{}{}
	}
	e.comps = make(map[trace.UserID]*component)
	e.compOf = make(map[trace.UserID]*component)
	e.index = &pairIndex{alpha: e.cfg.Society.Alpha}
	e.edges = 0
	e.pendEdges = make(map[society.Pair]pendingEdge)
	e.pendProbs = make(map[society.Pair]pendingProb)
	e.newUsers = nil
	e.setTypesLocked(doc.Types, doc.Matrix)

	// Restage every tallied pair so the rebuilt pair index carries the
	// exact probabilities the rebuild below reads its candidates from.
	e.allDirty = true
	for _, p := range e.learner.Pairs() {
		e.stagePairLocked(p)
	}
	e.refreshLocked()
	return nil
}
