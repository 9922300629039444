package protocol

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/s3wlan/s3wlan/internal/domain"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Controller durability: with WithJournal, every domain mutation the
// controller commits — registrations, association commits (single and
// batch), disassociations and lease expiries — is appended to a
// write-ahead journal after it applies, and checkpoints capture the full
// controller state (domain associations with each seat's session, AP
// lease metadata, and the social observer's learned state when it can
// persist itself). A restarted controller pointed at the same directory
// recovers the newest valid checkpoint and replays the record tail
// through the live paths' own helpers, so believed loads, assignments
// and the θ-graph survive a crash.
//
// Served-byte counters (station traffic accounting) are advisory and
// only as fresh as the last checkpoint: traffic volume is not a domain
// mutation and is deliberately not journaled per report.
//
// Observer event ordering under a journal is described at deferEvents.

var obsReplayErrs = obs.GetCounter("journal.recovery.replay_errors",
	"Recovered WAL records whose replay failed (skipped, recovery continues)")

// ObserverState is the optional persistence surface of an association
// observer. An observer implementing it (e.g. the incremental social
// engine) is checkpointed with the controller and restored before the
// journal tail is replayed through it.
type ObserverState interface {
	WriteState(w io.Writer) error
	ReadState(r io.Reader) error
}

// WithJournal enables crash-safe state: the controller recovers from the
// write-ahead journal in dir at construction and appends every domain
// mutation to it afterwards. opts.State and opts.OpenFile's default are
// controller-owned; the remaining options (fsync policy and interval,
// checkpoint cadence, logger) are the caller's.
func WithJournal(dir string, opts journal.Options) ControllerOption {
	return func(c *Controller) {
		c.journalDir = dir
		c.journalOpts = opts
	}
}

// RecoverySummary reports what a journal-enabled controller rebuilt at
// construction.
type RecoverySummary struct {
	// Stats is the journal layer's account: checkpoint used, records
	// replayed, corruption tolerated.
	Stats journal.RecoveryStats
	// APs and Assignments count the recovered registrations and user
	// assignments after replay.
	APs, Assignments int
	// ReplayErrors counts journal records that could not be re-applied
	// (e.g. an association whose AP registration was lost to a corrupt
	// frame). Each is logged and skipped.
	ReplayErrors int
}

// Recovery returns the construction-time recovery summary, or nil when
// the controller runs without a journal.
func (c *Controller) Recovery() *RecoverySummary { return c.recovered }

// checkpointMeta is one AP's serialized lease metadata. Agent
// connections are inherently not recoverable; an agent-backed AP
// restarts with its lease clock where the checkpoint left it and either
// re-hellos or expires through the normal observer path.
type checkpointMeta struct {
	Static   bool   `json:"static,omitempty"`
	LastSeen int64  `json:"last_seen,omitempty"`
	Gen      uint64 `json:"gen,omitempty"`
}

// checkpointDoc is the controller's full checkpoint payload. The three
// per-user maps are derived from the placement table when written; when
// read, the domain state decides who sits where, and AssignedAt and
// ServedByUsr restore each seat's session.
type checkpointDoc struct {
	Domain      *domain.State                 `json:"domain"`
	Assignments map[trace.UserID]trace.APID   `json:"assignments,omitempty"`
	AssignedAt  map[trace.UserID]int64        `json:"assigned_at,omitempty"`
	ServedByUsr map[trace.UserID]int64        `json:"served_by_user,omitempty"`
	Served      map[trace.APID]int64          `json:"served,omitempty"`
	Meta        map[trace.APID]checkpointMeta `json:"meta,omitempty"`
	Society     json.RawMessage               `json:"society,omitempty"`
}

// writeCheckpointLocked serializes the controller's complete state to w.
// It runs with c.mu held: the journal invokes its State callback
// synchronously from Append (called under c.mu on every mutation path)
// and from the forced checkpoint in Close (which takes c.mu first), so
// the snapshot is always consistent with the record that triggered it.
func (c *Controller) writeCheckpointLocked(w io.Writer) error {
	doc := checkpointDoc{
		Domain:      c.dom.ExportState(),
		Assignments: make(map[trace.UserID]trace.APID),
		AssignedAt:  make(map[trace.UserID]int64),
		ServedByUsr: make(map[trace.UserID]int64),
		Served:      c.served,
		Meta:        make(map[trace.APID]checkpointMeta, len(c.meta)),
	}
	c.dom.EachSeat(func(u trace.UserID, s domain.Seat) {
		doc.Assignments[u], doc.AssignedAt[u], doc.ServedByUsr[u] = s.AP, s.Start, s.Bytes
	})
	for id, m := range c.meta {
		doc.Meta[id] = checkpointMeta{Static: m.static, LastSeen: m.lastSeen, Gen: m.gen}
	}
	if st, ok := c.observer.(ObserverState); ok {
		var buf bytes.Buffer
		if err := st.WriteState(&buf); err != nil {
			return fmt.Errorf("protocol: checkpoint observer state: %w", err)
		}
		doc.Society = buf.Bytes()
	}
	if err := json.NewEncoder(w).Encode(&doc); err != nil {
		return fmt.Errorf("protocol: encode checkpoint: %w", err)
	}
	return nil
}

// openJournalLocked opens dir for appending, replays it through
// applyRecord, and arms appends only then: replaying must never
// re-journal. A fresh controller (NewController) restores the newest
// checkpoint first. A promoted follower (AttachJournal) has applied every
// record up to afterSeq already, so it refuses a checkpoint beyond that
// and replays only the rest. Replay errors are logged, counted and
// skipped.
func (c *Controller) openJournalLocked(dir string, opts journal.Options, afterSeq uint64, fresh bool) (*RecoverySummary, error) {
	opts.State = c.writeCheckpointLocked
	if opts.Logger == nil {
		opts.Logger = c.logger
	}
	j, rec, err := journal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	switch {
	case rec.Checkpoint == nil:
	case fresh:
		err = c.restoreCheckpoint(rec.Checkpoint)
	case rec.Stats.CheckpointSeq > afterSeq:
		err = fmt.Errorf("protocol: follower at seq %d behind journal checkpoint %d; resync before takeover",
			afterSeq, rec.Stats.CheckpointSeq)
	}
	if err != nil {
		j.Close()
		return nil, err
	}
	sum := &RecoverySummary{Stats: rec.Stats}
	for _, r := range rec.Records {
		if r.Seq <= afterSeq {
			continue
		}
		if err := c.applyRecord(r); err != nil {
			sum.ReplayErrors++
			obsReplayErrs.Inc()
			c.logger.Printf("journal: replay record %d (%s): %v", r.Seq, r.Op, err)
		}
	}
	sum.APs = c.dom.Size()
	c.dom.EachSeat(func(trace.UserID, domain.Seat) { sum.Assignments++ })
	c.recovered = sum
	c.jn = j
	return sum, nil
}

// restoreCheckpoint loads a checkpoint payload: domain associations and
// their sessions, AP lease metadata, and the observer's learned state
// when both sides support it.
func (c *Controller) restoreCheckpoint(payload []byte) error {
	var doc checkpointDoc
	if err := json.Unmarshal(payload, &doc); err != nil {
		return fmt.Errorf("protocol: decode checkpoint: %w", err)
	}
	if doc.Domain != nil {
		if err := c.dom.ImportState(doc.Domain); err != nil {
			return err
		}
	}
	for u, ts := range doc.AssignedAt {
		c.dom.SetSession(u, ts, doc.ServedByUsr[u])
	}
	for ap, b := range doc.Served {
		c.served[ap] = b
	}
	for id, m := range doc.Meta {
		c.meta[id] = &apMeta{static: m.Static, lastSeen: m.LastSeen, gen: m.Gen}
	}
	if len(doc.Society) > 0 {
		if st, ok := c.observer.(ObserverState); ok {
			if err := st.ReadState(bytes.NewReader(doc.Society)); err != nil {
				return fmt.Errorf("protocol: restore observer state: %w", err)
			}
		}
	}
	return nil
}

// applyRecord re-applies one journaled mutation — during recovery, for
// an ApplyRecord follower, or on takeover — through the same helpers the
// live paths call: domain commits, sessions, lease metadata and observer
// events (so a social engine restored from the checkpoint relearns
// exactly the tail). Replay writes no session log (the pre-crash process
// logged those sessions) and, with appends not yet armed, no journal.
func (c *Controller) applyRecord(r journal.Record) error {
	c.replaying = true
	defer func() { c.replaying = false }()
	switch r.Op {
	case journal.OpRegister:
		_, err := c.registerLocked(r.AP, r.CapacityBps, r.Static, r.TS)
		return err
	case journal.OpAssoc:
		ps := make([]domain.Placement, len(r.Placements))
		for i, p := range r.Placements {
			ps[i] = domain.Placement{User: p.User, AP: p.AP, DemandBps: p.DemandBps}
		}
		_, err := c.commitLocked(ps, make([]domain.Seat, len(ps)), nil, r.TS)
		return err
	case journal.OpDisassoc:
		if _, ok := c.leaveLocked(r.User, r.TS); !ok {
			return fmt.Errorf("protocol: disassoc replay for unassigned user %q", r.User)
		}
		return nil
	case journal.OpExpire:
		if _, ok := c.meta[r.AP]; !ok {
			return fmt.Errorf("protocol: expire replay for unknown AP %q", r.AP)
		}
		c.removeAPLocked(r.AP, r.TS, nil)
		return nil
	}
	return fmt.Errorf("protocol: unknown journal op %q", r.Op)
}

// journalAppendLocked appends one record if journaling is enabled. Runs
// with c.mu held, after the mutation it describes has applied. An append
// failure is logged and counted (journal.append_errors) but does not
// fail the client operation: this prototype prefers availability, and a
// recovered state that is missing tail records is exactly what recovery
// is specified to tolerate.
func (c *Controller) journalAppendLocked(rec journal.Record) {
	if c.jn == nil {
		return
	}
	if err := c.jn.Append(rec); err != nil {
		c.logger.Printf("journal: %v", err)
	}
}

// closeJournal checkpoints (graceful shutdown makes restart instant) and
// closes the journal. Runs without c.mu held.
func (c *Controller) closeJournal() error {
	c.mu.Lock()
	j := c.jn
	c.jn = nil
	var err error
	if j != nil {
		err = j.Checkpoint() // State callback runs under c.mu, as always
	}
	c.mu.Unlock()
	if j != nil {
		if cerr := j.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
