package protocol

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/s3wlan/s3wlan/internal/journal"
)

// Federation-facing surface of the controller: the exported entry
// points internal/federation uses to run a controller as one replica of
// a shard-owning cluster.
//
//   - A *standby* controller mirrors a shard owner by applying the
//     owner's replicated journal records (RestoreCheckpoint for the
//     initial snapshot or a resync, ApplyRecord per tailed record).
//   - On failover the standby is *promoted*: AttachJournal opens the
//     shard's journal for appending at the new ownership epoch,
//     replays whatever tail the follower had not yet seen, and arms
//     the same append hooks a journal-born controller has.
//   - The routing front-end hands connections whose hello belongs to a
//     locally owned shard to HandleSession; remote shards are relayed
//     over the binary codec (Conn.ReceiveBatch / Conn.SendBatch).
//
// None of this is reachable in single-node mode: a controller built by
// NewController with WithJournal behaves exactly as before.

// HandleSession runs one peer session whose hello has already been
// read — the entry point a federation router uses to hand a routed
// connection to the local controller. Validation and dispatch are
// identical to a directly accepted connection. HandleSession does not
// close conn; the caller owns its lifecycle. It returns when the
// session ends.
func (c *Controller) HandleSession(conn *Conn, hello Message) {
	if hello.Type != MsgHello {
		c.replyError(conn, fmt.Sprintf("expected hello, got %s", hello.Type))
		return
	}
	if err := validateMessage(&hello); err != nil {
		obsMsgRejected.Inc()
		c.replyError(conn, err.Error())
		return
	}
	switch hello.Role {
	case RoleAP:
		c.handleAP(conn, hello)
	case RoleStation:
		c.handleStation(conn, hello)
	default:
		c.replyError(conn, fmt.Sprintf("unknown role %q", hello.Role))
	}
}

// RestoreCheckpoint loads a full controller checkpoint — the payload a
// shard owner's journal checkpoint holds, delivered to a follower
// through a replication-stream resync. The controller must hold no
// prior association state (a freshly constructed standby); restoring
// over existing state fails. Not valid on a journal-armed controller.
func (c *Controller) RestoreCheckpoint(payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jn != nil {
		return errors.New("protocol: RestoreCheckpoint on a journal-armed controller")
	}
	return c.restoreCheckpoint(payload)
}

// ApplyRecord applies one replicated journal record to the
// controller's state through the recovery replay path: domain commit,
// assignment bookkeeping and observer events, with no session-log or
// journal emission. This is how a standby follower mirrors a shard
// owner record by record. Not valid on a journal-armed controller —
// an owner must never re-apply its own appends.
func (c *Controller) ApplyRecord(r journal.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jn != nil {
		return errors.New("protocol: ApplyRecord on a journal-armed controller")
	}
	return c.applyRecord(r)
}

// AttachJournal promotes a standby controller to shard owner: it opens
// dir for appending (opts.Epoch carries the new ownership epoch),
// replays only the records beyond afterSeq — everything up to afterSeq
// was already applied through RestoreCheckpoint/ApplyRecord while
// following — and arms journaling so every subsequent mutation
// appends, exactly like a controller built with WithJournal.
//
// afterSeq is the promoting follower's LastSeq. If the journal's
// newest checkpoint is beyond afterSeq the follower missed pruned
// records; the caller must resync the follower first (AttachJournal
// refuses rather than replay from a checkpoint it cannot import over
// live state).
func (c *Controller) AttachJournal(dir string, opts journal.Options, afterSeq uint64) (*RecoverySummary, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jn != nil {
		return nil, errors.New("protocol: journal already attached")
	}
	opts.State = c.writeCheckpointLocked
	if opts.Logger == nil {
		opts.Logger = c.logger
	}
	j, rec, err := journal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	if rec.Checkpoint != nil && rec.Stats.CheckpointSeq > afterSeq {
		j.Close()
		return nil, fmt.Errorf("protocol: follower at seq %d behind journal checkpoint %d; resync before takeover",
			afterSeq, rec.Stats.CheckpointSeq)
	}
	sum := &RecoverySummary{Stats: rec.Stats}
	for _, r := range rec.Records {
		if r.Seq <= afterSeq {
			continue
		}
		if err := c.applyRecord(r); err != nil {
			sum.ReplayErrors++
			obsReplayErrs.Inc()
			c.logger.Printf("journal: takeover replay record %d (%s): %v", r.Seq, r.Op, err)
		}
	}
	sum.APs = c.dom.Size()
	sum.Assignments = len(c.assignments)
	c.recovered = sum
	c.jn = j
	return sum, nil
}

// DetachJournal closes the controller's journal WITHOUT the shutdown
// checkpoint Close writes — the demotion path. A superseded owner must
// not snapshot its (now stale) state into a directory the new owner is
// appending to; it just stops writing. The controller keeps serving
// in-memory only; callers are expected to discard it for a fresh
// standby.
func (c *Controller) DetachJournal() error {
	c.mu.Lock()
	j := c.jn
	c.jn = nil
	c.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Close()
}

// NewServerConn wraps an accepted connection with codec sniffing (the
// controller's own accept loops do the same) — the constructor the
// federation router uses for connections it accepts itself before
// deciding whether to serve or relay them.
func NewServerConn(raw net.Conn, timeout time.Duration) *Conn {
	return newServerConn(raw, timeout)
}

// JournalSeq reports the last sequence number this controller's
// journal assigned, or 0 without a journal — the head position a
// follower must reach before takeover completes.
func (c *Controller) JournalSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jn == nil {
		return 0
	}
	return c.jn.Seq()
}

// ReceiveBatch reads one wire unit and returns every message it
// carried: the whole frame on the binary codec (the unit SendBatch
// writes), a single message on JSON lines. Messages are appended to
// buf (reused across calls; pass nil to allocate). The relay
// front-end uses Receive/ReceiveBatch + SendBatch to forward a peer's
// traffic to a remote shard owner without re-framing message by
// message.
func (c *Conn) ReceiveBatch(buf []Message) ([]Message, error) {
	m, err := c.Receive()
	if err != nil {
		return buf, err
	}
	buf = append(buf[:0], m)
	for c.qpos < len(c.queue) {
		buf = append(buf, c.queue[c.qpos])
		c.qpos++
	}
	return buf, nil
}
