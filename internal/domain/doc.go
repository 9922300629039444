// Package domain is the shared association-domain core: the one place
// in the repository that holds AP registry state, per-AP load and user
// accounting, capacity admission, view snapshotting for association
// policies, versioned check-and-retry commits, and every live session.
//
// # Placement table
//
// Who sits where is stored once, in a user → seats table; a seat is an
// AP, the believed demand held there, and the session on it: when it
// started and the bytes served since. A new seat or a move starts a
// session at the placement's TS; a same-AP refresh keeps it; Credit adds
// served bytes. The live controller keeps no per-user state of its own:
// its session log, checkpoints and journal replay all read the seats,
// and RemoveAP, SetFailed and LeaveAll hand back the seats they close.
// APs keep aggregates only, so a view copies O(APs) values whatever the
// resident count, and Commit, Leave and LeaveAll are O(1) table updates.
// Policies ask AppendSeats where a given user sits; Info, ExportState
// and the evictions derive membership from the table in one pass,
// sorted by user ID.
//
// Both execution paths are thin drivers over it — the batch simulator
// (internal/wlan) replays a trace through a Domain per controller, and
// the live TCP controller (internal/protocol) serves stations from one —
// so a policy decision is byte-identical in simulation and deployment by
// construction: the same view assembly, the same admission predicate,
// the same commit arithmetic.
//
// # Sharding
//
// A Domain is partitioned into a configurable number of shards by a
// stable AP→shard hash (FNV-1a of the AP ID). Each shard owns its APs
// behind its own RWMutex and carries its own version counter, bumped on
// every structural change (AP set, membership, failure state). Policy
// selection runs lock-free against a snapshot: Views collects per-shard
// read-locked copies plus the per-shard version vector, the selector
// deliberates without any lock held, and Commit re-validates only the
// versions of the shards the decision touches.
//
// A decision that lands entirely inside one shard commits on the fast
// path — one shard lock, one version check — so concurrent
// single-shard associations scale with the shard count. A placement
// set that spans shards (S³'s Algorithm 1 distributing a social clique
// across APs) takes the deterministic two-phase path: the involved
// shards are locked in ascending index order, all versions validated,
// all placements applied, then released — all-or-nothing, so a stale
// snapshot never half-commits a clique.
//
// Commit with a nil Version skips validation (the forced commit a
// caller uses after exhausting retries, and the batch simulator's
// default: single-threaded replay can never be stale).
//
// # Staleness model
//
// The version vector is collected shard-by-shard without a global lock,
// so a snapshot is not a consistent cut across shards; validation is
// per-shard. A change in a shard the decision does not touch never
// invalidates the commit. This is deliberate: membership mutation stays
// serialized per shard, so staleness can cost decision optimality but
// never state consistency — the same contract the live controller has
// always documented for its retry loop.
// Friend lookups through AppendSeats read live placements, outside the
// version vector, under the same contract.
package domain
