// Package protocol implements the S³ prototype the paper validates its
// design with (Section IV): a WLAN controller as a TCP server speaking a
// JSON-lines wire protocol, AP agents that register and periodically
// report load, and stations that request association.
//
// The controller embeds any wlan.Selector — the S³ policy from
// internal/core or a baseline from internal/baseline — and makes live
// association decisions exactly as the simulator does, but over real
// sockets. That symmetry is the point: the same policy code path is
// exercised by the discrete-event simulation (internal/eventsim driving
// internal/wlan) and by this networked prototype, so simulated results
// carry over to the deployable artifact.
//
// Wire format: one JSON object per line, each carrying a Type tag
// (register, report, associate, decision, error) and the corresponding
// payload fields. The format is versioned by field presence only; unknown
// fields are ignored, which keeps old agents compatible with newer
// controllers.
//
// Lifecycle and failure model: AP registrations made by agents are
// leases — every hello and load report renews them, a re-hello from a
// reconnecting (or restarted) agent supersedes the previous connection,
// and an AP whose agent stays silent past the lease is expired, its
// believed users re-homed through the association observer and the
// session log. Agents built with DialAPReconnecting redial with
// exponential backoff and jitter when their connection drops. The
// controller's association path snapshots AP state under a short
// critical section and runs the policy lock-free, re-running stale
// decisions via a versioned check-and-retry, so concurrent stations do
// not serialize behind one beam search. Health counters (registrations,
// renewals, lease expiries, accept retries, selection retries, agent
// reconnects, rejected traffic) are exported through internal/obs under
// the protocol.* prefix.
//
// Package internal/faults wraps connections and listeners with seeded
// fault injection (drops, torn frames, delays, mid-stream closes,
// transient accept errors) for the lifecycle tests and the s3proto
// chaos soak.
//
// Command s3proto wraps this package into a runnable demo (controller,
// N agents and a scripted station workload in one process) and a chaos
// soak (-chaos).
package protocol
