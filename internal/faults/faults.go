// Package faults is the project's one fault-injection vocabulary. It
// wraps connections (WrapConn) and journal segment files (WrapFile)
// with seeded, schedulable faults — dropped, torn and delayed writes,
// injected errors, stalled reads and mid-stream closes on the wire;
// short writes, torn tails, flipped bits and failed fsyncs on disk —
// and scripts them into phase-based scenarios, so chaos tests, the
// overload soak and the s3proto churn demo subject the live controller
// to exactly the churn the paper studies while staying reproducible.
//
// A Plan is a sequence of Phases, each with a duration and a fault
// schedule; the last phase is terminal and applies forever, so a static
// schedule is a one-phase plan. Plans are built literally or parsed
// from a compact spec:
//
//	clean 500ms -> storm 2s drop=0.05 delay=2ms -> stall 1s stall=1 stalldur=300ms -> clean 0
//
// An Engine animates a plan against a clock: Start pins t0, Phase()
// resolves the active phase, and the Conn / File / Listener wrappers
// consult the engine per operation — open connections and files move
// between phases without being re-wrapped. Every probabilistic decision
// comes from a per-connection (or per-file) seed derived from the plan
// seed with internal/runner.DeriveSeed, so a failing scenario replays
// exactly.
package faults

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/s3wlan/s3wlan/internal/runner"
)

// Phase is one stage of a fault scenario.
type Phase struct {
	// Name labels the phase in specs, logs and assertions ("clean",
	// "storm", "stall", …). Parse auto-names unnamed phases "phaseN".
	Name string
	// Dur is how long the phase lasts. The final phase of a plan is
	// terminal: it applies forever regardless of Dur.
	Dur time.Duration
	// Conn is the connection fault schedule while the phase is active.
	Conn ConnFaults
	// File is the storage fault schedule while the phase is active.
	File FileFaults
}

// Clean reports whether the phase injects nothing.
func (p Phase) Clean() bool {
	return p.Conn == (ConnFaults{}) && p.File == (FileFaults{})
}

// Plan is a seeded fault scenario: phases applied in order, the last
// one forever.
type Plan struct {
	Seed   int64
	Phases []Phase
}

// PhaseAt resolves the phase active after d has elapsed since the plan
// started, and its index. An empty plan yields a permanent clean phase.
func (p *Plan) PhaseAt(d time.Duration) (int, Phase) {
	if len(p.Phases) == 0 {
		return 0, Phase{Name: "clean"}
	}
	var t time.Duration
	for i, ph := range p.Phases {
		if i == len(p.Phases)-1 {
			return i, ph // terminal
		}
		t += ph.Dur
		if d < t {
			return i, ph
		}
	}
	return 0, Phase{} // unreachable
}

// PhaseStart returns when phase i begins, as an offset from plan start.
func (p *Plan) PhaseStart(i int) time.Duration {
	var t time.Duration
	for j := 0; j < i && j < len(p.Phases); j++ {
		t += p.Phases[j].Dur
	}
	return t
}

// String renders the plan back in spec form.
func (p *Plan) String() string {
	parts := make([]string, 0, len(p.Phases))
	for _, ph := range p.Phases {
		parts = append(parts, ph.spec())
	}
	return strings.Join(parts, " -> ")
}

func (p Phase) spec() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", p.Name, p.Dur)
	add := func(k string, v interface{}) {
		switch x := v.(type) {
		case float64:
			if x != 0 {
				fmt.Fprintf(&b, " %s=%g", k, x)
			}
		case int:
			if x != 0 {
				fmt.Fprintf(&b, " %s=%d", k, x)
			}
		case int64:
			if x != 0 {
				fmt.Fprintf(&b, " %s=%d", k, x)
			}
		case time.Duration:
			if x != 0 {
				fmt.Fprintf(&b, " %s=%s", k, x)
			}
		}
	}
	add("drop", p.Conn.DropWriteProb)
	add("partial", p.Conn.PartialWriteProb)
	add("werr", p.Conn.WriteErrProb)
	add("rerr", p.Conn.ReadErrProb)
	add("delayp", p.Conn.DelayProb)
	add("delay", p.Conn.MaxDelay)
	add("closew", p.Conn.CloseAfterWrites)
	add("closer", p.Conn.CloseAfterReads)
	add("stall", p.Conn.ReadStallProb)
	add("stalldur", p.Conn.StallDur)
	add("short", p.File.ShortWriteProb)
	add("torn", p.File.TornAtByte)
	add("bitflip", p.File.BitFlipProb)
	add("syncerr", p.File.SyncErrProb)
	add("failsync", p.File.FailSyncAfter)
	return b.String()
}

// Parse builds a plan from a spec: phases separated by "->" (or ";"),
// each "name dur key=val ...". The name is optional (auto "phaseN"),
// "clean" names a faultless phase, and the keys mirror the ConnFaults /
// FileFaults schedules:
//
//	conn: drop, partial, werr, rerr, delayp, delay, closew, closer,
//	      stall, stalldur
//	file: short, torn, bitflip, syncerr, failsync
//
// Probabilities are floats in [0,1]; delay/stalldur are durations;
// closew/closer/torn/failsync are integers.
func Parse(spec string) (*Plan, error) {
	plan := &Plan{Seed: 1}
	for i, raw := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' }) {
		for _, part := range strings.Split(raw, "->") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			ph, err := parsePhase(part, len(plan.Phases))
			if err != nil {
				return nil, fmt.Errorf("faults: phase %d (%q): %w", i, part, err)
			}
			plan.Phases = append(plan.Phases, ph)
		}
	}
	if len(plan.Phases) == 0 {
		return nil, fmt.Errorf("faults: empty plan %q", spec)
	}
	return plan, nil
}

// MustParse is Parse for trusted literals; it panics on error.
func MustParse(spec string) *Plan {
	p, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return p
}

func parsePhase(s string, index int) (Phase, error) {
	ph := Phase{Name: fmt.Sprintf("phase%d", index)}
	haveDur := false
	for _, tok := range strings.Fields(s) {
		if k, v, ok := strings.Cut(tok, "="); ok {
			if err := ph.set(k, v); err != nil {
				return ph, err
			}
			continue
		}
		if d, err := time.ParseDuration(tok); err == nil {
			ph.Dur, haveDur = d, true
			continue
		}
		ph.Name = tok // bare token: the phase name ("clean", "storm", …)
	}
	if !haveDur {
		return ph, fmt.Errorf("no duration")
	}
	return ph, nil
}

func (p *Phase) set(k, v string) error {
	prob := func(dst *float64) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 {
			return fmt.Errorf("%s=%s: want probability in [0,1]", k, v)
		}
		*dst = f
		return nil
	}
	dur := func(dst *time.Duration) error {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return fmt.Errorf("%s=%s: want duration", k, v)
		}
		*dst = d
		return nil
	}
	count := func(dst *int) error {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return fmt.Errorf("%s=%s: want count", k, v)
		}
		*dst = n
		return nil
	}
	switch k {
	case "drop":
		return prob(&p.Conn.DropWriteProb)
	case "partial":
		return prob(&p.Conn.PartialWriteProb)
	case "werr":
		return prob(&p.Conn.WriteErrProb)
	case "rerr":
		return prob(&p.Conn.ReadErrProb)
	case "delayp":
		return prob(&p.Conn.DelayProb)
	case "delay":
		// A max delay implies DelayProb=1 unless delayp is given too.
		if p.Conn.DelayProb == 0 {
			p.Conn.DelayProb = 1
		}
		return dur(&p.Conn.MaxDelay)
	case "closew":
		return count(&p.Conn.CloseAfterWrites)
	case "closer":
		return count(&p.Conn.CloseAfterReads)
	case "stall":
		return prob(&p.Conn.ReadStallProb)
	case "stalldur":
		return dur(&p.Conn.StallDur)
	case "short":
		return prob(&p.File.ShortWriteProb)
	case "torn":
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("torn=%s: want byte offset", v)
		}
		p.File.TornAtByte = n
		return nil
	case "bitflip":
		return prob(&p.File.BitFlipProb)
	case "syncerr":
		return prob(&p.File.SyncErrProb)
	case "failsync":
		return count(&p.File.FailSyncAfter)
	default:
		return fmt.Errorf("unknown key %q", k)
	}
}

// Engine animates a plan against a clock and hands out dynamic fault
// wrappers. Safe for concurrent use.
type Engine struct {
	plan *Plan
	now  func() time.Time // test hook; default time.Now

	mu      sync.Mutex
	start   time.Time
	connSeq int
	fileSeq int
}

// NewEngine builds an engine for plan. The clock starts at the first
// call to Start (or lazily at the first Phase/wrapper decision).
func NewEngine(plan *Plan) *Engine {
	return &Engine{plan: plan, now: time.Now}
}

// Start pins the plan's t0. Idempotent; returns the engine.
func (e *Engine) Start() *Engine {
	e.mu.Lock()
	if e.start.IsZero() {
		e.start = e.now()
	}
	e.mu.Unlock()
	return e
}

// Elapsed reports time since Start (starting the engine if needed).
func (e *Engine) Elapsed() time.Duration {
	e.mu.Lock()
	if e.start.IsZero() {
		e.start = e.now()
	}
	d := e.now().Sub(e.start)
	e.mu.Unlock()
	return d
}

// Phase resolves the currently active phase.
func (e *Engine) Phase() Phase {
	_, ph := e.plan.PhaseAt(e.Elapsed())
	return ph
}

// PhaseIndex resolves the currently active phase's index.
func (e *Engine) PhaseIndex() int {
	i, _ := e.plan.PhaseAt(e.Elapsed())
	return i
}

// Plan returns the engine's plan.
func (e *Engine) Plan() *Plan { return e.plan }

// AwaitPhase sleeps until phase i begins (no-op if already past it).
// The engine must use the real clock.
func (e *Engine) AwaitPhase(i int) {
	e.Start()
	if rem := e.plan.PhaseStart(i) - e.Elapsed(); rem > 0 {
		time.Sleep(rem)
	}
}

// ConnConfig is the connection schedule of the active phase — the
// schedule function every engine-wrapped connection reads.
func (e *Engine) ConnConfig() ConnFaults { return e.Phase().Conn }

// FileConfig is the storage schedule of the active phase.
func (e *Engine) FileConfig() FileFaults { return e.Phase().File }

// Conn decorates conn with engine-scheduled fault injection. The n-th
// connection (from 1) gets seed runner.DeriveSeed(plan.Seed, n-1).
func (e *Engine) Conn(conn net.Conn) net.Conn {
	e.mu.Lock()
	seed := runner.DeriveSeed(e.plan.Seed, e.connSeq)
	e.connSeq++
	e.mu.Unlock()
	return WrapConn(conn, seed, e.ConnConfig)
}

// File decorates sink with engine-scheduled fault injection. File seeds
// are drawn from a stream a million indices past the connections'.
func (e *Engine) File(sink Sink) Sink {
	e.mu.Lock()
	seed := runner.DeriveSeed(e.plan.Seed, 1_000_000+e.fileSeq)
	e.fileSeq++
	e.mu.Unlock()
	return WrapFile(sink, seed, e.FileConfig)
}

// Listener wraps ln so every accepted connection is engine-scheduled —
// the drop-in WrapListener/Serve decoration chaos harnesses use.
func (e *Engine) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, e: e}
}

type listener struct {
	net.Listener
	e *Engine
}

func (l *listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.e.Conn(conn), nil
}
