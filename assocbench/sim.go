package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/experiments"
	"github.com/s3wlan/s3wlan/internal/metrics"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// sim-fig12: the default synthetic campus (600 users, 40 APs, 28
// training and 3 test days); each op is one full Fig. 12 evaluation:
// train the sociality model, simulate the test split under S³
// (Algorithm 1) and under LLF, and compare. This is the only workload
// that runs the simulator, batch training and core.SelectBatch, and the
// only one on the Index-scan cost path; it opens no socket and writes no
// journal.

// knownGain is the published Fig. 12 gain for a seed (EXPERIMENTS.md),
// rounded to two decimals.
var knownGain = map[int64]float64{1: 19.62}

type simInst struct {
	tr    *tracer
	seed  int64
	data  *experiments.Data
	gains []float64 // every evaluation's GainPercent
	sels  []wlan.Selector
}

func setupSim(seed int64, tr *tracer) (instance, error) {
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	data, err := experiments.Prepare(cfg, 28)
	if err != nil {
		return nil, err
	}
	// One worker: Fig12 then runs the S³ and LLF simulations one after
	// the other, as the traced evaluation does, so the two halves of a
	// traced run time the same schedule.
	data.Workers = 1
	return &simInst{tr: tr, seed: seed, data: data}, nil
}

// evaluate is one Fig. 12 evaluation. Untraced it is experiments.Fig12
// itself; traced, it is the same steps through public calls with the
// selectors wrapped and each step timed. It returns the gain and S³'s
// mean balance index.
func (in *simInst) evaluate() (gain, balance float64, err error) {
	tr := in.tr
	if tr == nil {
		res, err := experiments.Fig12(in.data)
		if err != nil {
			return 0, 0, err
		}
		return res.GainPercent, res.Overall.MeanPolicy, nil
	}
	req := tr.newReq()
	tr.ambient.Store(req)
	defer tr.ambient.Store(0)
	opStart := tr.now()
	defer func() { tr.add("op.eval", opStart, tr.now(), req) }()

	t0 := tr.now()
	model, err := society.Train(in.data.Train, in.data.Profiles, society.DefaultConfig())
	tr.add("society.train", t0, tr.now(), req)
	if err != nil {
		return 0, 0, err
	}
	s3, err := core.NewSelector(model, core.DefaultSelectorConfig())
	if err != nil {
		return 0, 0, err
	}
	s3sel, llfSel := wrapSelector(s3, tr), wrapSelector(baseline.LLF{}, tr)
	in.sels = append(in.sels, s3sel, llfSel)
	t0 = tr.now()
	s3Res, err := in.data.RunSelector(func(trace.ControllerID, []trace.AP) wlan.Selector { return s3sel })
	tr.add("wlan.simulate_s3", t0, tr.now(), req)
	if err != nil {
		return 0, 0, err
	}
	t0 = tr.now()
	llfRes, err := in.data.RunSelector(func(trace.ControllerID, []trace.AP) wlan.Selector { return llfSel })
	tr.add("wlan.simulate_llf", t0, tr.now(), req)
	if err != nil {
		return 0, 0, err
	}
	// The comparison as experiments.Fig12 pools it: every domain's
	// active bins where both policies have samples, in controller order.
	s3By, err := experiments.DomainBalances(s3Res)
	if err != nil {
		return 0, 0, err
	}
	llfBy, err := experiments.DomainBalances(llfRes)
	if err != nil {
		return 0, 0, err
	}
	var allS3, allLLF []float64
	for _, c := range s3Res.Controllers() {
		if len(s3By[c]) == 0 || len(llfBy[c]) == 0 {
			continue
		}
		allS3 = append(allS3, s3By[c]...)
		allLLF = append(allLLF, llfBy[c]...)
	}
	cmp, err := metrics.Compare(allS3, allLLF)
	if err != nil {
		return 0, 0, err
	}
	return cmp.GainPercent, cmp.MeanPolicy, nil
}

func (in *simInst) measure(d time.Duration) (*phase, error) {
	in.sels = in.sels[:0]
	calls0, guard0 := counter("core.select.calls"), counter("core.select.guard_fallbacks")
	ph := &phase{}
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		gain, bal, err := in.evaluate()
		dt := time.Since(t0)
		ph.attempted++
		if err != nil {
			return nil, fmt.Errorf("evaluation %d: %w", ph.attempted, err)
		}
		ph.op = append(ph.op, dt)
		ph.at = append(ph.at, t0.Sub(start))
		ph.busy += dt
		in.gains = append(in.gains, gain)
		ph.balance = bal
	}
	ph.elapsed = time.Since(start)
	if dc := counter("core.select.calls") - calls0; dc > 0 {
		ph.add("core.guard_fallback_ratio", "ratio", float64(counter("core.select.guard_fallbacks")-guard0)/float64(dc))
	}
	s := sortedCopy(ph.op)
	ph.add("eval_s", "s", quantile(s, 0.5).Seconds())
	ph.add("test_sessions", "count", float64(len(in.data.Test.Sessions)))
	ph.add("eval_us_per_session", "us", micros(quantile(s, 0.5))/float64(len(in.data.Test.Sessions)))
	ph.add("s3_gain_pct", "%", in.gains[len(in.gains)-1])
	return ph, nil
}

// check requires every evaluation to reproduce the first one's gain, a
// traced run to reproduce experiments.Fig12's, and the published value
// where the seed has one.
func (in *simInst) check(rep *report) error {
	if len(in.gains) == 0 {
		return errors.New("no evaluation ran")
	}
	g := in.gains[0]
	for i, x := range in.gains {
		if x != g {
			return fmt.Errorf("evaluation %d gain %.6f differs from evaluation 0's %.6f", i, x, g)
		}
	}
	if in.tr != nil {
		res, err := experiments.Fig12(in.data)
		if err != nil {
			return err
		}
		if res.GainPercent != g {
			return fmt.Errorf("traced gain %.6f differs from experiments.Fig12's %.6f", g, res.GainPercent)
		}
	}
	if want, ok := knownGain[in.seed]; ok && math.Abs(g-want) > 0.005 {
		return fmt.Errorf("seed %d gain %.4f%%, want %.2f%%", in.seed, g, want)
	}
	rep.metric("s3_gain_pct", "%", g)
	return nil
}

func (in *simInst) probe(ph *phase, rep *report) error {
	tr := in.tr
	var calls int64
	for _, s := range in.sels {
		calls += selectorCalls(s)
	}
	rep.set("core.select_calls_per_op", float64(calls)/float64(len(ph.op)))
	rep.set("core.guard_fallback_ratio", namedValues(ph)["core.guard_fallback_ratio"])
	rep.set("protocol.wire_bytes_per_op", 0)
	rep.set("protocol.shed_ratio", 0)
	rep.set("journal.bytes_per_op", 0)
	rep.set("journal.syncs_per_s", 0)
	rep.set("federation.relay_errors", 0)
	rep.metric("society.train_ms", "ms", millis(tr.spanP50("society.train")))
	rep.metric("wlan.simulate_s3_ms", "ms", millis(tr.spanP50("wlan.simulate_s3")))
	rep.metric("wlan.simulate_llf_ms", "ms", millis(tr.spanP50("wlan.simulate_llf")))
	rep.metric("core.batch_place_ms", "ms", millis(tr.spanP50("core.batch_place")))

	// The domain probe gets the campus APs with each test-split user at
	// the AP of its first test session.
	var aps []apSpec
	for _, ap := range in.data.Full.Topology.APs {
		aps = append(aps, apSpec{id: ap.ID, capacity: ap.CapacityBps})
	}
	seen := map[trace.UserID]bool{}
	var residents []resident
	for _, s := range in.data.Test.Sessions {
		if seen[s.User] {
			continue
		}
		seen[s.User] = true
		residents = append(residents, resident{user: s.User, ap: s.AP, demand: in.data.Demands.Demand(s.User)})
	}
	return probeDomain(rep, aps, residents)
}

func (in *simInst) close() error { return nil }
