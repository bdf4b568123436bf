package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/config"
	"repro/warlock"
)

// sweepAxes are the (boosted query class, hot dimension) pairs of the
// sweeps of one session, one sweep each, in a seeded order.
var sweepAxes = []struct{ boost, hotDim string }{
	{"Q3-store-month", "Customer"},
	{"Q5-code", "Product"},
	{"Q6-channel-quarter", "Channel"},
	{"Q8-class-store-month", "Time"},
}

// sweepCycle is the number of sweeps in one session.
var sweepCycle = len(sweepAxes)

const (
	sweepSessions = 4 // distinct sessions generated; the loop wraps around
	sweepBaseRows = 4_000_000
)

// sweepGrid is the what-if workload: sessions of sweeps over one base
// schema. Each session is one caller with its own Advisor and shared
// EvalCache, so geometries computed by a session's first sweep serve its
// later ones.
type sweepGrid struct {
	r        *runner
	docs     [][]byte // encoded sweep documents, session after session
	bases    []*warlock.Input
	grids    []*warlock.SweepGrid
	baseDocs [][]byte // each session's base as an advisory document
	warmup   int      // the sweep set-up runs once

	cache *warlock.EvalCache
	adv   *warlock.Advisor

	sampleOp, sampleScenario int
	sampled                  *warlock.SweepReport
	sampledReport            string
	sampledInput             *warlock.Input
}

func (w *sweepGrid) setup() error {
	rng := rand.New(rand.NewSource(w.r.seed))
	w.docs, w.bases, w.grids, w.baseDocs = nil, nil, nil, nil
	for s := 0; s < sweepSessions; s++ {
		base := apbDocument(rng, docSpec{rows: jitterRows(rng, sweepBaseRows), disks: 32})
		w.baseDocs = append(w.baseDocs, encode(base))
		order := rng.Perm(len(sweepAxes))
		var shared *warlock.Input
		for k := 0; k < sweepCycle; k++ {
			doc := &config.SweepDoc{
				Base: *base,
				Grid: config.GridDoc{
					Disks: []int{16, 64},
					MixScales: []config.MixScaleDoc{
						{Name: "base"},
						{Name: "boost", Factors: map[string]float64{sweepAxes[order[k]].boost: round3(5.9 + 0.2*rng.Float64())}},
					},
					Skews: []config.SkewDoc{
						{Name: "uniform"},
						{Name: "hot", Theta: map[string]float64{sweepAxes[order[k]].hotDim: round3(0.85 + 0.02*rng.Float64())}},
					},
					Allocs: []string{"auto", "greedy-size"},
				},
			}
			b := encode(doc)
			parsed, err := config.ParseSweep(bytes.NewReader(b))
			if err != nil {
				return err
			}
			in, grid, _, err := parsed.Build()
			if err != nil {
				return err
			}
			// The sweeps of a session share one base value, as one
			// caller exploring one schema would.
			if shared == nil {
				shared = in
			}
			if s == 0 && order[k] == 0 {
				w.warmup = len(w.docs)
			}
			w.docs = append(w.docs, b)
			w.bases = append(w.bases, shared)
			w.grids = append(w.grids, grid)
		}
	}
	w.sampleOp = rng.Intn(sweepCycle)
	w.sampleScenario = rng.Intn(w.grids[0].Size())
	// Warm the runtime with the first session's sweep on sweepAxes[0], on
	// a throwaway session.
	w.newSession()
	k := w.warmup
	_, err := w.adv.Sweep(w.r.ctx, w.bases[k], w.grids[k])
	return err
}

// newSession starts a caller session: a fresh Advisor over a fresh cache.
func (w *sweepGrid) newSession() {
	w.cache = warlock.NewEvalCache()
	w.adv = warlock.New(warlock.WithEvalCache(w.cache))
}

func (w *sweepGrid) timed(seconds float64) *loopStats {
	return measureLoop(1, seconds, sweepCycle, func(_, i int) time.Duration {
		start := time.Now()
		k := i % len(w.docs)
		if i%sweepCycle == 0 {
			w.newSession()
		}
		rep, err := w.adv.Sweep(w.r.ctx, w.bases[k], w.grids[k])
		lat := time.Since(start)
		ok := err == nil && sweepOK(rep) && len(rep.Scenarios) == w.grids[k].Size()
		w.r.check(ok, "sweep-grid op %d: failed (err %v)", i, err)
		if i == w.sampleOp && ok {
			w.sampled = rep
		}
		return lat
	})
}

func (w *sweepGrid) afterTimed() {
	if w.sampled != nil {
		sr := &w.sampled.Scenarios[w.sampleScenario]
		w.sampledReport = warlock.Report(sr.Result)
		in := *sr.Input
		in.EvalCache = nil
		w.sampledInput = &in
	}
	w.sampled = nil
}

// check compares the sampled scenario with a cold Advise of its input.
func (w *sweepGrid) check() {
	if w.sampledInput == nil {
		return // the sampled sweep failed and was counted already
	}
	res, err := warlock.New().Advise(w.r.ctx, w.sampledInput)
	bad := adviseOK(res, err)
	if bad == "" && warlock.Report(res) != w.sampledReport {
		bad = "report differs from the sweep's scenario"
	}
	if bad != "" {
		w.r.fail("sweep-grid sampled scenario %d of op %d: %s", w.sampleScenario, w.sampleOp, bad)
	}
}

// trace replays the first session: its sweeps give the sweep layer, and
// the scenarios of its first sweep, priced on the session's cache, give
// the pipeline layers.
func (w *sweepGrid) trace(_ float64, tr *tracer) error {
	w.newSession()
	var runs []sweepRun
	for k := 0; k < sweepCycle; k++ {
		sr, err := runSweep(w.r, tr, w.adv, w.cache, w.bases[k], w.grids[k])
		if err != nil {
			return err
		}
		w.r.check(sweepOK(sr.rep), "sweep-grid trace: sweep %d failed", k)
		runs = append(runs, sr)
	}
	setSweepMetrics(w.r, runs)

	scens, err := w.adv.Scenarios(w.bases[0], w.grids[0])
	if err != nil {
		return err
	}
	var inputs []*warlock.Input
	for i := range scens {
		inputs = append(inputs, scens[i].Input)
	}
	if err := traceAdvisories(w.r, tr, inputs); err != nil {
		return err
	}
	if err := serverProbe(w.r, w.baseDocs[0]); err != nil {
		return err
	}
	return traceConfig(w.r, tr, w.docs, true)
}

func (w *sweepGrid) summary() map[string]any {
	var sessions []map[string]any
	for s := 0; s < sweepSessions; s++ {
		var boosts, dims []string
		for k := 0; k < sweepCycle; k++ {
			g := w.grids[s*sweepCycle+k]
			for name := range g.MixScales[1].Factors {
				boosts = append(boosts, name)
			}
			for name := range g.Skews[1].Theta {
				dims = append(dims, name)
			}
		}
		sessions = append(sessions, map[string]any{
			"base_rows": w.bases[s*sweepCycle].Schema.Fact.Rows, "boosts": boosts, "hot_dims": dims,
		})
	}
	return map[string]any{
		"grid":               fmt.Sprintf("disks{16,64} x mix{base,boost} x skew{uniform,hot} x alloc{auto,greedy-size} = %d scenarios", w.grids[0].Size()),
		"base_disks":         32,
		"sweeps_per_session": sweepCycle,
		"sessions":           sessions,
		"sampled_op":         w.sampleOp,
		"sampled_scenario":   w.sampleScenario,
	}
}

func (w *sweepGrid) close() {}
