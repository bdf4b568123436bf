package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/warlock"
)

// coldSpecs is one cycle of advise-cold inputs before the seeded
// perturbation: APB-1 at 8M rows/16 disks, 24M/64 and 96M/256, with
// uniform, mid and hot skew and fixed (8-page) or optimized (0) granules.
// Four cheaper and four dearer inputs flank five draws of the 24M/64
// uniform advisory, so the median latency is that advisory's whatever
// the run-to-run noise, instead of a jump between two neighbours.
var coldSpecs = []docSpec{
	{rows: 8_000_000, disks: 16, profile: 0, granule: 0},
	{rows: 8_000_000, disks: 16, profile: 0, granule: 8},
	{rows: 8_000_000, disks: 16, profile: 1, granule: 8},
	{rows: 8_000_000, disks: 16, profile: 2, granule: 8},
	{rows: 24_000_000, disks: 64, profile: 0, granule: 0},
	{rows: 24_000_000, disks: 64, profile: 0, granule: 0},
	{rows: 24_000_000, disks: 64, profile: 0, granule: 0},
	{rows: 24_000_000, disks: 64, profile: 0, granule: 0},
	{rows: 24_000_000, disks: 64, profile: 0, granule: 0},
	{rows: 24_000_000, disks: 64, profile: 1, granule: 0},
	{rows: 96_000_000, disks: 256, profile: 0, granule: 8},
	{rows: 96_000_000, disks: 256, profile: 1, granule: 0},
	{rows: 96_000_000, disks: 256, profile: 2, granule: 8},
}

// coldCycle is the number of advisories in one input cycle.
var coldCycle = len(coldSpecs)

// coldCycles is how many distinct cycles are generated; the loop wraps
// around.
const coldCycles = 4

// adviseCold is the CLI user's workload: independent cold advisories.
type adviseCold struct {
	r      *runner
	docs   [][]byte
	specs  []docSpec
	inputs []*warlock.Input
	adv    *warlock.Advisor

	sampleIdx     int
	sampled       *warlock.Result
	sampledReport string
}

func (w *adviseCold) setup() error {
	rng := rand.New(rand.NewSource(w.r.seed))
	w.docs, w.specs, w.inputs = nil, nil, nil
	for c := 0; c < coldCycles; c++ {
		// The order within a cycle is fixed, so that what one advisory
		// leaves for the garbage collector meets the same successor in
		// every run.
		cycle := append([]docSpec(nil), coldSpecs...)
		for i := range cycle {
			cycle[i].rows = jitterRows(rng, cycle[i].rows)
		}
		for _, sp := range cycle {
			b := encode(apbDocument(rng, sp))
			in, err := buildInput(b)
			if err != nil {
				return err
			}
			w.docs = append(w.docs, b)
			w.specs = append(w.specs, sp)
			w.inputs = append(w.inputs, in)
		}
	}
	w.sampleIdx = rng.Intn(coldCycle)
	w.adv = warlock.New()
	// Warm the runtime with the first cycle's draw of coldSpecs[0].
	_, err := w.adv.Advise(w.r.ctx, w.inputs[w.first(coldSpecs[0])])
	return err
}

// first returns the index in the first cycle of the draw of spec.
func (w *adviseCold) first(spec docSpec) int {
	for i, sp := range w.specs[:coldCycle] {
		if sp.disks == spec.disks && sp.profile == spec.profile && sp.granule == spec.granule {
			return i
		}
	}
	panic("advise-cold: spec missing from the first cycle")
}

func (w *adviseCold) timed(seconds float64) *loopStats {
	return measureLoop(1, seconds, coldCycle, func(_, i int) time.Duration {
		in := w.inputs[i%len(w.inputs)]
		start := time.Now()
		res, err := w.adv.Advise(w.r.ctx, in)
		lat := time.Since(start)
		bad := adviseOK(res, err)
		w.r.check(bad == "", "advise-cold op %d: %s", i, bad)
		if i == w.sampleIdx {
			w.sampled = res
		}
		// A CLI advisory starts in a fresh process: collect this one's
		// garbage before the next begins, outside its latency.
		runtime.GC()
		return lat
	})
}

func (w *adviseCold) afterTimed() {
	if w.sampled != nil {
		w.sampledReport = warlock.Report(w.sampled)
	}
	w.sampled = nil
}

// check repeats the sampled advisory at Parallelism 1; the rendered
// report must be byte-identical to the timed one.
func (w *adviseCold) check() {
	serial := *w.inputs[w.sampleIdx]
	serial.Parallelism = 1
	res, err := w.adv.Advise(w.r.ctx, &serial)
	bad := adviseOK(res, err)
	if bad == "" && warlock.Report(res) != w.sampledReport {
		bad = "report at Parallelism 1 differs from the timed report"
	}
	if bad != "" {
		w.r.fail("advise-cold sampled op %d: %s", w.sampleIdx, bad)
	}
}

// trace replays the first cycle of the timed sequence, which holds every
// size and skew variant once.
func (w *adviseCold) trace(_ float64, tr *tracer) error {
	if err := traceAdvisories(w.r, tr, w.inputs[:coldCycle]); err != nil {
		return err
	}
	small := w.first(coldSpecs[0])
	if err := sweepProbe(w.r, tr, w.inputs[small]); err != nil {
		return err
	}
	if err := serverProbe(w.r, w.docs[small]); err != nil {
		return err
	}
	return traceConfig(w.r, tr, w.docs, false)
}

func (w *adviseCold) summary() map[string]any {
	var draws []map[string]any
	for _, sp := range w.specs[:coldCycle] {
		draws = append(draws, map[string]any{
			"rows": sp.rows, "disks": sp.disks, "skew": skewProfiles[sp.profile].name, "granule": sp.granule,
		})
	}
	return map[string]any{
		"cycle_ops":   coldCycle,
		"cycles":      coldCycles,
		"first_cycle": draws,
		"sampled_op":  w.sampleIdx,
		"parallelism": "default",
	}
}

func (w *adviseCold) close() {}
