package costmodel

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/apb"
	"repro/internal/fragment"
	"repro/internal/schema"
	"repro/internal/skew"
	"repro/internal/workload"
)

// This file pins the size-class kernel to the pre-kernel semantics: the
// naive per-fragment loops below are the retained reference
// implementation (the exact code the kernel replaced), and the property
// tests assert bit-for-bit equality between the two on randomized
// geometries — uniform and skewed — so any drift in summation order,
// operand order or skip conditions fails loudly.

// naiveClassCost is the pre-kernel evaluateClass: FragmentCost and
// Seconds per fragment, accumulators folded in logical fragment order.
func naiveClassCost(cfg *Config, f *fragment.Fragmentation, g *fragment.Geometry, pl *alloc.Placement, plan *ClassPlan, factGranule, bmGranule int) ClassCost {
	c := plan.Class
	cc := ClassCost{Class: c, DiskBusy: make([]time.Duration, pl.Disks)}
	cc.HitProb = plan.HitProb
	n := g.NumFragments()
	cc.FragmentsHit = plan.HitProb * float64(n)
	tv := make([]float64, n)
	busy := make([]float64, pl.Disks)
	var totalBusy float64
	for v := int64(0); v < n; v++ {
		rows := g.Rows[v]
		b := g.Pages[v]
		if b == 0 {
			continue
		}
		cc.SelectedRows += plan.HitProb * rows * plan.RowSel
		io := FragmentCost(plan, g.PageSize, b, rows, factGranule, bmGranule)
		cc.FactIOs += plan.HitProb * io.FactIOs
		cc.FactPages += plan.HitProb * io.FactPages
		cc.BitmapIOs += plan.HitProb * io.BitmapIOs
		cc.BitmapPages += plan.HitProb * io.BitmapPages

		tv[v] = io.Seconds(&cfg.Disk)
		w := plan.HitProb * tv[v]
		busy[pl.DiskOf[v]] += w
		totalBusy += w
	}
	for d, bz := range busy {
		cc.DiskBusy[d] = time.Duration(bz * float64(time.Second))
	}
	cc.AccessCost = time.Duration(totalBusy * float64(time.Second))
	resp, exact := naiveExpectedMaxResponse(cfg, plan, pl, tv, SampleSeed(f, c))
	cc.ResponseTime = time.Duration(resp * float64(time.Second))
	cc.ResponseExact = exact
	return cc
}

// naiveExpectedMaxResponse is the pre-kernel response expectation: fresh
// outcome sets per call, per-fragment service times from a tv array.
func naiveExpectedMaxResponse(cfg *Config, plan *ClassPlan, pl *alloc.Placement, tv []float64, sampleSeed int64) (float64, bool) {
	outcomes := Outcomes(plan, cfg.Mapping)
	combos := 1
	hitsPerCombo := 1
	for _, sets := range outcomes {
		combos *= len(sets)
		if len(sets) > 0 {
			hitsPerCombo *= len(sets[0])
		}
		if combos > maxResponseOutcomes {
			break
		}
	}
	busy := make([]float64, pl.Disks)
	touched := make([]int, 0, pl.Disks)
	sets := make([][]int, len(outcomes))
	idx := make([]int, len(outcomes))
	vals := make([]int, len(outcomes))
	evalPattern := func(choice []int) float64 {
		for i, c := range choice {
			sets[i] = outcomes[i][c]
		}
		clear(idx)
		for {
			for i := range sets {
				vals[i] = sets[i][idx[i]]
			}
			fid := plan.fragID(vals)
			if busy[pl.DiskOf[fid]] == 0 && tv[fid] > 0 {
				touched = append(touched, pl.DiskOf[fid])
			}
			busy[pl.DiskOf[fid]] += tv[fid]
			i := len(idx) - 1
			for ; i >= 0; i-- {
				idx[i]++
				if idx[i] < len(sets[i]) {
					break
				}
				idx[i] = 0
			}
			if i < 0 {
				break
			}
		}
		var mx float64
		for _, d := range touched {
			if busy[d] > mx {
				mx = busy[d]
			}
			busy[d] = 0
		}
		touched = touched[:0]
		return mx
	}

	choice := make([]int, len(outcomes))
	if combos <= maxResponseOutcomes && combos*hitsPerCombo <= maxResponseWork {
		var sum float64
		count := 0
		for {
			sum += evalPattern(choice)
			count++
			i := len(choice) - 1
			for ; i >= 0; i-- {
				choice[i]++
				if choice[i] < len(outcomes[i]) {
					break
				}
				choice[i] = 0
			}
			if i < 0 {
				break
			}
		}
		return sum / float64(count), true
	}
	rng := rand.New(rand.NewSource(sampleSeed))
	var sum float64
	for s := 0; s < responseSamples; s++ {
		for i := range choice {
			choice[i] = rng.Intn(len(outcomes[i]))
		}
		sum += evalPattern(choice)
	}
	return sum / responseSamples, false
}

// fragID maps fragment-attribute values to the fragment's logical id using
// the plan's cardinalities (identical to Fragmentation.FragmentID but
// without re-deriving cardinalities from the schema). It is the naive
// walk's O(dims) id rebuild that the kernel's incremental offsets replace.
func (p *ClassPlan) fragID(vals []int) int64 {
	id := int64(0)
	for i, dp := range p.Dims {
		id = id*int64(dp.FragCard) + int64(vals[i])
	}
	return id
}

// outcomeCombos is the number of outcome combinations of a class: the
// product of its per-attribute set counts.
func outcomeCombos(plan *ClassPlan, cfg *Config) int {
	combos := 1
	for _, sets := range Outcomes(plan, cfg.Mapping) {
		combos *= len(sets)
	}
	return combos
}

// compareClassCost asserts exact (bitwise) equality of every model output
// of one class.
func compareClassCost(t *testing.T, label string, got, want ClassCost) {
	t.Helper()
	check := func(field string, g, w float64) {
		t.Helper()
		if g != w {
			t.Fatalf("%s: %s kernel=%v naive=%v", label, field, g, w)
		}
	}
	check("HitProb", got.HitProb, want.HitProb)
	check("FragmentsHit", got.FragmentsHit, want.FragmentsHit)
	check("SelectedRows", got.SelectedRows, want.SelectedRows)
	check("FactPages", got.FactPages, want.FactPages)
	check("FactIOs", got.FactIOs, want.FactIOs)
	check("BitmapPages", got.BitmapPages, want.BitmapPages)
	check("BitmapIOs", got.BitmapIOs, want.BitmapIOs)
	if got.AccessCost != want.AccessCost {
		t.Fatalf("%s: AccessCost kernel=%v naive=%v", label, got.AccessCost, want.AccessCost)
	}
	if got.ResponseTime != want.ResponseTime {
		t.Fatalf("%s: ResponseTime kernel=%v naive=%v", label, got.ResponseTime, want.ResponseTime)
	}
	if got.ResponseExact != want.ResponseExact {
		t.Fatalf("%s: ResponseExact kernel=%v naive=%v", label, got.ResponseExact, want.ResponseExact)
	}
	if len(got.DiskBusy) != len(want.DiskBusy) {
		t.Fatalf("%s: DiskBusy length %d vs %d", label, len(got.DiskBusy), len(want.DiskBusy))
	}
	for d := range got.DiskBusy {
		if got.DiskBusy[d] != want.DiskBusy[d] {
			t.Fatalf("%s: DiskBusy[%d] kernel=%v naive=%v", label, d, got.DiskBusy[d], want.DiskBusy[d])
		}
	}
}

// TestKernelMatchesNaiveReference is the kernel's core property: over
// randomized star schemas (uniform and skewed dimensions), mixes, disk
// pools and hierarchy mappings, every per-class output of the size-class
// kernel and the incremental hit-pattern walk is bit-identical to the
// retained naive per-fragment reference.
func TestKernelMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	checked, sampled := 0, 0
	// innerFiner/innerUnref count checked classes whose innermost
	// attribute is Finer (the walk's inner run has length 1) or
	// Unreferenced (the inner run spans all FragCard values).
	innerFiner, innerUnref := 0, 0
	mappings := [2]int{}
	for trial := 0; trial < 40; trial++ {
		s := randomBoundStar(rng)
		m, err := workload.RandomMix(s, 1+rng.Intn(5), rng.Int63())
		if err != nil {
			t.Fatalf("trial %d: random mix: %v", trial, err)
		}
		d := apb.Disk(1 + rng.Intn(32))
		if rng.Intn(2) == 0 {
			d.PrefetchPages = 1 << rng.Intn(7)
			d.BitmapPrefetchPages = d.PrefetchPages
		}
		mapping := skew.Mapping(rng.Intn(2))
		cfg := &Config{Schema: s, Mix: m, Disk: d, Mapping: mapping, MaxFragments: 1 << 20}
		e, err := NewEvaluator(cfg)
		if err != nil {
			t.Fatalf("trial %d: evaluator: %v", trial, err)
		}
		mappings[mapping]++
		cands := fragment.Enumerate(s)
		if len(cands) > 12 {
			rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			cands = cands[:12]
		}
		for _, f := range cands {
			ev, err := e.Evaluate(f)
			if err != nil {
				continue
			}
			for i := range m.Classes {
				plan := PlanClass(s, f, ev.Scheme, &m.Classes[i])
				want := naiveClassCost(cfg, f, ev.Geometry, ev.Placement, &plan,
					ev.FactPrefetch, ev.BitmapPrefetch)
				got := ev.PerClass[i]
				got.Weight = 0 // naive reference prices one class, not the mix
				compareClassCost(t, f.Name(s)+"/"+m.Classes[i].Name, got, want)
				checked++
				if outcomeCombos(&plan, cfg) > maxResponseOutcomes {
					sampled++
				}
				switch plan.Dims[len(plan.Dims)-1].Case {
				case Finer:
					innerFiner++
				case Unreferenced:
					innerUnref++
				}
			}
		}
	}
	if checked < 300 {
		t.Fatalf("kernel property sweep only checked %d class costs", checked)
	}
	// Classes above maxResponseOutcomes pin the sampling fallback's
	// rng.Intn sequence against the reference.
	if sampled == 0 {
		t.Fatalf("no class exceeds %d outcome combinations; sampling path not pinned", maxResponseOutcomes)
	}
	if innerFiner == 0 || innerUnref == 0 {
		t.Fatalf("innermost attribute Finer in %d and Unreferenced in %d checked classes; want both > 0",
			innerFiner, innerUnref)
	}
	if mappings[skew.Interleaved] == 0 || mappings[skew.Contiguous] == 0 {
		t.Fatalf("trials per mapping (interleaved, contiguous) = %v; want both > 0", mappings)
	}
	t.Logf("kernel property: %d class costs bit-identical, %d above maxResponseOutcomes, innermost Finer %d / Unreferenced %d, trials per mapping %v",
		checked, sampled, innerFiner, innerUnref, mappings)
}

// shardedStar is a schema whose fragmented geometry has enough distinct
// fragment sizes (a heavily skewed high-cardinality dimension: every value
// gets a distinct share) to clear the kernel's sharding threshold.
func shardedStar() *schema.Star {
	return &schema.Star{
		Name: "Sharded",
		Fact: schema.FactTable{Name: "F", Rows: 2_000_000, RowSize: 100},
		Dimensions: []schema.Dimension{
			{Name: "Big", SkewTheta: 0.8, Levels: []schema.Level{
				{Name: "id", Cardinality: 8192},
			}},
			{Name: "Small", Levels: []schema.Level{
				{Name: "g", Cardinality: 6},
			}},
		},
	}
}

// TestScratchSharderRace hammers worker-owned scratch reuse and the
// intra-candidate sharded kernel fill under the pipeline's exact token
// protocol (workers claim candidates from a shared index and park their
// token when they run out), and asserts every concurrent evaluation is
// bit-identical to the serial one.
// Run with -race this doubles as the memory-safety proof of the Sharder.
func TestScratchSharderRace(t *testing.T) {
	s := shardedStar()
	m, err := workload.RandomMix(s, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(&Config{Schema: s, Mix: m, Disk: apb.Disk(8)})
	if err != nil {
		t.Fatal(err)
	}
	cands := fragment.Enumerate(s)

	// Guard: the big candidates must actually cross the sharding
	// threshold, or this test silently stops covering the borrow path.
	sharded := 0
	for _, f := range cands {
		g, err := e.Geometry(f)
		if err != nil {
			t.Fatal(err)
		}
		if g.SizeClasses().NumClasses() >= 2*shardMinClasses {
			sharded++
		}
	}
	if sharded == 0 {
		t.Fatalf("no candidate reaches %d size classes; sharded fill not exercised", 2*shardMinClasses)
	}

	type costs struct{ access, resp time.Duration }
	want := make(map[string]costs, len(cands))
	for _, f := range cands {
		ev, err := e.Evaluate(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(s), err)
		}
		want[f.Key()] = costs{ev.AccessCost, ev.ResponseTime}
	}

	const workers, reps = 4, 8
	sharder := NewSharder(workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sharder.Park()
			sc := e.NewScratch(sharder)
			for {
				i := int(next.Add(1)) - 1
				if i >= reps*len(cands) {
					return
				}
				f := cands[i%len(cands)]
				ev, err := e.EvaluateWith(sc, f)
				if err != nil {
					t.Errorf("%s: %v", f.Name(s), err)
					continue
				}
				if w := want[f.Key()]; ev.AccessCost != w.access || ev.ResponseTime != w.resp {
					t.Errorf("%s: concurrent (%v,%v) != serial (%v,%v)",
						f.Name(s), ev.AccessCost, ev.ResponseTime, w.access, w.resp)
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkResponseWalk times the hit-pattern walk (expectedMaxResponse)
// of every (candidate, class) pair of the sweep base, with placements and
// per-size-class service times prepared up front.
func BenchmarkResponseWalk(b *testing.B) {
	base := newSweepBase(b)
	e, cfg := base.e, base.e.cfg
	type walk struct {
		ev   *Evaluation
		plan ClassPlan
		tvs  []float64
		seed int64
	}
	sc := e.NewScratch(nil).es
	var walks []walk
	for _, ev := range base.evals {
		sc.resize(cfg.Disk.Disks, len(ev.Frag.Attrs()), len(cfg.Mix.Classes))
		for i := range cfg.Mix.Classes {
			plan := PlanClass(cfg.Schema, ev.Frag, ev.Scheme, &cfg.Mix.Classes[i])
			_, tvs := e.priceSizeClasses(&plan, ev.Geometry.PageSize, ev.Geometry.SizeClasses(),
				ev.FactPrefetch, ev.BitmapPrefetch, sc)
			walks = append(walks, walk{ev, plan, slices.Clone(tvs), SampleSeed(ev.Frag, plan.Class)})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range walks {
			w := &walks[k]
			sc.resize(cfg.Disk.Disks, len(w.plan.Dims), len(cfg.Mix.Classes))
			e.expectedMaxResponse(&w.plan, w.ev.Placement, w.ev.Geometry.SizeClasses(), w.tvs, w.seed, sc)
		}
	}
}

// BenchmarkEvaluateSizeClasses compares the size-class kernel against the
// naive per-fragment reference on the paper-scale configuration (24M-row
// APB-1, 64 disks), pricing the heaviest enumerable candidate's first mix
// class.
func BenchmarkEvaluateSizeClasses(b *testing.B) {
	s := apb.Schema(24_000_000)
	m, err := apb.Mix(s)
	if err != nil {
		b.Fatal(err)
	}
	d := apb.Disk(64)
	cfg := &Config{Schema: s, Mix: m, Disk: d, MaxFragments: 1 << 20}
	e, err := NewEvaluator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var best *fragment.Fragmentation
	var bestN int64
	for _, f := range fragment.Enumerate(s) {
		g, err := e.Geometry(f)
		if err != nil {
			continue
		}
		if n := g.NumFragments(); n > bestN {
			best, bestN = f, n
		}
	}
	ev, err := e.Evaluate(best)
	if err != nil {
		b.Fatal(err)
	}
	plan := PlanClass(s, best, ev.Scheme, &m.Classes[0])
	b.Logf("candidate %s: %d fragments, %d size classes",
		best.Name(s), bestN, ev.Geometry.SizeClasses().NumClasses())

	b.Run("kernel", func(b *testing.B) {
		sc := e.NewScratch(nil)
		sc.es.resize(ev.Placement.Disks, len(best.Attrs()), len(m.Classes))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.evaluateClass(best, ev.Geometry, ev.Placement, &plan,
				ev.FactPrefetch, ev.BitmapPrefetch, sc.es)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			naiveClassCost(cfg, best, ev.Geometry, ev.Placement, &plan,
				ev.FactPrefetch, ev.BitmapPrefetch)
		}
	})
}
