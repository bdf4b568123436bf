package costmodel

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/apb"
	"repro/internal/bitmap"
	"repro/internal/fragment"
	"repro/internal/skew"
	"repro/internal/workload"
)

// naiveAllocationPages is the retained per-fragment allocation weight:
// fact pages plus every index's packed bitmap pages, priced fragment by
// fragment. allocationPages prices each size class once instead.
func naiveAllocationPages(g *fragment.Geometry, scheme *bitmap.Scheme) []int64 {
	out := make([]int64, len(g.Pages))
	for i := range g.Pages {
		out[i] = g.Pages[i]
		for _, ix := range scheme.Indexes {
			out[i] += bitmap.PackedPagesPerFragment(g.Rows[i], ix.Slices, g.PageSize)
		}
	}
	return out
}

// TestPageMathMatchesPerFragmentReference pins the per-size-class page
// math to per-fragment sums: over random uniform and skewed geometries
// with planned bitmap schemes, allocationPages (and AllocationPages)
// fanned out over ClassOf (and AllocationPages) equals
// naiveAllocationPages, and bitmap.IndexPages, IndexBytes, SchemePages and
// SchemeBytes equal their per-fragment totals. The per-class buffer is
// reused across candidates and left dirty on purpose.
func TestPageMathMatchesPerFragmentReference(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	checked, skewed, indexed := 0, 0, 0
	var classPages []int64
	for trial := 0; trial < 40; trial++ {
		s := randomBoundStar(rng)
		m, err := workload.RandomMix(s, 1+rng.Intn(5), rng.Int63())
		if err != nil {
			t.Fatalf("trial %d: random mix: %v", trial, err)
		}
		opts := bitmap.Options{CardinalityThreshold: 1 + rng.Intn(400), CostBased: rng.Intn(2) == 0}
		pageSize := 1024 << rng.Intn(4)
		mapping := skew.Mapping(rng.Intn(2))
		cands := fragment.Enumerate(s)
		if len(cands) > 12 {
			rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			cands = cands[:12]
		}
		for _, f := range cands {
			g, err := fragment.NewGeometry(s, f, pageSize, mapping, 1<<20)
			if err != nil {
				continue
			}
			scheme, err := bitmap.PlanScheme(s, f, m, opts)
			if err != nil {
				t.Fatalf("trial %d %s: plan scheme: %v", trial, f.Name(s), err)
			}
			label := f.Name(s)
			sz := g.SizeClasses()
			classPages = grow(classPages, sz.NumClasses())
			want := naiveAllocationPages(g, scheme)
			allocationPages(g, scheme, classPages)
			for v, c := range sz.ClassOf {
				if classPages[c] != want[v] {
					t.Fatalf("trial %d %s: fragment %d weighs %d by class %d, per-fragment reference %d",
						trial, label, v, classPages[c], c, want[v])
				}
			}
			if got := AllocationPages(&Evaluation{Geometry: g, Scheme: scheme}); !slices.Equal(got, want) {
				t.Fatalf("trial %d %s: AllocationPages differs from the per-fragment reference", trial, label)
			}
			var schemePages, schemeBytes int64
			for _, ix := range scheme.Indexes {
				var pages, bytes int64
				for _, rows := range g.Rows {
					pages += bitmap.PackedPagesPerFragment(rows, ix.Slices, g.PageSize)
					bytes += bitmap.SliceBytesPerFragment(rows) * int64(ix.Slices)
				}
				if got := bitmap.IndexPages(ix, g); got != pages {
					t.Fatalf("trial %d %s: IndexPages = %d, per-fragment sum %d", trial, label, got, pages)
				}
				if got := bitmap.IndexBytes(ix, g); got != bytes {
					t.Fatalf("trial %d %s: IndexBytes = %d, per-fragment sum %d", trial, label, got, bytes)
				}
				schemePages += pages
				schemeBytes += bytes
			}
			if got := scheme.SchemePages(g); got != schemePages {
				t.Fatalf("trial %d %s: SchemePages = %d, per-fragment sum %d", trial, label, got, schemePages)
			}
			if got := scheme.SchemeBytes(g); got != schemeBytes {
				t.Fatalf("trial %d %s: SchemeBytes = %d, per-fragment sum %d", trial, label, got, schemeBytes)
			}
			checked++
			if sz.NumClasses() > 1 {
				skewed++
			}
			if len(scheme.Indexes) > 0 {
				indexed++
			}
		}
	}
	// The sweep must cover multi-class (skewed or unevenly rounded)
	// geometries and schemes with indexes, or the fan-out and the
	// per-index sums go untested.
	if checked < 200 || skewed == 0 || indexed == 0 {
		t.Fatalf("page-math sweep checked %d candidates, %d with several size classes, %d with indexes",
			checked, skewed, indexed)
	}
	t.Logf("page math: %d candidates exact, %d with several size classes, %d with indexes", checked, skewed, indexed)
}

// TestPlacementBySizeClassMatchesPerFragment pins the evaluator's
// size-class placement to the per-fragment entry points: over random
// randomBoundStar schemas, disk counts and skew thresholds, the Placement
// of an evaluation under Choose's rule (nil AllocScheme) equals
// alloc.Choose on AllocationPages, and under a forced GreedySize equals
// alloc.Allocate. The sweep must cover uniform geometries (one size
// class), skewed ones (several) and ones where every fragment is its own
// class.
func TestPlacementBySizeClassMatchesPerFragment(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	greedy := alloc.GreedySize
	var uniform, skewed, distinct, chosenGreedy int
	for trial := 0; trial < 30; trial++ {
		s := randomBoundStar(rng)
		if trial%2 == 0 {
			// A strongly skewed dimension gives every value its own share.
			s.Dimensions[rng.Intn(len(s.Dimensions))].SkewTheta = 0.5 + rng.Float64()
		}
		m, err := workload.RandomMix(s, 1+rng.Intn(4), rng.Int63())
		if err != nil {
			t.Fatalf("trial %d: random mix: %v", trial, err)
		}
		d := apb.Disk(1 + rng.Intn(70))
		cv := []float64{0, 0.05, 0.5}[rng.Intn(3)]
		choose, err := NewEvaluator(&Config{Schema: s, Mix: m, Disk: d, MaxFragments: 1 << 16, SkewCVThreshold: cv})
		if err != nil {
			t.Fatalf("trial %d: evaluator: %v", trial, err)
		}
		forced, err := NewEvaluator(&Config{Schema: s, Mix: m, Disk: d, MaxFragments: 1 << 16, AllocScheme: &greedy})
		if err != nil {
			t.Fatalf("trial %d: evaluator: %v", trial, err)
		}
		cands := fragment.Enumerate(s)
		if len(cands) > 10 {
			rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			cands = cands[:10]
		}
		for _, f := range cands {
			ev, err := choose.Evaluate(f)
			if err != nil {
				continue
			}
			label := f.Name(s)
			pages := AllocationPages(ev)
			want, err := alloc.Choose(pages, d.Disks, cv)
			if err != nil {
				t.Fatalf("trial %d %s: Choose: %v", trial, label, err)
			}
			if !reflect.DeepEqual(ev.Placement, want) {
				t.Fatalf("trial %d %s: size-class placement differs from Choose on AllocationPages", trial, label)
			}
			if want.Scheme == alloc.GreedySize {
				chosenGreedy++
			}
			ev, err = forced.Evaluate(f)
			if err != nil {
				t.Fatalf("trial %d %s: forced greedy: %v", trial, label, err)
			}
			want, err = alloc.Allocate(alloc.GreedySize, pages, d.Disks)
			if err != nil {
				t.Fatalf("trial %d %s: Allocate: %v", trial, label, err)
			}
			if !reflect.DeepEqual(ev.Placement, want) {
				t.Fatalf("trial %d %s: forced greedy size-class placement differs from Allocate", trial, label)
			}
			switch sz := ev.Geometry.SizeClasses(); {
			case sz.NumClasses() == 1:
				uniform++
			case sz.NumClasses() == len(sz.ClassOf):
				distinct++
			default:
				skewed++
			}
		}
	}
	if uniform == 0 || skewed == 0 || distinct == 0 || chosenGreedy == 0 {
		t.Fatalf("coverage: %d uniform, %d skewed, %d all-distinct geometries; Choose picked greedy %d times",
			uniform, skewed, distinct, chosenGreedy)
	}
	t.Logf("placements: %d uniform, %d skewed, %d all-distinct geometries; Choose picked greedy %d times",
		uniform, skewed, distinct, chosenGreedy)
}

// sweepBase is the what-if benchmark's pinned base configuration (APB-1,
// 4M rows, 32 disks) with every candidate that passes the advisor's
// default thresholds evaluated once.
type sweepBase struct {
	e     *Evaluator
	evals []*Evaluation
}

func newSweepBase(b *testing.B) *sweepBase {
	b.Helper()
	s := apb.Schema(4_000_000)
	m, err := apb.Mix(s)
	if err != nil {
		b.Fatal(err)
	}
	d := apb.Disk(32)
	e, err := NewEvaluator(&Config{Schema: s, Mix: m, Disk: d})
	if err != nil {
		b.Fatal(err)
	}
	// The advisor's default thresholds (core.DefaultThresholds) for a disk
	// without a configured prefetch granule.
	th := fragment.Thresholds{MinAvgFragmentPages: 16, MaxFragments: 1 << 20}
	kept, _ := fragment.EnumerateFiltered(s, th, d.PageSize)
	base := &sweepBase{e: e}
	for _, f := range kept {
		ev, err := e.Evaluate(f)
		if err != nil {
			b.Fatal(err)
		}
		base.evals = append(base.evals, ev)
	}
	if len(base.evals) == 0 {
		b.Fatal("no candidate passes the default thresholds")
	}
	return base
}

// BenchmarkAllocationWeights times the per-candidate page math of an
// evaluation — the scheme's page footprint and the per-size-class
// allocation weights — over every candidate of the sweep base.
func BenchmarkAllocationWeights(b *testing.B) {
	base := newSweepBase(b)
	sc := base.e.NewScratch(nil).es
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ev := range base.evals {
			g := ev.Geometry
			ev.Scheme.SchemePages(g)
			sc.classPages = grow(sc.classPages, g.SizeClasses().NumClasses())
			allocationPages(g, ev.Scheme, sc.classPages)
		}
	}
}

// BenchmarkGreedyPlacement times greedy allocation of every candidate of
// the sweep base: the size-class placement the evaluator runs, with
// GreedySize forced. The per-class weights are computed up front, so only
// the placement is timed.
func BenchmarkGreedyPlacement(b *testing.B) {
	base := newSweepBase(b)
	classPages := make([][]int64, len(base.evals))
	for i, ev := range base.evals {
		classPages[i] = make([]int64, ev.Geometry.SizeClasses().NumClasses())
		allocationPages(ev.Geometry, ev.Scheme, classPages[i])
	}
	greedy := alloc.GreedySize
	disks := base.e.cfg.Disk.Disks
	var buf []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, ev := range base.evals {
			var err error
			if _, buf, err = alloc.PlaceClasses(&greedy, ev.Geometry.SizeClasses().ClassOf, classPages[j], disks, 0, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
}
