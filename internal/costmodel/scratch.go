package costmodel

import "math/rand"

// evalScratch is the per-candidate working set of the evaluation hot
// path. Nothing in it escapes into an Evaluation (per-class costs and
// disk profiles are still freshly allocated), so reuse cannot change
// results; the zeroing discipline is documented at each use site.
//
// Ownership comes in two flavours: Evaluate draws from the Evaluator's
// sync.Pool per call (convenient for one-off callers), while pipeline
// workers own one scratch for their whole lifetime via Scratch /
// EvaluateWith — no pool traffic, no cross-CPU buffer migration on the
// hot path.
type evalScratch struct {
	// cls and tvs are the size-class cost table and per-size-class
	// service times of the class currently being priced (see kernel.go);
	// every entry is overwritten by priceSizeClasses before use.
	cls []sizeClassCost
	tvs []float64
	// classPages holds the candidate's per-size-class allocation weights
	// (allocationPages), overwritten per candidate; place is
	// alloc.PlaceClasses' working memory (class order, ranks, rank
	// offsets, fragment order, disk heap). The placement retains neither.
	classPages []int64
	place      []int32
	// busy accumulates per-disk busy time in evaluateClass (zeroed per
	// class); rbusy is the hit-pattern enumeration's accumulator, kept
	// all-zero between patterns by the enumeration itself.
	busy, rbusy []float64
	// touched lists the disks a pattern actually loaded (capacity =
	// disks, so appends never regrow it).
	touched []int
	// outs holds the per-dimension outcome tables of the class currently
	// being priced (read-only tables from the Evaluator's outcome store).
	outs []*outcomeTable
	// sets/idx/choice are the hit-pattern cursors and stride/base the
	// walk's fragment-id strides and prefix offsets, one entry per
	// fragmentation attribute; expectedMaxResponse sets them per class.
	sets         [][]int32
	idx, choice  []int
	stride, base []int64
	// plans holds the candidate's per-class plans, in mix order; Dims
	// capacity is reused across candidates.
	plans []ClassPlan
	// rng replays the deterministic sampling fallback: re-seeded per
	// (candidate, class), it produces exactly the sequence a fresh
	// rand.New(rand.NewSource(seed)) would.
	rng *rand.Rand
	// sharder holds the tokens of pipeline workers that have run out of
	// candidates, which a large kernel fill borrows to shard itself; nil
	// disables sharding (pooled Evaluate scratches never shard).
	sharder *Sharder
}

func newEvalScratch() *evalScratch {
	return &evalScratch{rng: rand.New(rand.NewSource(0))}
}

// resize readies the scratch for a candidate with the given disk,
// attribute and class counts. rbusy is zeroed; busy/idx/choice/base are
// set at their use sites; cls/tvs are sized by the kernel per class
// evaluation, classPages by the evaluator and place by alloc.PlaceClasses
// per candidate.
func (sc *evalScratch) resize(disks, dims, classes int) {
	sc.busy = grow(sc.busy, disks)
	sc.rbusy = grow(sc.rbusy, disks)
	clear(sc.rbusy)
	if cap(sc.touched) < disks {
		sc.touched = make([]int, 0, disks)
	}
	sc.sets = grow(sc.sets, dims)
	sc.outs = grow(sc.outs, dims)
	sc.idx = grow(sc.idx, dims)
	sc.choice = grow(sc.choice, dims)
	sc.stride = grow(sc.stride, dims)
	sc.base = grow(sc.base, dims)
	sc.plans = grow(sc.plans, classes)
}

// getScratch returns a pooled scratch sized for the candidate.
func (e *Evaluator) getScratch(disks, dims, classes int) *evalScratch {
	sc, _ := e.scratch.Get().(*evalScratch)
	if sc == nil {
		sc = newEvalScratch()
	}
	sc.resize(disks, dims, classes)
	return sc
}

// Scratch is an evaluation working set owned by one worker goroutine for
// its lifetime. A pipeline worker creates one Scratch up front and
// threads it through EvaluateWith for every candidate it prices,
// replacing per-candidate sync.Pool traffic with exclusive ownership.
// A Scratch must not be used from two goroutines concurrently; results
// are bit-identical whether evaluations share a Scratch, use distinct
// ones, or go through plain Evaluate.
type Scratch struct {
	es *evalScratch
}

// NewScratch returns a worker-lifetime scratch. sharder optionally lends
// the tokens of exited pipeline workers to intra-candidate kernel
// sharding (see Sharder); nil disables sharding.
func (e *Evaluator) NewScratch(sharder *Sharder) *Scratch {
	es := newEvalScratch()
	es.sharder = sharder
	return &Scratch{es: es}
}

// Reset discards the scratch's buffers and replaces them with fresh
// ones, keeping the sharder binding. A panic during EvaluateWith may
// abandon the buffers mid-mutation (half-filled cost tables, dirty
// accumulators); a pipeline worker that recovers such a panic must
// Reset before pricing the next candidate so the poisoned state cannot
// leak into an unrelated evaluation.
func (s *Scratch) Reset() {
	sharder := s.es.sharder
	s.es = newEvalScratch()
	s.es.sharder = sharder
}

// grow returns s resliced to length n, reallocating only when its
// capacity is short; retained elements keep their values.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
