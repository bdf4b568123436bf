// Package alloc implements WARLOCK's physical allocation schemes (paper
// §2): the logical round-robin scheme, which stores fact table and bitmap
// fragments on disk according to the logical order of the fragmentation
// dimensions, and the greedy size-based scheme used under notable data
// skew, which stores fragments ordered by decreasing size onto the least
// occupied disk at a time to keep disk occupancy balanced.
//
// Allocate and Choose take per-fragment page counts; PlaceClasses takes
// the same weights as size classes (fragment v weighs
// classPages[classOf[v]]), which is how the cost model hands them over.
// All three run one engine and yield identical placements for identical
// weights. Greedy's order is "decreasing size, ties by logical order";
// it is produced by sorting the classes and counting-sorting the
// fragments, and runs of equal size onto level disks are dealt in
// cyclic rounds (see greedy). Both steps reproduce, pick for pick, the
// per-fragment sort and (load, disk index) heap they replaced, which
// the package tests keep as the reference.
package alloc

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Scheme identifies an allocation strategy.
type Scheme int

const (
	// RoundRobin assigns fragment i (in logical order) to disk i mod D.
	RoundRobin Scheme = iota
	// GreedySize assigns fragments by decreasing size to the currently
	// least occupied disk.
	GreedySize
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case RoundRobin:
		return "round-robin"
	case GreedySize:
		return "greedy-size"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Errors returned by this package.
var (
	ErrBadDisks     = errors.New("alloc: number of disks must be positive")
	ErrNoFragments  = errors.New("alloc: nothing to allocate")
	ErrNegativeSize = errors.New("alloc: fragment size must be non-negative")
)

// Placement is a computed disk allocation: the disk of every fragment (in
// logical fragment order) plus the resulting per-disk load.
type Placement struct {
	// Scheme that produced the placement.
	Scheme Scheme
	// Disks is the number of disks.
	Disks int
	// DiskOf[i] is the disk index of fragment i.
	DiskOf []int
	// Load[d] is the total pages assigned to disk d.
	Load []int64
}

// Allocate computes a placement of the given per-fragment page counts with
// the chosen scheme.
func Allocate(scheme Scheme, pages []int64, disks int) (*Placement, error) {
	pl, _, err := place(&scheme, nil, pages, len(pages), disks, 0, nil)
	return pl, err
}

// Choose applies WARLOCK's rule: round-robin normally, greedy size-based
// "under notable data skew", detected via the coefficient of variation of
// fragment sizes exceeding cvThreshold (a threshold of 0 means "always use
// the skew rule with the default cut of 0.1").
func Choose(pages []int64, disks int, cvThreshold float64) (*Placement, error) {
	pl, _, err := place(nil, nil, pages, len(pages), disks, cvThreshold, nil)
	return pl, err
}

// PlaceClasses is Allocate (scheme non-nil) or Choose (scheme nil, with
// cvThreshold) for fragments given by size class: fragment v, in logical
// order, weighs classPages[classOf[v]]. The placement equals Allocate's or
// Choose's on the fanned-out per-fragment weights, but greedy orders the
// fragments by sorting only the classes. buf is reusable working memory:
// it is grown as needed and returned for the next call, and the placement
// never references it.
func PlaceClasses(scheme *Scheme, classOf []int32, classPages []int64, disks int, cvThreshold float64, buf []int32) (*Placement, []int32, error) {
	return place(scheme, classOf, classPages, len(classOf), disks, cvThreshold, buf)
}

// place is the one allocation engine behind Allocate, Choose and
// PlaceClasses. Fragment v weighs pages[classOf[v]]; a nil classOf means
// identity classes, one per fragment (pages is then per fragment). A nil
// scheme applies Choose's skew rule. buf is greedy's working memory,
// returned for reuse.
func place(scheme *Scheme, classOf []int32, pages []int64, n, disks int, cvThreshold float64, buf []int32) (*Placement, []int32, error) {
	if disks <= 0 {
		return nil, buf, fmt.Errorf("%w: %d", ErrBadDisks, disks)
	}
	if n == 0 {
		return nil, buf, ErrNoFragments
	}
	for c, p := range pages {
		if p < 0 {
			if classOf == nil {
				return nil, buf, fmt.Errorf("%w: fragment %d has %d pages", ErrNegativeSize, c, p)
			}
			return nil, buf, fmt.Errorf("%w: size class %d has %d pages", ErrNegativeSize, c, p)
		}
	}
	w := weights{classOf: classOf, pages: pages}
	s := RoundRobin
	if scheme != nil {
		s = *scheme
	} else {
		if cvThreshold <= 0 {
			cvThreshold = DefaultSkewCV
		}
		if sizeCV(w, n) > cvThreshold {
			s = GreedySize
		}
	}
	pl := &Placement{Scheme: s, Disks: disks, DiskOf: make([]int, n), Load: make([]int64, disks)}
	switch s {
	case RoundRobin:
		d := 0
		for v := range pl.DiskOf {
			pl.DiskOf[v] = d
			pl.Load[d] += w.of(v)
			if d++; d == disks {
				d = 0
			}
		}
	case GreedySize:
		buf = greedy(pl, w, buf)
	default:
		return nil, buf, fmt.Errorf("alloc: unknown scheme %d", int(s))
	}
	return pl, buf, nil
}

// weights maps fragments to allocation weights: fragment v weighs
// pages[classOf[v]], or pages[v] when classOf is nil (identity classes).
type weights struct {
	classOf []int32
	pages   []int64
}

func (w weights) of(v int) int64 {
	if w.classOf == nil {
		return w.pages[v]
	}
	return w.pages[w.classOf[v]]
}

// greedy places fragments by decreasing weight, ties by logical order,
// each onto the disk with the least (load, disk index). It produces that
// placement without a per-fragment comparison sort and, once the disks
// are level, without touching the heap:
//
//   - Order. Fragments of one class share one weight, so only the classes
//     are sorted, by (weight descending, class index); classes of equal
//     weight merge into one rank, and a counting sort by rank lays the
//     fragments out in logical order within each rank. That is exactly
//     "decreasing weight, ties by logical order" in O(n + k log k) for k
//     classes. With identity classes the sorted classes are the order.
//   - Heap. The disks sit in a min-heap of disk ids keyed by (load, id);
//     a placement raises only the root, so one sift-down restores it.
//     (load, id) is a total order, so every valid heap yields the same
//     minimum and the same pick.
//   - Leveled rounds. Within a run of m fragments of equal weight w > 0,
//     once the largest key is below (load[min]+w, min) — the disks are
//     level — the next pick goes to the minimum, whose new key then
//     exceeds every other; so the next D picks take the disks in
//     ascending (load, id) order, and the round repeats with every load
//     raised by w. The rest of the run is dealt cyclically over that
//     sorted order: q full rounds, then the first r disks. The order
//     rotated by r is again sorted by (load, id), hence a valid heap.
//     A run of weight 0 changes no load and goes wholly to the minimum.
//
// buf is working memory, grown as needed and returned.
func greedy(pl *Placement, w weights, buf []int32) []int32 {
	n, k, disks := len(pl.DiskOf), len(w.pages), pl.Disks
	need := k + disks // classes, heap
	if w.classOf != nil {
		need += k + k + 1 + n // ranks, rank offsets, fragment order
	}
	buf = slices.Grow(buf[:0], need)
	take := func(m int) []int32 {
		s := buf[len(buf) : len(buf)+m]
		buf = buf[:len(buf)+m]
		return s
	}

	// Classes by (weight descending, class index).
	cls := take(k)
	for c := range cls {
		cls[c] = int32(c)
	}
	slices.SortFunc(cls, func(a, b int32) int {
		if pa, pb := w.pages[a], w.pages[b]; pa != pb {
			return cmp.Compare(pb, pa)
		}
		return cmp.Compare(a, b)
	})
	order := cls
	if w.classOf != nil {
		// Rank the classes, merging equal weights, then counting-sort the
		// fragments by rank; filling in logical order keeps ties in
		// logical order.
		rank := take(k)
		ranks := int32(0)
		for i, c := range cls {
			if i > 0 && w.pages[c] != w.pages[cls[i-1]] {
				ranks++
			}
			rank[c] = ranks
		}
		off := take(int(ranks) + 2)
		clear(off)
		for _, c := range w.classOf {
			off[rank[c]+1]++
		}
		for r := 1; r < len(off); r++ {
			off[r] += off[r-1]
		}
		order = take(n)
		for v, c := range w.classOf {
			r := rank[c]
			order[off[r]] = int32(v)
			off[r]++
		}
	}

	// All loads are zero, so disk ids in ascending order are sorted by
	// (load, id) and form a valid heap; the largest key is the last disk.
	load := pl.Load
	h := take(disks)
	for d := range h {
		h[d] = int32(d)
	}
	top := int32(disks - 1)
	for start := 0; start < n; {
		wt := w.of(int(order[start]))
		end := start + 1
		for end < n && w.of(int(order[end])) == wt {
			end++
		}
		p := start
		if wt == 0 {
			for ; p < end; p++ {
				pl.DiskOf[order[p]] = int(h[0])
			}
		}
		for ; p < end; p++ {
			if end-p >= disks && keyLess(load, top, load[h[0]]+wt, h[0]) {
				dealRounds(pl, order[p:end], wt, h)
				top = h[disks-1]
				break
			}
			d := h[0]
			pl.DiskOf[order[p]] = int(d)
			load[d] += wt
			if keyLess(load, top, load[d], d) {
				top = d
			}
			siftDown(h, load)
		}
		start = end
	}
	return buf
}

// keyLess reports whether disk a's key (load[a], a) is below (l, b).
func keyLess(load []int64, a int32, l int64, b int32) bool {
	return load[a] < l || load[a] == l && a < b
}

// siftDown restores the (load, id) min-heap h after its root's load rose.
func siftDown(h []int32, load []int64) {
	i, n := 0, len(h)
	for {
		m := 2*i + 1
		if m >= n {
			return
		}
		if r := m + 1; r < n && keyLess(load, h[r], load[h[m]], h[m]) {
			m = r
		}
		if !keyLess(load, h[m], load[h[i]], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// dealRounds places a run of equal weight wt onto level disks (see
// greedy): it sorts the heap h by (load, id), deals the run cyclically
// over that order and leaves h sorted — rotated by the remainder — so it
// is again a valid heap.
func dealRounds(pl *Placement, run []int32, wt int64, h []int32) {
	load := pl.Load
	slices.SortFunc(h, func(a, b int32) int {
		if load[a] != load[b] {
			return cmp.Compare(load[a], load[b])
		}
		return cmp.Compare(a, b)
	})
	disks := len(h)
	i := 0
	for _, v := range run {
		pl.DiskOf[v] = int(h[i])
		if i++; i == disks {
			i = 0
		}
	}
	q, r := len(run)/disks, len(run)%disks
	for j, d := range h {
		load[d] += int64(q) * wt
		if j < r {
			load[d] += wt
		}
	}
	slices.Reverse(h[:r])
	slices.Reverse(h[r:])
	slices.Reverse(h)
}

// DefaultSkewCV is the default fragment-size CV above which greedy
// allocation is selected.
const DefaultSkewCV = 0.1

// sizeCV is the coefficient of variation of the n fragment weights,
// accumulated fragment by fragment in logical order.
func sizeCV(w weights, n int) float64 {
	var sum float64
	if w.classOf == nil {
		for _, p := range w.pages {
			sum += float64(p)
		}
	} else {
		for _, c := range w.classOf {
			sum += float64(w.pages[c])
		}
	}
	mean := sum / float64(n)
	if mean == 0 {
		return 0
	}
	var ss float64
	if w.classOf == nil {
		for _, p := range w.pages {
			d := float64(p) - mean
			ss += d * d
		}
	} else {
		for _, c := range w.classOf {
			d := float64(w.pages[c]) - mean
			ss += d * d
		}
	}
	return math.Sqrt(ss/float64(n)) / mean
}

// OccStats summarizes disk occupancy balance of a placement.
type OccStats struct {
	// MinLoad/MaxLoad/AvgLoad are per-disk page loads.
	MinLoad int64
	MaxLoad int64
	AvgLoad float64
	// CV is the coefficient of variation of per-disk load.
	CV float64
	// Imbalance is MaxLoad/AvgLoad (1.0 = perfectly balanced); 0 when the
	// placement is empty.
	Imbalance float64
	// TotalPages over all disks.
	TotalPages int64
}

// Stats computes occupancy statistics.
func (p *Placement) Stats() OccStats {
	var st OccStats
	if len(p.Load) == 0 {
		return st
	}
	st.MinLoad = p.Load[0]
	st.MaxLoad = p.Load[0]
	var sum float64
	for _, l := range p.Load {
		if l < st.MinLoad {
			st.MinLoad = l
		}
		if l > st.MaxLoad {
			st.MaxLoad = l
		}
		sum += float64(l)
		st.TotalPages += l
	}
	st.AvgLoad = sum / float64(len(p.Load))
	if st.AvgLoad > 0 {
		var ss float64
		for _, l := range p.Load {
			d := float64(l) - st.AvgLoad
			ss += d * d
		}
		st.CV = math.Sqrt(ss/float64(len(p.Load))) / st.AvgLoad
		st.Imbalance = float64(st.MaxLoad) / st.AvgLoad
	}
	return st
}

// FitsCapacity reports whether every disk's load fits the per-disk
// capacity (in pages).
func (p *Placement) FitsCapacity(capacityPages int64) bool {
	for _, l := range p.Load {
		if l > capacityPages {
			return false
		}
	}
	return true
}

// FragmentsOn returns the fragment indices placed on the given disk, in
// logical order.
func (p *Placement) FragmentsOn(disk int) []int {
	var out []int
	for i, d := range p.DiskOf {
		if d == disk {
			out = append(out, i)
		}
	}
	return out
}

// AccessProfile aggregates arbitrary per-fragment weights (e.g. expected
// I/O time of a query class) into per-disk totals — the "disk access
// profile per query class" of the analysis layer (§3.3).
func (p *Placement) AccessProfile(weight []float64) []float64 {
	out := make([]float64, p.Disks)
	for i, w := range weight {
		if i >= len(p.DiskOf) {
			break
		}
		out[p.DiskOf[i]] += w
	}
	return out
}
