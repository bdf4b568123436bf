package alloc

import (
	"container/heap"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// naiveDiskHeap is the reference min-heap over (load, disk index), driven
// through container/heap.
type naiveDiskHeap struct {
	load []int64
	idx  []int
}

func (h *naiveDiskHeap) Len() int { return len(h.idx) }
func (h *naiveDiskHeap) Less(i, j int) bool {
	a, b := h.idx[i], h.idx[j]
	if h.load[a] != h.load[b] {
		return h.load[a] < h.load[b]
	}
	return a < b
}
func (h *naiveDiskHeap) Swap(i, j int) { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *naiveDiskHeap) Push(x any)    { h.idx = append(h.idx, x.(int)) }
func (h *naiveDiskHeap) Pop() any {
	old := h.idx
	x := old[len(old)-1]
	h.idx = old[:len(old)-1]
	return x
}

// naiveGreedy is the retained per-fragment greedy placement: a comparison
// sort of every fragment by (size descending, logical order), then one
// container/heap pick of the least (load, disk index) per fragment. The
// size-class engine must reproduce its DiskOf and Load exactly.
func naiveGreedy(pages []int64, disks int) (diskOf []int, load []int64) {
	order := make([]int, len(pages))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if pages[order[a]] != pages[order[b]] {
			return pages[order[a]] > pages[order[b]]
		}
		return order[a] < order[b]
	})
	diskOf = make([]int, len(pages))
	load = make([]int64, disks)
	h := &naiveDiskHeap{load: load, idx: make([]int, disks)}
	for d := range h.idx {
		h.idx[d] = d
	}
	heap.Init(h)
	for _, fi := range order {
		d := h.idx[0]
		diskOf[fi] = d
		load[d] += pages[fi]
		heap.Fix(h, 0)
	}
	return diskOf, load
}

// randomClasses draws a size-class description of n fragments: k class
// weights from a small pool (so distinct classes often share a weight),
// with zeros and very large weights mixed in, and a class per fragment.
// Every class is used at least once when n >= k, as in
// fragment.SizeClasses; otherwise some classes stay empty.
func randomClasses(rng *rand.Rand, n int) (classOf []int32, classPages []int64) {
	k := 1 + rng.Intn(min(n, 1+rng.Intn(40)))
	pool := make([]int64, 1+rng.Intn(6))
	for i := range pool {
		switch rng.Intn(6) {
		case 0:
			pool[i] = 0
		case 1:
			pool[i] = 1 << (30 + rng.Intn(20))
		default:
			pool[i] = int64(1 + rng.Intn(1000))
		}
	}
	classPages = make([]int64, k)
	for c := range classPages {
		classPages[c] = pool[rng.Intn(len(pool))]
	}
	classOf = make([]int32, n)
	for v := range classOf {
		if v < k {
			classOf[v] = int32(v)
		} else {
			classOf[v] = int32(rng.Intn(k))
		}
	}
	rng.Shuffle(n, func(i, j int) { classOf[i], classOf[j] = classOf[j], classOf[i] })
	return classOf, classPages
}

// randomDisks draws a disk count covering D = 1, D around n and D > n.
func randomDisks(rng *rand.Rand, n int) int {
	switch rng.Intn(5) {
	case 0:
		return 1
	case 1:
		return n + 1 + rng.Intn(20)
	default:
		return 1 + rng.Intn(70)
	}
}

func fanOut(classOf []int32, classPages []int64) []int64 {
	pages := make([]int64, len(classOf))
	for v, c := range classOf {
		pages[v] = classPages[c]
	}
	return pages
}

func samePlacement(a, b *Placement) bool {
	return a.Scheme == b.Scheme && a.Disks == b.Disks &&
		slices.Equal(a.DiskOf, b.DiskOf) && slices.Equal(a.Load, b.Load)
}

// TestGreedyMatchesNaiveReference pins the greedy engine to the retained
// sort + container/heap placement over thousands of random inputs with
// many equal weights, zero weights, very large weights, D = 1 and D > n:
// Allocate on per-fragment weights and PlaceClasses on the size-class
// description of the same weights must both give the reference's DiskOf
// and Load. PlaceClasses reuses one dirty buffer throughout.
func TestGreedyMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	greedyScheme := GreedySize
	var buf []int32
	leveled, wide := 0, 0
	for trial := 0; trial < 6000; trial++ {
		n := 1 + rng.Intn(300)
		disks := randomDisks(rng, n)
		classOf, classPages := randomClasses(rng, n)
		pages := fanOut(classOf, classPages)
		if trial%3 == 0 {
			// Every fragment its own weight draw: identity-like classes.
			for v := range pages {
				pages[v] = int64(rng.Intn(50))
			}
			classOf = make([]int32, n)
			for v := range classOf {
				classOf[v] = int32(v)
			}
			classPages = slices.Clone(pages)
		}
		wantDiskOf, wantLoad := naiveGreedy(pages, disks)
		want := &Placement{Scheme: GreedySize, Disks: disks, DiskOf: wantDiskOf, Load: wantLoad}

		got, err := Allocate(GreedySize, pages, disks)
		if err != nil {
			t.Fatalf("trial %d: Allocate: %v", trial, err)
		}
		if !samePlacement(got, want) {
			t.Fatalf("trial %d (n=%d D=%d): Allocate differs from the reference\ngot  %v %v\nwant %v %v",
				trial, n, disks, got.DiskOf, got.Load, want.DiskOf, want.Load)
		}
		for i := range buf {
			buf[i] = rng.Int31()
		}
		got, buf, err = PlaceClasses(&greedyScheme, classOf, classPages, disks, 0, buf)
		if err != nil {
			t.Fatalf("trial %d: PlaceClasses: %v", trial, err)
		}
		if !samePlacement(got, want) {
			t.Fatalf("trial %d (n=%d D=%d classes=%d): PlaceClasses differs from the reference\ngot  %v %v\nwant %v %v",
				trial, n, disks, len(classPages), got.DiskOf, got.Load, want.DiskOf, want.Load)
		}
		runs := map[int64]int{}
		for _, p := range pages {
			runs[p]++
		}
		for w, m := range runs {
			if w > 0 && m >= disks && disks > 1 {
				leveled++
				break
			}
		}
		if disks > n {
			wide++
		}
	}
	// Positive-weight runs at least D long on D > 1 disks (where leveled
	// rounds can deal the rest) and D > n must both be covered.
	if leveled < 1000 || wide < 500 {
		t.Fatalf("coverage: %d trials with a run of >= D equal positive weights, %d with D > n", leveled, wide)
	}
	t.Logf("%d trials with a run of >= D equal positive weights, %d with D > n", leveled, wide)
}

// TestPlaceClassesMatchesAllocateAndChoose: PlaceClasses with a forced
// scheme equals Allocate on the fanned-out weights, and with a nil scheme
// equals Choose at the same threshold — including which scheme Choose's
// skew rule selects.
func TestPlaceClassesMatchesAllocateAndChoose(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var buf []int32
	chose := map[Scheme]int{}
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(200)
		disks := randomDisks(rng, n)
		classOf, classPages := randomClasses(rng, n)
		pages := fanOut(classOf, classPages)
		for _, s := range []Scheme{RoundRobin, GreedySize} {
			want, err := Allocate(s, pages, disks)
			if err != nil {
				t.Fatal(err)
			}
			var got *Placement
			got, buf, err = PlaceClasses(&s, classOf, classPages, disks, 0, buf)
			if err != nil {
				t.Fatal(err)
			}
			if !samePlacement(got, want) {
				t.Fatalf("trial %d: PlaceClasses(%v) differs from Allocate", trial, s)
			}
		}
		cv := []float64{0, 0.05, 0.1, 0.5, 2}[rng.Intn(5)]
		want, err := Choose(pages, disks, cv)
		if err != nil {
			t.Fatal(err)
		}
		var got *Placement
		got, buf, err = PlaceClasses(nil, classOf, classPages, disks, cv, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !samePlacement(got, want) {
			t.Fatalf("trial %d (cv %g): PlaceClasses(nil) differs from Choose", trial, cv)
		}
		chose[got.Scheme]++
	}
	if chose[RoundRobin] == 0 || chose[GreedySize] == 0 {
		t.Fatalf("the skew rule picked only one scheme: %v", chose)
	}
}

// TestPlaceClassesErrors: the size-class entry keeps Allocate's checks,
// with negative weights checked per class.
func TestPlaceClassesErrors(t *testing.T) {
	rr := RoundRobin
	if _, _, err := PlaceClasses(&rr, []int32{0}, []int64{1}, 0, 0, nil); !errors.Is(err, ErrBadDisks) {
		t.Fatalf("disks=0: %v", err)
	}
	if _, _, err := PlaceClasses(nil, nil, []int64{1}, 4, 0, nil); !errors.Is(err, ErrNoFragments) {
		t.Fatalf("no fragments: %v", err)
	}
	if _, _, err := PlaceClasses(nil, []int32{0, 1}, []int64{1, -2}, 4, 0, nil); !errors.Is(err, ErrNegativeSize) {
		t.Fatalf("negative class weight: %v", err)
	}
	bad := Scheme(9)
	if _, _, err := PlaceClasses(&bad, []int32{0}, []int64{1}, 4, 0, nil); err == nil {
		t.Fatal("unknown scheme should fail")
	}
}
