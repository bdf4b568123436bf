package costmodel

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fragment"
	"repro/internal/skew"
	"repro/internal/workload"
)

// naiveDimOutcomes is the retained reference for the packed outcome
// tables: the [][]int builder they replaced, one appended slice per set.
func naiveDimOutcomes(dp DimPlan, mapping skew.Mapping) [][]int {
	switch dp.Case {
	case CoarserEq:
		sets := make([][]int, dp.QueryCard)
		for w := 0; w < dp.QueryCard; w++ {
			var hit []int
			for v := 0; v < dp.FragCard; v++ {
				if Ancestor(v, dp.FragCard, dp.QueryCard, mapping) == w {
					hit = append(hit, v)
				}
			}
			sets[w] = hit
		}
		return sets
	case Finer:
		sets := make([][]int, dp.FragCard)
		for v := 0; v < dp.FragCard; v++ {
			sets[v] = []int{v}
		}
		return sets
	default:
		all := make([]int, dp.FragCard)
		for v := range all {
			all[v] = v
		}
		return [][]int{all}
	}
}

// TestOutcomeTableMatchesReference: for random (case, fragCard,
// queryCard ≤ fragCard, mapping), the packed table's sets and the
// exported Outcomes both equal the reference builder's, set for set.
func TestOutcomeTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nonDividing := 0
	for trial := 0; trial < 2000; trial++ {
		fc := 1 + rng.Intn(300)
		dp := DimPlan{Case: DimCase(rng.Intn(3)), FragCard: fc, QueryCard: 1 + rng.Intn(fc)}
		mapping := skew.Mapping(rng.Intn(2))
		if fc%dp.QueryCard != 0 {
			nonDividing++
		}
		want := naiveDimOutcomes(dp, mapping)
		tab := dimOutcomes(dp, mapping)
		if tab.numSets() != len(want) {
			t.Fatalf("%+v/%v: %d sets, want %d", dp, mapping, tab.numSets(), len(want))
		}
		for c, ws := range want {
			got := tab.set(c)
			if len(got) != len(ws) {
				t.Fatalf("%+v/%v set %d: %v, want %v", dp, mapping, c, got, ws)
			}
			for i, v := range ws {
				if int(got[i]) != v {
					t.Fatalf("%+v/%v set %d: %v, want %v", dp, mapping, c, got, ws)
				}
			}
		}
		if got := Outcomes(&ClassPlan{Dims: []DimPlan{dp}}, mapping); !reflect.DeepEqual(got, [][][]int{want}) {
			t.Fatalf("%+v/%v: Outcomes %v, want %v", dp, mapping, got, want)
		}
	}
	if nonDividing < 100 {
		t.Fatalf("only %d trials with queryCard not dividing fragCard", nonDividing)
	}
}

// outcomeTables evaluates every small candidate on e and returns the
// table e's store hands out for each dimension plan the evaluations used.
func outcomeTables(t *testing.T, e *Evaluator) map[DimPlan]*outcomeTable {
	t.Helper()
	cfg := e.Config()
	tables := map[DimPlan]*outcomeTable{}
	for _, f := range fragment.Enumerate(cfg.Schema) {
		if f.NumFragments(cfg.Schema) > 1<<12 {
			continue
		}
		ev, err := e.Evaluate(f)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfg.Mix.Classes {
			plan := PlanClass(cfg.Schema, f, ev.Scheme, &cfg.Mix.Classes[i])
			for _, dp := range plan.Dims {
				tables[dp] = e.outcomes.table(dp, cfg.Mapping)
			}
		}
	}
	return tables
}

// halfMix keeps every other class of the mix with reweighted weights.
func halfMix(m *workload.Mix) *workload.Mix {
	out := &workload.Mix{}
	for i := 0; i < len(m.Classes); i += 2 {
		c := m.Classes[i]
		c.Weight *= float64(1 + i)
		out.Classes = append(out.Classes, c)
	}
	return out
}

// TestCacheSharesOutcomeTables: Evaluators on one Cache that differ in
// disk count and mix get the very same table for each key, and the
// second adds no tables for keys the first already built.
func TestCacheSharesOutcomeTables(t *testing.T) {
	cache := NewCache()
	cfgA := apbConfig(t)
	cfgA.Cache = cache
	cfgB := apbConfig(t)
	cfgB.Cache = cache
	cfgB.Disk.Disks = 32
	cfgB.Mix = halfMix(cfgB.Mix)

	eA, err := NewEvaluator(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	eB, err := NewEvaluator(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	tabA := outcomeTables(t, eA)
	built := cache.Outcomes()
	if built == 0 || built != len(tabA) {
		t.Fatalf("cache holds %d tables for %d keys", built, len(tabA))
	}
	tabB := outcomeTables(t, eB)
	if cache.Outcomes() != built {
		t.Fatalf("second evaluator grew the cache from %d to %d tables", built, cache.Outcomes())
	}
	for dp, tb := range tabB {
		if tabA[dp] != tb {
			t.Fatalf("%+v: evaluators on one cache got different tables", dp)
		}
	}
}

// TestCacheOutcomeTablesKeyedByMapping: Interleaved and Contiguous
// Evaluators on one Cache never share a table.
func TestCacheOutcomeTablesKeyedByMapping(t *testing.T) {
	cache := NewCache()
	cfgI := apbConfig(t)
	cfgI.Cache = cache
	cfgC := apbConfig(t)
	cfgC.Cache = cache
	cfgC.Mapping = skew.Contiguous

	eI, err := NewEvaluator(cfgI)
	if err != nil {
		t.Fatal(err)
	}
	eC, err := NewEvaluator(cfgC)
	if err != nil {
		t.Fatal(err)
	}
	tabI := outcomeTables(t, eI)
	tabC := outcomeTables(t, eC)
	if cache.Outcomes() != len(tabI)+len(tabC) {
		t.Fatalf("cache holds %d tables, want %d + %d", cache.Outcomes(), len(tabI), len(tabC))
	}
	for dp, tc := range tabC {
		if tabI[dp] == tc {
			t.Fatalf("%+v: Interleaved and Contiguous evaluators share a table", dp)
		}
	}
}

// TestSharedOutcomeTablesBitIdentical: evaluations on a Cache already
// warmed by an Evaluator with another disk count and mix equal, field for
// field, evaluations without a Cache.
func TestSharedOutcomeTablesBitIdentical(t *testing.T) {
	cache := NewCache()
	warm := apbConfig(t)
	warm.Cache = cache
	warm.Disk.Disks = 32
	warm.Mix = halfMix(warm.Mix)
	eWarm, err := NewEvaluator(warm)
	if err != nil {
		t.Fatal(err)
	}
	outcomeTables(t, eWarm)

	shared := apbConfig(t)
	shared.Cache = cache
	eShared, err := NewEvaluator(shared)
	if err != nil {
		t.Fatal(err)
	}
	ePrivate, err := NewEvaluator(apbConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range fragment.Enumerate(shared.Schema) {
		if f.NumFragments(shared.Schema) > 1<<12 {
			continue
		}
		got, err := eShared.Evaluate(f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ePrivate.Evaluate(f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: evaluation with a shared cache differs from one without", f.Name(shared.Schema))
		}
		n++
	}
	if n < 20 {
		t.Fatalf("compared only %d candidates", n)
	}
}
