// Command perfbench is the WARLOCK benchmark of record: it measures the
// advisor end to end and layer by layer on three seeded workloads, checks
// every output it times, and prints one JSON result line. BENCHMARK.json
// at the repository root lists its workloads, metrics, units, directions
// and regression bounds.
//
// Run it from the repository root through the launcher, which builds it
// from the checkout's sources:
//
//	bash perfbench/run.sh --workload advise-cold --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare parent-results/ change-results/
//
// The benchmark treats the program strictly from outside. It calls the
// public API (warlock.Advisor, warlock.NewServer) and the exported
// functions of the internal layer packages, and reads only fields the
// program already exports: Result.Timings, PruneStats, Coverage,
// server.Metrics, the warlockd stage histograms and
// costmodel.Cache.Geometries.
//
// # Workloads
//
// Every workload is a closed loop in one process with at most nproc
// callers: the callers are tools that wait for their advice. Inputs are
// generated from --seed; the seed perturbs row counts, skew, mix weights
// and order, while the composition of each workload (how many inputs of
// each size and skew class) is fixed, so runs with different seeds measure
// the same amount of work.
//
//   - advise-cold: one caller runs a seeded sequence of independent
//     advisories through Advisor.Advise at default parallelism, in cycles
//     of thirteen APB-1 inputs at 8M rows/16 disks, 24M/64 and 96M/256,
//     with uniform, mid and hot per-dimension skew (θ from {0, 0.5, 0.86},
//     jittered) and both fixed (8-page) and optimized prefetch granules. Why: every
//     advisory builds a fresh Evaluator, so enumeration, geometry, outcome
//     tables, the size-class kernel, the response walk, allocation and
//     pruning all do full work. This is the CLI user's latency.
//   - sweep-grid: one caller repeatedly runs seeded what-if sweeps
//     (disks × mix scales × skews × allocation schemes, 16 scenarios over a
//     4M-row base) through Advisor.Sweep with one shared EvalCache. Why: it
//     uses the cost model differently. Geometries and share vectors are
//     reused across scenarios, parallelism moves from candidates to
//     scenarios, and outcome tables are rebuilt per scenario Evaluator, so
//     work moved into per-Evaluator set-up shows here.
//   - serve-zipf: nproc clients post /v1/advise documents over loopback to
//     an in-process warlockd handler (warlock.NewServer, default config).
//     Requests are drawn Zipf-popular from a seeded pool of distinct
//     1M–8M-row documents three times the response cache's capacity, so
//     hits, misses, LRU evictions and occasional coalesced requests all
//     occur; a warm-up fills the cache before timing. For stability the
//     documents share sixteen schemas, so after the warm-up a miss never
//     pays for a cold schema or cold geometry; cold-schema misses are
//     measured only on advise-cold. Why: this is the
//     operator's traffic. Parse, fingerprint, cache, singleflight, queue
//     and serialize set the median; the cost model only sets the miss
//     tail. A server change shows here and nowhere else.
//
// # Metrics
//
// A run with --trace 0 reports the end-to-end metrics of its workload,
// where one operation is one advisory, one sweep or one request:
// setup_s (median of several set-ups), ops_per_s, op_p50_ms,
// cpu_ms_per_op, alloc_mb_per_op and retained_heap_mb (live heap after a
// forced GC at the end of the timed loop: what the caches pin). Rates are
// medians over the loop's windows (whole input cycles, or seconds). Two
// more figures are printed but kept out of the result line, which holds
// only metrics with a regression bound: op_tail_ms, the highest
// percentile with at least ten samples beyond it, printed with that
// percentile and the sample count (a tail resting on ten samples moves
// with every burst of outside load, more than any bound allows); and
// failed_ratio, operations that errored or failed a check over operations
// attempted, which the result line carries as its attempted and failed
// counts (it is 0 on a correct program, and a bound relative to 0 is
// meaningless).
//
// A run with --trace 1 reports the per-layer metrics instead. It replays
// the same seeded inputs — advise-cold's first cycle, sweep-grid's first
// session, and for serve-zipf a third of the run's traffic plus twelve
// pool documents spread over the popularity ranks — and drives the
// pipeline's public layer calls itself — fragment.EnumerateFilteredSeq, Evaluator.Geometry,
// Geometry.SizeClasses, bitmap.PlanScheme, Evaluator.LowerBound,
// Evaluator.EvaluateWith, alloc.Choose on costmodel.AllocationPages,
// rank.Collector.Add and Ranked — recording a span around each call.
// Outcome tables are timed with costmodel.PlanClass and costmodel.Outcomes
// once per key on first use. Layer times that come from such a replay
// rather than from a direct span (outcome tables, bitmap planning and
// allocation inside EvaluateWith, and the evaluate self time left after
// subtracting them) are marked estimated. The replay runs those calls
// serially; trace.overhead_pct compares its ops_per_s with untraced
// Advise at Parallelism 1 on the same inputs, so it includes the replayed
// duplicate work. Spans are kept in memory and
// written to .bench_build/traces/ at the end. Each traced run also checks
// that the replay's winner equals the untraced Advise winner, and that on
// the pinned APB-1 24M-row/64-disk input the outcome tables hold the
// largest self time. Layers a workload does not reach on its own
// (the sweep engine on advise-cold and serve-zipf, the server on
// advise-cold and sweep-grid) are measured by a small probe built from the
// workload's own first input.
//
// Which end-to-end metric each layer's metrics should move:
//
//	core       core.*        cpu_ms_per_op, op_p50_ms on advise-cold
//	fragment   fragment.*    op_p50_ms on advise-cold; no change on sweep-grid
//	bitmap     bitmap.*      advise-cold
//	alloc      alloc.*       skewed draws of advise-cold
//	costmodel  costmodel.*   op_p50_ms, ops_per_s on advise-cold and sweep-grid;
//	                         only op_tail_ms on serve-zipf
//	rank       rank.*        nothing measurable
//	sweep      sweep.*       ops_per_s on sweep-grid only
//	server     server.*      op_p50_ms on serve-zipf (hits); server.evaluate_ms
//	                         moves op_tail_ms (misses)
//	config     config.*      op_p50_ms on serve-zipf
//
// # Checks
//
// Every run renders the two pinned golden inputs (APB-1 1M/16 and
// skewed-retail) and compares them byte for byte with
// warlock/testdata/*.golden. advise-cold repeats a sampled advisory at
// Parallelism 1 and compares the rendered reports. serve-zipf compares
// every response body, hit, miss or coalesced, with the body a fresh
// server returns for the same document. sweep-grid compares one sampled
// scenario with a cold Advise of its input. All checks run outside the
// timed region, and every failure counts into the result line's failed.
//
// # Compare mode
//
// "compare DIR" prints, per workload and metric, the median, quartiles
// and spread of the result files in DIR. "compare PARENT CHANGE" adds
// the pairwise win share and a verdict: a gain needs wins in at least
// nine tenths of the pairs and a median difference beyond the parent's
// interquartile range; a change worse than the metric's bound is a
// regression; a spread wider than the bound leaves the metric unresolved.
// A result file is the standard output of one run.
//
// This benchmark supersedes BENCH_pr6.json, BENCH_pr9.json and
// bench_test.go as performance evidence; they stay in place until a
// later change retires them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := runMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workload is one benchmark workload. A run calls setup several times
// (each call replaces the previous state), then either timed or trace,
// then check.
type workload interface {
	// setup builds the workload's inputs and warms what a long-lived
	// caller would have warm.
	setup() error
	// timed runs the closed loop for about the given duration. Each
	// operation's latency goes to the loop; failures go to the runner.
	timed(seconds float64) *loopStats
	// afterTimed drops what only the checks need from the heap before the
	// retained heap is measured, keeping what the checks compare.
	afterTimed()
	// check compares the timed outputs with independently computed ones;
	// mismatches go to the runner.
	check()
	// trace produces the per-layer metrics of the workload's own inputs.
	trace(seconds float64, tr *tracer) error
	// summary describes the generated inputs for attribution.
	summary() map[string]any
	// close releases servers and goroutines.
	close()
}

// runner carries the state shared by every workload of one run: the seed,
// the failure accounting and the metrics being assembled.
type runner struct {
	ctx     context.Context
	seed    int64
	metrics map[string]metric

	mu        sync.Mutex // guards attempted and failed
	attempted int
	failed    int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fail records one failed operation or check.
func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

// check records one verified operation, failing it when ok is false.
func (r *runner) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	if !ok {
		r.fail(format, args...)
	}
}

func (r *runner) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

var workloadNames = []string{"advise-cold", "sweep-grid", "serve-zipf"}

func newWorkload(name string, r *runner) (workload, error) {
	switch name {
	case "advise-cold":
		return &adviseCold{r: r}, nil
	case "sweep-grid":
		return &sweepGrid{r: r}, nil
	case "serve-zipf":
		return &serveZipf{r: r}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// endToEndMetrics lists, in output order, every metric an untraced run
// reports.
var endToEndMetrics = []string{
	"setup_s", "ops_per_s", "op_p50_ms", "cpu_ms_per_op", "alloc_mb_per_op", "retained_heap_mb",
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, so slow set-ups do not move it.
const setupRuns = 5

func runMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "measured duration of the run in seconds")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced replay, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	r := &runner{ctx: context.Background(), seed: *seed, metrics: map[string]metric{}}
	w, err := newWorkload(*name, r)
	if err != nil {
		return err
	}
	defer w.close()

	var setups []float64
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	printRunLine(*name, *seed, *traceFlag, *seconds, w.summary())

	if err := checkGoldens(r); err != nil {
		return err
	}
	if *traceFlag == 1 {
		tr := newTracer()
		if err := w.trace(*seconds, tr); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := attributionCheck(r, tr); err != nil {
			return fmt.Errorf("attribution check: %w", err)
		}
		path, err := tr.write(*name, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
		return emit(r, perLayerMetrics)
	}

	st := w.timed(*seconds)
	w.afterTimed()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.check()

	lat := st.sorted()
	n := len(lat)
	r.set("setup_s", median(setups), "s")
	r.set("ops_per_s", st.medianRate(func(w window) float64 { return float64(w.ops) / w.wall.Seconds() }), "1/s")
	r.set("op_p50_ms", ms64(quantileSorted(lat, 0.5)), "ms")
	tail, pct := tailOf(lat)
	r.set("cpu_ms_per_op", st.medianRate(func(w window) float64 { return ms64(w.cpu) / float64(w.ops) }), "ms")
	r.set("alloc_mb_per_op", st.medianRate(func(w window) float64 { return float64(w.alloc) / 1e6 / float64(w.ops) }), "MB")
	r.set("retained_heap_mb", float64(ms.HeapAlloc)/1e6, "MB")
	fmt.Printf("op_tail_ms %.6f ms: p%.1f of %d operations, %d beyond it (not bounded)\n", ms64(tail), pct, n, tailBeyond)
	fmt.Printf("failed_ratio %d/%d\n", r.failed, r.attempted)
	fmt.Printf("rates are medians of %d windows\n", len(st.windows))
	return emit(r, endToEndMetrics)
}

// emit prints the named metrics one per line and the result line last.
// A metric missing from the run is a benchmark bug.
func emit(r *runner, names []string) error {
	out := map[string]metric{}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = m
		note := ""
		if estimatedMetrics[n] {
			note = " (estimated from replayed work)"
		}
		fmt.Printf("metric %-36s %16.6f %s%s\n", n, m.Value, m.Unit, note)
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runLinePrefix starts the attribution line compare mode reads back.
const runLinePrefix = "perfbench run "

func printRunLine(name string, seed int64, trace int, seconds float64, inputs map[string]any) {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	meta := map[string]any{
		"workload":    name,
		"seed":        seed,
		"trace":       trace,
		"seconds":     seconds,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"commit":      commit,
		"source_hash": sourceHash("."),
		"inputs":      inputs,
	}
	b, _ := json.Marshal(meta) // maps of plain values always marshal
	fmt.Println(runLinePrefix + string(b))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms64(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
