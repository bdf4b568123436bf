package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"iter"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/alloc"
	"repro/internal/bitmap"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/fragment"
	"repro/internal/rank"
	"repro/warlock"
)

// perLayerMetrics lists, in output order, every metric a traced run
// reports, with its unit. Metrics marked estimated come from a replay of
// work the pipeline does inside another call, not from a direct span.
var perLayerMetrics = []string{
	"core.setup_ms", "core.pipeline_ms", "core.rank_ms", "core.cpu_utilization",
	"core.prune_skip_ratio", "core.candidates_evaluated", "core.parallel_speedup",
	"fragment.enumerate_ms", "fragment.candidates", "fragment.precheck_excluded_ratio",
	"fragment.geometry_ms", "fragment.sizeclass_ms", "fragment.sizeclass_ratio",
	"bitmap.plan_ms",
	"alloc.place_ms", "alloc.greedy_ratio",
	"costmodel.evaluator_ms", "costmodel.outcomes_ms", "costmodel.outcome_tables",
	"costmodel.evaluate_ms", "costmodel.evaluate_self_ms", "costmodel.lowerbound_ms",
	"costmodel.sampled_class_ratio",
	"rank.add_us", "rank.ranked_ms",
	"sweep.run_ms", "sweep.advisories_per_scenario", "sweep.geometry_reuse_ratio",
	"sweep.prune_skip_ratio",
	"server.parse_ms", "server.queue_ms", "server.evaluate_ms", "server.serialize_ms",
	"server.cache_hit_ratio", "server.coalesced_ratio", "server.evaluations",
	"config.parse_ms", "config.fingerprint_ms",
	"trace.overhead_pct", "attribution.outcomes_share",
}

// estimatedMetrics are the per-layer times taken from replayed work.
var estimatedMetrics = map[string]bool{
	"costmodel.outcomes_ms": true, "costmodel.evaluate_self_ms": true, "alloc.place_ms": true,
}

// span is one timed layer call of a traced run. Spans of one operation
// share Op; Parent is 0 for an operation's root span.
type span struct {
	Name      string `json:"name"`
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Op        int    `json:"op"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
	Estimated bool   `json:"estimated,omitempty"`
}

// tracer keeps the spans of one traced run in memory. It is used from one
// goroutine only.
type tracer struct {
	base  time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int {
	t.ops++
	return t.ops
}

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Op: op,
		StartNs: int64(time.Since(t.base))})
	return len(t.spans)
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.base))
	return time.Duration(s.EndNs - s.StartNs)
}

// endEstimated closes a span that replays work done inside another call.
func (t *tracer) endEstimated(id int) time.Duration {
	t.spans[id-1].Estimated = true
	return t.end(id)
}

// write stores the spans as JSON lines under .bench_build/traces.
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// layerAgg accumulates the replayed layer calls of several advisories.
type layerAgg struct {
	advisories int
	time       map[string]time.Duration // summed span durations by layer
	calls      map[string]int
	evalSelf   time.Duration // estimated EvaluateWith self time

	enumerated, excluded, evaluated int
	fragments, sizeClasses          int64
	classes, sampledClasses, greedy int
	outcomeKeys                     int
}

func newLayerAgg() *layerAgg {
	return &layerAgg{time: map[string]time.Duration{}, calls: map[string]int{}}
}

func (a *layerAgg) add(name string, d time.Duration) {
	a.time[name] += d
	a.calls[name]++
}

// selfTimes returns the pipeline-equivalent self time of every layer: the
// direct spans, the replayed work EvaluateWith does internally, and what
// remains of EvaluateWith after subtracting it.
func (a *layerAgg) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{"costmodel.evaluate_self": a.evalSelf}
	for _, n := range []string{"costmodel.evaluator", "fragment.enumerate", "costmodel.lowerbound",
		"fragment.geometry", "fragment.sizeclass", "bitmap.plan", "costmodel.outcomes",
		"alloc.place", "rank.add", "rank.ranked"} {
		out[n] = a.time[n]
	}
	return out
}

type outcomeKey struct {
	kase                costmodel.DimCase
	fragCard, queryCard int
}

// replayAdvisory drives one advisory through the pipeline's public layer
// calls, serially and in the order the pipeline makes them, with a span
// around each call. It mirrors core.AdviseContext's threshold, pruning and
// ranking decisions, so its winner must equal Advise's. The evaluation
// reuses the traced geometry through a per-advisory costmodel.Cache (or
// the input's own shared cache).
func replayAdvisory(tr *tracer, in *warlock.Input, agg *layerAgg) (string, error) {
	op := tr.newOp()
	root := tr.begin("advisory", 0, op)
	defer tr.end(root)

	res := &core.Result{Input: in}
	cfg := res.CostModelConfig()
	if cfg.Cache == nil {
		cfg.Cache = costmodel.NewCache()
	}
	s := tr.begin("costmodel.evaluator", root, op)
	eval, err := costmodel.NewEvaluator(cfg)
	agg.add("costmodel.evaluator", tr.end(s))
	if err != nil {
		return "", err
	}
	th := in.Thresholds
	if th == (fragment.Thresholds{}) {
		th = core.DefaultThresholds(in.Disk)
	}
	if in.Candidates != nil {
		return "", fmt.Errorf("replay supports enumerated candidates only")
	}
	coll := rank.NewCollector(in.Rank, int(fragment.EnumerationSize(in.Schema)))
	pruneOn := !in.DisablePruning && !in.Rank.RequireCapacity && th.MaxSizeCV == 0
	sc := eval.NewScratch(nil)
	seen := map[outcomeKey]bool{}
	agg.advisories++

	next, stop := iter.Pull2(fragment.EnumerateFilteredSeq(in.Schema, th, in.Disk.PageSize))
	defer stop()
	for {
		s := tr.begin("fragment.enumerate", root, op)
		f, vio, ok := next()
		agg.add("fragment.enumerate", tr.end(s))
		if !ok {
			break
		}
		agg.enumerated++
		if vio != nil {
			agg.excluded++
			continue
		}
		if pruneOn {
			if cut, ok := coll.Cutoff(); ok {
				s := tr.begin("costmodel.lowerbound", root, op)
				lbCost, lbResp, bounded := eval.LowerBound(f)
				agg.add("costmodel.lowerbound", tr.end(s))
				if bounded && !cut.Admits(lbCost, lbResp, f.Key()) {
					coll.AddSkipped()
					continue
				}
			}
		}
		s = tr.begin("fragment.geometry", root, op)
		g, err := eval.Geometry(f)
		agg.add("fragment.geometry", tr.end(s))
		if err != nil {
			continue // the pipeline records it as an evaluation failure
		}
		s = tr.begin("fragment.sizeclass", root, op)
		sz := g.SizeClasses()
		agg.add("fragment.sizeclass", tr.end(s))

		s = tr.begin("bitmap.plan", root, op)
		scheme, err := bitmap.PlanScheme(in.Schema, f, in.Mix, in.Bitmap)
		dPlan := tr.end(s)
		agg.add("bitmap.plan", dPlan)
		if err != nil {
			continue
		}
		// Outcome tables: EvaluateWith builds each (case, fragCard,
		// queryCard) table on its first use in this Evaluator; replay
		// exactly those builds.
		var dOut time.Duration
		for ci := range in.Mix.Classes {
			plan := costmodel.PlanClass(in.Schema, f, scheme, &in.Mix.Classes[ci])
			for _, dp := range plan.Dims {
				k := outcomeKey{dp.Case, dp.FragCard, dp.QueryCard}
				if seen[k] {
					continue
				}
				seen[k] = true
				agg.outcomeKeys++
				s := tr.begin("costmodel.outcomes", root, op)
				costmodel.Outcomes(&costmodel.ClassPlan{Dims: []costmodel.DimPlan{dp}}, in.Mapping)
				d := tr.endEstimated(s)
				agg.add("costmodel.outcomes", d)
				dOut += d
			}
		}

		s = tr.begin("costmodel.evaluate", root, op)
		ev, err := eval.EvaluateWith(sc, f)
		dEval := tr.end(s)
		agg.add("costmodel.evaluate", dEval)
		if err != nil {
			continue
		}
		s = tr.begin("alloc.place", root, op)
		var pl *alloc.Placement
		if in.AllocScheme != nil {
			pl, err = alloc.Allocate(*in.AllocScheme, costmodel.AllocationPages(ev), in.Disk.Disks)
		} else {
			pl, err = alloc.Choose(costmodel.AllocationPages(ev), in.Disk.Disks, in.SkewCVThreshold)
		}
		dPlace := tr.endEstimated(s)
		agg.add("alloc.place", dPlace)
		if err != nil {
			return "", err
		}
		if pl.Scheme != ev.Placement.Scheme {
			return "", fmt.Errorf("replayed allocation %v differs from the evaluation's %v", pl.Scheme, ev.Placement.Scheme)
		}
		if self := dEval - dOut - dPlace - dPlan; self > 0 {
			agg.evalSelf += self
		}
		agg.evaluated++
		agg.fragments += g.NumFragments()
		agg.sizeClasses += int64(sz.NumClasses())
		if pl.Scheme == alloc.GreedySize {
			agg.greedy++
		}
		for _, cc := range ev.PerClass {
			agg.classes++
			if !cc.ResponseExact {
				agg.sampledClasses++
			}
		}
		if th.Check(ev.Geometry) != nil {
			continue
		}
		s = tr.begin("rank.add", root, op)
		coll.Add(ev)
		agg.add("rank.add", tr.end(s))
	}
	s = tr.begin("rank.ranked", root, op)
	ranked, err := coll.Ranked()
	agg.add("rank.ranked", tr.end(s))
	if err != nil {
		return "", err
	}
	return ranked[0].Eval.Frag.Key(), nil
}

// traceAdvisories produces the core, fragment, bitmap, alloc, costmodel
// and rank metrics for a list of advisory inputs: untraced Advise at
// default parallelism and at Parallelism 1, then the traced replay. Each
// replayed winner must equal the untraced winner; the difference between
// the untraced serial and the traced ops_per_s is the tracing overhead.
func traceAdvisories(r *runner, tr *tracer, inputs []*warlock.Input) error {
	adv := warlock.New()
	winners := make([]string, len(inputs))
	var setup, pipeline, rankT time.Duration
	var survivors, skipped, evaluated int
	cpu0, t0 := cpuTime(), time.Now()
	for i, in := range inputs {
		res, err := adv.Advise(r.ctx, in)
		if err != nil {
			return err
		}
		winners[i] = res.Best().Frag.Key()
		setup += res.Timings.Setup
		pipeline += res.Timings.Pipeline
		rankT += res.Timings.Rank
		survivors += res.PruneStats.Survivors
		skipped += res.PruneStats.Skipped
		evaluated += res.PruneStats.Evaluated
	}
	wallDef, cpuDef := time.Since(t0), cpuTime()-cpu0

	t0 = time.Now()
	for i, in := range inputs {
		serial := *in
		serial.Parallelism = 1
		res, err := adv.Advise(r.ctx, &serial)
		if err != nil {
			return err
		}
		r.check(res.Best().Frag.Key() == winners[i], "trace: Parallelism 1 winner %s differs from %s", res.Best().Frag.Key(), winners[i])
	}
	wallSer := time.Since(t0)

	agg := newLayerAgg()
	t0 = time.Now()
	for i, in := range inputs {
		key, err := replayAdvisory(tr, in, agg)
		if err != nil {
			return err
		}
		r.check(key == winners[i], "trace: replayed winner %s differs from untraced winner %s", key, winners[i])
	}
	wallTraced := time.Since(t0)

	n := float64(len(inputs))
	r.set("core.setup_ms", ms64(setup)/n, "ms")
	r.set("core.pipeline_ms", ms64(pipeline)/n, "ms")
	r.set("core.rank_ms", ms64(rankT)/n, "ms")
	r.set("core.cpu_utilization", cpuDef.Seconds()/(wallDef.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")
	r.set("core.prune_skip_ratio", ratio(skipped, survivors), "ratio")
	r.set("core.candidates_evaluated", float64(evaluated)/n, "count")
	r.set("core.parallel_speedup", wallSer.Seconds()/wallDef.Seconds(), "x")
	untracedOps, tracedOps := n/wallSer.Seconds(), n/wallTraced.Seconds()
	r.set("trace.overhead_pct", 100*(untracedOps-tracedOps)/untracedOps, "%")
	fmt.Printf("tracing overhead: %.3f ops/s untraced (Parallelism 1) vs %.3f ops/s traced over %d advisories\n",
		untracedOps, tracedOps, len(inputs))

	perAdv := func(name string) float64 { return ms64(agg.time[name]) / float64(agg.advisories) }
	r.set("fragment.enumerate_ms", perAdv("fragment.enumerate"), "ms")
	r.set("fragment.candidates", float64(agg.enumerated)/float64(agg.advisories), "count")
	r.set("fragment.precheck_excluded_ratio", ratio(agg.excluded, agg.enumerated), "ratio")
	r.set("fragment.geometry_ms", perAdv("fragment.geometry"), "ms")
	r.set("fragment.sizeclass_ms", perAdv("fragment.sizeclass"), "ms")
	r.set("fragment.sizeclass_ratio", float64(agg.sizeClasses)/float64(max(agg.fragments, 1)), "ratio")
	r.set("bitmap.plan_ms", perAdv("bitmap.plan"), "ms")
	r.set("alloc.place_ms", perAdv("alloc.place"), "ms")
	r.set("alloc.greedy_ratio", ratio(agg.greedy, agg.evaluated), "ratio")
	r.set("costmodel.evaluator_ms", perAdv("costmodel.evaluator"), "ms")
	r.set("costmodel.outcomes_ms", perAdv("costmodel.outcomes"), "ms")
	r.set("costmodel.outcome_tables", float64(agg.outcomeKeys)/float64(agg.advisories), "count")
	r.set("costmodel.evaluate_ms", perAdv("costmodel.evaluate"), "ms")
	r.set("costmodel.evaluate_self_ms", ms64(agg.evalSelf)/float64(agg.advisories), "ms")
	r.set("costmodel.lowerbound_ms", perAdv("costmodel.lowerbound"), "ms")
	r.set("costmodel.sampled_class_ratio", ratio(agg.sampledClasses, agg.classes), "ratio")
	r.set("rank.add_us", float64(agg.time["rank.add"])/float64(time.Microsecond)/float64(max(agg.calls["rank.add"], 1)), "us")
	r.set("rank.ranked_ms", perAdv("rank.ranked"), "ms")
	return nil
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// attributionCheck replays the pinned APB-1 24M-row/64-disk advisory and
// checks that the outcome tables hold the largest self time of all
// layers, as a flat CPU profile of that input shows for dimOutcomes and
// Ancestor.
func attributionCheck(r *runner, tr *tracer) error {
	schema := warlock.APB1Schema(24_000_000)
	mix, err := warlock.APB1Mix(schema)
	if err != nil {
		return err
	}
	in := &warlock.Input{Schema: schema, Mix: mix, Disk: warlock.DefaultDisk(64)}
	res, err := warlock.New().Advise(r.ctx, in)
	if err != nil {
		return err
	}
	agg := newLayerAgg()
	key, err := replayAdvisory(tr, in, agg)
	if err != nil {
		return err
	}
	r.check(key == res.Best().Frag.Key(), "attribution: replayed winner %s differs from %s", key, res.Best().Frag.Key())
	self := agg.selfTimes()
	var total time.Duration
	largest := ""
	for name, d := range self {
		total += d
		if largest == "" || d > self[largest] || (d == self[largest] && name < largest) {
			largest = name
		}
	}
	share := self["costmodel.outcomes"].Seconds() / total.Seconds()
	r.set("attribution.outcomes_share", share, "ratio")
	fmt.Printf("attribution (APB-1 24M/64): outcome tables %.1f%% of %.1f ms self time; largest layer %s\n",
		100*share, ms64(total), largest)
	r.check(largest == "costmodel.outcomes", "attribution: largest self time is %s, not the outcome tables", largest)
	return nil
}

// sweepRun is one timed Advisor.Sweep call and the cache growth it caused.
type sweepRun struct {
	rep      *warlock.SweepReport
	wall     time.Duration
	newGeoms int
}

// runSweep times one sweep as a traced operation.
func runSweep(r *runner, tr *tracer, adv *warlock.Advisor, cache *warlock.EvalCache, base *warlock.Input, grid *warlock.SweepGrid) (sweepRun, error) {
	op := tr.newOp()
	before := cache.Geometries()
	s := tr.begin("sweep.run", 0, op)
	rep, err := adv.Sweep(r.ctx, base, grid)
	wall := tr.end(s)
	if err != nil {
		return sweepRun{}, err
	}
	return sweepRun{rep: rep, wall: wall, newGeoms: cache.Geometries() - before}, nil
}

// setSweepMetrics reports the sweep layer from traced sweep runs. Every
// evaluated candidate looks its geometry up once, so the reuse ratio is
// one minus the geometries computed over the candidates evaluated.
func setSweepMetrics(r *runner, runs []sweepRun) {
	var wall time.Duration
	var advisories, scenarios, newGeoms, evaluated, skipped int
	for _, sr := range runs {
		wall += sr.wall
		advisories += sr.rep.Advisories
		scenarios += len(sr.rep.Scenarios)
		newGeoms += sr.newGeoms
		evaluated += sr.rep.PruneEvaluated
		skipped += sr.rep.PruneSkipped
	}
	r.set("sweep.run_ms", ms64(wall)/float64(len(runs)), "ms")
	r.set("sweep.advisories_per_scenario", ratio(advisories, scenarios), "ratio")
	r.set("sweep.geometry_reuse_ratio", 1-ratio(newGeoms, evaluated), "ratio")
	r.set("sweep.prune_skip_ratio", ratio(skipped, evaluated+skipped), "ratio")
}

// sweepProbe measures the sweep layer for workloads that do not sweep: a
// two-scenario allocation sweep over the given input, run twice on one
// shared cache.
func sweepProbe(r *runner, tr *tracer, in *warlock.Input) error {
	cache := warlock.NewEvalCache()
	adv := warlock.New(warlock.WithEvalCache(cache))
	grid := &warlock.SweepGrid{Allocs: []string{"auto", "greedy-size"}}
	var runs []sweepRun
	for i := 0; i < 2; i++ {
		sr, err := runSweep(r, tr, adv, cache, in, grid)
		if err != nil {
			return err
		}
		r.check(sweepOK(sr.rep), "sweep probe: a scenario failed")
		runs = append(runs, sr)
	}
	setSweepMetrics(r, runs)
	return nil
}

// sweepOK reports whether every scenario of a sweep produced a winner.
func sweepOK(rep *warlock.SweepReport) bool {
	for i := range rep.Scenarios {
		if rep.Scenarios[i].Err != nil || rep.Scenarios[i].Best() == nil {
			return false
		}
	}
	return len(rep.Scenarios) > 0
}

// stageStats is the advise endpoint's stage histograms and counters as
// the server exports them.
type stageStats struct {
	sum   map[string]float64 // seconds by stage
	count map[string]float64
	m     warlock.ServerMetrics
}

// readStages scrapes the server's /metrics page.
func readStages(srv *warlock.Server) (stageStats, error) {
	st := stageStats{sum: map[string]float64{}, count: map[string]float64{}, m: srv.Metrics()}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("/metrics answered %d", rec.Code)
	}
	const prefix = "warlockd_request_stage_seconds_"
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, prefix) || !strings.Contains(line, `endpoint="advise"`) {
			continue
		}
		kind, rest, _ := strings.Cut(line[len(prefix):], "{")
		labels, val, _ := strings.Cut(rest, "} ")
		_, stage, _ := strings.Cut(labels, `stage="`)
		stage, _, _ = strings.Cut(stage, `"`)
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return st, fmt.Errorf("metrics line %q: %w", line, err)
		}
		switch kind {
		case "sum":
			st.sum[stage] = v
		case "count":
			st.count[stage] = v
		}
	}
	return st, nil
}

// setServerMetrics reports the server layer from two scrapes around the
// traced traffic. server.evaluations is pipeline runs per request, so it
// does not grow with the request rate.
func setServerMetrics(r *runner, before, after stageStats) {
	for _, stage := range []string{"parse", "queue", "evaluate", "serialize"} {
		n := after.count[stage] - before.count[stage]
		v := 0.0
		if n > 0 {
			v = 1000 * (after.sum[stage] - before.sum[stage]) / n
		}
		r.set("server."+stage+"_ms", v, "ms")
	}
	req := after.m.Requests - before.m.Requests
	r.set("server.cache_hit_ratio", ratio(int(after.m.CacheHits-before.m.CacheHits), int(req)), "ratio")
	r.set("server.coalesced_ratio", ratio(int(after.m.Coalesced-before.m.Coalesced), int(req)), "ratio")
	r.set("server.evaluations", ratio(int(after.m.Evaluations-before.m.Evaluations), int(req)), "ratio")
}

// serverProbe measures the server layer for workloads that do not serve:
// the document is posted to a fresh server twice, a miss and a hit.
func serverProbe(r *runner, doc []byte) error {
	srv := warlock.NewServer(warlock.ServerConfig{})
	defer srv.Close()
	before, err := readStages(srv)
	if err != nil {
		return err
	}
	var bodies [2]string
	for i := range bodies {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(doc)))
		r.check(rec.Code == http.StatusOK, "server probe: status %d", rec.Code)
		bodies[i] = rec.Body.String()
	}
	r.check(bodies[0] == bodies[1], "server probe: cached body differs from the evaluated one")
	after, err := readStages(srv)
	if err != nil {
		return err
	}
	setServerMetrics(r, before, after)
	return nil
}

// traceConfig times parsing and fingerprinting of the workload's
// documents, repeating the set until at least minParses documents were
// parsed so the means rest on many calls.
func traceConfig(r *runner, tr *tracer, docs [][]byte, sweepDocs bool) error {
	const minParses = 200
	var parse, fp time.Duration
	n := 0
	for n < minParses {
		for _, b := range docs {
			op := tr.newOp()
			s := tr.begin("config.parse", 0, op)
			var fingerprint func() string
			if sweepDocs {
				d, err := config.ParseSweep(bytes.NewReader(b))
				if err != nil {
					return err
				}
				fingerprint = d.Fingerprint
			} else {
				d, err := config.Parse(bytes.NewReader(b))
				if err != nil {
					return err
				}
				fingerprint = d.Fingerprint
			}
			parse += tr.end(s)
			s = tr.begin("config.fingerprint", 0, op)
			fingerprint()
			fp += tr.end(s)
			n++
		}
	}
	r.set("config.parse_ms", ms64(parse)/float64(n), "ms")
	r.set("config.fingerprint_ms", ms64(fp)/float64(n), "ms")
	return nil
}
