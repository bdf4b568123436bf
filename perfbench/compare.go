package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// resultFile is one run's standard output, reduced to what compare needs.
type resultFile struct {
	workload string
	seed     int64
	metrics  map[string]float64
}

func readResult(path string) (resultFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return resultFile{}, err
	}
	defer f.Close()
	rf := resultFile{metrics: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if meta, ok := strings.CutPrefix(line, runLinePrefix); ok {
			var m struct {
				Workload string `json:"workload"`
				Seed     int64  `json:"seed"`
			}
			if err := json.Unmarshal([]byte(meta), &m); err != nil {
				return rf, fmt.Errorf("%s: run line: %w", path, err)
			}
			rf.workload, rf.seed = m.Workload, m.Seed
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return rf, err
	}
	var res struct {
		Correct bool                               `json:"correct"`
		Metrics map[string]struct{ Value float64 } `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil || rf.workload == "" {
		return rf, fmt.Errorf("%s: not a benchmark result", path)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "warning: %s reports failed checks\n", path)
	}
	for name, m := range res.Metrics {
		rf.metrics[name] = m.Value
	}
	return rf, nil
}

func readResults(dir string) ([]resultFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []resultFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		rf, err := readResult(filepath.Join(dir, e.Name()))
		if err != nil {
			fmt.Fprintln(os.Stderr, "skipping:", err)
			continue
		}
		out = append(out, rf)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no result files", dir)
	}
	return out, nil
}

// quartiles follows Python's statistics.quantiles(data, n=4), whose
// default method is "exclusive".
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// series collects one metric's values of one workload, keyed by seed.
type series map[int64]float64

func (s series) values() []float64 {
	var out []float64
	for _, v := range s {
		out = append(out, v)
	}
	return out
}

func group(files []resultFile) map[string]map[string]series {
	out := map[string]map[string]series{}
	for _, f := range files {
		if out[f.workload] == nil {
			out[f.workload] = map[string]series{}
		}
		for name, v := range f.metrics {
			if out[f.workload][name] == nil {
				out[f.workload][name] = series{}
			}
			out[f.workload][name][f.seed] = v
		}
	}
	return out
}

// compareMain implements "compare DIR [CHANGE_DIR]". The metrics'
// directions and bounds come from BENCHMARK.json in the working directory.
func compareMain(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: compare DIR [CHANGE_DIR]")
	}
	const benchPath = "BENCHMARK.json"
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	metrics := map[string]specMetric{}
	var order []string
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		metrics[m.Name] = m
		order = append(order, m.Name)
	}
	parentFiles, err := readResults(args[0])
	if err != nil {
		return err
	}
	parent := group(parentFiles)
	var change map[string]map[string]series
	if len(args) == 2 {
		changeFiles, err := readResults(args[1])
		if err != nil {
			return err
		}
		change = group(changeFiles)
	}
	var workloads []string
	for w := range parent {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		fmt.Printf("== %s\n", w)
		if change == nil {
			fmt.Printf("%-34s %4s %14s %14s %14s %8s %8s\n", "metric", "n", "q1", "median", "q3", "spread", "bound/3")
		} else {
			fmt.Printf("%-34s %12s %12s %8s %8s %6s  %s\n", "metric", "parent", "change", "delta", "spread", "wins", "verdict")
		}
		for _, name := range order {
			ps, ok := parent[w][name]
			if !ok {
				continue
			}
			m := metrics[name]
			if change == nil {
				q1, q2, q3 := quartiles(ps.values())
				fmt.Printf("%-34s %4d %14.6g %14.6g %14.6g %7.1f%% %7.1f%%\n", name, len(ps), q1, q2, q3,
					100*spreadOf(q1, q2, q3), 100*m.Bound/3)
				continue
			}
			cs, ok := change[w][name]
			if !ok {
				fmt.Printf("%-34s missing from the change's results\n", name)
				continue
			}
			fmt.Println(verdictLine(name, m, ps, cs))
		}
	}
	return nil
}

func spreadOf(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// verdictLine judges one metric of one workload by the rules for a change
// claiming a gain: wins in at least nine tenths of the seed-paired runs
// (ties count for neither) and a median difference beyond the parent's
// interquartile range make a gain; a median worse by more than the bound
// is a regression; a spread wider than the bound leaves the metric
// unresolved unless every change run beats every parent run.
func verdictLine(name string, m specMetric, ps, cs series) string {
	lower := m.Better != "higher"
	better := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	wins, pairs := 0, 0
	for seed, p := range ps {
		c, ok := cs[seed]
		if !ok {
			continue
		}
		pairs++
		if c != p && better(c, p) {
			wins++
		}
	}
	pq1, pq2, pq3 := quartiles(ps.values())
	cq1, cq2, cq3 := quartiles(cs.values())
	delta := 0.0
	if pq2 != 0 {
		delta = (cq2 - pq2) / math.Abs(pq2)
	}
	spread := math.Max(spreadOf(pq1, pq2, pq3), spreadOf(cq1, cq2, cq3))
	allBetter := true
	for _, c := range cs {
		for _, p := range ps {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	worse := delta
	if !lower {
		worse = -delta
	}
	verdict := "no change"
	switch {
	case m.Bound == 0:
		verdict = "per-layer (no bound)"
		if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(cq2-pq2) > math.Abs(pq3-pq1) {
			verdict = "per-layer: moved in the better direction"
		}
	case spread > m.Bound && !allBetter:
		verdict = "unresolved (spread exceeds bound)"
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(cq2-pq2) > math.Abs(pq3-pq1):
		verdict = "gain"
	case worse > m.Bound:
		verdict = "REGRESSION"
	}
	return fmt.Sprintf("%-34s %12.6g %12.6g %+7.1f%% %7.1f%% %2d/%-3d  %s (q %.4g..%.4g vs %.4g..%.4g)",
		name, pq2, cq2, 100*delta, 100*spread, wins, pairs, verdict, pq1, pq3, cq1, cq3)
}
