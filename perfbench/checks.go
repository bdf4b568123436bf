package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/warlock"
)

// checkGoldens renders the two pinned inputs of the golden corpus and
// compares them byte for byte with the committed snapshots. The files are
// read from the checkout the benchmark runs in.
func checkGoldens(r *runner) error {
	apb, err := goldenAPB1()
	if err != nil {
		return err
	}
	retail, err := skewedRetail()
	if err != nil {
		return err
	}
	for _, g := range []struct {
		file string
		in   *warlock.Input
	}{{"apb1.golden", apb}, {"skewed-retail.golden", retail}} {
		want, err := os.ReadFile(filepath.Join("warlock", "testdata", g.file))
		if err != nil {
			return fmt.Errorf("golden file: %w", err)
		}
		res, err := warlock.New().Advise(r.ctx, g.in)
		got := ""
		if err == nil {
			got = warlock.Report(res)
		}
		r.check(err == nil && got == string(want), "golden %s: rendered advisory differs (err %v)", g.file, err)
	}
	return nil
}

// goldenAPB1 is the uniform APB-1 golden input: 1M rows, 16 disks, fixed
// 8-page granules.
func goldenAPB1() (*warlock.Input, error) {
	schema := warlock.APB1Schema(1_000_000)
	mix, err := warlock.APB1Mix(schema)
	if err != nil {
		return nil, err
	}
	disk := warlock.DefaultDisk(16)
	disk.PrefetchPages = 8
	disk.BitmapPrefetchPages = 8
	return &warlock.Input{Schema: schema, Mix: mix, Disk: disk}, nil
}

// skewedRetail is the skewed grocery golden input of
// examples/skewed-retail: strong Zipf skew on articles and stores.
func skewedRetail() (*warlock.Input, error) {
	schema := &warlock.Star{
		Name: "Grocery",
		Fact: warlock.FactTable{Name: "Receipts", Rows: 6_000_000, RowSize: 80},
		Dimensions: []warlock.Dimension{
			{Name: "Article", SkewTheta: 0.9, Levels: []warlock.Level{
				{Name: "department", Cardinality: 12},
				{Name: "category", Cardinality: 180},
				{Name: "article", Cardinality: 5000},
			}},
			{Name: "Store", SkewTheta: 1.0, Levels: []warlock.Level{
				{Name: "region", Cardinality: 16},
				{Name: "store", Cardinality: 640},
			}},
			{Name: "Day", Levels: []warlock.Level{
				{Name: "year", Cardinality: 3},
				{Name: "month", Cardinality: 36},
				{Name: "day", Cardinality: 1096},
			}},
		},
	}
	mix := &warlock.Mix{}
	for _, c := range []struct {
		name   string
		weight float64
		paths  []string
	}{
		{"category-by-month", 30, []string{"Article.category", "Day.month"}},
		{"store-monthly", 25, []string{"Store.store", "Day.month"}},
		{"regional-departments", 20, []string{"Store.region", "Article.department"}},
		{"article-drill", 15, []string{"Article.article"}},
		{"daily-flash", 10, []string{"Day.day"}},
	} {
		qc := warlock.QueryClass{Name: c.name, Weight: c.weight}
		for _, p := range c.paths {
			a, err := schema.Attr(p)
			if err != nil {
				return nil, err
			}
			qc.Predicates = append(qc.Predicates, a)
		}
		mix.Classes = append(mix.Classes, qc)
	}
	return &warlock.Input{Schema: schema, Mix: mix, Disk: warlock.DefaultDisk(24)}, nil
}

// adviseOK reports why a complete advisory result is unusable, or "".
func adviseOK(res *warlock.Result, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case res.Best() == nil:
		return "no winner"
	case res.Partial || res.Coverage.Remaining != 0:
		return "partial result"
	case len(res.Faults) != 0:
		return fmt.Sprintf("%d evaluation panics", len(res.Faults))
	}
	return ""
}
