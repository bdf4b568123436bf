package main

import (
	"bytes"
	"io"
	"math"
	"math/rand"

	"repro/internal/config"
	"repro/warlock"
)

// skewProfile is a per-dimension Zipf θ assignment for the APB-1 schema,
// in dimension order (Product, Customer, Time, Channel). Workloads draw
// inputs from a fixed mix of profiles; the seed jitters the θ values.
type skewProfile struct {
	name  string
	theta [4]float64
}

var skewProfiles = []skewProfile{
	{"uniform", [4]float64{0, 0, 0, 0}},
	{"mid", [4]float64{0.5, 0.5, 0, 0}},
	{"hot", [4]float64{0.86, 0.5, 0.5, 0}},
}

// docSpec is the shape of one generated APB-1 advisory document.
type docSpec struct {
	rows    int64
	disks   int
	profile int // index into skewProfiles
	granule int // fixed prefetch granule in pages; 0 lets the advisor optimize
}

// apbDocument renders a spec as a configuration document, drawing the
// seeded perturbations from rng: θ values jittered by ±0.01 and every
// query class weight scaled by a factor in [0.95, 1.05). The
// perturbations make every seed's documents distinct while keeping the
// work of each spec within a few percent across seeds.
func apbDocument(rng *rand.Rand, sp docSpec) *config.Document {
	doc := config.FromAPB1(sp.rows, sp.disks)
	for i := range doc.Schema.Dimensions {
		th := skewProfiles[sp.profile].theta[i]
		if th > 0 {
			th = round3(th + 0.02*rng.Float64() - 0.01)
		}
		doc.Schema.Dimensions[i].SkewTheta = th
	}
	doc.Disk.PrefetchPages = sp.granule
	doc.Disk.BitmapPrefetchPages = sp.granule
	for i := range doc.Queries {
		doc.Queries[i].Weight = round3(doc.Queries[i].Weight * (0.95 + 0.1*rng.Float64()))
	}
	return doc
}

// jitterRows perturbs a row count by up to ±1%, rounded to thousands.
func jitterRows(rng *rand.Rand, rows int64) int64 {
	return int64(float64(rows)*(0.99+0.02*rng.Float64())) / 1000 * 1000
}

func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

// encode renders a document as the JSON a user would pass to the CLI or
// post to warlockd.
func encode(doc interface{ Encode(w io.Writer) error }) []byte {
	var b bytes.Buffer
	if err := doc.Encode(&b); err != nil {
		panic(err) // documents built here always encode
	}
	return b.Bytes()
}

// buildInput parses an encoded advisory document the way the CLI does.
func buildInput(b []byte) (*warlock.Input, error) {
	doc, err := config.Parse(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return doc.Build()
}
