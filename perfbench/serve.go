package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/config"
	"repro/warlock"
)

const (
	// serveCacheSize is the response cache capacity of warlockd's default
	// configuration; the pool is several times larger so LRU evictions
	// and misses keep occurring.
	serveCacheSize = 256
	servePool      = 3 * serveCacheSize
	// serveZipfS is the popularity skew of the request stream.
	serveZipfS = 1.1
)

var serveDisks = []int{8, 16, 32, 64}

// zipfStream yields popularity ranks k with probability proportional to
// 1/(k+1)^s by inverting the cumulative distribution at an additive
// low-discrepancy sequence: u advances by an irrational step from a seeded
// offset. Any stretch of the stream matches the Zipf law far more closely
// than independent draws would, so the hit ratio, and with it the request
// rate, varies little between seeds. Clients use different steps, so
// their streams do not repeat each other and coalescing stays occasional.
type zipfStream struct {
	cdf  []float64
	u    float64
	step float64
}

// streamSteps are the clients' sequence steps: the fractional parts of
// square roots of primes, which are irrational and pairwise independent.
var streamSteps = []float64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53}

func newZipfStream(n int, s, offset float64, client int) *zipfStream {
	root := math.Sqrt(streamSteps[client%len(streamSteps)])
	z := &zipfStream{cdf: make([]float64, n), u: offset, step: root - math.Floor(root)}
	sum := 0.0
	for k := range z.cdf {
		sum += math.Pow(float64(k+1), -s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipfStream) next() int {
	z.u += z.step
	if z.u >= 1 {
		z.u--
	}
	return min(sort.SearchFloat64s(z.cdf, z.u), len(z.cdf)-1)
}

// reqRecord is what a client keeps of one response for the checks.
type reqRecord struct {
	doc    int32
	status int32
	hash   uint64
}

// serveZipf is the operator's workload: warlockd under concurrent
// Zipf-popular traffic.
type serveZipf struct {
	r       *runner
	docs    [][]byte // the pool by popularity rank: docs[0] is the most popular
	specs   []docSpec
	clients int
	offsets []float64 // per client: start of its request stream
	seed    maphash.Seed

	srv    *warlock.Server
	hs     *httptest.Server
	client *http.Client

	records [][]reqRecord // per client
}

func (w *serveZipf) setup() error {
	w.close()
	rng := rand.New(rand.NewSource(w.r.seed))
	w.clients = runtime.NumCPU()
	w.seed = maphash.MakeSeed()
	// Pool rank r is the document's popularity rank. Its attributes are
	// the digits of r in a mixed radix: the size stratum (one of eight
	// row counts spaced evenly in log(rows) over [1M, 8M)) cycles fastest,
	// then the disk count, then the skew profile. Every stretch of 64
	// ranks therefore holds the same mix of inputs, so hits and misses
	// cost the same for every seed. For stability, the documents of one
	// (size, profile) pair share one schema: the server's per-schema
	// evaluation state then holds all sixteen schemas after the warm-up,
	// so a timed miss never pays for a cold schema or cold geometry, and
	// what the server retains does not depend on which documents came
	// last. Cold-schema misses are measured only by advise-cold. The seed
	// jitters rows by ±1% and perturbs weights and θ.
	schemas := map[[2]int]config.SchemaDoc{}
	w.docs, w.specs = nil, nil
	for r := 0; r < servePool; r++ {
		stratum := r % 8
		sp := docSpec{
			rows:    int64(1e6 * math.Pow(8, (float64(stratum)+0.5)/8)),
			disks:   serveDisks[(r/8)%len(serveDisks)],
			profile: (r / 32) % 2, // uniform or mid: a miss costs tens of milliseconds
		}
		key := [2]int{stratum, sp.profile}
		doc := apbDocument(rng, sp)
		if _, ok := schemas[key]; !ok {
			doc.Schema.Fact.Rows = jitterRows(rng, sp.rows)
			schemas[key] = doc.Schema
		}
		doc.Schema = schemas[key]
		sp.rows = doc.Schema.Fact.Rows
		w.specs = append(w.specs, sp)
		w.docs = append(w.docs, encode(doc))
	}
	w.offsets = make([]float64, w.clients)
	for c := range w.offsets {
		w.offsets[c] = rng.Float64()
	}

	w.srv = warlock.NewServer(warlock.ServerConfig{})
	w.hs = httptest.NewServer(w.srv)
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients}}
	// Warm-up: the clients request the cache's worth of most popular
	// documents once each, which fills the response cache.
	var wg sync.WaitGroup
	errs := make([]error, w.clients)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := c; d < serveCacheSize; d += w.clients {
				if status, _, err := w.post(d); err != nil || status != http.StatusOK {
					errs[c] = fmt.Errorf("warm-up request %d: status %d, %v", d, status, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// post sends pool document d and returns the status and a hash of the
// body.
func (w *serveZipf) post(d int) (int, uint64, error) {
	resp, err := w.client.Post(w.hs.URL+"/v1/advise", "application/json", bytes.NewReader(w.docs[d]))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	return resp.StatusCode, maphash.Bytes(w.seed, body), nil
}

// traffic runs the Zipf request stream for the given duration.
func (w *serveZipf) traffic(seconds float64) *loopStats {
	streams := make([]*zipfStream, w.clients)
	for c := range streams {
		streams[c] = newZipfStream(servePool, serveZipfS, w.offsets[c], c)
	}
	w.records = make([][]reqRecord, w.clients)
	return measureLoop(w.clients, seconds, 0, func(c, _ int) time.Duration {
		d := streams[c].next()
		start := time.Now()
		status, h, err := w.post(d)
		lat := time.Since(start)
		w.r.check(err == nil && status == http.StatusOK, "serve-zipf document %d: status %d, %v", d, status, err)
		w.records[c] = append(w.records[c], reqRecord{doc: int32(d), status: int32(status), hash: h})
		return lat
	})
}

func (w *serveZipf) timed(seconds float64) *loopStats {
	before := w.srv.Metrics()
	st := w.traffic(seconds)
	m := w.srv.Metrics()
	fmt.Printf("serve-zipf responses: %d hits, %d misses, %d coalesced; server cache holds %d entries\n",
		m.CacheHits-before.CacheHits, m.CacheMisses-before.CacheMisses, m.Coalesced-before.Coalesced, m.AdviseEntries)
	return st
}

func (w *serveZipf) afterTimed() {}

// check compares every response body with the body a fresh server
// returns for the same document: a cold advisory with nothing cached.
func (w *serveZipf) check() {
	byDoc := map[int32][]reqRecord{}
	for _, recs := range w.records {
		for _, rec := range recs {
			if rec.status == http.StatusOK {
				byDoc[rec.doc] = append(byDoc[rec.doc], rec)
			}
		}
	}
	docs := make(chan int32)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range docs {
				want, err := coldBody(w.docs[d])
				for _, rec := range byDoc[d] {
					if err != nil || maphash.Bytes(w.seed, want) != rec.hash {
						w.r.fail("serve-zipf document %d: response body differs from a cold advisory (err %v)", d, err)
					}
				}
			}
		}()
	}
	for d := range byDoc {
		docs <- d
	}
	close(docs)
	wg.Wait()
	fmt.Printf("serve-zipf checks: %d distinct documents compared with cold advisories\n", len(byDoc))
}

// coldBody returns the body a fresh server answers for the document.
func coldBody(doc []byte) ([]byte, error) {
	srv := warlock.NewServer(warlock.ServerConfig{})
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(doc)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d", rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// serveTraceDocs is how many pool documents the traced run replays
// through the pipeline layers: every servePool/serveTraceDocs-th by
// popularity rank, so misses of every popularity are represented.
const serveTraceDocs = 12

// trace runs the request stream for a third of the run between two
// scrapes of the server's metrics, then replays a spread of pool
// documents through the pipeline layers.
func (w *serveZipf) trace(seconds float64, tr *tracer) error {
	before, err := readStages(w.srv)
	if err != nil {
		return err
	}
	w.traffic(seconds / 3)
	after, err := readStages(w.srv)
	if err != nil {
		return err
	}
	setServerMetrics(w.r, before, after)

	var inputs []*warlock.Input
	smallest := 0
	for k := 0; k < serveTraceDocs; k++ {
		d := k * servePool / serveTraceDocs
		in, err := buildInput(w.docs[d])
		if err != nil {
			return err
		}
		if len(inputs) > 0 && in.Schema.Fact.Rows < inputs[smallest].Schema.Fact.Rows {
			smallest = len(inputs)
		}
		inputs = append(inputs, in)
	}
	if err := traceAdvisories(w.r, tr, inputs); err != nil {
		return err
	}
	if err := sweepProbe(w.r, tr, inputs[smallest]); err != nil {
		return err
	}
	return traceConfig(w.r, tr, w.docs, false)
}

func (w *serveZipf) summary() map[string]any {
	minRows, maxRows := w.specs[0].rows, w.specs[0].rows
	for _, sp := range w.specs {
		minRows, maxRows = min(minRows, sp.rows), max(maxRows, sp.rows)
	}
	return map[string]any{
		"pool_documents":  servePool,
		"cache_capacity":  serveCacheSize,
		"clients":         w.clients,
		"zipf_s":          serveZipfS,
		"stream":          "low-discrepancy sequence through the Zipf CDF, seeded offset per client",
		"rows_range":      []int64{minRows, maxRows},
		"schemas":         16,
		"disks":           serveDisks,
		"warmup_requests": serveCacheSize,
		"transport":       "loopback HTTP to an in-process warlock.NewServer (default config)",
	}
}

func (w *serveZipf) close() {
	if w.hs != nil {
		w.hs.Close()
		w.hs = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
		w.client = nil
	}
}
