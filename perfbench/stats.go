package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loopStats is what one timed closed loop measured.
type loopStats struct {
	lat     []time.Duration // per-operation latency
	windows []window
}

// window is one slice of a timed loop: a whole input cycle, or about a
// second of a loop without cycles. Rates are reported as the median over
// windows, so a burst of outside load moves one window, not the result.
type window struct {
	ops   int
	wall  time.Duration
	cpu   time.Duration // process user+sys CPU time
	alloc uint64        // bytes allocated on the heap
}

func (s *loopStats) sorted() []time.Duration {
	out := append([]time.Duration(nil), s.lat...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// medianRate returns the median over windows of f.
func (s *loopStats) medianRate(f func(w window) float64) float64 {
	var xs []float64
	for _, w := range s.windows {
		if w.ops > 0 {
			xs = append(xs, f(w))
		}
	}
	return median(xs)
}

// snapshot is the process state at a window boundary.
type snapshot struct {
	t     time.Time
	ops   int
	cpu   time.Duration
	alloc uint64
}

func takeSnapshot(ops int) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{t: time.Now(), ops: ops, cpu: cpuTime(), alloc: ms.TotalAlloc}
}

func windowBetween(a, b snapshot) window {
	return window{ops: b.ops - a.ops, wall: b.t.Sub(a.t), cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc}
}

// timeWindow is the window length of loops without input cycles.
const timeWindow = time.Second

// measureLoop runs op closed-loop from `clients` goroutines, each calling
// op again as soon as the previous call returned, until `seconds` have
// elapsed. With cycle > 0 (one client only) the loop also runs on until
// the number of operations is a whole number of cycles, so every run
// covers its workload's input composition completely, and each cycle is
// one window. op receives the client and the operation's global index
// and returns the operation's latency, which is recorded whether the
// operation failed or not (a failed operation is reported through the
// runner).
func measureLoop(clients int, seconds float64, cycle int, op func(client, i int) time.Duration) *loopStats {
	if cycle > 0 && clients != 1 {
		panic("measureLoop: input cycles need a single client")
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var next, done atomic.Int64
	lats := make([][]time.Duration, clients)
	snaps := []snapshot{takeSnapshot(0)}

	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		if cycle > 0 {
			return // the client takes its snapshots at cycle boundaries
		}
		tick := time.NewTicker(timeWindow)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				snaps = append(snaps, takeSnapshot(int(done.Load())))
			case <-stop:
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if cycle > 0 && i > 0 && i%cycle == 0 {
					snaps = append(snaps, takeSnapshot(i))
				}
				if time.Now().After(deadline) && (cycle == 0 || i%cycle == 0) {
					return
				}
				lats[c] = append(lats[c], op(c, i))
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled

	st := &loopStats{}
	for i := 1; i < len(snaps); i++ {
		st.windows = append(st.windows, windowBetween(snaps[i-1], snaps[i]))
	}
	for _, l := range lats {
		st.lat = append(st.lat, l...)
	}
	return st
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantileSorted interpolates the q-quantile of sorted samples.
func quantileSorted(s []time.Duration, q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + time.Duration(frac*float64(s[i+1]-s[i]))
}

// tailBeyond is how many samples must lie beyond the reported tail
// percentile for it to rest on more than a single outlier.
const tailBeyond = 10

// tailOf returns the highest percentile of sorted samples with at least
// tailBeyond samples beyond it, and that percentile. With too few
// samples it returns the maximum as the 100th percentile.
func tailOf(s []time.Duration) (time.Duration, float64) {
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n)
}

// sourceHash identifies the measured program when the checkout carries no
// commit: a digest of every Go source and module file outside the
// benchmark's own directory.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path)))
		h.Write([]byte{0})
		h.Write(b)
		h.Write([]byte{0})
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
