package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// rng is splitmix64: every workload input derives from the --seed.
type rng struct{ s uint64 }

func newRNG(seed int64) *rng { return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// quantile returns the q-quantile of vs by linear interpolation
// between order statistics (vs is not modified).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB reads the process's peak resident set (VmHWM), falling
// back to the Go runtime's reserved memory where /proc is absent.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// settle runs the Go collector between jobs, outside every timed
// region, so each job starts from the same host-heap state, as each
// invocation of the mthree CLI starts a fresh process. Without it,
// where the Go collector happens to run varies from run to run, and
// with it how many dead VM heaps are still resident at the peak.
func settle() { runtime.GC() }

// hostStats is a snapshot of the Go runtime's own collector, so the
// host's GC work during a pass can be told apart from the VM's.
type hostStats struct {
	gcs     uint32
	pauseNs uint64
	alloc   uint64
}

func readHost() hostStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostStats{gcs: ms.NumGC, pauseNs: ms.PauseTotalNs, alloc: ms.TotalAlloc}
}

// hostDelta records the Go runtime's GC cycles, pause time and
// allocation between two snapshots into a pass's layer values.
func hostDelta(l layers, a, b hostStats) {
	l["host.go_gc_cycles"] += float64(b.gcs - a.gcs)
	l["host.go_gc_pause_ms"] += float64(b.pauseNs-a.pauseNs) / 1e6
	l["host.alloc_mb"] += float64(b.alloc-a.alloc) / (1 << 20)
}

// layers accumulates one pass's per-layer values by metric name.
type layers map[string]float64

// medianLayers takes, for every metric the passes recorded, the median
// over the passes.
func medianLayers(passes []layers) layers {
	out := layers{}
	for _, p := range passes {
		for name := range p {
			out[name] = 0
		}
	}
	for name := range out {
		vs := make([]float64, len(passes))
		for i, p := range passes {
			vs[i] = p[name]
		}
		out[name] = median(vs)
	}
	return out
}
