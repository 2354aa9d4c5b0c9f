package main

import (
	"math/rand"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// scratchDir holds the benchmark's stores and span files, inside the
// checkout it runs from.
const scratchDir = ".bench_build/run"

// percentile returns the q-quantile of ds by linear interpolation between
// closest ranks; 0 for no samples.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runtimeSnap is the Go runtime's allocation and GC counters at one instant.
type runtimeSnap struct {
	allocBytes, allocObjects, gcCycles uint64
	pauseNs                            uint64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSnap {
	s := make([]rtmetrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSnap{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		pauseNs:      ms.PauseTotalNs,
	}
}

func (a runtimeSnap) sub(b runtimeSnap) runtimeSnap {
	return runtimeSnap{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects,
		a.gcCycles - b.gcCycles, a.pauseNs - b.pauseNs}
}

func (a runtimeSnap) add(b runtimeSnap) runtimeSnap {
	return runtimeSnap{a.allocBytes + b.allocBytes, a.allocObjects + b.allocObjects,
		a.gcCycles + b.gcCycles, a.pauseNs + b.pauseNs}
}

// report adds the per-op runtime metrics for ops operations to m.
func (a runtimeSnap) report(m metrics, ops int) {
	n := float64(max(ops, 1))
	m.set("runtime.alloc_mb_per_op", float64(a.allocBytes)/1e6/n, "MB")
	m.set("runtime.allocs_per_op", float64(a.allocObjects)/n, "count")
	m.set("runtime.gc_cycles_per_op", float64(a.gcCycles)/n, "count")
	m.set("runtime.gc_pause_ms_per_op", float64(a.pauseNs)/1e6/n, "ms")
}

// shuffled returns a seeded permutation of xs.
func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
