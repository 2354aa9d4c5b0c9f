package experiments

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dpi"
	"repro/internal/netem/vclock"
	"repro/internal/trace"
)

// EngagementAllocBudget is the CI ceiling on allocations per full
// engagement. The timing-wheel scheduler, payload-sum memoization,
// pooled replay setup and the shared derived-trace memo run one at ~5.7k
// allocs (MeasureEngagementAllocs); the budget leaves modest
// headroom for legitimate feature growth while catching a regression
// that reintroduces per-event or per-packet heap traffic (the seed ran
// ~161k, the pre-wheel pipeline ~7k).
const EngagementAllocBudget = 8_000

// engagementAllocRuns is how many engagements MeasureEngagementAllocs
// measures, after as many warm-up runs.
const engagementAllocRuns = 15

// MeasureEngagementAllocs returns the steady-state allocation count per
// full engagement. CI gates on it directly: allocation counts are
// machine-independent, so the guard is stable where a wall-clock threshold
// would flake. It warms the arena pool and the derived-trace memo, then
// returns the mean heap allocations of a fixed number of engagements, so
// an allocation spike that hits only some of them still counts.
func MeasureEngagementAllocs() int64 {
	tr := trace.AmazonPrimeVideo(96 << 10)
	engage := func() {
		net := dpi.NewTMobile()
		if rep := (&core.Liberate{Net: net, Trace: tr}).Run(); rep.Deployed == nil {
			panic("experiments: allocation run deployed nothing")
		}
		net.Release()
	}
	for i := 0; i < engagementAllocRuns; i++ {
		engage()
	}
	// No collection during the measured runs: a GC empties the sync.Pools
	// that fmt and the runtime allocate through, which would move the
	// count with the collector's timing.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < engagementAllocRuns; i++ {
		engage()
	}
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs-before.Mallocs) / engagementAllocRuns
}

// MeasureSchedulerAllocs returns the steady-state allocations per
// schedule→fire round trip on a warmed clock at depth 1k, summed over the
// wheel path (ScheduleIdx at spread delays) and the link lane
// (ScheduleLink at a constant 1 ms, as netem's deliveries use it). CI
// gates on it being exactly zero: every event record lives in the
// index-addressed slab and lane entries are integers, so a single heap
// allocation per op means a pointer snuck back into the hot path.
func MeasureSchedulerAllocs() int64 {
	wheel := measureRoundTrip(func(c *vclock.Clock, fn vclock.FnID, i int) {
		c.ScheduleIdx(time.Millisecond+time.Duration(i*977%63000)*time.Microsecond, fn, 0)
	})
	lane := measureRoundTrip(func(c *vclock.Clock, fn vclock.FnID, _ int) {
		c.ScheduleLink(time.Millisecond, fn, 0)
	})
	return wheel + lane
}

// measureRoundTrip returns the allocations per Step + schedule round trip
// on a clock holding 1k pending events.
func measureRoundTrip(schedule func(c *vclock.Clock, fn vclock.FnID, i int)) int64 {
	r := testing.Benchmark(func(b *testing.B) {
		c := vclock.New()
		fn := c.RegisterFn(func(uint32) {})
		// Warm past the first wrap so slab/wheel/lane growth is done
		// before measurement starts.
		for i := 0; i < 1<<10; i++ {
			schedule(c, fn, i)
		}
		for i := 0; i < 1<<12; i++ {
			if ok, err := c.Step(); err != nil || !ok {
				b.Fatal("empty clock during warmup")
			}
			schedule(c, fn, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, err := c.Step(); err != nil || !ok {
				b.Fatal("empty clock mid-benchmark")
			}
			schedule(c, fn, i)
		}
	})
	return r.AllocsPerOp()
}
