package vclock

import (
	"fmt"
	"testing"
	"time"
)

// The scheduler benchmarks isolate the timing-wheel pipeline from the
// rest of the simulator, so a scheduler regression shows here before it
// is diluted into the macro replay benchmarks. Every workload schedules
// through ScheduleIdx — the pointer-free form netem's batch delivery
// uses — so allocs/op doubles as a check that the wheel's steady state
// writes nothing to the heap.

// spreadDelay cycles through [1ms, 64ms) with a 977µs co-prime stride,
// exercising near-buffer, wheel and cascade placements without a random
// source.
func spreadDelay(i int) time.Duration {
	return time.Millisecond + time.Duration(i*977%63000)*time.Microsecond
}

// BenchmarkScheduleFire measures the steady-state schedule→fire round
// trip at several pending-set depths: fire the earliest event, replace it.
func BenchmarkScheduleFire(b *testing.B) {
	for _, depth := range []int{16, 1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			c := New()
			fn := c.RegisterFn(func(uint32) {})
			for i := 0; i < depth; i++ {
				c.ScheduleIdx(spreadDelay(i), fn, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ok, err := c.Step(); err != nil || !ok {
					b.Fatal("empty clock mid-benchmark")
				}
				c.ScheduleIdx(spreadDelay(i), fn, 0)
			}
		})
	}
}

// BenchmarkCancelHeavy schedules and immediately cancels against a
// standing population of 1024 events that keeps the wheel non-trivial.
func BenchmarkCancelHeavy(b *testing.B) {
	c := New()
	fn := c.RegisterFn(func(uint32) {})
	for i := 0; i < 1024; i++ {
		c.ScheduleIdx(time.Duration(1+i%50)*time.Millisecond, fn, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := c.ScheduleIdx(time.Duration(1+i%40)*time.Millisecond, fn, 0)
		if !t.Stop() {
			b.Fatal("fresh timer failed to cancel")
		}
	}
}

// BenchmarkScheduleLink measures netem's per-hop pattern: depth frames in
// flight on 1 ms links, staggered across the link delay, each firing
// forwarding the next hop. via=link schedules through the lane, via=idx
// through ScheduleIdx for comparison; both fire the same events in the
// same order.
func BenchmarkScheduleLink(b *testing.B) {
	for _, via := range []string{"link", "idx"} {
		for _, depth := range []int{16, 1 << 10} {
			b.Run(fmt.Sprintf("via=%s/depth=%d", via, depth), func(b *testing.B) {
				c := New()
				fn := c.RegisterFn(func(uint32) {})
				hop := c.ScheduleLink
				if via == "idx" {
					hop = c.ScheduleIdx
				}
				for i := 0; i < depth; i++ {
					hop(time.Millisecond, fn, 0)
					if err := c.RunFor(time.Millisecond / time.Duration(depth)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if ok, err := c.Step(); err != nil || !ok {
						b.Fatal("empty clock mid-benchmark")
					}
					hop(time.Millisecond, fn, 0)
				}
			})
		}
	}
}

// BenchmarkSameInstant64 schedules a 64-event same-instant batch, then
// drains it. Events 2..64 take the due-ring append fast path and the
// drain dispatches them without touching the wheel.
func BenchmarkSameInstant64(b *testing.B) {
	c := New()
	fn := c.RegisterFn(func(uint32) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			c.ScheduleIdx(time.Millisecond, fn, uint32(j))
		}
		for c.Pending() > 0 {
			if _, err := c.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
