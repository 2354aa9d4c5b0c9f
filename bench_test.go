package liberate

// Benchmark harness: one benchmark per paper table/figure plus the in-text
// experiments and DESIGN.md ablations. These wrap the generators in
// internal/experiments so `go test -bench=.` regenerates every evaluation
// artifact; cmd/benchtab prints the same data as human-readable tables.
//
// Reported custom metrics make the regenerated numbers visible in benchmark
// output (rounds/op, replay-bytes/op, evasion rates), since wall-clock
// nanoseconds are not the quantity the paper reports.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dpi"
	"repro/internal/experiments"
	"repro/internal/netem/packet"
	"repro/internal/trace"
)

// BenchmarkTable1_Overhead regenerates Table 1 (E1): the method comparison
// and lib·erate's measured O(1) per-flow overhead.
func BenchmarkTable1_Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1 := experiments.RunTable1()
		b.ReportMetric(float64(t1.SmallFlowExtraPkts), "extra-pkts/small-flow")
		b.ReportMetric(float64(t1.LargeFlowExtraPkts), "extra-pkts/large-flow")
	}
}

// BenchmarkTable2_TechniqueOverhead regenerates Table 2 (E2): deployment
// overhead per technique group.
func BenchmarkTable2_TechniqueOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2 := experiments.RunTable2()
		for _, r := range t2.Rows {
			b.ReportMetric(float64(r.ExtraBytes), string(r.Group)+"-bytes")
		}
	}
}

// BenchmarkTable3_EvasionMatrix regenerates Table 3 (E3): the full
// CC?/RS?/OS grid across all evaluated environments.
func BenchmarkTable3_EvasionMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t3 := experiments.RunTable3()
		evades := 0
		cells := 0
		for _, r := range t3.Rows {
			for _, c := range r.Cells {
				if c.Tried && !c.NotApplicable {
					cells++
					if c.CC {
						evades++
					}
				}
			}
		}
		b.ReportMetric(float64(evades), "evading-cells")
		b.ReportMetric(float64(cells), "tried-cells")
	}
}

// BenchmarkFigure4_FlushIntervals regenerates Figure 4 (E4): the GFC
// time-of-day flush sweep (1 day × 3 trials keeps the bench fast; the cmd
// runs the paper's 2 days × 6 trials).
func BenchmarkFigure4_FlushIntervals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := experiments.RunFigure4(1, 3)
		fails := 0
		for _, p := range fig.Points {
			if p.MinDelay == 0 {
				fails++
			}
		}
		b.ReportMetric(float64(fails), "failing-hours")
	}
}

// BenchmarkCharacterizationEfficiency regenerates the §6.x efficiency
// numbers (E5): replay rounds and bytes per network.
func BenchmarkCharacterizationEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := experiments.RunEfficiency()
		for _, r := range rs {
			b.ReportMetric(float64(r.Rounds), r.Network+"-rounds")
		}
	}
}

// BenchmarkTMobileThroughput regenerates the §6.2 with/without comparison
// (E6).
func BenchmarkTMobileThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTMobileThroughput(2 << 20)
		b.ReportMetric(r.WithoutAvg/1e6, "throttled-Mbps")
		b.ReportMetric(r.WithAvg/1e6, "evaded-Mbps")
	}
}

// BenchmarkPersistence regenerates the §6.1 classification-persistence
// probes (E11): the 120 s idle and 10 s post-RST flush thresholds.
func BenchmarkPersistence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunPersistence()
		b.ReportMetric(r.IdleFlushUpperBound.Seconds(), "idle-flush-s")
		b.ReportMetric(r.RSTFlushUpperBound.Seconds(), "rst-flush-s")
	}
}

// BenchmarkSprintNull regenerates the §6.4 null result (E8).
func BenchmarkSprintNull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunSprint()
		if r.Differentiated {
			b.Fatal("sprint differentiates")
		}
	}
}

// BenchmarkAblationPruning measures the §5.2 pruning heuristics
// (DESIGN.md ablation).
func BenchmarkAblationPruning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := experiments.RunAblationPruning()
		b.ReportMetric(float64(a.RoundsPruned), "rounds-pruned")
		b.ReportMetric(float64(a.RoundsExhaustive), "rounds-exhaustive")
	}
}

// BenchmarkAblationBlinding measures bit-inversion vs randomized controls.
func BenchmarkAblationBlinding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := experiments.RunAblationBlinding(20)
		b.ReportMetric(float64(a.InvertFalsePositive), "invert-false-pos")
		b.ReportMetric(float64(a.RandomFalsePositive), "random-false-pos")
	}
}

// BenchmarkAblationSplitSearch measures the split-variant search.
func BenchmarkAblationSplitSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := experiments.RunAblationSplit()
		b.ReportMetric(float64(a.Results["tmobile"]), "tmobile-variant")
	}
}

// BenchmarkExtensionBilateral measures the §7 server-assisted evasion
// across all classifying networks.
func BenchmarkExtensionBilateral(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunBilateral()
		n := 0
		for _, ok := range r.Evades {
			if ok {
				n++
			}
		}
		b.ReportMetric(float64(n), "networks-evaded")
	}
}

// BenchmarkExtensionQUIC measures the UDP zero-effort evasion.
func BenchmarkExtensionQUIC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunQUIC()
		if r.QUICClass != "" || r.GFCBlocked {
			b.Fatal("QUIC classified/blocked")
		}
		b.ReportMetric(r.QUICAvg/1e6, "quic-Mbps")
	}
}

// BenchmarkCampaignThroughput measures fleet-orchestration throughput
// (engagements/sec) at 1 worker versus GOMAXPROCS workers over the six
// paper networks — the scaling number `benchtab -exp campaign` prints as
// a table.
func BenchmarkCampaignThroughput(b *testing.B) {
	spec := campaign.Spec{
		Traces: []string{"amazon", "youtube"},
		Bodies: []int{8 << 10},
	}
	counts := []int{1, runtime.GOMAXPROCS(0)}
	if counts[1] == 1 {
		counts = counts[:1]
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			engagements := 0
			for i := 0; i < b.N; i++ {
				summary, err := (&campaign.Runner{Spec: spec, Workers: workers}).Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if summary.Failed != 0 {
					b.Fatalf("%d engagements failed", summary.Failed)
				}
				engagements += summary.Engagements
			}
			b.ReportMetric(float64(engagements)/b.Elapsed().Seconds(), "eng/s")
		})
	}
}

// --- substrate micro-benchmarks ------------------------------------------

// BenchmarkPacketSerialize measures the wire-format hot path.
func BenchmarkPacketSerialize(b *testing.B) {
	src, dst := packet.AddrFrom("10.0.0.1"), packet.AddrFrom("10.0.0.2")
	payload := make([]byte, 1400)
	p := packet.NewTCP(src, dst, 1234, 80, 1, 1, packet.FlagACK, payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Serialize()
	}
}

// BenchmarkPacketInspect measures parse + validation.
func BenchmarkPacketInspect(b *testing.B) {
	src, dst := packet.AddrFrom("10.0.0.1"), packet.AddrFrom("10.0.0.2")
	raw := packet.NewTCP(src, dst, 1234, 80, 1, 1, packet.FlagACK, make([]byte, 1400)).Serialize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = packet.Inspect(raw)
	}
}

// BenchmarkReplayThroughput measures full-stack simulation speed: a 1 MB
// video replay across the T-Mobile profile.
func BenchmarkReplayThroughput(b *testing.B) {
	tr := trace.AmazonPrimeVideo(1 << 20)
	b.SetBytes(int64(tr.TotalBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := dpi.NewTMobile()
		s := core.NewSession(net)
		res := s.Replay(tr, nil)
		if !res.Completed {
			b.Fatal("replay failed")
		}
	}
}

// BenchmarkArenaWire measures the arena fast path the stacks emit through:
// build a finalized TCP packet out of arena storage and serialize it into
// arena-owned wire bytes. Steady state (post-Reset slab reuse) should be
// alloc-free.
func BenchmarkArenaWire(b *testing.B) {
	src, dst := packet.AddrFrom("10.0.0.1"), packet.AddrFrom("10.0.0.2")
	payload := make([]byte, 1400)
	a := packet.NewArena()
	defer a.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := a.NewTCP(src, dst, 0, 1234, 80, uint32(i), 1, packet.FlagACK, payload)
		_ = a.Wire(p)
		if i%256 == 255 {
			a.Reset()
		}
	}
}

// BenchmarkFrameParseHint measures the receive side of the batched path:
// wrap a stack-built packet in an arena frame (which carries the payload-sum
// verification hint) and parse it with full checksum validation.
func BenchmarkFrameParseHint(b *testing.B) {
	src, dst := packet.AddrFrom("10.0.0.1"), packet.AddrFrom("10.0.0.2")
	payload := make([]byte, 1400)
	a := packet.NewArena()
	defer a.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := a.NewTCP(src, dst, 0, 1234, 80, uint32(i), 1, packet.FlagACK, payload)
		f := a.FrameOf(p)
		if _, defects := f.Parse(); !defects.Empty() {
			b.Fatal("unexpected defects")
		}
		if i%256 == 255 {
			a.Reset()
		}
	}
}

// BenchmarkFullEngagement measures a complete four-phase engagement.
func BenchmarkFullEngagement(b *testing.B) {
	tr := trace.AmazonPrimeVideo(96 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := dpi.NewTMobile()
		rep := (&core.Liberate{Net: net, Trace: tr}).Run()
		if rep.Deployed == nil {
			b.Fatal("no deployment")
		}
		b.ReportMetric(float64(rep.TotalRounds), "rounds")
	}
}
