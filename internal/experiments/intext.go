package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dpi"
	"repro/internal/replay"
	"repro/internal/trace"
)

// EfficiencyResult is one network's classifier-analysis cost (the §6.x
// "Efficiency of classifier analysis" paragraphs).
type EfficiencyResult struct {
	Network       string
	Trace         string
	PaperRounds   string // what the paper reported
	Rounds        int
	BytesUsed     int64
	VirtualTime   time.Duration
	Fields        []core.FieldRef
	WindowLimited bool
	AllPackets    bool
	PortSpecific  bool
	MiddleboxTTL  int
	PaperTTL      int
}

// RunEfficiency measures detection+characterization cost per network
// (experiments E5, E6, E7, E9, E10 of DESIGN.md).
func RunEfficiency() []EfficiencyResult {
	cases := []struct {
		name        string
		fresh       func() *dpi.Network
		tr          *trace.Trace
		paperRounds string
		paperTTL    int
	}{
		{"testbed-http", dpi.NewTestbed, trace.AmazonPrimeVideo(96 << 10), "≤70 rounds, ≤10 min", 2},
		{"testbed-skype-udp", dpi.NewTestbed, trace.SkypeCall(6, 400), "115 replays", 2},
		{"tmobile", dpi.NewTMobile, trace.AmazonPrimeVideo(96 << 10), "80–95 rounds, 23 min, 18 MB", 3},
		{"gfc", dpi.NewGFC, trace.EconomistWeb(8 << 10), "86 replays ×4 KB, <15 min, <400 KB", 10},
		{"iran", dpi.NewIran, trace.FacebookWeb(8 << 10), "75 replays, ~10 min, ~300 KB", 8},
		{"att", dpi.NewATT, trace.NBCSportsVideo(96 << 10), "71 replays, ~2 MB & 30 s each", 0},
	}
	var out []EfficiencyResult
	for _, c := range cases {
		net := c.fresh()
		s := core.NewSession(net)
		det := core.Detect(s, c.tr)
		char := core.Characterize(s, c.tr, det)
		out = append(out, EfficiencyResult{
			Network: c.name, Trace: c.tr.Name, PaperRounds: c.paperRounds,
			Rounds: s.Rounds, BytesUsed: s.BytesUsed, VirtualTime: s.Elapsed(),
			Fields:        char.Fields,
			WindowLimited: char.WindowLimited, AllPackets: char.InspectsAllPackets,
			PortSpecific: char.PortSpecific, MiddleboxTTL: char.MiddleboxTTL,
			PaperTTL: c.paperTTL,
		})
	}
	return out
}

// RenderEfficiency prints the comparison.
func RenderEfficiency(rs []EfficiencyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-8s %-12s %-10s %-28s %s\n", "network", "rounds", "data", "vtime", "paper", "fields")
	for _, r := range rs {
		fmt.Fprintf(&b, "%-18s %-8d %-12s %-10s %-28s %v (ttl=%d, paper ttl=%d)\n",
			r.Network, r.Rounds, fmtBytes(r.BytesUsed), r.VirtualTime.Round(time.Second),
			r.PaperRounds, r.Fields, r.MiddleboxTTL, r.PaperTTL)
	}
	return b.String()
}

func fmtBytes(n int64) string {
	switch {
	case n > 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n > 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// ThroughputResult is the §6.2 Binge On throughput experiment: a 10 MB
// video replay with and without lib·erate (paper: 1.48→4.1 Mbps average,
// 4.8→11.2 Mbps peak).
type ThroughputResult struct {
	BodyBytes             int
	WithoutAvg, WithAvg   float64
	WithoutPeak, WithPeak float64
	Technique             string
}

// RunTMobileThroughput reproduces the §6.2 throughput comparison.
func RunTMobileThroughput(bodyBytes int) *ThroughputResult {
	if bodyBytes <= 0 {
		bodyBytes = 10 << 20
	}
	tr := trace.AmazonPrimeVideo(bodyBytes)
	// Without lib·erate.
	netA := dpi.NewTMobile()
	sA := core.NewSession(netA)
	without := sA.Replay(tr, nil)
	// With lib·erate: run the engagement on a small probe, then deploy on
	// the big flow.
	netB := dpi.NewTMobile()
	rep := (&core.Liberate{Net: netB, Trace: trace.AmazonPrimeVideo(96 << 10)}).Run()
	res := &ThroughputResult{BodyBytes: bodyBytes}
	res.WithoutAvg, res.WithoutPeak = without.AvgThroughputBps, without.PeakThroughputBps
	if rep.Deployed != nil {
		res.Technique = rep.Deployed.Technique.ID
		sB := core.NewSession(netB)
		with := sB.Replay(tr, rep.DeployTransform(99))
		res.WithAvg, res.WithPeak = with.AvgThroughputBps, with.PeakThroughputBps
	}
	return res
}

// Render prints the throughput comparison.
func (r *ThroughputResult) Render() string {
	return fmt.Sprintf(
		"T-Mobile %d MB video replay (paper: avg 1.48→4.1 Mbps, peak 4.8→11.2 Mbps)\n"+
			"  without lib·erate: avg %.2f Mbps, peak %.2f Mbps\n"+
			"  with    lib·erate (%s): avg %.2f Mbps, peak %.2f Mbps\n",
		r.BodyBytes>>20,
		r.WithoutAvg/1e6, r.WithoutPeak/1e6,
		r.Technique, r.WithAvg/1e6, r.WithPeak/1e6)
}

// PersistenceResult is the §6.1 classification-persistence experiment:
// the testbed flushes classification after 120 s idle, reduced to 10 s
// once a RST is seen.
type PersistenceResult struct {
	IdleFlushLowerBound time.Duration // longest idle that did NOT flush
	IdleFlushUpperBound time.Duration // shortest idle that DID flush
	RSTFlushUpperBound  time.Duration // shortest post-RST idle that flushed
}

// RunPersistence probes the testbed's classification-state lifetime.
func RunPersistence() *PersistenceResult {
	out := &PersistenceResult{}
	tr := trace.AmazonPrimeVideo(64 << 10)
	pause, _ := core.TechniqueByID("pause-after-match")
	probeIdle := func(d time.Duration, withRST bool) bool {
		net := dpi.NewTestbed()
		s := core.NewSession(net)
		tech := pause
		if withRST {
			tech, _ = core.TechniqueByID("ttl-rst-after")
		}
		ap := tech.Build(core.BuildParams{MatchWrite: 0, PauseFor: d, InertTTL: 2, Seed: 3})
		target := core.TwoPartTrace(tr)
		res := s.Replay(target, ap.Transform, func(o *replay.Options) { o.ExtraBudget = d + time.Minute })
		// Flushed iff the tail was not throttled.
		return res.TailThroughputBps > 10e6
	}
	// Bisect the idle flush threshold over [10s, 300s].
	lo, hi := 10*time.Second, 300*time.Second
	for hi-lo > 10*time.Second {
		mid := (lo + hi) / 2
		if probeIdle(mid, false) {
			hi = mid
		} else {
			lo = mid
		}
	}
	out.IdleFlushLowerBound, out.IdleFlushUpperBound = lo, hi
	// Post-RST threshold over [2s, 60s].
	lo, hi = 2*time.Second, 60*time.Second
	for hi-lo > 4*time.Second {
		mid := (lo + hi) / 2
		if probeIdle(mid, true) {
			hi = mid
		} else {
			lo = mid
		}
	}
	out.RSTFlushUpperBound = hi
	return out
}

// Render prints the persistence result.
func (r *PersistenceResult) Render() string {
	return fmt.Sprintf(
		"Testbed classification persistence (paper: 120 s timeout, 10 s after RST)\n"+
			"  idle flush threshold: between %s and %s\n"+
			"  post-RST flush threshold: ≤ %s\n",
		r.IdleFlushLowerBound, r.IdleFlushUpperBound, r.RSTFlushUpperBound)
}

// SprintResult is the §6.4 null result.
type SprintResult struct {
	Differentiated bool
	Rounds         int
}

// RunSprint verifies no DPI/header-space differentiation on Sprint.
func RunSprint() *SprintResult {
	net := dpi.NewSprint()
	rep := (&core.Liberate{Net: net, Trace: trace.AmazonPrimeVideo(96 << 10)}).Run()
	return &SprintResult{Differentiated: rep.Detection.Differentiated, Rounds: rep.TotalRounds}
}
