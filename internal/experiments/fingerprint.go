package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/netem/stack"
	"repro/internal/registry"
)

// FingerprintIdentification is one network's phase-0 probe outcome.
type FingerprintIdentification struct {
	Network    string  `json:"network"`
	Profile    string  `json:"profile"`
	Confidence float64 `json:"confidence"`
	RuledOut   int     `json:"ruled_out"`
	Rounds     int     `json:"rounds"`
}

// FingerprintArm is one arm of the pruned-versus-full sweep. Wall and
// PerSec are the best (minimum-wall) of the bench's interleaved
// repetitions — noise only ever adds time, so min is the robust
// estimator for a few-percent effect on a ~1s sweep.
type FingerprintArm struct {
	Name           string        `json:"name"`
	Wall           time.Duration `json:"wall_ns"`
	PerSec         float64       `json:"eng_per_s"`
	TotalRounds    int           `json:"total_rounds"`
	PrunedVerdicts int           `json:"pruned_verdicts"`

	engagements int
}

// FingerprintBench is the fingerprint gate's result: every built-in profile's
// ambiguity identification, plus the golden 48-engagement sweep run cold
// twice — once un-pruned, once with the fingerprint phase armed — and a
// worker-count determinism check on the armed arm.
type FingerprintBench struct {
	Engagements     int                         `json:"engagements"`
	Identifications []FingerprintIdentification `json:"identifications"`
	// AllIdentified is true when every built-in profile was identified as
	// itself with confidence 1.
	AllIdentified bool           `json:"all_identified"`
	Full          FingerprintArm `json:"full"`
	Pruned        FingerprintArm `json:"pruned"`
	// SweepReps is how many interleaved full/pruned repetitions the bench
	// ran; each arm reports its minimum wall time across them.
	SweepReps int `json:"sweep_reps"`
	// Speedup is full wall time over pruned wall time (cold, workers=1,
	// min of SweepReps repetitions per arm).
	Speedup float64 `json:"speedup"`
	// RoundsDelta is pruned minus full total rounds. It can be positive
	// even when pruning wins on wall time: probe rounds are cheap serial
	// replays on one fork, while every pruned evaluation trial saves a
	// whole forked replica of the path.
	RoundsDelta int `json:"rounds_delta"`
	// Deterministic is true when the armed sweep's aggregate JSON is
	// byte-identical at 1, 4, and 16 workers.
	Deterministic bool `json:"deterministic"`
}

// fingerprintSweepSpec is the golden 48-engagement matrix (six networks ×
// two traces × two hours × two seeds), the same shape the campaign golden
// test locks. EvalWorkers is 1 so the wall-time comparison measures the
// work pruning removes rather than how well a GOMAXPROCS-wide evaluation
// pool hides it — the same configuration wide campaigns use to avoid
// oversubscription.
func fingerprintSweepSpec(armed bool) campaign.Spec {
	return campaign.Spec{
		Name:        "fingerprint",
		Traces:      []string{"amazon", "youtube"},
		Hours:       []int{0, 12},
		Bodies:      []int{8 << 10},
		Seeds:       []int64{1, 2},
		EvalWorkers: 1,
		Fingerprint: armed,
	}
}

func runFingerprintArm(name string, armed bool, workers int) (FingerprintArm, []byte) {
	start := time.Now()
	summary, data := runSpec(fingerprintSweepSpec(armed), workers)
	wall := time.Since(start)
	arm := FingerprintArm{
		Name:        name,
		Wall:        wall,
		PerSec:      float64(summary.Engagements) / wall.Seconds(),
		TotalRounds: summary.TotalRounds,
		engagements: summary.Engagements,
	}
	for _, r := range summary.Rows {
		arm.PrunedVerdicts += r.PrunedTechniques
	}
	return arm, data
}

// RunFingerprintBench measures the fingerprint phase end to end: probe
// identification per built-in profile, then the golden sweep cold with
// and without suite pruning, then the armed sweep again at higher worker
// counts to confirm byte-identical aggregation.
func RunFingerprintBench() *FingerprintBench {
	b := &FingerprintBench{
		AllIdentified: true,
	}
	for _, name := range registry.NetworkNames() {
		net, err := registry.NewNetwork(name)
		if err != nil {
			panic(err)
		}
		fp := core.FingerprintNetwork(net, &stack.Linux)
		net.Release()
		b.Identifications = append(b.Identifications, FingerprintIdentification{
			Network: name, Profile: fp.Profile, Confidence: fp.Confidence,
			RuledOut: len(fp.RuledOut), Rounds: fp.Rounds,
		})
		if fp.Profile != name || fp.Confidence != 1 {
			b.AllIdentified = false
		}
	}

	// Interleave the arms and keep each arm's best wall time: the effect
	// under measurement is a few percent of a ~1s sweep, well inside
	// single-run scheduler noise. Repeated runs must also agree byte for
	// byte — same-worker-count determinism rides along for free.
	b.SweepReps = 3
	b.Deterministic = true
	var fullData, prunedData []byte
	for rep := 0; rep < b.SweepReps; rep++ {
		full, fd := runFingerprintArm("full", false, 1)
		pruned, pd := runFingerprintArm("pruned", true, 1)
		if rep == 0 {
			b.Full, fullData = full, fd
			b.Pruned, prunedData = pruned, pd
			continue
		}
		if !bytes.Equal(fullData, fd) || !bytes.Equal(prunedData, pd) {
			b.Deterministic = false
		}
		if full.Wall < b.Full.Wall {
			b.Full.Wall, b.Full.PerSec = full.Wall, full.PerSec
		}
		if pruned.Wall < b.Pruned.Wall {
			b.Pruned.Wall, b.Pruned.PerSec = pruned.Wall, pruned.PerSec
		}
	}
	b.Engagements = b.Full.engagements
	b.Speedup = b.Full.Wall.Seconds() / b.Pruned.Wall.Seconds()
	b.RoundsDelta = b.Pruned.TotalRounds - b.Full.TotalRounds

	for _, workers := range []int{4, 16} {
		_, again := runSpec(fingerprintSweepSpec(true), workers)
		if !bytes.Equal(prunedData, again) {
			b.Deterministic = false
		}
	}
	return b
}

// Render formats the identification table and the sweep comparison.
func (b *FingerprintBench) Render() string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "ambiguity identification (all_identified=%v):\n", b.AllIdentified)
	fmt.Fprintf(&buf, "  %-8s %-10s %-11s %-9s %s\n", "network", "profile", "confidence", "ruledout", "rounds")
	for _, id := range b.Identifications {
		profile := id.Profile
		if profile == "" {
			profile = "unknown"
		}
		fmt.Fprintf(&buf, "  %-8s %-10s %-11.2f %-9d %d\n", id.Network, profile, id.Confidence, id.RuledOut, id.Rounds)
	}
	fmt.Fprintf(&buf, "cold golden sweep: %d engagements, min of %d reps, deterministic=%v\n",
		b.Engagements, b.SweepReps, b.Deterministic)
	fmt.Fprintf(&buf, "  %-8s %-10s %-10s %-13s %s\n", "arm", "wall", "eng/s", "total_rounds", "pruned_verdicts")
	for _, arm := range []FingerprintArm{b.Full, b.Pruned} {
		fmt.Fprintf(&buf, "  %-8s %-10s %-10.1f %-13d %d\n",
			arm.Name, arm.Wall.Round(time.Millisecond), arm.PerSec, arm.TotalRounds, arm.PrunedVerdicts)
	}
	fmt.Fprintf(&buf, "  speedup %.2fx wall; rounds delta %+d (probe rounds are cheap serial replays, each pruned trial saves a forked replica)\n",
		b.Speedup, b.RoundsDelta)
	return buf.String()
}

// Pass reports whether the gate holds: every profile identified and the
// armed sweep deterministic across worker counts.
func (b *FingerprintBench) Pass() bool { return b.AllIdentified && b.Deterministic }
