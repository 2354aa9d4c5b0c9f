package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dpi"
	"repro/internal/netem/stack"
	"repro/internal/trace"
)

// Liberate orchestrates the phases of the paper against one network for
// one recorded application trace.
type Liberate struct {
	Net   *dpi.Network
	Trace *trace.Trace
	// ServerOS selects the replay server endpoint profile (default Linux).
	ServerOS *stack.OSProfile
	// EvalWorkers bounds the evaluation phase's fork-and-join pool
	// (0 = GOMAXPROCS). Results are identical at any worker count.
	EvalWorkers int
	// Fingerprint arms the phase-0 ambiguity fingerprint: probe the path's
	// ambiguity resolutions, identify the DPI profile, and prune the
	// evaluation suite of techniques the profile rules out. Off by
	// default; when off the engagement is byte-identical to historical
	// four-phase runs.
	Fingerprint bool
	// Fingerprinted, when set alongside Fingerprint, is precomputed probe
	// evidence the fingerprint phase adopts instead of re-probing. Probing
	// a named profile is deterministic, so adopting yields the identical
	// result with the identical accounting; campaign runners use it to
	// probe each distinct network once per run.
	Fingerprinted *FingerprintResult
}

// Report is the complete engagement outcome.
type Report struct {
	Network   string
	TraceName string

	// Fingerprint is the phase-0 ambiguity-fingerprint result; nil unless
	// the engagement ran with Fingerprint armed.
	Fingerprint *FingerprintResult

	Detection        *Detection
	Characterization *Characterization
	Evaluation       *Evaluation

	// Deployed is the technique lib·erate would install for live traffic
	// (nil when the network does not differentiate, or when nothing
	// works — e.g. AT&T's terminating proxy).
	Deployed *Verdict

	TotalRounds int
	TotalBytes  int64
	TotalTime   time.Duration
}

// Run drives the engagement — fingerprint (opt-in) → detect →
// characterize → evaluate → deploy — and assembles the report. The three
// phases after detect run only when differentiation was found.
func (l *Liberate) Run() *Report {
	s := NewSession(l.Net)
	s.ServerOS = l.ServerOS
	s.EvalWorkers = l.EvalWorkers
	rep := &Report{Network: l.Net.Name, TraceName: l.Trace.Name,
		Characterization: &Characterization{}, Evaluation: &Evaluation{}}

	done := s.span("engagement")
	if l.Fingerprint {
		rep.Fingerprint = runFingerprint(s, l.Fingerprinted)
	}
	rep.Detection = Detect(s, l.Trace)
	if rep.Detection.Differentiated {
		rep.Characterization = Characterize(s, l.Trace, rep.Detection)
		rep.Evaluation = evaluate(s, l.Trace, rep.Detection, rep.Characterization,
			false, rep.Fingerprint.RuledOutSet())
		rep.Deployed = deploy(s, rep.Evaluation)
	}
	done()

	rep.TotalRounds = s.Rounds
	rep.TotalBytes = s.BytesUsed
	rep.TotalTime = s.Elapsed()
	return rep
}

// deploy selects the cheapest working verdict, nil when nothing is
// deployable.
func deploy(s *Session, ev *Evaluation) *Verdict {
	done := s.span("deploy")
	defer done()
	v := ev.Best()
	label := "none"
	if v != nil {
		label = v.Technique.ID
	}
	s.verdict("deploy", label, confPPM(ev.MinConfidence()), 0)
	return v
}

// DeployTransform builds the transform for live application flows using
// the selected technique — the runtime side of Figure 3 (step 3). Returns
// nil when no technique is deployable.
func (r *Report) DeployTransform(seed int64) stack.OutgoingTransform {
	if r.Deployed == nil {
		return nil
	}
	params := BuildParams{
		Fields:     r.Characterization.Fields,
		MatchWrite: r.Characterization.MatchWrite,
		InertTTL:   r.Characterization.MiddleboxTTL,
		Seed:       seed,
		Variant:    r.Deployed.Variant,
	}
	return r.Deployed.Technique.Build(params).Transform
}

// WriteSummary renders a human-readable engagement report.
func (r *Report) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "network=%s trace=%s\n", r.Network, r.TraceName)
	if !r.Detection.Differentiated {
		fmt.Fprintf(w, "  no content-based differentiation detected (%d rounds, %d bytes)\n",
			r.TotalRounds, r.TotalBytes)
		if r.Detection.Trials > 0 {
			fmt.Fprintf(w, "  robust mode: %d detection trials, confidence %.3f\n",
				r.Detection.Trials, r.Detection.Confidence)
		}
		return
	}
	fmt.Fprintf(w, "  differentiation: %v\n", r.Detection.Kinds)
	if r.Detection.Trials > 0 {
		fmt.Fprintf(w, "  robust mode: %d detection trials, confidence %.3f\n",
			r.Detection.Trials, r.Detection.Confidence)
	}
	c := r.Characterization
	fmt.Fprintf(w, "  matching fields (%d): ", len(c.Fields))
	for _, f := range c.Fields {
		fmt.Fprintf(w, "%s ", f)
	}
	fmt.Fprintln(w)
	switch {
	case c.InspectsAllPackets:
		fmt.Fprintf(w, "  classifier inspects all packets\n")
	case c.WindowLimited:
		fmt.Fprintf(w, "  classifier is window-limited (≤%d packets, packet-count-based=%v)\n",
			c.WindowUpperBound, c.PacketCountBased)
	}
	if c.PortSpecific {
		fmt.Fprintf(w, "  rules are port-specific\n")
	}
	if c.ResidualBlocking {
		fmt.Fprintf(w, "  residual server:port blocking observed; ports rotated\n")
	}
	if c.MiddleboxTTL > 0 {
		fmt.Fprintf(w, "  middlebox reached at TTL=%d\n", c.MiddleboxTTL)
	} else {
		fmt.Fprintf(w, "  middlebox not localizable by TTL\n")
	}
	working := r.Evaluation.Working()
	fmt.Fprintf(w, "  working techniques: %d / %d evaluated (+%d pruned)\n",
		len(working), len(r.Evaluation.Verdicts)-r.Evaluation.SkippedByPruning, r.Evaluation.SkippedByPruning)
	for _, v := range working {
		fmt.Fprintf(w, "    %-24s variant=%d cost=%.0f", v.Technique.ID, v.Variant, v.Cost())
		if v.Trials > 0 {
			fmt.Fprintf(w, " confidence=%.3f (%d trials)", v.Confidence, v.Trials)
		}
		fmt.Fprintln(w)
	}
	if mc := r.Evaluation.MinConfidence(); mc > 0 {
		fmt.Fprintf(w, "  verdict confidence: ≥%.3f across evaluated techniques\n", mc)
	}
	if r.Deployed != nil {
		fmt.Fprintf(w, "  deployed: %s\n", r.Deployed.Technique.ID)
	} else {
		fmt.Fprintf(w, "  deployed: none (no unilateral technique works)\n")
	}
	fmt.Fprintf(w, "  cost: %d rounds, %.1f KB, %s virtual time\n",
		r.TotalRounds, float64(r.TotalBytes)/1024, r.TotalTime.Round(time.Second))
}
