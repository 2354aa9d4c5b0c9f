package core

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/netem/packet"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

// ReachState is the Table 3 "Reaches Server?" judgment.
type ReachState string

// Reach states. ReachModified covers arrivals that differ from what was
// sent (reassembled fragments, corrected checksums — the ✓-with-note cells
// of Table 3).
const (
	ReachNo       ReachState = "no"
	ReachYes      ReachState = "yes"
	ReachModified ReachState = "modified"
	ReachNA       ReachState = "n/a"
)

// Verdict is the evaluation outcome for one technique against one network.
type Verdict struct {
	Technique Technique
	Variant   int
	// Tried is false when pruning skipped the technique entirely.
	Tried bool
	// Evades: the classification changed (the paper's CC? column).
	Evades bool
	// ReachedServer is the RS? column.
	ReachedServer ReachState
	// IntegrityOK: application payloads were intact end-to-end, so the
	// technique is actually deployable.
	IntegrityOK bool
	// Served: the server's application actually received client bytes —
	// distinguishes genuine evasion from the degenerate case where the
	// technique's packets simply died in-path (e.g. fragments dropped by
	// an Iranian firewall before reaching anything).
	Served bool

	ExtraPackets int
	ExtraBytes   int
	AddedDelay   time.Duration
	Rounds       int

	// Trials counts the robust-mode observations behind the deciding
	// variant's verdict; zero on clean (single-shot) engagements, so legacy
	// consumers can tell the modes apart.
	Trials int
	// Confidence scores the verdict when robust trials ran: 1.0 when a
	// classification observation decided it (authoritative under the
	// one-sided fault model), 1−2^−n when n consecutive clean trials
	// sustained an "evades" call. Zero on clean engagements.
	Confidence float64
}

// Usable reports whether the technique both evades and preserves the app.
func (v *Verdict) Usable() bool { return v.Evades && v.IntegrityOK }

// Cost ranks deployment overhead: pauses are worst, then injected
// packets/bytes (Table 2's ordering).
func (v *Verdict) Cost() float64 {
	return v.AddedDelay.Seconds()*1e6 + float64(v.ExtraBytes) + float64(v.ExtraPackets)*40
}

// Evaluation is the full evasion-evaluation phase output.
type Evaluation struct {
	Verdicts []Verdict
	Rounds   int
	Bytes    int64
	// SkippedByPruning counts techniques eliminated without any replay.
	SkippedByPruning int
}

// Working returns the deployable verdicts, cheapest first. Cost ties keep
// taxonomy (Row) order: Verdicts is pre-sorted by Row and the sort is
// stable, so the result is ordered by (Cost, Row) — identical across runs
// and across worker counts.
func (e *Evaluation) Working() []Verdict {
	var out []Verdict
	for _, v := range e.Verdicts {
		if v.Usable() {
			out = append(out, v)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost() < out[j].Cost() })
	return out
}

// Best returns the cheapest deployable verdict, or nil.
func (e *Evaluation) Best() *Verdict {
	w := e.Working()
	if len(w) == 0 {
		return nil
	}
	return &w[0]
}

// MinConfidence returns the lowest confidence among verdicts that were
// actually decided by robust trials, or 0 when the evaluation ran in
// clean single-shot mode (no verdict carries trials).
func (e *Evaluation) MinConfidence() float64 {
	min := 0.0
	for _, v := range e.Verdicts {
		if v.Trials == 0 {
			continue
		}
		if min == 0 || v.Confidence < min {
			min = v.Confidence
		}
	}
	return min
}

// ByID finds a verdict.
func (e *Evaluation) ByID(id string) *Verdict {
	for i := range e.Verdicts {
		if e.Verdicts[i].Technique.ID == id {
			return &e.Verdicts[i]
		}
	}
	return nil
}

// Evaluate runs the evasion-evaluation phase: build each applicable
// technique from the taxonomy, order and prune the suite using what
// characterization learned (§5.2 "efficient evasion testing"), and try
// variants until one works.
func Evaluate(s *Session, tr *trace.Trace, det *Detection, char *Characterization) *Evaluation {
	return evaluate(s, tr, det, char, false, nil)
}

// EvaluateExhaustive evaluates every technique with no pruning — the mode
// the paper used for its study ("in this study, we try all possible
// techniques"), and what regenerates Table 3.
func EvaluateExhaustive(s *Session, tr *trace.Trace, det *Detection, char *Characterization) *Evaluation {
	return evaluate(s, tr, det, char, true, nil)
}

func evaluate(s *Session, tr *trace.Trace, det *Detection, char *Characterization, exhaustive bool, ruledOut map[string]bool) *Evaluation {
	defer s.span("evaluate")()
	ev := &Evaluation{}
	startRounds, startBytes := s.Rounds, s.BytesUsed
	defer func() {
		ev.Rounds = s.Rounds - startRounds
		ev.Bytes = s.BytesUsed - startBytes
	}()
	if !det.Differentiated {
		return ev
	}
	probe := s.trimmedProbe(tr, det.ProbeBytes)

	suite := Taxonomy()
	// Profile pruning: techniques the identified ambiguity fingerprint
	// rules out are skipped without any replay, ahead of the
	// characterization-driven pruning below. Exhaustive mode (the paper's
	// study configuration) bypasses both.
	if !exhaustive && len(ruledOut) > 0 {
		var kept []Technique
		for _, t := range suite {
			if ruledOut[t.ID] {
				ev.SkippedByPruning++
				ev.Verdicts = append(ev.Verdicts, Verdict{Technique: t, Tried: false, ReachedServer: ReachNA})
				if s.rec().Enabled() {
					s.rec().Add(obs.CtrFPPruned, 1)
				}
			} else {
				kept = append(kept, t)
			}
		}
		suite = kept
	}
	// Pruning: a classifier that inspects every packet cannot be poisoned
	// by inert packets nor flushed; only splitting/reordering remain.
	if exhaustive {
		// no pruning, paper row order
	} else if char.InspectsAllPackets {
		var kept []Technique
		for _, t := range suite {
			if t.Group == GroupSplitting || t.Group == GroupReorder {
				kept = append(kept, t)
			} else {
				ev.SkippedByPruning++
				ev.Verdicts = append(ev.Verdicts, Verdict{Technique: t, Tried: false, ReachedServer: ReachNA})
			}
		}
		suite = kept
	} else if char.WindowLimited {
		// Match-and-forget classifiers: inert techniques first (cheapest
		// to test and to deploy).
		sort.SliceStable(suite, func(i, j int) bool {
			rank := func(g Group) int {
				switch g {
				case GroupInert:
					return 0
				case GroupSplitting:
					return 1
				case GroupReorder:
					return 2
				}
				return 3
			}
			return rank(suite[i].Group) < rank(suite[j].Group)
		})
	}

	// Networks with a subscriber usage counter (T-Mobile) evaluate
	// serially on the parent session: the counter is a single shared
	// measurement device — every replay reads it, its noise stream is
	// consumed in reading order, and a real carrier's billing system cannot
	// be forked any more than this one's noise sequence can be split across
	// replicas without changing which reading each trial observes. All
	// other oracles are path-local, so their trials fork.
	if s.Net.Counter != nil {
		for _, t := range suite {
			ev.Verdicts = append(ev.Verdicts, evaluateTechnique(s, probe, det, char, t, exhaustive))
		}
		sort.Slice(ev.Verdicts, func(i, j int) bool { return ev.Verdicts[i].Technique.Row < ev.Verdicts[j].Technique.Row })
		return ev
	}

	// Fork-and-join: every technique runs against its own forked replica of
	// the simulation, on a bounded worker pool, and the results are merged
	// in suite order. Because each trial is fully isolated (forked flow
	// tables, shapers, firewall state, RNG streams, clock) and the merge
	// order is canonical, the outcome — verdicts, Rounds, BytesUsed, and
	// virtual elapsed time — is identical at any worker count, including 1.
	trials := make([]trial, len(suite))
	workers := s.evalWorkers()
	if workers > len(suite) {
		workers = len(suite)
	}
	var wg sync.WaitGroup
	feed := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				trials[i] = runTrial(s, i, probe, det, char, suite[i], exhaustive)
			}
		}()
	}
	for i := range suite {
		feed <- i
	}
	close(feed)
	wg.Wait()

	// Canonical join: account each trial in suite order. Advancing the
	// parent clock by the sum of per-fork elapsed times reproduces the
	// virtual-time accounting of running the same trials back to back
	// (replay durations are start-time-invariant).
	var joined time.Duration
	for i := range trials {
		t := &trials[i]
		if t.panicked != nil {
			panic(t.panicked)
		}
		ev.Verdicts = append(ev.Verdicts, t.v)
		s.Rounds += t.rounds
		s.BytesUsed += t.bytes
		joined += t.elapsed
		// Merging each fork's event buffer here — in suite order, not
		// completion order — is what makes the merged trace byte-identical
		// at any worker count.
		obs.Merge(s.rec(), t.rec)
	}
	if joined > 0 {
		s.Net.Clock.RunFor(joined)
	}
	// The parent session skips past every port block the forks consumed
	// (forks use blocks 1..len(suite) above the entry counters), so later
	// replays (deployment verification) cannot collide with a trial's flow
	// keys.
	s.nextClientPort += uint16(len(suite)+1) * trialPortStride
	s.nextServerPort += uint16(len(suite)+1) * trialPortStride

	// Restore paper row order for reporting.
	sort.Slice(ev.Verdicts, func(i, j int) bool { return ev.Verdicts[i].Technique.Row < ev.Verdicts[j].Technique.Row })
	return ev
}

// trial is the join record for one technique evaluated in a forked replica.
type trial struct {
	v        Verdict
	rounds   int
	bytes    int64
	elapsed  time.Duration
	rec      obs.Recorder
	panicked *trialPanic
}

// trialPanic carries a panic out of a trial goroutine with the stack of its
// origin, so the campaign runner's recovery reports where the trial died
// rather than where the join re-panicked.
type trialPanic struct {
	Value any
	Stack []byte
}

func (p *trialPanic) String() string {
	return fmt.Sprintf("evaluation trial panicked: %v\n%s", p.Value, p.Stack)
}

// runTrial evaluates one technique in a forked session and records its
// accounting deltas. Panics are captured, not propagated: the join re-raises
// them in canonical order so the first-failing technique is deterministic.
func runTrial(s *Session, i int, probe *trace.Trace, det *Detection, char *Characterization, t Technique, exhaustive bool) (out trial) {
	defer func() {
		if r := recover(); r != nil {
			out.panicked = &trialPanic{Value: r, Stack: debug.Stack()}
		}
	}()
	fs := s.forkFor(i)
	out.v = evaluateTechnique(fs, probe, det, char, t, exhaustive)
	out.rounds = fs.Rounds
	out.bytes = fs.BytesUsed
	out.elapsed = fs.Elapsed()
	out.rec = fs.rec()
	// Everything the trial produced is now copied out (Verdict is plain
	// data; the recorder owns its event strings), so the fork's pooled
	// resources can be recycled for the next trial.
	fs.Net.Release()
	return out
}

// evaluateTechnique tries each variant of one technique until one evades,
// wrapping the attempt in a technique span with its verdict event.
func evaluateTechnique(s *Session, probe *trace.Trace, det *Detection, char *Characterization, t Technique, exhaustive bool) Verdict {
	done := s.span("technique:" + t.ID)
	v := evaluateTechniqueOnce(s, probe, det, char, t, exhaustive)
	label := "skipped"
	if v.Tried {
		label = "no-evade"
		if v.Evades {
			label = "evades"
		}
	}
	s.verdict("technique:"+t.ID, label, confPPM(v.Confidence), int64(v.Trials))
	done()
	return v
}

func evaluateTechniqueOnce(s *Session, probe *trace.Trace, det *Detection, char *Characterization, t Technique, exhaustive bool) Verdict {
	v := Verdict{Technique: t, ReachedServer: ReachNA}
	// Protocol applicability.
	isUDP := probe.Proto == packet.ProtoUDP
	if (t.Proto == ProtoTCP && isUDP) || (t.Proto == ProtoUDP && !isUDP) {
		return v
	}
	ttl := char.MiddleboxTTL
	if t.NeedsTTL && ttl == 0 {
		if !exhaustive {
			return v
		}
		ttl = 4 // unlocalized middlebox: probe with a plausible TTL anyway
	}
	v.Tried = true

	variants := t.Variants
	if variants == 0 {
		variants = 1
	}
	judgeTail := t.ID == "pause-after-match" || t.ID == "ttl-rst-after"
	target := probe
	if judgeTail {
		target = twoPart(probe)
	}

	for variant := 0; variant < variants; variant++ {
		params := BuildParams{
			Fields:     char.Fields,
			MatchWrite: char.MatchWrite,
			InertTTL:   ttl,
			Seed:       int64(1000 + t.Row*10 + variant),
			Variant:    variant,
		}
		ap := t.Build(params)
		rtr := target
		if ap.Rewrite != nil {
			rtr = ap.Rewrite(target)
		}
		extra := time.Duration(0)
		if ap.AddedDelay > 0 {
			extra = ap.AddedDelay + time.Minute
		}
		judge := det.Classified
		if judgeTail {
			judge = det.TailClassified
		}
		// One-sided re-verification: a classification observation is
		// authoritative (faults suppress enforcement, never fabricate it),
		// so on a robust session an apparent evasion must survive repeated
		// trials before it is believed.
		var res *replay.Result
		out := s.confirm(func() bool {
			res = s.Replay(rtr, ap.Transform, func(o *replay.Options) { o.ExtraBudget = extra })
			v.Rounds++
			return judge(res)
		})
		if s.Robust {
			v.Trials, v.Confidence = out.Trials, out.Confidence
		}

		evades := !out.Positive
		v.ReachedServer = judgeReach(t, ap, res)
		if evades {
			v.Evades = true
			v.Variant = variant
			v.IntegrityOK = res.IntegrityOK
			v.Served = res.ServerAppBytes > 0
			v.ExtraPackets = ap.ExtraPackets
			v.ExtraBytes = ap.ExtraBytes
			v.AddedDelay = ap.AddedDelay
			return v
		}
		v.Served = res.ServerAppBytes > 0
	}
	return v
}

// judgeReach decides the RS? column from the server's raw capture.
func judgeReach(t Technique, ap *Applied, res *replay.Result) ReachState {
	switch t.Group {
	case GroupInert, GroupFlushing:
		if len(ap.InertPayloads) == 0 && t.Group == GroupFlushing {
			// Pause techniques inject nothing.
			if t.ID == "pause-after-match" || t.ID == "pause-before-match" {
				return ReachNA
			}
		}
		for _, arr := range res.ServerArrivals {
			p, _ := packet.InspectView(arr.Raw)
			for _, inert := range ap.InertPayloads {
				if bytes.Equal(p.Payload, inert) {
					return ReachYes
				}
				if len(inert) > 8 && bytes.Contains(p.Payload, inert[:8]) {
					return ReachModified
				}
			}
			// TTL-limited RSTs: did *our* RST arrive? (Censors forge RSTs
			// toward the server too; the IP ID tag tells them apart.)
			if (t.ID == "ttl-rst-after" || t.ID == "ttl-rst-before") && p.TCP != nil &&
				p.TCP.Flags.Has(packet.FlagRST) && p.IP.ID == InertRSTID {
				return ReachYes
			}
		}
		return ReachNo
	case GroupSplitting, GroupReorder:
		// The payload "reaches the server" when the application layer got
		// it — even on flows a censor subsequently killed.
		if res.ServerAppBytes == 0 {
			return ReachNo
		}
		// Did the exact wire packets arrive, or a reassembled/normalized
		// version (note 2)?
		if t.ID == "ip-fragment" || t.ID == "ip-fragment-reorder" {
			for _, arr := range res.ServerArrivals {
				p, _ := packet.InspectView(arr.Raw)
				if p.IP.FragOffset != 0 || p.IP.MoreFragments() {
					return ReachYes
				}
			}
			return ReachModified
		}
		return ReachYes
	}
	return ReachNA
}
