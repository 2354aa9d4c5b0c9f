package core

import (
	"math"

	"repro/internal/replay"
	"repro/internal/trace"
)

// DiffKind is a detected differentiation mechanism.
type DiffKind string

// The differentiation mechanisms lib·erate detects (§4.1).
const (
	DiffBlocking   DiffKind = "blocking"
	DiffThrottling DiffKind = "throttling"
	DiffZeroRating DiffKind = "zero-rating"
)

// Detection is the outcome of the differentiation-detection phase: whether
// the network treats the recorded traffic differently from its bit-inverted
// control, which mechanisms were observed, and a client-observable oracle
// the later phases use to judge "was this replay classified?".
type Detection struct {
	Differentiated bool
	Kinds          []DiffKind

	// Classified judges a whole replay; TailClassified judges only the
	// post-final-write portion (for classification-flushing probes).
	Classified     func(r *replay.Result) bool
	TailClassified func(r *replay.Result) bool

	// ProbeBytes is the minimum replay size for a reliable oracle reading
	// (e.g. ≥200 KB against a noisy usage counter, §6.2).
	ProbeBytes int

	// ResidualBlocking: the detection controls were themselves blocked
	// until server ports were rotated — a blacklist-style censor.
	ResidualBlocking bool

	// Observations for reporting.
	ClassifiedAvgBps   float64
	UnclassifiedAvgBps float64
	Rounds             int
	BytesUsed          int64

	// Trials counts interleaved original/control replay pairs taken by the
	// robust detection path; zero on clean (single-shot) engagements.
	Trials int
	// Confidence scores the detection verdict when robust trials ran: 1.0
	// when an authoritative enforcement observation confirmed it, 1−2^−n
	// for an absence verdict sustained over n trials. Zero on clean runs.
	Confidence float64
}

// Has reports whether kind was detected.
func (d *Detection) Has(kind DiffKind) bool {
	for _, k := range d.Kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// Detect runs the differentiation-detection phase: replay the recorded
// trace and its bit-inverted control, compare blocking, throughput, and
// data-counter signals, and adaptively enlarge replays until the signals
// are consistent across trials.
func Detect(s *Session, tr *trace.Trace) *Detection {
	done := s.span("detect")
	var d *Detection
	if s.Robust {
		d = detectRobust(s, tr)
	} else {
		d = detectClean(s, tr)
	}
	label := "undifferentiated"
	if d.Differentiated {
		label = ""
		for i, k := range d.Kinds {
			if i > 0 {
				label += "+"
			}
			label += string(k)
		}
	}
	s.verdict("detect", label, confPPM(d.Confidence), int64(d.Trials))
	done()
	return d
}

// detectClean is the single-observation detection path clean (noise-free)
// engagements run; its behaviour is byte-identical to the historical
// Detect body.
func detectClean(s *Session, tr *trace.Trace) *Detection {
	d := &Detection{}
	startRounds, startBytes := s.Rounds, s.BytesUsed
	defer func() {
		d.Rounds = s.Rounds - startRounds
		d.BytesUsed = s.BytesUsed - startBytes
	}()

	sizes := []int{tr.TotalBytes(), 200 << 10, 1 << 20}
	for _, size := range sizes {
		probe := s.paddedProbe(tr, size)
		// Controls run before the second exposure so that networks with
		// stateful residual blocking (the GFC's server:port blacklist)
		// cannot contaminate them.
		orig1 := s.Replay(probe, nil)
		inv1 := s.Replay(s.inverted(probe), nil)
		inv2 := s.Replay(s.inverted(probe), nil)
		orig2 := s.Replay(probe, nil)

		// Blocking: original consistently blocked, control consistently not.
		if orig1.Blocked && orig2.Blocked && !inv1.Blocked && !inv2.Blocked {
			d.Differentiated = true
			d.Kinds = append(d.Kinds, DiffBlocking)
			d.Classified = func(r *replay.Result) bool { return r.Blocked }
			d.TailClassified = d.Classified
			d.ProbeBytes = 4 << 10
			return d
		}
		// Both original AND control blocked: residual state (a server:port
		// blacklist armed by earlier classified flows) may be poisoning
		// the controls. The paper's remedy is previously-unseen replay
		// servers; fresh server ports model that.
		if orig1.Blocked && inv1.Blocked && !s.RotatePorts {
			s.RotatePorts = true
			o := s.Replay(probe, nil)
			i := s.Replay(s.inverted(probe), nil)
			if o.Blocked && !i.Blocked {
				d.Differentiated = true
				d.Kinds = append(d.Kinds, DiffBlocking)
				d.ResidualBlocking = true
				d.Classified = func(r *replay.Result) bool { return r.Blocked }
				d.TailClassified = d.Classified
				d.ProbeBytes = 4 << 10
				return d
			}
			s.RotatePorts = false
		}
		if orig1.Blocked != orig2.Blocked {
			continue // inconsistent; retry bigger
		}

		// Zero-rating: counter moves for the control but not the original.
		if orig1.CounterDelta >= 0 {
			expected := int64(probe.TotalBytes())
			zr := func(delta int64) bool { return delta < expected/2 }
			origZR := zr(orig1.CounterDelta) && zr(orig2.CounterDelta)
			invZR := zr(inv1.CounterDelta) && zr(inv2.CounterDelta)
			mixed := zr(orig1.CounterDelta) != zr(orig2.CounterDelta) ||
				zr(inv1.CounterDelta) != zr(inv2.CounterDelta)
			if mixed {
				continue // noise dominates at this size; enlarge
			}
			if origZR && !invZR {
				d.Differentiated = true
				d.Kinds = append(d.Kinds, DiffZeroRating)
				d.ProbeBytes = size
			}
		}

		// Throttling: control consistently faster.
		oAvg := (orig1.AvgThroughputBps + orig2.AvgThroughputBps) / 2
		iAvg := (inv1.AvgThroughputBps + inv2.AvgThroughputBps) / 2
		if iAvg > 0 && oAvg > 0 && oAvg < 0.6*iAvg {
			d.Differentiated = true
			d.Kinds = append(d.Kinds, DiffThrottling)
			d.ClassifiedAvgBps = oAvg
			d.UnclassifiedAvgBps = iAvg
			if d.ProbeBytes == 0 {
				d.ProbeBytes = 96 << 10
			}
		}

		if d.Differentiated {
			d.buildOracles()
			return d
		}
		// No signal at this size: escalate — throttling and zero-rating
		// may only be measurable once the transfer outlasts shaper bursts
		// and counter noise.
	}
	// Undifferentiated: the oracle is constant-false.
	d.Classified = func(*replay.Result) bool { return false }
	d.TailClassified = d.Classified
	if d.ProbeBytes == 0 {
		d.ProbeBytes = 16 << 10
	}
	return d
}

// robustDetectPairs is how many interleaved original/control pairs the
// robust detection path takes per probe size before judging shaping
// signals.
const robustDetectPairs = 3

// detectRobust is the noisy-path variant of Detect: instead of one
// orig/inv/inv/orig quad per probe size it takes up to robustDetectPairs
// interleaved original/control pairs and judges them under the one-sided
// fault model — a Blocked observation on the original is authoritative
// (faults suppress enforcement, never fabricate it), while shaping
// signals, which are symmetric, are decided by pooled averages plus
// per-pair votes. The clean Detect path is untouched, so zero-fault
// engagements stay byte-identical.
func detectRobust(s *Session, tr *trace.Trace) *Detection {
	d := &Detection{}
	startRounds, startBytes := s.Rounds, s.BytesUsed
	defer func() {
		d.Rounds = s.Rounds - startRounds
		d.BytesUsed = s.BytesUsed - startBytes
	}()
	blockingOracle := func() {
		d.Differentiated = true
		d.Kinds = append(d.Kinds, DiffBlocking)
		d.Classified = func(r *replay.Result) bool { return r.Blocked }
		d.TailClassified = d.Classified
		d.ProbeBytes = 4 << 10
		d.Confidence = 1
	}

	sizes := []int{tr.TotalBytes(), 200 << 10, 1 << 20}
	for _, size := range sizes {
		probe := s.paddedProbe(tr, size)

		// Interleaved trials: each pair replays the original, then its
		// bit-inverted control.
		var origs, invs []*replay.Result
		anyOrigB, anyInvB := false, false
		for len(origs) < robustDetectPairs {
			o := s.Replay(probe, nil)
			i := s.Replay(s.inverted(probe), nil)
			d.Trials++
			origs, invs = append(origs, o), append(invs, i)
			anyOrigB = anyOrigB || o.Blocked
			anyInvB = anyInvB || i.Blocked
			if anyOrigB && anyInvB {
				break // residual-blacklist suspicion: rotate instead of burn
			}
			if anyOrigB && len(origs) >= 2 {
				break // authoritative block; controls clean over ≥2 trials
			}
		}
		if anyOrigB && !anyInvB && len(origs) >= 2 {
			blockingOracle()
			return d
		}
		// Original AND control blocked: residual state (a server:port
		// blacklist armed by earlier classified flows) may be poisoning
		// the controls. Rotate to fresh ports and re-verify; the composite
		// observation (original blocked, fresh control clean) is itself
		// one-sided, so confirm applies.
		if anyOrigB && anyInvB && !s.RotatePorts {
			s.RotatePorts = true
			out := s.confirm(func() bool {
				o := s.Replay(probe, nil)
				i := s.Replay(s.inverted(probe), nil)
				d.Trials++
				return o.Blocked && !i.Blocked
			})
			if out.Positive {
				blockingOracle()
				d.ResidualBlocking = true
				return d
			}
			s.RotatePorts = false
		}

		n := len(origs)

		// Zero-rating: the counter moves for the control but not the
		// original — symmetric counter noise, so require unanimity across
		// the pairs and escalate the probe size otherwise.
		if origs[0].CounterDelta >= 0 {
			expected := int64(probe.TotalBytes())
			zr := func(delta int64) bool { return delta < expected/2 }
			ozr, izr := 0, 0
			for i := range origs {
				if zr(origs[i].CounterDelta) {
					ozr++
				}
				if zr(invs[i].CounterDelta) {
					izr++
				}
			}
			if (ozr > 0 && ozr < n) || (izr > 0 && izr < n) {
				continue // noise dominates at this size; enlarge
			}
			if ozr == n && izr == 0 {
				d.Differentiated = true
				d.Kinds = append(d.Kinds, DiffZeroRating)
				d.ProbeBytes = size
			}
		}

		// Throttling: control consistently faster, judged on pooled
		// averages plus a per-pair majority vote.
		var oSum, iSum float64
		votes := 0
		for i := range origs {
			oSum += origs[i].AvgThroughputBps
			iSum += invs[i].AvgThroughputBps
			if invs[i].AvgThroughputBps > 0 && origs[i].AvgThroughputBps < 0.6*invs[i].AvgThroughputBps {
				votes++
			}
		}
		oAvg, iAvg := oSum/float64(n), iSum/float64(n)
		if iAvg > 0 && oAvg > 0 && oAvg < 0.6*iAvg && votes*2 > n {
			d.Differentiated = true
			d.Kinds = append(d.Kinds, DiffThrottling)
			d.ClassifiedAvgBps = oAvg
			d.UnclassifiedAvgBps = iAvg
			if d.ProbeBytes == 0 {
				d.ProbeBytes = 96 << 10
			}
		}

		if d.Differentiated {
			d.buildOracles()
			d.Confidence = absenceConfidence(n)
			return d
		}
	}
	// Undifferentiated: the oracle is constant-false, believed with the
	// confidence n sustained clean trials earn.
	d.Classified = func(*replay.Result) bool { return false }
	d.TailClassified = d.Classified
	if d.ProbeBytes == 0 {
		d.ProbeBytes = 16 << 10
	}
	d.Confidence = absenceConfidence(d.Trials)
	return d
}

// buildOracles derives the per-replay classification predicates from the
// detected mechanisms.
func (d *Detection) buildOracles() {
	mid := math.Sqrt(d.ClassifiedAvgBps * d.UnclassifiedAvgBps)
	throttled := d.Has(DiffThrottling)
	zeroRated := d.Has(DiffZeroRating)
	d.Classified = func(r *replay.Result) bool {
		if r.Blocked {
			return true
		}
		if throttled && r.AvgThroughputBps > 0 && r.AvgThroughputBps < mid {
			return true
		}
		if zeroRated && r.CounterDelta >= 0 {
			moved := int64(float64(r.BytesIn+r.BytesOut) * 0.5)
			if r.CounterDelta < moved {
				return true
			}
		}
		return false
	}
	d.TailClassified = func(r *replay.Result) bool {
		if r.Blocked {
			return true
		}
		if throttled && r.TailThroughputBps > 0 && r.TailThroughputBps < mid {
			return true
		}
		if zeroRated && r.CounterDelta >= 0 && r.CounterDelta < (r.BytesIn+r.BytesOut)/2 {
			return true
		}
		return false
	}
}
