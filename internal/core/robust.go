package core

import (
	"math"

	"repro/internal/trace"
)

// maxTrials bounds repeated observations per robust question. Five
// one-sided trials push the residual flip probability to p^5 (≈ 10^-5 at a
// 10% per-trial fault rate) while keeping the round cost of a noisy
// engagement within ~5x of a clean one.
const maxTrials = 5

// Outcome is the result of a confirmed observation sequence.
type Outcome struct {
	// Positive reports whether the authoritative-direction observation
	// occurred.
	Positive bool
	// Trials is how many observations were actually taken.
	Trials int
	// Confidence estimates the probability the answer is right: 1.0 for
	// an authoritative observation, 1−2^−n after n clean trials.
	Confidence float64
}

// confirm is the session's one re-verification primitive. It encodes the
// simulator's one-sided fault model: middlebox faults (missed flows,
// dropped teardown RSTs, flow-table evictions, outages) and path
// impairments can *suppress* an enforcement signal but never fabricate
// one. So a true observation is final, while a false one may be noise: a
// robust session repeats observe until it reports true or maxTrials
// consecutive negatives accumulate. A clean session observes exactly once.
func (s *Session) confirm(observe func() bool) Outcome {
	n := 1
	if s.Robust {
		n = maxTrials
	}
	for i := 1; i <= n; i++ {
		if observe() {
			return Outcome{Positive: true, Trials: i, Confidence: 1}
		}
	}
	return Outcome{Positive: false, Trials: n, Confidence: absenceConfidence(n)}
}

// absenceConfidence is the confidence that n consecutive clean trials
// reflect genuine absence of enforcement rather than n suppressions in a
// row. The 1−2^−n form is a deliberate upper bound on the per-trial
// suppression probability (50%) — real fault rates are far lower, so the
// reported confidence is conservative.
func absenceConfidence(trials int) float64 {
	return 1 - math.Pow(2, -float64(trials))
}

// robustify wraps a trace-classification oracle with confirm when the
// session is in robust mode: a "classified" reading is returned
// immediately, a "not classified" reading is repeated before it is
// believed. On clean sessions the oracle is returned unchanged, so the
// replay sequence stays byte-identical.
func (s *Session) robustify(oracle func(*trace.Trace) bool) func(*trace.Trace) bool {
	if !s.Robust {
		return oracle
	}
	return func(t *trace.Trace) bool {
		return s.confirm(func() bool { return oracle(t) }).Positive
	}
}
