package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/campaign"
)

// goldenSweepHash is the SHA-256 of the golden sweep's Summary.JSON(),
// pinned by internal/experiments' golden test.
const goldenSweepHash = "0a4d97298b7beddf3dc15335bf2e1a71495bdfa414ff395258356b422d58ba80"

// goldenSpec is the 48-engagement golden campaign: 6 networks × {amazon,
// youtube} × hours {0,12} × seeds {1,2} at 8 KiB bodies.
func goldenSpec() campaign.Spec {
	return campaign.Spec{
		Name:   "golden",
		Traces: []string{"amazon", "youtube"},
		Hours:  []int{0, 12},
		Bodies: []int{8 << 10},
		Seeds:  []int64{1, 2},
	}
}

// sweep is the sweep-cold workload: repeated uncached passes of the golden
// sweep through Runner.RunSubset and campaign.Aggregate on one worker.
type sweep struct {
	spec    campaign.Spec
	engs    []campaign.Engagement
	rng     *rand.Rand
	results []campaign.Result // the last pass, for the aggregate probe
}

func setupSweep(seed int64) (workload, error) {
	spec := goldenSpec()
	engs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	w := &sweep{spec: spec, engs: engs, rng: rand.New(rand.NewSource(seed))}
	// The untimed warm-up pass.
	if ok, err := w.pass(nil, 0); err != nil || !ok {
		return nil, fmt.Errorf("sweep-cold warm-up pass: golden hash mismatch (err %v)", err)
	}
	return w, nil
}

// pass runs the golden engagements once in a seed-shuffled order and
// reports whether the aggregate still hashes to the golden value.
func (w *sweep) pass(tr *tracer, op int64) (bool, error) {
	root := tr.begin(op, 0, "bench.pass")
	r := &campaign.Runner{Spec: w.spec, Workers: 1}
	if tr != nil {
		r.Engage = tr.engage
	}
	run := tr.begin(op, root.id(), "campaign.run_subset")
	results := r.RunSubset(withSpan(context.Background(), op, run.id()), shuffled(w.rng, w.engs))
	run.end()
	agg := tr.begin(op, root.id(), "campaign.aggregate")
	js, err := campaign.Aggregate(w.spec, results).JSON()
	agg.end()
	root.end()
	if err != nil {
		return false, err
	}
	w.results = results
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:]) == goldenSweepHash, nil
}

func (w *sweep) measure(d time.Duration, tr *tracer) segment {
	seg := segment{tailQ: 0.9}
	start := time.Now()
	for time.Since(start) < d {
		passStart := time.Now()
		ok, err := w.pass(tr, tr.newID())
		at := time.Since(start)
		seg.work = append(seg.work, work{at: at, busy: time.Since(passStart), n: len(w.engs)})
		for _, res := range w.results {
			seg.latency = append(seg.latency, sample{at: at, d: res.Wall})
		}
		seg.attempted += len(w.engs)
		if err != nil || !ok {
			// A pass whose summary misses the golden hash fails as a whole.
			logf("sweep-cold pass: golden hash mismatch (err %v)", err)
			seg.mismatches += len(w.engs)
			seg.failed += len(w.engs)
		}
	}
	seg.span = time.Since(start)
	return seg
}

func (w *sweep) layerProbes(m metrics) error {
	return layerProbes(m, w.spec, w.results, w.rng.Int63(), nil)
}

func (w *sweep) close() {}
