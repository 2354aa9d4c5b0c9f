package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dpi"
	"repro/internal/trace"
)

// scenarioEngagement runs one full engagement on a testbed armed with the
// gate's impaired world at the given evaluation worker count.
func scenarioEngagement(t *testing.T, workers int) *core.Report {
	t.Helper()
	worlds := scenarioWorlds()
	squall := &worlds[1]
	net := dpi.NewTestbed()
	if err := squall.Apply(net); err != nil {
		t.Fatal(err)
	}
	return (&core.Liberate{Net: net, Trace: trace.AmazonPrimeVideo(32 << 10), EvalWorkers: workers}).Run()
}

// TestScenarioEngagementWorkerCountInvariance extends the fork-and-join
// determinism contract to scenario-armed networks: every phase-gated
// impairment element forks with the network, so verdicts, accounting,
// and virtual time are byte-identical at 1, 4, and 16 eval workers.
func TestScenarioEngagementWorkerCountInvariance(t *testing.T) {
	flatten := func(r *core.Report) string {
		out := ""
		for _, v := range r.Evaluation.Verdicts {
			out += fmt.Sprintf("%s|%d|%v|%v|%v|%v|%v|%d|%d|%d|%v|%d|%v\n",
				v.Technique.ID, v.Variant, v.Tried, v.Evades, v.ReachedServer, v.IntegrityOK,
				v.Served, v.Rounds, v.ExtraPackets, v.ExtraBytes, v.AddedDelay, v.Trials, v.Confidence)
		}
		return out
	}
	base := scenarioEngagement(t, 1)
	if !base.Detection.Differentiated {
		t.Fatal("setup: scenario-armed testbed did not differentiate")
	}
	for _, workers := range []int{4, 16} {
		got := scenarioEngagement(t, workers)
		if flatten(got) != flatten(base) {
			t.Errorf("workers=%d: verdicts diverged from workers=1:\n%s\nvs\n%s",
				workers, flatten(got), flatten(base))
		}
		if got.TotalRounds != base.TotalRounds || got.TotalBytes != base.TotalBytes ||
			got.TotalTime != base.TotalTime {
			t.Errorf("workers=%d: accounting diverged: rounds %d/%d bytes %d/%d time %v/%v",
				workers, got.TotalRounds, base.TotalRounds, got.TotalBytes, base.TotalBytes,
				got.TotalTime, base.TotalTime)
		}
	}
}

// TestScenarioCampaignWorkerInvariance: the scenario axis must not leak
// shared state between concurrently running engagements — the armed
// sweep's summary is byte-identical at any campaign pool width.
func TestScenarioCampaignWorkerInvariance(t *testing.T) {
	spec := scenarioGateSpec(true)
	_, want := runSpec(spec, 1)
	for _, workers := range []int{4, 16} {
		if _, got := runSpec(spec, workers); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: scenario-armed summary differs from workers=1", workers)
		}
	}
}

// TestScenarioWorldsValidate keeps the gate's inline pack honest against
// the same schema rules a JSON pack file faces.
func TestScenarioWorldsValidate(t *testing.T) {
	for _, sc := range scenarioWorlds() {
		if err := sc.Validate(); err != nil {
			t.Errorf("gate world %q invalid: %v", sc.Name, err)
		}
	}
}
