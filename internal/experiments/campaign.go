package experiments

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/campaign"
)

// CampaignScalingRow is one worker count's throughput measurement.
type CampaignScalingRow struct {
	Workers int
	Wall    time.Duration
	PerSec  float64
	Speedup float64 // vs workers=1
}

// CampaignScaling is the worker-pool scaling experiment: the same
// campaign matrix over the six paper networks at increasing worker
// counts, with a determinism check on the aggregate output.
type CampaignScaling struct {
	Engagements   int
	Rows          []CampaignScalingRow
	Deterministic bool // aggregate JSON byte-identical at every worker count
}

// RunCampaignScaling measures campaign throughput at 1, 2, 4, and
// GOMAXPROCS workers over all six networks × two traces, and verifies
// the aggregates are byte-identical.
func RunCampaignScaling() *CampaignScaling {
	spec := campaign.Spec{
		Name:   "scaling",
		Traces: []string{"amazon", "youtube"},
		Bodies: []int{8 << 10},
	}
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	out := &CampaignScaling{Deterministic: true}
	var baseline []byte
	for _, workers := range counts {
		start := time.Now()
		summary, data := runSpec(spec, workers)
		wall := time.Since(start)
		if baseline == nil {
			baseline = data
			out.Engagements = summary.Engagements
		} else if !bytes.Equal(baseline, data) {
			out.Deterministic = false
		}
		row := CampaignScalingRow{
			Workers: workers,
			Wall:    wall,
			PerSec:  float64(summary.Engagements) / wall.Seconds(),
		}
		row.Speedup = out.Rows0PerSecRatio(row.PerSec)
		out.Rows = append(out.Rows, row)
	}
	return out
}

// runSpec runs spec in-process at the given worker count and returns the
// summary with its JSON bytes, which worker-count and rerun comparisons
// check for byte-identity. It panics on error: every caller's spec is
// static, so a failed run is a programming error.
func runSpec(spec campaign.Spec, workers int) (*campaign.Summary, []byte) {
	summary, err := (&campaign.Runner{Spec: spec, Workers: workers}).Run(context.Background())
	if err != nil {
		panic(fmt.Sprintf("experiments: %q at %d workers: %v", spec.Name, workers, err))
	}
	data, err := summary.JSON()
	if err != nil {
		panic(err)
	}
	return summary, data
}

// Rows0PerSecRatio computes speedup against the first (workers=1) row.
func (c *CampaignScaling) Rows0PerSecRatio(perSec float64) float64 {
	if len(c.Rows) == 0 || c.Rows[0].PerSec == 0 {
		return 1
	}
	return perSec / c.Rows[0].PerSec
}

// Render formats the scaling table.
func (c *CampaignScaling) Render() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "campaign scaling: %d engagements (6 networks × 2 traces), deterministic=%v\n",
		c.Engagements, c.Deterministic)
	fmt.Fprintf(&b, "  %-8s %-10s %-12s %s\n", "workers", "wall", "eng/s", "speedup")
	for _, r := range c.Rows {
		fmt.Fprintf(&b, "  %-8d %-10s %-12.1f %.2fx\n",
			r.Workers, r.Wall.Round(time.Millisecond), r.PerSec, r.Speedup)
	}
	return b.String()
}
