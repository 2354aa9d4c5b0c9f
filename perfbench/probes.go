package main

import (
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/registry"
)

// miniServe is how long the layer probes drive a short serve-mixed
// instance on workloads that never reach the store or the daemon.
const miniServe = 2 * time.Second

// layerProbes times the layers a traced run attributes outside its
// workload's own loop: replay (always), campaign.Aggregate over the
// workload's results, and the store and daemon — from s, the workload's
// own serve instance, or from a short serve-mixed instance when s is nil.
func layerProbes(m metrics, spec campaign.Spec, results []campaign.Result, seed int64, s *serve) error {
	if err := replayProbe(m); err != nil {
		return err
	}
	var aggs []time.Duration
	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := campaign.Aggregate(spec, results).JSON(); err != nil {
			return err
		}
		aggs = append(aggs, time.Since(start))
	}
	m.set("campaign.aggregate_ms", ms(percentile(aggs, 0.5)), "ms")
	if s == nil {
		mini, err := newServe(seed)
		if err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		defer mini.close()
		if seg := mini.measure(miniServe, newTracer()); seg.failed > 0 {
			return fmt.Errorf("serve probe: %d of %d ops failed", seg.failed, seg.attempted)
		}
		s = mini
	}
	return s.clusterMetrics(m)
}

// replayProbe times core.Session.Replay on a network without DPI: a bulk
// 1 MiB probe (cost per byte) and a 4 KiB one (the fixed cost per replay).
func replayProbe(m metrics) error {
	net, err := registry.NewNetwork("sprint")
	if err != nil {
		return err
	}
	defer net.Release()
	s := core.NewSession(net)
	time1 := func(name string, body, n int) ([]time.Duration, float64, error) {
		tr, err := registry.NewTrace(name, body)
		if err != nil {
			return nil, 0, err
		}
		var ds []time.Duration
		for i := 0; i < n; i++ {
			start := time.Now()
			if res := s.Replay(tr, nil); !res.Completed {
				return nil, 0, fmt.Errorf("replay probe: %d-byte replay did not complete", body)
			}
			ds = append(ds, time.Since(start))
		}
		return ds, float64(tr.TotalBytes()) / 1e6, nil
	}
	bulk, mb, err := time1("amazon", 1<<20, 12)
	if err != nil {
		return err
	}
	small, _, err := time1("amazon", 4<<10, 200)
	if err != nil {
		return err
	}
	m.set("replay.ms_per_mb", ms(percentile(bulk, 0.5))/mb, "ms")
	m.set("replay.us_per_small", us(percentile(small, 0.5)), "us")
	return nil
}
