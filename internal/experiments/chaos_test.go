package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// gfcExhaustive runs a full GFC engagement plus exhaustive evaluation at
// the given fault rates and worker count, at the Table 3 hour.
func gfcExhaustive(t *testing.T, fl dpi.Faults, workers int) (*core.Report, *core.Evaluation) {
	t.Helper()
	net := dpi.NewGFC()
	net.MB.Cfg.Faults = fl
	net.Clock.RunFor(21 * time.Hour)
	tr := trace.EconomistWeb(8 << 10)
	rep := (&core.Liberate{Net: net, Trace: tr, EvalWorkers: workers}).Run()
	s := core.NewSession(net)
	s.EvalWorkers = workers
	if rep.Characterization.ResidualBlocking {
		s.RotatePorts = true
	}
	if rep.Characterization.PortSpecific {
		s.ForceServerPort = tr.ServerPort
	}
	return rep, core.EvaluateExhaustive(s, tr, rep.Detection, rep.Characterization)
}

// TestChaosGFCAcceptance is the PR's headline robustness claim: with a 10%
// classifier miss rate and 20% RST-drop rate on the GFC, every Table 3
// evasion verdict matches the clean run, every robust verdict carries
// confidence ≥ 0.9, and the whole outcome is identical at 1, 4, and 16
// evaluation workers.
func TestChaosGFCAcceptance(t *testing.T) {
	_, cleanEv := gfcExhaustive(t, dpi.Faults{}, 0)
	cleanCC := map[string]bool{}
	for _, v := range cleanEv.Verdicts {
		if v.Tried {
			cleanCC[v.Technique.ID] = v.Evades && v.Served
		}
	}

	fl := dpi.Faults{MissRate: 0.10, RSTDropRate: 0.20}
	type outcome struct {
		rep *core.Report
		ev  *core.Evaluation
	}
	outcomes := map[int]outcome{}
	for _, workers := range []int{1, 4, 16} {
		rep, ev := gfcExhaustive(t, fl, workers)
		outcomes[workers] = outcome{rep, ev}

		if !rep.Detection.Differentiated || !rep.Detection.Has(core.DiffBlocking) {
			t.Fatalf("workers=%d: faulted GFC detection lost blocking: %+v", workers, rep.Detection)
		}
		for _, v := range ev.Verdicts {
			if !v.Tried {
				continue
			}
			cc := v.Evades && v.Served
			if base, ok := cleanCC[v.Technique.ID]; !ok || cc != base {
				t.Errorf("workers=%d: verdict flipped for %s: clean=%v faulted=%v",
					workers, v.Technique.ID, base, cc)
			}
			if v.Trials == 0 {
				t.Errorf("workers=%d: %s has no robust trials on a faulted network", workers, v.Technique.ID)
			}
			if v.Confidence < 0.9 {
				t.Errorf("workers=%d: %s confidence %v < 0.9", workers, v.Technique.ID, v.Confidence)
			}
		}
	}

	// Worker-count determinism: verdicts (including trials and confidence)
	// and total accounting must be bit-identical. Technique holds a func
	// field, so compare a value projection rather than the structs.
	flatten := func(ev *core.Evaluation) []string {
		out := make([]string, 0, len(ev.Verdicts))
		for _, v := range ev.Verdicts {
			out = append(out, fmt.Sprintf("%s var=%d tried=%v evades=%v rs=%v iok=%v served=%v xp=%d xb=%d delay=%v rounds=%d trials=%d conf=%v",
				v.Technique.ID, v.Variant, v.Tried, v.Evades, v.ReachedServer, v.IntegrityOK,
				v.Served, v.ExtraPackets, v.ExtraBytes, v.AddedDelay, v.Rounds, v.Trials, v.Confidence))
		}
		return out
	}
	base := outcomes[1]
	for _, workers := range []int{4, 16} {
		o := outcomes[workers]
		if !reflect.DeepEqual(flatten(base.ev), flatten(o.ev)) {
			t.Fatalf("verdicts differ between 1 and %d workers:\n1:  %v\n%d: %v",
				workers, flatten(base.ev), workers, flatten(o.ev))
		}
		if base.rep.TotalRounds != o.rep.TotalRounds || base.rep.TotalBytes != o.rep.TotalBytes {
			t.Fatalf("accounting differs between 1 and %d workers: %d/%d vs %d/%d rounds/bytes",
				workers, base.rep.TotalRounds, base.rep.TotalBytes, o.rep.TotalRounds, o.rep.TotalBytes)
		}
	}
}

// TestChaosQuickSweepStable pins the quick chaos sweep the CI smoke runs:
// both swept networks hold every verdict through the fault injection.
func TestChaosQuickSweepStable(t *testing.T) {
	rep := RunChaos(true)
	if len(rep.Rows) != 2 {
		t.Fatalf("quick sweep rows = %d, want 2", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if len(row.Baseline) == 0 {
			t.Fatalf("%s: empty baseline", row.Network)
		}
		if row.FlipThreshold != 0 {
			t.Errorf("%s: verdicts flipped at r=%.2f", row.Network, row.FlipThreshold)
		}
		for _, c := range row.Cells {
			if !c.Differentiated || !c.KindsMatch {
				t.Errorf("%s r=%.2f: detection degraded (diff=%v kinds=%v)",
					row.Network, c.MissRate, c.Differentiated, c.KindsMatch)
			}
			if c.DetectTrials == 0 {
				t.Errorf("%s r=%.2f: robust detection did not engage", row.Network, c.MissRate)
			}
			if row.Network == "gfc" && c.MinConfidence < 0.9 {
				t.Errorf("gfc r=%.2f: min confidence %v < 0.9", c.MissRate, c.MinConfidence)
			}
		}
	}
	if rep.Render() == "" {
		t.Fatal("empty render")
	}
	fmt.Println(rep.Render())
}

// countingNop is a disabled recorder that counts the calls it receives.
type countingNop struct{ calls *int64 }

func (c countingNop) Enabled() bool          { return false }
func (c countingNop) Record(obs.Event)       { *c.calls++ }
func (c countingNop) Add(obs.Counter, int64) { *c.calls++ }

// TestOverheadCounts is the deterministic side of `benchtab -exp
// overhead`: its clean-network workload counted instead of timed. Robust
// gating retries nothing on a clean network, so it must make the same
// replays as a plain session and no more heap allocations; a disabled
// recorder must add no allocations and never be called, because every
// call site checks Enabled first. Each mode runs once to warm the
// process-wide pools, then again with the collector off and one P, so
// no collection empties a pool and no move to another P's pool cache
// misses it, either of which would move the counts. Each mode keeps its
// fewest allocations over three rounds: a rare stray runtime allocation
// adds one to a single run, while an allocation the mode makes shows in
// every round. Under the race
// detector sync.Pool drops items at random, so there only the replay and
// call counts are checked.
func TestOverheadCounts(t *testing.T) {
	const rounds = 200
	var calls int64
	modes := []func() cleanRun{
		func() cleanRun { return cleanReplays(rounds, false, nil) },
		func() cleanRun { return cleanReplays(rounds, true, nil) },
		func() cleanRun { return cleanReplays(rounds, false, countingNop{&calls}) },
	}
	for _, run := range modes {
		run()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	calls = 0
	var runs [3]cleanRun
	for rep := 0; rep < 3; rep++ {
		for i, run := range modes {
			r := run()
			if r.replays != rounds {
				t.Errorf("mode %d made %d replays, want %d", i, r.replays, rounds)
			}
			if rep == 0 || r.allocs < runs[i].allocs {
				runs[i] = r
			}
		}
	}
	plain, robust, nop := runs[0], runs[1], runs[2]
	t.Logf("allocs %d/%d/%d (plain/robust/disabled recorder), recorder calls %d",
		plain.allocs, robust.allocs, nop.allocs, calls)
	if calls != 0 {
		t.Errorf("the disabled recorder was called %d times", calls)
	}
	if !raceEnabled && robust.allocs > plain.allocs {
		t.Errorf("robust gating allocates %d times in %d replays, plain %d", robust.allocs, rounds, plain.allocs)
	}
	if !raceEnabled && nop.allocs > plain.allocs {
		t.Errorf("a disabled recorder allocates %d times in %d replays, none %d", nop.allocs, rounds, plain.allocs)
	}
}
