package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/dpi"
	"repro/internal/obs"
)

// scenarioWorlds is the gate's scenario pack: a bare clean control arm
// plus a deliberately nasty world composing everything the scenario
// schema can express — a classifier-fault overlay, direction-asymmetric
// bursty loss, phase-scheduled jittered delay, deterministic nth-packet
// loss, and token-bucket throttling.
func scenarioWorlds() []dpi.ScenarioSpec {
	return []dpi.ScenarioSpec{
		{Name: "clean"},
		{
			Name:   "midnight-squall",
			Faults: &dpi.FaultsSpec{MissRate: 0.05, RSTDropRate: 0.10},
			Phases: []dpi.ScenarioPhase{
				{StartS: 0, Egress: []dpi.ImpairmentSpec{
					{Kind: "ge", Rate: 0.05, Rate2: 0.4, Rate3: 0.8, Seed: 7}}},
				{StartS: 2,
					Ingress: []dpi.ImpairmentSpec{{Kind: "delay", DelayMs: 3, JitterMs: 1, Seed: 9}},
					Impair:  []dpi.ImpairmentSpec{{Kind: "nth", Every: 29, Offset: 3}}},
				{StartS: 5, Impair: []dpi.ImpairmentSpec{{Kind: "rate", KBps: 512}}},
			},
		},
	}
}

// scenarioGateSpec is the swept matrix: quick mode shrinks it to one
// network × one trace for CI.
func scenarioGateSpec(quick bool) campaign.Spec {
	spec := campaign.Spec{
		Name:      "scenario-gate",
		Networks:  []string{"testbed", "sprint"},
		Traces:    []string{"amazon", "youtube"},
		Hours:     []int{0},
		Bodies:    []int{8 << 10},
		Seeds:     []int64{1, 2},
		Scenarios: scenarioWorlds(),
	}
	if quick {
		spec.Networks = []string{"testbed"}
		spec.Traces = []string{"amazon"}
		spec.Seeds = []int64{1}
	}
	return spec
}

// ScenarioDeterminism is the scenario-sweep half of the gate: the same
// scenario-armed spec must reproduce byte-identically, its clean control
// arm must match an unarmed run row-for-row, and the impaired world must
// actually perturb outcomes (a scenario that changes nothing is a wiring
// bug, not a world).
type ScenarioDeterminism struct {
	Scenarios   []string
	Engagements int

	RerunIdentical       bool
	CleanMatchesBaseline bool
	ScenarioPerturbs     bool
}

// Pass reports whether every determinism check held.
func (d *ScenarioDeterminism) Pass() bool {
	return d.RerunIdentical && d.CleanMatchesBaseline && d.ScenarioPerturbs
}

// ChaosArm is one cluster run under injected faults. The contract is a
// dichotomy: a recovery-armed fleet must aggregate byte-identically to
// the clean single-process run, and a fleet with recovery disabled must
// degrade to explicitly-tagged failure rows — with every engagement
// accounted for either way, never silently lost.
type ChaosArm struct {
	Name    string
	Workers int
	// Degraded is the arm's expectation: false = recover to byte-identical,
	// true = surface honest failure rows.
	Degraded bool

	Engagements int
	Succeeded   int
	Failed      int

	// Control-plane accounting from the coordinator's recorder.
	Requeues     int64
	FrameFaults  int64
	WorkerDeaths int64

	// Identical: summary JSON byte-equal to the clean reference.
	Identical bool
	// AllAccounted: the expanded matrix size survived into the summary and
	// succeeded+failed covers it exactly.
	AllAccounted bool
	// FailuresTagged: every failure row names shard abandonment.
	FailuresTagged bool
	// OKRowsMatch: every successful row byte-equals its clean-reference row.
	OKRowsMatch bool

	Err string
}

// Pass evaluates the arm against its side of the dichotomy.
func (a *ChaosArm) Pass() bool {
	if a.Err != "" || !a.AllAccounted {
		return false
	}
	if a.Degraded {
		return a.Failed > 0 && a.Succeeded > 0 && a.FailuresTagged && a.OKRowsMatch
	}
	return a.Failed == 0 && a.Identical
}

// ScenariosReport is the scenario-pack + cluster-chaos robustness gate.
type ScenariosReport struct {
	Quick       bool
	Determinism ScenarioDeterminism
	Arms        []ChaosArm
}

// Pass reports whether the whole gate held.
func (r *ScenariosReport) Pass() bool {
	if !r.Determinism.Pass() {
		return false
	}
	for i := range r.Arms {
		if !r.Arms[i].Pass() {
			return false
		}
	}
	return len(r.Arms) > 0
}

// chaosPipeWorkers runs real in-memory workers over net.Pipe, closing
// the worker end when ServeWorker returns so an injected crash surfaces
// to the coordinator as a broken stream immediately instead of waiting
// out the heartbeat timeout.
func chaosPipeWorkers(opts cluster.WorkerOptions) func(id int) (io.ReadWriteCloser, error) {
	return func(id int) (io.ReadWriteCloser, error) {
		c1, c2 := net.Pipe()
		go func() {
			cluster.ServeWorker(context.Background(), c2, c2, opts)
			c2.Close()
		}()
		return c1, nil
	}
}

// engagementKey reconstructs a row's canonical key.
func engagementKey(r campaign.Row) string {
	return campaign.Engagement{Network: r.Network, Trace: r.Trace, Hour: r.Hour,
		Body: r.Body, Seed: r.Seed, Scenario: r.Scenario}.Key()
}

// rowJSON renders a row for comparison; strip drops the scenario name so
// a clean-world row can be compared against its unarmed sibling.
func rowJSON(r campaign.Row, strip bool) string {
	if strip {
		r.Scenario = ""
	}
	b, _ := json.Marshal(r)
	return string(b)
}

// RunScenarios executes the robustness gate. Quick mode (CI) shrinks the
// swept matrix and the chaos fleet sizes.
func RunScenarios(quick bool) *ScenariosReport {
	rep := &ScenariosReport{Quick: quick}
	spec := scenarioGateSpec(quick)

	// Front 1: the scenario sweep is deterministic and honest.
	sum, ref := runSpec(spec, 4)
	_, rerun := runSpec(spec, 4)
	det := &rep.Determinism
	for _, sc := range spec.Scenarios {
		det.Scenarios = append(det.Scenarios, sc.Name)
	}
	det.Engagements = sum.Engagements
	det.RerunIdentical = bytes.Equal(ref, rerun)

	base := spec
	base.Scenarios = nil
	baseSum, _ := runSpec(base, 4)

	scRows := make(map[string]campaign.Row, len(sum.Rows))
	for _, r := range sum.Rows {
		scRows[engagementKey(r)] = r
	}
	det.CleanMatchesBaseline = true
	for _, b := range baseSum.Rows {
		clean, ok := scRows[engagementKey(b)+"/sc=clean"]
		if !ok || rowJSON(clean, true) != rowJSON(b, false) {
			det.CleanMatchesBaseline = false
			break
		}
		// The impaired world must move something relative to the clean arm
		// for at least one cell (robust-mode trials, rounds, or verdicts).
		if squall, ok := scRows[engagementKey(b)+"/sc=midnight-squall"]; ok &&
			rowJSON(squall, true) != rowJSON(b, false) {
			det.ScenarioPerturbs = true
		}
	}

	// Front 2: cluster chaos dichotomy over the same scenario-armed spec.
	recoverWorkers := []int{1, 4, 16}
	shardSize := 2
	if quick {
		recoverWorkers = []int{2}
		shardSize = 1
	}
	for _, w := range recoverWorkers {
		rep.Arms = append(rep.Arms, runChaosArm(chaosArmConfig{
			name: fmt.Sprintf("recover-w%d", w), spec: spec, workers: w,
			shardSize: shardSize, ref: ref, refSum: sum,
		}))
	}
	rep.Arms = append(rep.Arms, runChaosArm(chaosArmConfig{
		name: "degrade-w1", spec: spec, workers: 1,
		shardSize: shardSize, ref: ref, refSum: sum, degraded: true,
	}))
	return rep
}

type chaosArmConfig struct {
	name      string
	spec      campaign.Spec
	workers   int
	shardSize int
	ref       []byte
	refSum    *campaign.Summary
	degraded  bool
}

// runChaosArm runs one fleet under injected faults and scores it against
// its side of the dichotomy.
func runChaosArm(cfg chaosArmConfig) ChaosArm {
	arm := ChaosArm{Name: cfg.name, Workers: cfg.workers, Degraded: cfg.degraded}
	rec := obs.NewBuffer()
	c := &cluster.Coordinator{
		Spec:             cfg.spec,
		Workers:          cfg.workers,
		ShardSize:        cfg.shardSize,
		HeartbeatTimeout: 500 * time.Millisecond,
		Recorder:         rec,
	}
	if cfg.degraded {
		// Recovery off: the first worker death abandons its shard. The
		// worker crashes before every second result, so successes and
		// honest failures interleave deterministically.
		c.Spawn = chaosPipeWorkers(cluster.WorkerOptions{
			HeartbeatEvery: 50 * time.Millisecond, CrashAfter: 2})
		c.ShardRetries = -1
		c.WorkerRestarts = 64
		c.RequeueBackoff = -1
	} else {
		// Recovery on: frame-level transport chaos, generous retry and
		// respawn budgets, tight backoff so the gate stays fast.
		c.Spawn = chaosPipeWorkers(cluster.WorkerOptions{
			HeartbeatEvery: 50 * time.Millisecond})
		c.ShardRetries = 16
		c.WorkerRestarts = 64
		c.HandshakeTimeout = time.Second // a dropped hello must not stall 30s
		c.ShardTimeout = 5 * time.Second
		c.RequeueBackoff = time.Millisecond
		c.Chaos = &cluster.FrameChaos{
			Seed:      7,
			DropRate:  0.04,
			DelayRate: 0.04, Delay: 25 * time.Millisecond,
			TruncRate: 0.02,
			DupRate:   0.04,
		}
	}
	sum, err := c.Run(context.Background())
	arm.Requeues = rec.Counter(obs.CtrShardRequeues)
	arm.FrameFaults = rec.Counter(obs.CtrChaosFrameFaults)
	arm.WorkerDeaths = rec.Counter(obs.CtrWorkerDeaths)
	if err != nil {
		arm.Err = err.Error()
		return arm
	}
	arm.Engagements = sum.Engagements
	arm.Succeeded = sum.Succeeded
	arm.Failed = sum.Failed
	arm.AllAccounted = sum.Engagements == cfg.refSum.Engagements &&
		sum.Succeeded+sum.Failed == sum.Engagements

	got, err := sum.JSON()
	if err != nil {
		arm.Err = err.Error()
		return arm
	}
	arm.Identical = bytes.Equal(got, cfg.ref)

	arm.FailuresTagged = len(sum.Failures) == sum.Failed
	for _, f := range sum.Failures {
		if !strings.Contains(f.Err, "abandoned") {
			arm.FailuresTagged = false
		}
	}
	refRows := make(map[string]campaign.Row, len(cfg.refSum.Rows))
	for _, r := range cfg.refSum.Rows {
		refRows[engagementKey(r)] = r
	}
	arm.OKRowsMatch = true
	for _, r := range sum.Rows {
		if r.Status != campaign.StatusOK {
			continue
		}
		want, ok := refRows[engagementKey(r)]
		if !ok || rowJSON(r, false) != rowJSON(want, false) {
			arm.OKRowsMatch = false
			break
		}
	}
	return arm
}

// Render prints the gate outcome.
func (r *ScenariosReport) Render() string {
	var b strings.Builder
	mode := "full"
	if r.Quick {
		mode = "quick"
	}
	d := &r.Determinism
	fmt.Fprintf(&b, "scenario gate (%s): pack sweep determinism + cluster chaos dichotomy\n", mode)
	fmt.Fprintf(&b, "  worlds: %s — %d engagements\n", strings.Join(d.Scenarios, ", "), d.Engagements)
	fmt.Fprintf(&b, "  rerun byte-identical:      %v\n", d.RerunIdentical)
	fmt.Fprintf(&b, "  clean arm == unarmed run:  %v\n", d.CleanMatchesBaseline)
	fmt.Fprintf(&b, "  impaired arm perturbs:     %v\n", d.ScenarioPerturbs)
	fmt.Fprintf(&b, "  %-12s %3s %-8s %4s %4s %8s %7s %7s  %s\n",
		"arm", "w", "mode", "ok", "fail", "requeues", "frames", "deaths", "verdict")
	for i := range r.Arms {
		a := &r.Arms[i]
		mode := "recover"
		if a.Degraded {
			mode = "degrade"
		}
		verdict := "PASS"
		if !a.Pass() {
			verdict = "FAIL"
			switch {
			case a.Err != "":
				verdict += " (" + a.Err + ")"
			case !a.AllAccounted:
				verdict += " (engagements lost)"
			case a.Degraded && !a.FailuresTagged:
				verdict += " (untagged failures)"
			case a.Degraded && !a.OKRowsMatch:
				verdict += " (ok rows diverged)"
			case !a.Degraded && !a.Identical:
				verdict += " (summary diverged)"
			}
		}
		fmt.Fprintf(&b, "  %-12s %3d %-8s %4d %4d %8d %7d %7d  %s\n",
			a.Name, a.Workers, mode, a.Succeeded, a.Failed,
			a.Requeues, a.FrameFaults, a.WorkerDeaths, verdict)
	}
	fmt.Fprintf(&b, "  gate: %v\n", r.Pass())
	return b.String()
}
