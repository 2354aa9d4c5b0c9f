// Command benchtab regenerates the paper's evaluation artifacts from the
// simulator:
//
//	benchtab -table 1          # Table 1: method comparison + measured overhead class
//	benchtab -table 2          # Table 2: per-technique-group overhead
//	benchtab -table 3          # Table 3: the full CC?/RS?/OS grid
//	benchtab -figure 4         # Figure 4: GFC flush intervals by time of day
//	benchtab -exp efficiency   # §6.x classifier-analysis costs
//	benchtab -exp tmobile      # §6.2 throughput with/without lib·erate
//	benchtab -exp persistence  # §6.1 classification persistence (120 s / 10 s)
//	benchtab -exp sprint       # §6.4 null result
//	benchtab -exp ablation     # DESIGN.md ablations
//	benchtab -exp campaign     # campaign worker-pool scaling + determinism check
//	benchtab -exp chaos        # fault-injection sweep: verdict stability under middlebox faults
//	benchtab -exp chaos -quick # ... CI smoke: two networks at one fault rate
//	benchtab -exp scenarios    # scenario-pack sweep determinism + cluster chaos dichotomy gate (exit 1 on failure)
//	benchtab -exp overhead     # clean-network overhead guards: robust mode ≤5%, recorder armed ≤15% (exit 1 above budget)
//	benchtab -exp allocs       # allocation guards: engagement allocs/op budget + zero-alloc scheduler steady state (exit 1 above)
//	benchtab -exp trace        # trace schema gate: one traced engagement validated against liberate-trace/v1
//	benchtab -exp fingerprint  # ambiguity fingerprint: per-profile identification + pruned vs full cold sweep (exit 1 on misidentification or nondeterminism)
//	benchtab -table 3 -cpuprofile cpu.pprof       # any selection, under the CPU profiler
//	benchtab -all              # everything, in order
//
// Performance is measured by perfbench/ (bash perfbench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run())
}

// run holds main's body so deferred profile writers execute before the
// process exits — os.Exit directly in main would skip them.
func run() int {
	var (
		table  = flag.Int("table", 0, "regenerate Table N (1, 2, or 3)")
		figure = flag.Int("figure", 0, "regenerate Figure N (4)")
		exp    = flag.String("exp", "", "in-text experiment: efficiency|tmobile|persistence|sprint|ablation|extensions|armsrace|campaign|chaos|scenarios|overhead|allocs|trace|fingerprint")
		quick  = flag.Bool("quick", false, "with -exp chaos or -exp scenarios: restrict the sweep for CI")
		days   = flag.Int("days", 1, "days to sweep for Figure 4 (paper used 2)")
		trials = flag.Int("trials", 6, "trials per hour for Figure 4 (paper used 6)")
		body   = flag.Int("mb", 10, "video size in MB for the T-Mobile throughput experiment")
		csv    = flag.Bool("csv", false, "emit Figure 4 as CSV for plotting")
		all    = flag.Bool("all", false, "run everything")
		cpuOut = flag.String("cpuprofile", "", "write a CPU profile of the selected workload to this path (go tool pprof)")
		memOut = flag.String("memprofile", "", "write a heap profile taken after the selected workload to this path")
	)
	flag.Parse()

	if *cpuOut != "" {
		f, err := os.Create(*cpuOut)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memOut != "" {
		// The heap snapshot is written on the way out, after the workload;
		// GC first so it shows live retention, not transient garbage.
		defer func() {
			f, err := os.Create(*memOut)
			if err != nil {
				fatal(err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	ran := false
	if *all || *table == 1 {
		fmt.Println("== Table 1: comparison between lib·erate and other classifier evasion methods ==")
		fmt.Println(experiments.RunTable1().Render())
		ran = true
	}
	if *all || *table == 2 {
		fmt.Println("== Table 2: high-level evasion techniques and overhead ==")
		fmt.Println(experiments.RunTable2().Render())
		ran = true
	}
	if *all || *table == 3 {
		fmt.Println("== Table 3: effectiveness of lib·erate's evasion techniques ==")
		fmt.Println(experiments.RunTable3().Render())
		ran = true
	}
	if *all || *figure == 4 {
		fmt.Println("== Figure 4: successful evasion intervals vary during the day (GFC) ==")
		fig := experiments.RunFigure4(*days, *trials)
		if *csv {
			fmt.Print(fig.CSV())
		} else {
			fmt.Println(fig.Render())
		}
		ran = true
	}
	if *all || *exp == "efficiency" {
		fmt.Println("== §6.1–§6.6: efficiency of classifier analysis ==")
		fmt.Println(experiments.RenderEfficiency(experiments.RunEfficiency()))
		ran = true
	}
	if *all || *exp == "tmobile" {
		fmt.Println("== §6.2: Binge On throughput with and without lib·erate ==")
		fmt.Println(experiments.RunTMobileThroughput(*body << 20).Render())
		ran = true
	}
	if *all || *exp == "persistence" {
		fmt.Println("== §6.1: classification persistence on the testbed ==")
		fmt.Println(experiments.RunPersistence().Render())
		ran = true
	}
	if *all || *exp == "sprint" {
		fmt.Println("== §6.4: Sprint null result ==")
		r := experiments.RunSprint()
		fmt.Printf("differentiated=%v after %d replay rounds (paper: no evidence of DPI)\n\n", r.Differentiated, r.Rounds)
		ran = true
	}
	if *all || *exp == "ablation" {
		fmt.Println("== DESIGN.md ablations ==")
		fmt.Print(experiments.RunAblationPruning().Render())
		fmt.Print(experiments.RunAblationBlinding(40).Render())
		fmt.Print(experiments.RunAblationSplit().Render())
		fmt.Println()
		ran = true
	}
	if *all || *exp == "armsrace" {
		fmt.Println("== §7 arms race: operator countermeasures vs adaptation ==")
		fmt.Println(experiments.RunArmsRace().Render())
		ran = true
	}
	if *all || *exp == "extensions" {
		fmt.Println("== §7 extensions: bilateral, masquerading, QUIC ==")
		fmt.Print(experiments.RunBilateral().Render())
		fmt.Print(experiments.RunMasquerade().Render())
		fmt.Print(experiments.RunQUIC().Render())
		fmt.Println()
		ran = true
	}
	if *all || *exp == "campaign" {
		fmt.Println("== campaign orchestrator: worker-pool scaling over the six paper networks ==")
		fmt.Println(experiments.RunCampaignScaling().Render())
		ran = true
	}
	if *all || *exp == "chaos" {
		fmt.Println("== chaos: verdict stability under stochastic middlebox faults ==")
		fmt.Println(experiments.RunChaos(*quick).Render())
		ran = true
	}
	if *all || *exp == "scenarios" {
		fmt.Println("== scenarios: scenario-pack sweep determinism + cluster chaos dichotomy ==")
		s := experiments.RunScenarios(*quick)
		fmt.Println(s.Render())
		if !s.Pass() {
			fmt.Fprintln(os.Stderr, "benchtab: scenario gate failed — sweep nondeterminism or silent engagement loss under chaos")
			return 1
		}
		ran = true
	}
	if *all || *exp == "overhead" {
		fmt.Println("== robustness overhead guard: clean-network replay cost ==")
		// Budgets are sized to the measurement floor of a busy shared
		// single-CPU box (~±10% on a ~25 µs replay), not to the ideal
		// costs: robust gating must stay ≤5%, and the armed flight ring
		// ≤15% — the ring's GC-scanned live set costs a real ~5-10%
		// now that the scheduler work made replays ~5× faster, so the
		// armed run is a loose upper bound on the default nop path
		// rather than a tight 2% proxy. A failing measurement is retried
		// twice (fresh interleaved sample each time): external load
		// spikes rarely survive three independent medians, a structural
		// regression always does.
		var o *experiments.RobustOverhead
		ok := false
		for attempt := 0; attempt < 3 && !ok; attempt++ {
			o = experiments.MeasureRobustOverhead(0)
			fmt.Println(o.Render())
			ok = o.Within(0.05) && o.RecorderWithin(0.15)
			if !ok && attempt < 2 {
				fmt.Println("budget exceeded; re-measuring")
			}
		}
		if !o.Within(0.05) {
			fmt.Fprintf(os.Stderr, "benchtab: robust-mode overhead %.1f%% exceeds the 5%% budget\n", (o.Ratio-1)*100)
			return 1
		}
		if !o.RecorderWithin(0.15) {
			fmt.Fprintf(os.Stderr, "benchtab: recorder overhead %.1f%% exceeds the 15%% budget\n", (o.RecorderRatio-1)*100)
			return 1
		}
		ran = true
	}
	if *all || *exp == "allocs" {
		fmt.Println("== allocation guard: full-engagement allocs/op ==")
		n := experiments.MeasureEngagementAllocs()
		fmt.Printf("full-engagement: %d allocs/op (budget %d)\n", n, experiments.EngagementAllocBudget)
		if n >= experiments.EngagementAllocBudget {
			fmt.Fprintf(os.Stderr, "benchtab: full-engagement allocations %d exceed the %d budget\n", n, experiments.EngagementAllocBudget)
			return 1
		}
		s := experiments.MeasureSchedulerAllocs()
		fmt.Printf("scheduler steady state: %d allocs/op (budget 0)\n\n", s)
		if s != 0 {
			fmt.Fprintf(os.Stderr, "benchtab: scheduler schedule→fire path allocates (%d allocs/op); the wheel's steady state must be pointer-free\n", s)
			return 1
		}
		ran = true
	}
	if *all || *exp == "trace" {
		fmt.Println("== trace schema gate: one traced engagement validated against liberate-trace/v1 ==")
		c := experiments.RunTraceCheck()
		fmt.Println(c.Render())
		if c.Err != nil {
			fmt.Fprintln(os.Stderr, "benchtab: emitted trace violates the event schema")
			return 1
		}
		ran = true
	}
	if *all || *exp == "fingerprint" {
		fmt.Println("== fingerprint: ambiguity-probe identification + pruned vs full cold sweep ==")
		fb := experiments.RunFingerprintBench()
		fmt.Println(fb.Render())
		if !fb.Pass() {
			fmt.Fprintln(os.Stderr, "benchtab: fingerprint gate failed — misidentified profile or nondeterministic armed sweep")
			return 1
		}
		ran = true
	}
	if !ran {
		flag.Usage()
		return 2
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchtab:", err)
	return 1
}
