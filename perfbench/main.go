// Command perfbench is the repository's benchmark: two workloads that
// drive the public APIs of internal/campaign, internal/core and
// internal/cluster, check every output, and print one JSON result line.
//
//	perfbench --workload sweep-cold|serve-mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"
)

// setupReps is how many times an untraced run sets its workload up; the
// reported setup_s is the median, and the last set-up is the one measured.
const setupReps = 5

// workload is one set-up instance of a benchmark workload.
type workload interface {
	// measure runs the timed loop for d, recording spans into tr when it is
	// non-nil, and returns what it measured.
	measure(d time.Duration, tr *tracer) segment
	// layerProbes times the layers the workload's own loop does not reach
	// (see README.md), after the traced segments. It adds to m.
	layerProbes(m metrics) error
	close()
}

// segment is the outcome of one timed loop.
type segment struct {
	attempted, failed int
	// mismatches counts ops whose output failed a correctness check; each
	// is also counted in failed.
	mismatches int
	// latency holds the samples behind latency_ms_p50/_tail.
	latency []sample
	// coldPairs holds the cold answers behind cold_ms_p50 by network × trace
	// pair (see coldMs). It is nil on workloads that cache nothing, where
	// every op is a cold answer.
	coldPairs map[string][]time.Duration
	tailQ     float64
	// work holds the samples behind ops_per_s.
	work []work
	// span is the segment's length; samples fall into blocks of span/blocks.
	span time.Duration
}

// blocks is how many consecutive time blocks a segment is cut into. Each
// end-to-end metric is computed per block and the best block is reported
// (lowest latency, highest throughput). Load from outside the process —
// other tenants on a shared machine — only ever slows a block down, so the
// best block is the steadiest estimate of the program's own speed. Five
// blocks keep at least ten samples beyond each block's tail percentile.
const blocks = 5

// sample is one op's latency and when it finished, from the segment start.
type sample struct{ at, d time.Duration }

// work is n ops that finished at at and kept the workload busy for busy.
// An open loop records busy 0, and its blocks divide by their length.
type work struct {
	at, busy time.Duration
	n        int
}

func (s segment) block(at time.Duration) int {
	return min(int(int64(at)*blocks/max(int64(s.span), 1)), blocks-1)
}

// perBlock returns the q-quantile of each non-empty block's samples.
func (s segment) perBlock(ss []sample, q float64) []float64 {
	var bs [blocks][]time.Duration
	for _, x := range ss {
		b := s.block(x.at)
		bs[b] = append(bs[b], x.d)
	}
	var out []float64
	for _, b := range bs {
		if len(b) > 0 {
			out = append(out, ms(percentile(b, q)))
		}
	}
	return out
}

// throughput returns each non-empty block's ops per second of busy time.
func (s segment) throughput() []float64 {
	var n [blocks]int
	var busy [blocks]time.Duration
	for _, w := range s.work {
		b := s.block(w.at)
		n[b] += w.n
		busy[b] += w.busy
	}
	var out []float64
	for b := range n {
		if busy[b] == 0 {
			busy[b] = s.span / blocks
		}
		if n[b] > 0 {
			out = append(out, float64(n[b])/busy[b].Seconds())
		}
	}
	return out
}

func (s segment) p50() float64 { return best(s.perBlock(s.latency, 0.5), slices.Min[[]float64]) }

// best picks a block value with pick; 0 when no block has samples, as
// when every op failed.
func best(xs []float64, pick func([]float64) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return pick(xs)
}

type setupFunc func(seed int64) (workload, error)

var workloads = map[string]setupFunc{
	"sweep-cold":  setupSweep,
	"serve-mixed": setupServe,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "sweep-cold or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed: execution order, key sequence, arrival schedule")
	seconds := flag.Int("seconds", 30, "timed seconds per run")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload sweep-cold|serve-mixed --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fatal(err)
	}
	d := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *traced == 0 {
		res, err = runPlain(setup, *seed, d)
	} else {
		res, err = runTraced(setup, *name, *seed, d)
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runPlain is the untraced run: set up setupReps times, measure the last
// set-up for d, and report the end-to-end metrics.
func runPlain(setup setupFunc, seed int64, d time.Duration) (result, error) {
	var w workload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		var err error
		if w, err = setup(seed); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()
	seg := w.measure(d, nil)
	m := metrics{}
	seg.report(m)
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	m.set("setup_s", median(setups), "s")
	logf("setup_s samples %v", setups)
	return seg.result(m), nil
}

// tracePairs is how many untraced/traced segment pairs a traced run
// alternates, so drift in the machine's speed hits both sides alike.
const tracePairs = 2

// runTraced is the traced run: one set-up, then untraced and traced
// segments of d/(2·tracePairs) in turn (the ratio of their latencies is
// obs.trace_overhead), then the layer probes. Spans go to scratchDir when
// the run ends.
func runTraced(setup setupFunc, name string, seed int64, d time.Duration) (result, error) {
	w, err := setup(seed)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	tr := newTracer()
	res := result{Correct: true, Metrics: metrics{}}
	var rt runtimeSnap
	var plainP50, tracedP50 float64
	plainOps := 0
	for i := 0; i < tracePairs; i++ {
		before := readRuntime()
		plain := w.measure(d/(2*tracePairs), nil)
		rt = rt.add(readRuntime().sub(before))
		traced := w.measure(d/(2*tracePairs), tr)
		plainOps += plain.attempted
		plainP50 += plain.p50()
		tracedP50 += traced.p50()
		for _, s := range []segment{plain, traced} {
			res.Attempted += s.attempted
			res.Failed += s.failed
			res.Correct = res.Correct && s.mismatches == 0
		}
	}
	m := res.Metrics
	rt.report(m, plainOps)
	m.set("obs.trace_overhead", tracedP50/plainP50, "ratio")
	if err := tr.report(m); err != nil {
		return result{}, err
	}
	if err := w.layerProbes(m); err != nil {
		return result{}, err
	}
	path, err := tr.write(name, seed)
	if err != nil {
		return result{}, err
	}
	logf("%d spans written to %s", tr.len(), path)
	return res, nil
}

// report adds the segment's end-to-end metrics to m.
func (s segment) report(m metrics) {
	ops, p50, tail := s.throughput(), s.perBlock(s.latency, 0.5), s.perBlock(s.latency, s.tailQ)
	m.set("ops_per_s", best(ops, slices.Max[[]float64]), "1/s")
	m.set("latency_ms_p50", best(p50, slices.Min[[]float64]), "ms")
	m.set("latency_ms_tail", best(tail, slices.Min[[]float64]), "ms")
	m.set("cold_ms_p50", s.coldMs(), "ms")
	perBlock := len(s.latency) / blocks
	logf("samples: %d latency in %d blocks (tail = p%g, %d beyond it per block), %d cold",
		len(s.latency), blocks, 100*s.tailQ, int(float64(perBlock)*(1-s.tailQ)), s.coldCount())
	logf("per block: ops_per_s %.4g, p50 %.4g, tail %.4g", ops, p50, tail)
}

// coldMs is cold_ms_p50. Without coldPairs it is latency_ms_p50. With
// coldPairs it is the mean of each pair's median over the whole segment:
// the pairs' costs differ by up to tenfold, so a block of two dozen cold
// answers has a median that depends on which pairs fell into it, while
// every segment asks each pair equally often.
func (s segment) coldMs() float64 {
	if s.coldPairs == nil {
		return s.p50()
	}
	var sum float64
	var per []string
	for _, pair := range sortedKeys(s.coldPairs) {
		d := percentile(s.coldPairs[pair], 0.5)
		sum += ms(d)
		per = append(per, fmt.Sprintf("%s %.4g", pair, ms(d)))
	}
	logf("cold p50 per pair: %v", per)
	if len(per) == 0 {
		return 0
	}
	return sum / float64(len(per))
}

func (s segment) coldCount() int {
	if s.coldPairs == nil {
		return len(s.latency)
	}
	n := 0
	for _, ds := range s.coldPairs {
		n += len(ds)
	}
	return n
}

func (s segment) result(m metrics) result {
	return result{Correct: s.mismatches == 0, Attempted: s.attempted, Failed: s.failed, Metrics: m}
}

// logf writes a diagnostic line to stderr; stdout carries only the result.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// sortedKeys returns m's keys in order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
