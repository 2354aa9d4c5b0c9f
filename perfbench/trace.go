package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/netem/stack"
	"repro/internal/obs"
	"repro/internal/registry"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one op share Op; Parent is the
// span that caused this one (0 for an op's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// engRecord is one traced engagement: its cell, its report, and the time
// each core phase took.
type engRecord struct {
	cell                          campaign.Engagement
	rep                           *core.Report
	wall, detect, character, eval time.Duration
}

// tracer keeps spans and engagement records in memory; write flushes the
// spans to a file when the run ends. A nil *tracer records nothing.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []span
	engs  []engRecord
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.t0)) }

// newID allocates a span or op identifier (0 when t is nil).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t     *tracer
	s     span
	start time.Time
}

// begin starts a span now.
func (t *tracer) begin(op, parent int64, name string) openSpan {
	now := time.Now()
	if t == nil {
		return openSpan{start: now}
	}
	return openSpan{t: t, start: now, s: span{ID: t.newID(), Parent: parent, Op: op, Name: name, Start: t.at(now)}}
}

func (o openSpan) id() int64 { return o.s.ID }

// end records the span and returns its duration.
func (o openSpan) end() time.Duration {
	now := time.Now()
	if o.t != nil {
		o.s.End = o.t.at(now)
		o.t.add(o.s)
	}
	return now.Sub(o.start)
}

type spanKey struct{}

type spanRef struct{ op, parent int64 }

// withSpan carries the op and parent span into an EngageFunc.
func withSpan(ctx context.Context, op, parent int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{op, parent})
}

func spanFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

// engage is campaign.DefaultEngage with the core phases called one by one
// through core.Detect, core.Characterize and core.Evaluate, each inside a
// span. It assembles the report exactly as core.Liberate.Run does, which
// every workload's correctness check confirms.
func (t *tracer) engage(ctx context.Context, e campaign.Engagement, osp *stack.OSProfile) (*core.Report, error) {
	ref := spanFrom(ctx)
	root := t.begin(ref.op, ref.parent, "core.engage")
	net, err := registry.NewNetwork(e.Network)
	if err != nil {
		return nil, err
	}
	tr, err := registry.NewTrace(e.Trace, e.Body)
	if err != nil {
		return nil, err
	}
	if e.Hour > 0 {
		net.Clock.RunFor(time.Duration(e.Hour) * time.Hour)
	}
	s := core.NewSession(net)
	s.ServerOS = osp
	s.EvalWorkers = e.EvalWorkers
	rep := &core.Report{Network: net.Name, TraceName: tr.Name,
		Characterization: &core.Characterization{}, Evaluation: &core.Evaluation{}}
	rec := engRecord{cell: e, rep: rep}

	ph := t.begin(ref.op, root.id(), "core.detect")
	rep.Detection = core.Detect(s, tr)
	rec.detect = ph.end()
	if rep.Detection.Differentiated {
		ph = t.begin(ref.op, root.id(), "core.characterize")
		rep.Characterization = core.Characterize(s, tr, rep.Detection)
		rec.character = ph.end()
		ph = t.begin(ref.op, root.id(), "core.evaluate")
		rep.Evaluation = core.Evaluate(s, tr, rep.Detection, rep.Characterization)
		rec.eval = ph.end()
		rep.Deployed = rep.Evaluation.Best()
	}
	rep.TotalRounds, rep.TotalBytes, rep.TotalTime = s.Rounds, s.BytesUsed, s.Elapsed()
	net.Release()
	if rep.Deployed != nil && rep.DeployTransform(e.Seed) == nil {
		return nil, fmt.Errorf("%s: deployed technique %s built a nil transform", e.Key(), rep.Deployed.Technique.ID)
	}
	rec.wall = root.end()
	t.mu.Lock()
	t.engs = append(t.engs, rec)
	t.mu.Unlock()
	return rep, nil
}

// report adds the core, obs-counter and self-time metrics of everything
// traced so far to m.
func (t *tracer) report(m metrics) error {
	t.mu.Lock()
	engs := append([]engRecord(nil), t.engs...)
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	if len(engs) == 0 {
		return fmt.Errorf("traced segment ran no engagement")
	}
	n := float64(len(engs))
	var walls []time.Duration
	var detect, character, eval time.Duration
	var dR, cR, eR, working, evaluated int
	var bytes int64
	for _, r := range engs {
		walls = append(walls, r.wall)
		detect += r.detect
		character += r.character
		eval += r.eval
		dR += r.rep.Detection.Rounds
		cR += r.rep.Characterization.Rounds
		eR += r.rep.Evaluation.Rounds
		bytes += r.rep.TotalBytes
		working += len(r.rep.Evaluation.Working())
		evaluated += len(r.rep.Evaluation.Verdicts) - r.rep.Evaluation.SkippedByPruning
	}
	m.set("core.engage_ms_p50", ms(percentile(walls, 0.5)), "ms")
	m.set("core.detect_ms", ms(detect)/n, "ms")
	m.set("core.characterize_ms", ms(character)/n, "ms")
	m.set("core.evaluate_ms", ms(eval)/n, "ms")
	m.set("core.detect_rounds", float64(dR)/n, "count")
	m.set("core.characterize_rounds", float64(cR)/n, "count")
	m.set("core.evaluate_rounds", float64(eR)/n, "count")
	m.set("core.replay_mb", float64(bytes)/1e6/n, "MB")
	m.set("core.evaluate_working_ratio", float64(working)/float64(max(evaluated, 1)), "ratio")
	if err := counterMetrics(engs, m); err != nil {
		return err
	}
	selfShares(spans, m)
	return nil
}

// counterMetrics reports the obs counters per engagement. The simulation
// counters are pure functions of the engagement's cell, so each distinct
// cell is re-run once with an obs.Buffer recorder after the segment, and
// its counts are weighted by how often the segment ran it. The timed
// engagements themselves run unrecorded.
func counterMetrics(engs []engRecord, m metrics) error {
	type cellKey struct {
		network, trace string
		hour, body     int
	}
	weight := map[cellKey]int{}
	cells := map[cellKey]engRecord{}
	for _, r := range engs {
		k := cellKey{r.cell.Network, r.cell.Trace, r.cell.Hour, r.cell.Body}
		weight[k]++
		cells[k] = r
	}
	var sum [obs.NumCounters]float64
	for k, r := range cells {
		buf := obs.NewFlightRecorder(64)
		rep, err := campaign.DefaultEngage(campaign.WithRecorder(context.Background(), buf), r.cell, &stack.Linux)
		if err != nil {
			return fmt.Errorf("recorded re-run of %s: %w", r.cell.Key(), err)
		}
		if rep.TotalRounds != r.rep.TotalRounds || rep.TotalBytes != r.rep.TotalBytes {
			return fmt.Errorf("recorded re-run of %s diverged from the traced engagement", r.cell.Key())
		}
		for c := obs.Counter(0); c < obs.NumCounters; c++ {
			sum[c] += float64(weight[k]) * float64(buf.Counter(c))
		}
	}
	n := float64(len(engs))
	per := func(c obs.Counter) float64 { return sum[c] / n }
	m.set("netem.deliveries", per(obs.CtrDeliveries), "count")
	m.set("netem.link_drops", per(obs.CtrLinkDrops), "count")
	m.set("vclock.fired", per(obs.CtrVClockFired), "count")
	m.set("vclock.fastpath_ratio", sum[obs.CtrVClockFastPath]/max(sum[obs.CtrVClockFired], 1), "ratio")
	m.set("vclock.cascades", per(obs.CtrVClockCascades), "count")
	m.set("dpi.rule_matches", per(obs.CtrRuleMatches), "count")
	m.set("dpi.classifications", per(obs.CtrClassifications), "count")
	m.set("dpi.flow_evictions", per(obs.CtrFlowEvictions), "count")
	return nil
}

// selfLayers are the span groups whose self time is reported, keyed by
// span-name prefix.
var selfLayers = []string{"bench", "campaign", "cluster", "core", "core.detect", "core.characterize", "core.evaluate"}

// selfShares reports each layer's self time — its spans' durations minus
// the part their children cover — as a share of all op root time.
func selfShares(spans []span, m metrics) {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	var total int64
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.End - s.Start
		}
		self[layerOf(s.Name)] += s.End - s.Start - covered(s, children[s.ID])
	}
	for _, l := range selfLayers {
		m.set("self."+l, float64(self[l])/float64(max(total, 1)), "share")
	}
	var lines []string
	for _, l := range sortedKeys(self) {
		lines = append(lines, fmt.Sprintf("%s=%.1fms", l, float64(self[l])/1e6))
	}
	logf("self time: %s (op roots %.1fms)", strings.Join(lines, " "), float64(total)/1e6)
}

// layerOf maps a span name to its reported layer: core phases keep their
// phase, everything else reports under its first dotted component.
func layerOf(name string) string {
	for _, l := range []string{"core.detect", "core.characterize", "core.evaluate"} {
		if name == l {
			return l
		}
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				sum += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		sum += curE - curS
	}
	return sum
}

// write flushes the spans as JSON lines into scratchDir.
func (t *tracer) write(workload string, seed int64) (string, error) {
	path := filepath.Join(scratchDir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
