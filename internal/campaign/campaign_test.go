package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netem/stack"
	"repro/internal/registry"
)

func TestSpecExpansion(t *testing.T) {
	spec := Spec{
		Networks: []string{"tmobile", "sprint"},
		Traces:   []string{"amazon", "skype"},
		Hours:    []int{0, 2},
		Bodies:   []int{4 << 10},
		Seeds:    []int64{1, 2, 3},
	}
	engs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(engs) != 2*2*2*1*3 {
		t.Fatalf("expanded %d engagements, want 24", len(engs))
	}
	// Deterministic order: networks outermost, seeds innermost.
	if engs[0].Key() != "tmobile/amazon/h=0/b=4096/s=1" {
		t.Errorf("first engagement %s", engs[0].Key())
	}
	if engs[1].Seed != 2 || engs[3].Hour != 2 {
		t.Errorf("unexpected expansion order: %v %v", engs[1], engs[3])
	}
	for i, e := range engs {
		if e.Index != i {
			t.Fatalf("engagement %d has index %d", i, e.Index)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := (Spec{Networks: []string{"verizon"}}).Expand(); err == nil {
		t.Error("unknown network should fail expansion")
	}
	if _, err := (Spec{Traces: []string{"netflix"}}).Expand(); err == nil {
		t.Error("unknown trace should fail expansion")
	}
	if err := (Spec{ServerOS: "plan9"}).Validate(); err == nil {
		t.Error("unknown server OS should fail validation")
	}
	if err := (Spec{Retries: -1}).Validate(); err == nil {
		t.Error("negative retries should fail validation")
	}
}

// TestValidateBuildsNothing: Validate checks network and trace names by
// lookup alone. It builds no network and no trace, so it fills no
// derived-trace memo entry; building even one network or one default-body
// trace costs hundreds of allocations. Unknown names still fail, with the
// registry's own error text.
func TestValidateBuildsNothing(t *testing.T) {
	all := Spec{} // every network and every trace, at the default body
	allocs := testing.AllocsPerRun(20, func() {
		if err := all.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("Validate of the full registry made %.0f allocations; it should build nothing", allocs)
	}
	_, wantNet := registry.NewNetwork("verizon")
	if err := (Spec{Networks: []string{"tmobile", "verizon"}}).Validate(); err == nil || err.Error() != wantNet.Error() {
		t.Fatalf("unknown network: got %v, want %v", err, wantNet)
	}
	_, wantTrace := registry.NewTrace("netflix", 0)
	if err := (Spec{Traces: []string{"amazon", "netflix"}}).Validate(); err == nil || err.Error() != wantTrace.Error() {
		t.Fatalf("unknown trace: got %v, want %v", err, wantTrace)
	}
}

func TestDurationJSONRoundTrip(t *testing.T) {
	var s Spec
	if err := json.Unmarshal([]byte(`{"timeout":"90s"}`), &s); err != nil {
		t.Fatal(err)
	}
	if s.Timeout.D() != 90*time.Second {
		t.Fatalf("timeout = %s, want 90s", s.Timeout)
	}
	out, err := json.Marshal(s.Timeout)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `"1m30s"` {
		t.Fatalf("marshaled %s", out)
	}
	if err := json.Unmarshal([]byte(`{"timeout":1000000000}`), &s); err != nil {
		t.Fatal(err)
	}
	if s.Timeout.D() != time.Second {
		t.Fatalf("integer timeout = %s, want 1s", s.Timeout)
	}
}

// determinismSpec is the acceptance-criteria matrix: 48 real engagements
// over a differentiating and a non-differentiating network.
func determinismSpec() Spec {
	return Spec{
		Name:     "determinism",
		Networks: []string{"tmobile", "sprint"},
		Traces:   []string{"amazon", "spotify", "youtube", "skype"},
		Hours:    []int{0, 2},
		Bodies:   []int{6 << 10},
		Seeds:    []int64{1, 2, 3},
	}
}

// TestDeterminismAcrossWorkerCounts runs the 48-engagement matrix at
// workers=1 and workers=8 and requires byte-identical aggregate JSON and
// CSV.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("48 full engagements")
	}
	spec := determinismSpec()
	run := func(workers int) (jsonOut, csvOut []byte) {
		t.Helper()
		summary, err := (&Runner{Spec: spec, Workers: workers}).Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if summary.Engagements != 48 {
			t.Fatalf("workers=%d: ran %d engagements, want 48", workers, summary.Engagements)
		}
		if summary.Failed != 0 {
			t.Fatalf("workers=%d: %d failures: %+v", workers, summary.Failed, summary.Failures)
		}
		j, err := summary.JSON()
		if err != nil {
			t.Fatal(err)
		}
		c, err := summary.CSV()
		if err != nil {
			t.Fatal(err)
		}
		return j, c
	}
	json1, csv1 := run(1)
	json8, csv8 := run(8)
	if !bytes.Equal(json1, json8) {
		t.Errorf("aggregate JSON differs between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(json1), len(json8))
	}
	if !bytes.Equal(csv1, csv8) {
		t.Error("aggregate CSV differs between worker counts")
	}
	// The matrix must exercise both outcomes.
	var diff, clean bool
	var sum Summary
	if err := json.Unmarshal(json1, &sum); err != nil {
		t.Fatal(err)
	}
	for _, r := range sum.Rows {
		if r.Differentiated {
			diff = true
		} else {
			clean = true
		}
	}
	if !diff || !clean {
		t.Error("matrix should contain differentiated and non-differentiated engagements")
	}
}

// fakeReport builds a minimal well-formed report for hook-based tests.
func fakeReport(e Engagement) *core.Report {
	return &core.Report{
		Network:   e.Network,
		TraceName: e.Trace,
		Detection: &core.Detection{},
	}
}

func hookSpec() Spec {
	return Spec{
		Networks: []string{"tmobile"},
		Traces:   []string{"amazon", "skype"},
		Seeds:    []int64{1, 2},
	}
}

// TestPanicIsolation injects one panicking engagement and requires a
// structured failure record while the rest of the campaign completes.
func TestPanicIsolation(t *testing.T) {
	spec := hookSpec()
	r := &Runner{
		Spec:    spec,
		Workers: 4,
		Engage: func(_ context.Context, e Engagement, _ *stack.OSProfile) (*core.Report, error) {
			if e.Trace == "skype" && e.Seed == 2 {
				panic("injected crash")
			}
			return fakeReport(e), nil
		},
	}
	summary, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if summary.Engagements != 4 || summary.Succeeded != 3 || summary.Failed != 1 {
		t.Fatalf("got %d/%d/%d engagements/ok/failed, want 4/3/1",
			summary.Engagements, summary.Succeeded, summary.Failed)
	}
	if len(summary.Failures) != 1 {
		t.Fatalf("failures: %+v", summary.Failures)
	}
	f := summary.Failures[0]
	if f.Status != StatusPanic || f.Key != "tmobile/skype/h=0/b=98304/s=2" {
		t.Errorf("failure record: %+v", f)
	}
	if !strings.Contains(f.Err, "injected crash") {
		t.Errorf("failure err should carry the panic value: %q", f.Err)
	}
	if f.Attempts != 1 {
		t.Errorf("panics must not retry; attempts=%d", f.Attempts)
	}
}

// TestPanicCapturesStack checks the structured PanicError.
func TestPanicCapturesStack(t *testing.T) {
	r := &Runner{
		Spec:    Spec{Networks: []string{"sprint"}, Traces: []string{"amazon"}},
		Workers: 1,
		Engage: func(context.Context, Engagement, *stack.OSProfile) (*core.Report, error) {
			panic(errors.New("boom"))
		},
	}
	_, err := r.attempt(context.Background(), Engagement{Network: "sprint", Trace: "amazon"})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
	if pe.Value != "boom" || !strings.Contains(pe.Stack, "goroutine") {
		t.Errorf("panic error: value=%q stackLen=%d", pe.Value, len(pe.Stack))
	}
}

// TestTimeoutExpiry hangs an engagement past its budget and requires a
// timeout failure record; the timeout is retried (transient) exactly up
// to the bounded retry count.
func TestTimeoutExpiry(t *testing.T) {
	spec := hookSpec()
	spec.Timeout = Duration(30 * time.Millisecond)
	spec.Retries = 1
	r := &Runner{
		Spec:    spec,
		Workers: 2,
		Engage: func(ctx context.Context, e Engagement, _ *stack.OSProfile) (*core.Report, error) {
			if e.Trace == "skype" && e.Seed == 1 {
				<-ctx.Done() // hang until abandoned
				return nil, ctx.Err()
			}
			return fakeReport(e), nil
		},
	}
	summary, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if summary.Failed != 1 {
		t.Fatalf("failed=%d, want 1 (%+v)", summary.Failed, summary.Failures)
	}
	f := summary.Failures[0]
	if f.Status != StatusTimeout {
		t.Errorf("status=%s, want timeout", f.Status)
	}
	if f.Attempts != 2 {
		t.Errorf("timeouts are transient: attempts=%d, want 2", f.Attempts)
	}
	if summary.Retries != 1 {
		t.Errorf("summary retries=%d, want 1", summary.Retries)
	}
	if !strings.Contains(f.Err, "timed out after 30ms") {
		t.Errorf("err=%q", f.Err)
	}
}

// TestRetryAccounting: transient failures retry up to the bound and the
// attempt counts land in rows and totals; non-transient failures do not
// retry.
func TestRetryAccounting(t *testing.T) {
	spec := hookSpec()
	spec.Retries = 3
	var mu sync.Mutex
	attempts := map[string]int{}
	r := &Runner{
		Spec:    spec,
		Workers: 4,
		Engage: func(_ context.Context, e Engagement, _ *stack.OSProfile) (*core.Report, error) {
			mu.Lock()
			attempts[e.Key()]++
			n := attempts[e.Key()]
			mu.Unlock()
			switch {
			case e.Trace == "amazon" && e.Seed == 1 && n <= 2:
				return nil, MarkTransient(fmt.Errorf("flaky vantage point (attempt %d)", n))
			case e.Trace == "amazon" && e.Seed == 2:
				return nil, errors.New("hard config error") // never retried
			}
			return fakeReport(e), nil
		},
	}
	summary, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if summary.Succeeded != 3 || summary.Failed != 1 {
		t.Fatalf("ok/failed = %d/%d, want 3/1", summary.Succeeded, summary.Failed)
	}
	// Transient path: 2 failures + 1 success = 3 attempts.
	var flakyRow, hardRow *Row
	for i := range summary.Rows {
		r := &summary.Rows[i]
		if r.Trace == "amazon" && r.Seed == 1 {
			flakyRow = r
		}
		if r.Trace == "amazon" && r.Seed == 2 {
			hardRow = r
		}
	}
	if flakyRow == nil || flakyRow.Status != StatusOK || flakyRow.Attempts != 3 {
		t.Errorf("flaky row: %+v", flakyRow)
	}
	if hardRow == nil || hardRow.Status != StatusFailed || hardRow.Attempts != 1 {
		t.Errorf("hard-failure row: %+v", hardRow)
	}
	// Total extra attempts: 2 from the flaky engagement only.
	if summary.Retries != 2 {
		t.Errorf("summary retries=%d, want 2", summary.Retries)
	}
}

func TestIsTransient(t *testing.T) {
	if IsTransient(errors.New("plain")) {
		t.Error("plain errors are not transient")
	}
	if !IsTransient(MarkTransient(errors.New("x"))) {
		t.Error("marked errors are transient")
	}
	if !IsTransient(fmt.Errorf("wrap: %w", MarkTransient(errors.New("x")))) {
		t.Error("transience must survive wrapping")
	}
	if !IsTransient(&TimeoutError{After: time.Second}) {
		t.Error("timeouts are transient")
	}
	if IsTransient(&PanicError{Value: "x"}) {
		t.Error("panics are not transient")
	}
	if IsTransient(nil) {
		t.Error("nil is not transient")
	}
}

// TestCancellation: a cancelled context aborts the campaign with an
// error instead of a partial summary.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	r := &Runner{
		Spec:    Spec{Networks: []string{"sprint"}, Traces: []string{"amazon"}, Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8}},
		Workers: 2,
		Engage: func(ctx context.Context, e Engagement, _ *stack.OSProfile) (*core.Report, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	go func() {
		<-started
		cancel()
	}()
	if _, err := r.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestAggregateDisagreement: outcome divergence across sweep parameters
// is reported per (network, trace) with sorted signatures and keys.
func TestAggregateDisagreement(t *testing.T) {
	spec := Spec{Networks: []string{"gfc"}, Traces: []string{"youtube"}, Hours: []int{0, 12}}
	mk := func(hour int, differentiated bool) Result {
		rep := &core.Report{
			Network: "gfc", TraceName: "youtube",
			Detection: &core.Detection{Differentiated: differentiated},
		}
		return Result{
			Engagement: Engagement{Network: "gfc", Trace: "youtube", Hour: hour, Body: 1, Seed: 1},
			Report:     rep, Status: StatusOK, Attempts: 1,
		}
	}
	// Feed results in reverse order: aggregation must not care.
	s := Aggregate(spec, []Result{mk(12, false), mk(0, true)})
	if len(s.Disagreements) != 1 {
		t.Fatalf("disagreements: %+v", s.Disagreements)
	}
	d := s.Disagreements[0]
	if d.Network != "gfc" || d.Trace != "youtube" || len(d.Outcomes) != 2 {
		t.Fatalf("disagreement: %+v", d)
	}
	// Agreement case: no record.
	s = Aggregate(spec, []Result{mk(12, true), mk(0, true)})
	if len(s.Disagreements) != 0 {
		t.Fatalf("unexpected disagreements: %+v", s.Disagreements)
	}
}

// TestAggregateExcludesWallClock: the summary JSON must not contain any
// scheduling-dependent field.
func TestAggregateExcludesWallClock(t *testing.T) {
	res := Result{
		Engagement: Engagement{Network: "sprint", Trace: "amazon", Seed: 1},
		Report:     &core.Report{Network: "sprint", TraceName: "amazon", Detection: &core.Detection{}},
		Status:     StatusOK, Attempts: 1,
		Wall: 123 * time.Millisecond, // must never surface
	}
	s := Aggregate(Spec{Networks: []string{"sprint"}, Traces: []string{"amazon"}}, []Result{res})
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"wall", "Wall", "eta", "eng/s"} {
		if bytes.Contains(data, []byte(banned)) {
			t.Errorf("summary JSON leaks scheduling-dependent field %q", banned)
		}
	}
}

// TestProgressObserver sanity-checks the progress stream shape.
func TestProgressObserver(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	base := time.Unix(1700000000, 0)
	tick := 0
	p.now = func() time.Time { tick++; return base.Add(time.Duration(tick) * time.Second) }
	spec := hookSpec()
	r := &Runner{
		Spec: spec, Workers: 2, Observer: p,
		Engage: func(_ context.Context, e Engagement, _ *stack.OSProfile) (*core.Report, error) {
			return fakeReport(e), nil
		},
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "campaign: 4 engagements on 2 workers") {
		t.Errorf("missing start line:\n%s", out)
	}
	if !strings.Contains(out, "[4/4]") || !strings.Contains(out, "eng/s") {
		t.Errorf("missing progress lines:\n%s", out)
	}
	if !strings.Contains(out, "done — 4 ok, 0 failed") {
		t.Errorf("missing final line:\n%s", out)
	}
}

// TestDefaultEngageHonoursSweepParameters: hour advances the virtual
// clock, and the report reflects a real engagement.
func TestDefaultEngage(t *testing.T) {
	rep, err := DefaultEngage(context.Background(),
		Engagement{Network: "tmobile", Trace: "amazon", Hour: 2, Body: 6 << 10, Seed: 1}, &stack.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Network != "tmobile" || !rep.Detection.Differentiated {
		t.Fatalf("unexpected report: network=%s differentiated=%v", rep.Network, rep.Detection.Differentiated)
	}
	if rep.Deployed == nil {
		t.Fatal("tmobile engagement should deploy a technique")
	}
}

// TestSpecFileRoundTrip: -export-spec output must load back identically.
func TestSpecFileRoundTrip(t *testing.T) {
	spec := determinismSpec()
	data, err := spec.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := spec.Expand()
	b, _ := loaded.Expand()
	if len(a) != len(b) {
		t.Fatalf("round-tripped spec expands to %d engagements, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("engagement %d differs after round trip: %v vs %v", i, a[i], b[i])
		}
	}
}
