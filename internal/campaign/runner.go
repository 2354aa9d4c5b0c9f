package campaign

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netem/stack"
	"repro/internal/registry"
)

// Status classifies one engagement's final outcome.
type Status string

// Engagement outcomes.
const (
	StatusOK      Status = "ok"
	StatusFailed  Status = "failed"
	StatusTimeout Status = "timeout"
	StatusPanic   Status = "panic"
)

// TimeoutError reports an engagement attempt that outlived its budget.
type TimeoutError struct{ After time.Duration }

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("engagement timed out after %s", e.After)
}

// Transient marks timeouts retryable: a hung engagement may be a
// transient condition of the backend (it never is in the deterministic
// simulator, but retry accounting must not depend on that).
func (e *TimeoutError) Transient() bool { return true }

// PanicError is a crashed engagement converted into a structured failure.
type PanicError struct {
	Value string
	Stack string
}

func (e *PanicError) Error() string { return "engagement panicked: " + e.Value }

// transientErr wraps an error to mark it retryable.
type transientErr struct{ err error }

func (e *transientErr) Error() string   { return e.err.Error() }
func (e *transientErr) Unwrap() error   { return e.err }
func (e *transientErr) Transient() bool { return true }

// MarkTransient wraps err so the runner's bounded retry applies to it.
// Engage implementations backed by real networks use it for conditions
// that may clear on a second attempt (lost probe, flaky vantage point).
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err: err}
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	for e := err; e != nil; {
		if t, ok := e.(interface{ Transient() bool }); ok && t.Transient() {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// Result is one engagement's final outcome after all attempts.
type Result struct {
	Engagement Engagement
	// Report is the engagement outcome; nil unless Status == StatusOK.
	Report *core.Report
	Status Status
	// Err is the last attempt's failure, "" on success.
	Err string
	// Attempts counts tries including the successful one (≥ 1).
	Attempts int
	// Wall is scheduling-dependent wall-clock time across all attempts —
	// observer/telemetry data, never aggregated into the Summary.
	Wall time.Duration
	// Counters holds the final attempt's recorder counters (non-zero
	// entries only); nil when the campaign ran without recording, or when
	// a cache hit bypassed the engagement.
	Counters map[string]int64
	// Evidence is the flight recorder's rendered tail for a failed
	// engagement — the newest packet-path events before the failure.
	// Nil on success or when recording was off.
	Evidence []string
}

// EngageFunc executes one engagement and returns its report. The context
// carries the per-attempt timeout; implementations too coarse to honour
// it are still bounded, because the runner abandons attempts whose
// deadline expires. Implementations must be safe for concurrent calls.
type EngageFunc func(ctx context.Context, e Engagement, osp *stack.OSProfile) (*core.Report, error)

// DefaultEngage runs a full simulated engagement: build a fresh network
// and trace from the registry, advance the virtual clock to the
// engagement's hour, run the four lib·erate phases, and verify the
// deployment transform builds at the engagement's seed.
func DefaultEngage(ctx context.Context, e Engagement, osp *stack.OSProfile) (*core.Report, error) {
	net, err := registry.NewNetwork(e.Network)
	if err != nil {
		return nil, err
	}
	net.Env.SetRecorder(RecorderFrom(ctx))
	if e.Scenario != "" {
		if e.scenario == nil {
			return nil, fmt.Errorf("campaign: %s: scenario %q not resolved (engagements must come from Spec.Expand)",
				e.Key(), e.Scenario)
		}
		if err := e.scenario.Apply(net); err != nil {
			return nil, err
		}
	}
	tr, err := registry.NewTrace(e.Trace, e.Body)
	if err != nil {
		return nil, err
	}
	if e.Hour > 0 {
		net.Clock.RunFor(time.Duration(e.Hour) * time.Hour)
	}
	rep := (&core.Liberate{Net: net, Trace: tr, ServerOS: osp, EvalWorkers: e.EvalWorkers,
		Fingerprint: e.Fingerprint, Fingerprinted: e.fingerprinted}).Run()
	// The report carries only verdicts and closures over caller-supplied
	// results — nothing aliasing pooled storage — so the dead network's
	// arena and flow records can rejoin the process-wide pools here.
	defer net.Release()
	if rep.Deployed != nil {
		// The deployed technique must be constructible at this seed —
		// a nil transform here would strand live traffic.
		if rep.DeployTransform(e.Seed) == nil {
			return nil, fmt.Errorf("campaign: %s: deployed technique %s built a nil transform (seed %d)",
				e.Key(), rep.Deployed.Technique.ID, e.Seed)
		}
	}
	return rep, nil
}

// Runner executes a campaign spec on a bounded worker pool.
type Runner struct {
	Spec Spec
	// Workers bounds concurrent engagements (default GOMAXPROCS). The
	// effective pool is additionally clamped to the engagement count:
	// workers beyond that would only spin up goroutines that immediately
	// exit, and for an Observer the inflated count misreports the real
	// concurrency of the run.
	Workers int
	// Observer receives progress events; nil means silent. Events fire
	// from worker goroutines, so implementations must be safe for
	// concurrent use.
	Observer Observer
	// Engage runs one engagement (default DefaultEngage). Tests and
	// future real-network backends substitute their own.
	Engage EngageFunc
	// Cache, when non-nil, memoizes engagement reports across the
	// campaign, keyed by network fingerprint, trace content hash, hour,
	// and server OS (the seed stays outside the key — see Cache). Share
	// one Cache across runs of overlapping specs to reuse entries.
	Cache *Cache
	// Store, when non-nil, layers the persistent disk store under the
	// in-memory cache (or directly under Engage when Cache is nil):
	// lookups hit the store before computing, successful reports are
	// persisted after. Entries survive restarts and are shared with
	// other processes — cluster workers and the liberate-d daemon.
	Store *Store
	// TraceDir, when non-empty, records every engagement's full evidence
	// stream and writes one JSON trace file per engagement into the
	// directory (created on demand), named after the engagement key.
	TraceDir string
	// FlightRecorder, when > 0 and TraceDir is empty, arms a bounded ring
	// holding the newest N events per engagement; a failed engagement's
	// ring tail becomes the failure record's evidence. Zero leaves the
	// clean path unrecorded.
	FlightRecorder int

	// fingerprints is the per-run fingerprint memo shared by all workers
	// (see fingerprintMemo).
	fingerprints fingerprintMemo
}

// workers returns the effective pool size for n engagements: the
// configured Workers (default GOMAXPROCS), clamped to n so the pool is
// never over-provisioned.
func (r *Runner) workers(n int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n && n > 0 {
		w = n
	}
	return w
}

func (r *Runner) observer() Observer {
	if r.Observer != nil {
		return r.Observer
	}
	return NopObserver{}
}

func (r *Runner) engage() EngageFunc {
	inner := r.Engage
	if inner == nil {
		// The fingerprint memo wraps only the default simulated
		// engagement — it is the only EngageFunc that reads the injected
		// evidence, and probing for a custom backend would be wasted
		// work. It sits innermost so cache and store hits never probe.
		inner = r.fingerprints.wrap(DefaultEngage)
	}
	// Layering: memory cache over disk store over the real engagement.
	// The cache's memo means each distinct key consults the
	// store exactly once per run, which is what keeps single-process
	// store stats deterministic.
	if r.Store != nil {
		inner = r.Store.wrap(inner)
	}
	if r.Cache != nil {
		return r.Cache.wrap(inner)
	}
	return inner
}

// Run expands the spec, executes every engagement, and returns the
// deterministic campaign summary. Individual engagement failures never
// abort the campaign — they become failure records in the summary. Run
// returns an error only for an invalid spec or a cancelled context.
func (r *Runner) Run(ctx context.Context) (*Summary, error) {
	engs, err := r.Spec.Expand()
	if err != nil {
		return nil, err
	}
	if err := r.prepareTraceDir(); err != nil {
		return nil, err
	}
	workers := r.workers(len(engs))
	obs := r.observer()
	obs.CampaignStarted(len(engs), workers)

	results := r.RunSubset(ctx, engs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	summary := Aggregate(r.Spec, results)
	if r.Cache != nil {
		stats := r.Cache.Stats()
		summary.Cache = &stats
	}
	if r.Store != nil {
		stats := r.Store.Stats()
		summary.Store = &stats
	}
	obs.CampaignFinished(summary)
	return summary, nil
}

// RunSubset executes the given engagements on the runner's bounded pool
// and returns their results in input order. It is the execution core of
// Run, exported for cluster workers that run a coordinator-assigned
// shard of a spec's expansion rather than the whole matrix. The caller
// owns aggregation; a cancelled context returns partial results (the
// unreached entries keep their zero value), mirroring Run's behaviour of
// checking ctx.Err() afterwards.
func (r *Runner) RunSubset(ctx context.Context, engs []Engagement) []Result {
	workers := r.workers(len(engs))

	// Results land in a slice indexed by engagement, so completion order
	// (which depends on scheduling) never influences aggregation.
	results := make([]Result, len(engs))
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				results[i] = r.runOne(ctx, engs[i])
			}
		}()
	}
feeding:
	for i := range engs {
		select {
		case feed <- i:
		case <-ctx.Done():
			break feeding
		}
	}
	close(feed)
	wg.Wait()
	return results
}

// runOne executes one engagement with bounded retry. When recording is
// armed, each attempt starts from a cleared buffer so the surviving
// evidence describes only the final attempt.
func (r *Runner) runOne(ctx context.Context, e Engagement) Result {
	res := Result{Engagement: e}
	observer := r.observer()
	buf := r.newAttemptBuffer()
	if buf != nil {
		ctx = WithRecorder(ctx, buf)
	}
	start := time.Now()
	maxAttempts := 1 + r.Spec.Retries
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		res.Attempts = attempt
		observer.EngagementStarted(e, attempt)
		if buf != nil {
			buf.reset()
		}
		rep, err := r.attempt(ctx, e)
		if err == nil {
			res.Report = rep
			res.Status = StatusOK
			res.Err = ""
			break
		}
		res.Err = err.Error()
		switch err.(type) {
		case *TimeoutError:
			res.Status = StatusTimeout
		case *PanicError:
			res.Status = StatusPanic
		default:
			res.Status = StatusFailed
		}
		if ctx.Err() != nil || !IsTransient(err) {
			break
		}
	}
	res.Wall = time.Since(start)
	if buf != nil {
		if ctr := buf.counterMap(); len(ctr) > 0 {
			res.Counters = ctr
		}
		if res.Status != StatusOK {
			res.Evidence = buf.tail(evidenceLines)
		}
		if r.TraceDir != "" {
			if err := r.writeTrace(e, buf); err != nil && res.Err == "" {
				// The engagement itself succeeded; surface the I/O problem
				// without reclassifying the outcome.
				res.Err = "trace write: " + err.Error()
			}
		}
	}
	observer.EngagementFinished(res)
	return res
}

// attempt runs a single try in its own goroutine so a panic is contained
// and a deadline can abandon it. The result channel is buffered: an
// abandoned attempt finishes (or dies) silently without blocking anyone.
func (r *Runner) attempt(parent context.Context, e Engagement) (*core.Report, error) {
	ctx := parent
	timeout := r.Spec.Timeout.D()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, timeout)
		defer cancel()
	}
	osp := stack.OSByName(r.Spec.withDefaults().ServerOS)
	if osp == nil {
		osp = &stack.Linux // unreachable for a spec that passed Validate
	}

	type outcome struct {
		rep *core.Report
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		var out outcome
		defer func() {
			if p := recover(); p != nil {
				out = outcome{err: &PanicError{
					Value: fmt.Sprint(p),
					Stack: string(debug.Stack()),
				}}
			}
			ch <- out
		}()
		out.rep, out.err = r.engage()(ctx, e, osp)
	}()

	select {
	case out := <-ch:
		return out.rep, out.err
	case <-ctx.Done():
		if parent.Err() != nil {
			return nil, parent.Err()
		}
		return nil, &TimeoutError{After: timeout}
	}
}
