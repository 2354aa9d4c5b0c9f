package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/netem/stack"
	"repro/internal/obs"
	"repro/internal/registry"
)

// Daemon is liberate-as-a-service: an HTTP front end over the persistent
// campaign store that answers "what is the cheapest working technique
// for this network and traffic?" at interactive latency when the store
// is warm, and schedules the engagement in the background when it isn't.
// The next identical query after the background run completes is a hit.
type Daemon struct {
	store   *campaign.Store
	engage  campaign.EngageFunc
	timeout time.Duration
	rec     obs.Recorder

	queue chan job
	mu    sync.Mutex
	// inflight dedupes scheduling: one background engagement per distinct
	// engagement key no matter how many clients ask.
	inflight map[string]struct{}

	scheduled atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
}

type job struct {
	eng campaign.Engagement
	os  string
}

// DaemonOptions tunes NewDaemon; the zero value is serviceable.
type DaemonOptions struct {
	// Workers is the background engagement pool size (default 2).
	Workers int
	// Timeout bounds each background engagement (default 2m).
	Timeout time.Duration
	// QueueDepth bounds pending background work (default 64); a full
	// queue answers 503 rather than buffering without limit.
	QueueDepth int
	// Engage substitutes the engagement implementation (tests). Nil means
	// campaign.DefaultEngage.
	Engage campaign.EngageFunc
	// Recorder receives control-plane events; it is wrapped in obs.Locked.
	Recorder obs.Recorder
}

// NewDaemon builds a daemon over store and starts its background workers
// under ctx. The caller serves d.Handler() however it likes.
func NewDaemon(ctx context.Context, store *campaign.Store, opts DaemonOptions) *Daemon {
	workers := opts.Workers
	if workers <= 0 {
		workers = 2
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	engage := opts.Engage
	if engage == nil {
		engage = campaign.DefaultEngage
	}
	d := &Daemon{
		store:    store,
		engage:   engage,
		timeout:  timeout,
		rec:      obs.Locked(opts.Recorder),
		queue:    make(chan job, depth),
		inflight: map[string]struct{}{},
	}
	for i := 0; i < workers; i++ {
		go d.worker(ctx)
	}
	return d
}

// Answer is the query response for a warm key.
type Answer struct {
	Key            string  `json:"key"`
	Differentiated bool    `json:"differentiated"`
	Technique      string  `json:"technique,omitempty"`
	Cost           float64 `json:"cost,omitempty"`
	Confidence     float64 `json:"confidence,omitempty"`
	Working        int     `json:"working"`
	Source         string  `json:"source"`
	// Fingerprint is the DPI profile the phase-0 ambiguity probes
	// identified ("unknown" when probing matched nothing); present only on
	// fingerprint-armed queries.
	Fingerprint string `json:"fingerprint,omitempty"`
	// PrunedTechniques counts evaluation-suite entries skipped without a
	// replay because the identified profile rules them out.
	PrunedTechniques int `json:"pruned_techniques,omitempty"`
}

// Handler returns the daemon's HTTP routes:
//
//	GET /v1/answer?network=&trace=[&hour=&body=&seed=&os=]  — 200 answer,
//	    202 scheduled, 400 bad query, 503 queue full
//	GET /v1/stats — store counters and scheduler state
//	GET /healthz  — liveness
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/answer", d.handleAnswer)
	mux.HandleFunc("/v1/stats", d.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// parseQuery maps URL parameters onto an engagement cell, defaulting the
// sweep dimensions the way campaign specs do (hour 0, default body,
// seed 1, linux). Network and trace names are checked later, by the
// store's key derivation, which builds nothing once a name is known.
func parseQuery(r *http.Request) (campaign.Engagement, string, error) {
	q := r.URL.Query()
	e := campaign.Engagement{
		Network: q.Get("network"),
		Trace:   q.Get("trace"),
		Body:    registry.DefaultBody,
		Seed:    1,
	}
	if e.Network == "" || e.Trace == "" {
		return e, "", fmt.Errorf("network and trace are required")
	}
	for name, dst := range map[string]*int{"hour": &e.Hour, "body": &e.Body} {
		if s := q.Get(name); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				return e, "", fmt.Errorf("bad %s %q", name, s)
			}
			*dst = v
		}
	}
	if s := q.Get("seed"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return e, "", fmt.Errorf("bad seed %q", s)
		}
		e.Seed = v
	}
	osName := q.Get("os")
	if osName == "" {
		osName = "linux"
	}
	if stack.OSByName(osName) == nil {
		return e, "", fmt.Errorf("unknown os %q (linux|macos|windows)", osName)
	}
	switch fp := q.Get("fingerprint"); fp {
	case "", "0", "false":
	case "1", "true":
		e.Fingerprint = true
	default:
		return e, "", fmt.Errorf("bad fingerprint %q (1|0)", fp)
	}
	return e, osName, nil
}

func (d *Daemon) handleAnswer(w http.ResponseWriter, r *http.Request) {
	e, osName, err := parseQuery(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	rep, ok, err := d.store.Get(e, osName)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if ok {
		writeJSON(w, http.StatusOK, answerFrom(e, rep))
		return
	}
	// On an armed cold key the full engagement is scheduled like any other,
	// but the ambiguity probes alone are cheap enough to run inline — the
	// client learns who it is facing now and the pruned answer later.
	accepted := map[string]string{"status": "scheduled", "key": e.Key()}
	if e.Fingerprint {
		if net, err := registry.NewNetwork(e.Network); err == nil {
			fp := core.FingerprintNetwork(net, stack.OSByName(osName))
			net.Release()
			accepted["fingerprint"] = fp.Profile
			if accepted["fingerprint"] == "" {
				accepted["fingerprint"] = "unknown"
			}
		}
	}
	switch d.schedule(e, osName) {
	case scheduleQueued, scheduleDuplicate:
		writeJSON(w, http.StatusAccepted, accepted)
	case scheduleFull:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "engagement queue full", "key": e.Key()})
	}
}

func answerFrom(e campaign.Engagement, rep *core.Report) Answer {
	a := Answer{
		Key:            e.Key(),
		Differentiated: rep.Detection.Differentiated,
		Source:         "store",
	}
	if ev := rep.Evaluation; ev != nil {
		a.Working = len(ev.Working())
	}
	if v := rep.Deployed; v != nil {
		a.Technique = v.Technique.ID
		a.Cost = v.Cost()
		a.Confidence = v.Confidence
	}
	if fp := rep.Fingerprint; fp != nil {
		a.Fingerprint = fp.Profile
		if a.Fingerprint == "" {
			a.Fingerprint = "unknown"
		}
		if ev := rep.Evaluation; ev != nil {
			a.PrunedTechniques = ev.SkippedByPruning
		}
	}
	return a
}

type scheduleOutcome int

const (
	scheduleQueued scheduleOutcome = iota
	scheduleDuplicate
	scheduleFull
)

// jobKey identifies a background engagement for in-flight dedupe: the
// engagement key plus everything it omits that changes the report — the
// server OS and whether the fingerprint is armed.
func jobKey(e campaign.Engagement, osName string) string {
	key := e.Key() + "/" + osName
	if e.Fingerprint {
		key += "/fp"
	}
	return key
}

// schedule enqueues a background engagement for a cold key, deduplicated
// against identical requests already in flight.
func (d *Daemon) schedule(e campaign.Engagement, osName string) scheduleOutcome {
	key := jobKey(e, osName)
	d.mu.Lock()
	if _, dup := d.inflight[key]; dup {
		d.mu.Unlock()
		return scheduleDuplicate
	}
	select {
	case d.queue <- job{eng: e, os: osName}:
		d.inflight[key] = struct{}{}
		d.mu.Unlock()
		d.scheduled.Add(1)
		d.rec.Add(obs.CtrShardsDispatched, 1)
		if d.rec.Enabled() {
			d.rec.Record(obs.Event{Kind: obs.KindClusterDispatch, Actor: "liberate-d", Label: key})
		}
		return scheduleQueued
	default:
		d.mu.Unlock()
		return scheduleFull
	}
}

func (d *Daemon) worker(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case j := <-d.queue:
			d.runJob(ctx, j)
		}
	}
}

func (d *Daemon) runJob(ctx context.Context, j job) {
	key := jobKey(j.eng, j.os)
	defer func() {
		d.mu.Lock()
		delete(d.inflight, key)
		d.mu.Unlock()
	}()
	jctx, cancel := context.WithTimeout(ctx, d.timeout)
	defer cancel()
	rep, err := d.engage(jctx, j.eng, stack.OSByName(j.os))
	if err != nil {
		d.failed.Add(1)
		if d.rec.Enabled() {
			d.rec.Record(obs.Event{Kind: obs.KindClusterWorkerDeath, Actor: "liberate-d",
				Label: key + ": " + err.Error()})
		}
		return
	}
	if err := d.store.Put(j.eng, j.os, rep); err != nil {
		d.failed.Add(1)
		return
	}
	d.completed.Add(1)
	if d.rec.Enabled() {
		d.rec.Record(obs.Event{Kind: obs.KindClusterComplete, Actor: "liberate-d", Label: key})
	}
}

// DaemonStats is the /v1/stats payload.
type DaemonStats struct {
	Store     campaign.StoreStats `json:"store"`
	Queued    int                 `json:"queued"`
	Inflight  int                 `json:"inflight"`
	Scheduled int64               `json:"scheduled"`
	Completed int64               `json:"completed"`
	Failed    int64               `json:"failed"`
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	inflight := len(d.inflight)
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, DaemonStats{
		Store:     d.store.Stats(),
		Queued:    len(d.queue),
		Inflight:  inflight,
		Scheduled: d.scheduled.Load(),
		Completed: d.completed.Load(),
		Failed:    d.failed.Load(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
