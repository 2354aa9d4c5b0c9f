package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/netem/stack"
)

// countingEngage wraps DefaultEngage and counts invocations, so tests
// can prove warm answers never run an engagement.
func countingEngage(n *atomic.Int64) campaign.EngageFunc {
	return func(ctx context.Context, e campaign.Engagement, osp *stack.OSProfile) (*core.Report, error) {
		n.Add(1)
		return campaign.DefaultEngage(ctx, e, osp)
	}
}

// awaitTrue polls cond under a hard deadline with exponential backoff
// (1ms doubling to a 250ms cap), so waits resolve promptly on fast
// machines without hammering the condition — and can't flake under load
// the way a fixed-interval sleep loop does.
func awaitTrue(t *testing.T, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	wait := time.Millisecond
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(wait)
		if wait *= 2; wait > 250*time.Millisecond {
			wait = 250 * time.Millisecond
		}
	}
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode, body
}

func TestDaemonWarmAnswerRunsNoEngagement(t *testing.T) {
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Warm one key the way a campaign would.
	e := campaign.Engagement{Network: "testbed", Trace: "amazon", Body: 8 << 10, Seed: 1}
	rep, err := campaign.DefaultEngage(context.Background(), e, &stack.Linux)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(e, "linux", rep); err != nil {
		t.Fatal(err)
	}

	var engaged atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := NewDaemon(ctx, store, DaemonOptions{Engage: countingEngage(&engaged)})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	status, body := getJSON(t, srv.URL+"/v1/answer?network=testbed&trace=amazon&body=8192&seed=1")
	if status != http.StatusOK {
		t.Fatalf("warm query: status %d, body %v", status, body)
	}
	if body["source"] != "store" {
		t.Errorf("source = %v, want store", body["source"])
	}
	if body["differentiated"] != true || body["technique"] == "" {
		t.Errorf("warm answer incomplete: %v", body)
	}
	if n := engaged.Load(); n != 0 {
		t.Errorf("warm query ran %d engagements, want 0", n)
	}

	// Liveness endpoint.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}

func TestDaemonColdQuerySchedulesAndWarms(t *testing.T) {
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var engaged atomic.Int64
	// The engagement blocks until released, holding the key cold for the
	// whole burst below (a sprint engagement otherwise completes faster
	// than the test can issue its second query).
	release := make(chan struct{})
	gated := func(ctx context.Context, e campaign.Engagement, osp *stack.OSProfile) (*core.Report, error) {
		engaged.Add(1)
		<-release
		return campaign.DefaultEngage(ctx, e, osp)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := NewDaemon(ctx, store, DaemonOptions{Engage: gated})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	url := srv.URL + "/v1/answer?network=sprint&trace=amazon&body=8192"
	// Burst of identical cold queries: all 202, but the in-flight dedupe
	// must collapse them to one background engagement.
	for i := 0; i < 5; i++ {
		status, body := getJSON(t, url)
		if status != http.StatusAccepted {
			t.Fatalf("cold query %d: status %d, body %v", i, status, body)
		}
		if body["status"] != "scheduled" {
			t.Fatalf("cold query %d: body %v", i, body)
		}
	}
	close(release)

	var warmed map[string]any
	awaitTrue(t, 30*time.Second, "background engagement never warmed the store", func() bool {
		status, body := getJSON(t, url)
		if status != http.StatusOK {
			return false
		}
		warmed = body
		return true
	})
	if warmed["source"] != "store" {
		t.Errorf("warmed answer source = %v", warmed["source"])
	}
	if n := engaged.Load(); n != 1 {
		t.Errorf("background engagements = %d, want 1 (dedupe)", n)
	}

	status, stats := getJSON(t, srv.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	if stats["completed"] != float64(1) || stats["scheduled"] != float64(1) {
		t.Errorf("stats = %v, want scheduled=1 completed=1", stats)
	}
}

func TestDaemonRejectsBadQueries(t *testing.T) {
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := NewDaemon(ctx, store, DaemonOptions{})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	for _, q := range []string{
		"",                                      // missing both
		"?network=testbed",                      // missing trace
		"?network=nosuch&trace=amazon",          // unknown network
		"?network=testbed&trace=nosuch",         // unknown trace
		"?network=testbed&trace=amazon&hour=x",  // bad hour
		"?network=testbed&trace=amazon&os=beos", // unknown OS
	} {
		status, body := getJSON(t, srv.URL+"/v1/answer"+q)
		if status != http.StatusBadRequest {
			t.Errorf("query %q: status %d, body %v, want 400", q, status, body)
		}
	}
}

// TestDaemonArmedAndUnarmedAreDistinctJobs: an armed and an unarmed
// query for the same cell compute different reports, so the in-flight
// dedupe must schedule both — the armed one may not ride on the unarmed
// job still running.
func TestDaemonArmedAndUnarmedAreDistinctJobs(t *testing.T) {
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	blocked := func(ctx context.Context, e campaign.Engagement, osp *stack.OSProfile) (*core.Report, error) {
		<-release
		return nil, errors.New("released")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := NewDaemon(ctx, store, DaemonOptions{Engage: blocked})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	url := srv.URL + "/v1/answer?network=testbed&trace=amazon&body=8192"
	for _, q := range []string{url, url + "&fingerprint=1"} {
		if status, body := getJSON(t, q); status != http.StatusAccepted {
			t.Fatalf("cold query %s: status %d, body %v", q, status, body)
		}
	}
	// Scheduling happens inside the handler, so both answers above have
	// already counted; the blocked engagements keep both keys in flight.
	_, stats := getJSON(t, srv.URL+"/v1/stats")
	if stats["scheduled"] != float64(2) {
		t.Errorf("stats = %v, want scheduled=2 (armed and unarmed are separate jobs)", stats)
	}
}
