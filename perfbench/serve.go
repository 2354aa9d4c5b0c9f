package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netem/stack"
	"repro/internal/registry"
)

const (
	// serveRate is the open loop's warm-query rate.
	serveRate = 200.0
	// serveConns bounds the client's connections and concurrent requests.
	serveConns = 2
	// coldPerSecond sets how many never-seen keys a segment asks.
	coldPerSecond = 4.0
	// repollEvery is how long after a 202 a cold key is asked again.
	repollEvery = 5 * time.Millisecond
	// coldGrace bounds the wait for cold keys after the last arrival.
	coldGrace  = 20 * time.Second
	spanHeader = "X-Perfbench-Span"
)

// expected is the part of a /v1/answer reply the benchmark checks against
// the report computed for the key.
type expected struct {
	differentiated bool
	technique      string
	working        int
}

func expect(rep *core.Report) expected {
	x := expected{differentiated: rep.Detection.Differentiated, working: len(rep.Evaluation.Working())}
	if rep.Deployed != nil {
		x.technique = rep.Deployed.Technique.ID
	}
	return x
}

func (x expected) matches(a cluster.Answer) bool {
	return a.Differentiated == x.differentiated && a.Technique == x.technique && a.Working == x.working
}

// coldKey is one never-seen key of a segment, from its first ask to its
// first 200.
type coldKey struct {
	eng       campaign.Engagement
	firstDue  time.Time
	op, root  int64
	asks      int
	engaged   time.Time // when the daemon started its engagement
	answer    cluster.Answer
	at        time.Duration // when the 200 arrived, from the segment start
	latency   time.Duration
	done, bad bool
}

// serve is the serve-mixed workload: a cluster.Daemon with one engagement
// worker over a store filled during set-up, on loopback, driven by an
// open-loop client at serveRate with at most serveConns connections.
type serve struct {
	rng      *rand.Rand
	dir      string
	store    *campaign.Store
	handler  http.Handler
	cancel   context.CancelFunc
	srv      *http.Server
	served   chan struct{}
	base     string
	client   *http.Client
	warm     []campaign.Engagement
	want     map[string]expected
	fill     []campaign.Result
	coldBody int // body offsets used so far, so no cold key repeats in a process

	// tr is the tracer of the running segment, nil when untraced. The
	// handler and engage wrappers consult it.
	tr atomic.Pointer[tracer]

	// The rest accumulates over the instance's segments for the per-layer
	// metrics; handlerD, waits and the stats maxima only while traced.
	mu            sync.Mutex
	cold          map[string]*coldKey // by engagement key, current segment
	handlerD      []time.Duration
	waits         []time.Duration
	late          []time.Duration
	refused       int
	depthMax      int
	inMax         int
	hits, lookups int64
	asks, colds   int
}

func setupServe(seed int64) (workload, error) { return newServe(seed) }

func newServe(seed int64) (*serve, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchDir, "store-")
	if err != nil {
		return nil, err
	}
	s := &serve{rng: rand.New(rand.NewSource(seed)), dir: dir, want: map[string]expected{}}
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serve) start() error {
	store, err := campaign.OpenStore(s.dir)
	if err != nil {
		return err
	}
	s.store = store
	// The store fill: the golden sweep through the store, one worker.
	spec := goldenSpec()
	s.warm, err = spec.Expand()
	if err != nil {
		return err
	}
	s.fill = (&campaign.Runner{Spec: spec, Workers: 1, Store: store}).RunSubset(context.Background(), s.warm)
	for _, res := range s.fill {
		if res.Status != campaign.StatusOK {
			return fmt.Errorf("store fill: %s: %s", res.Engagement.Key(), res.Err)
		}
		s.want[res.Engagement.Key()] = expect(res.Report)
	}

	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	d := cluster.NewDaemon(ctx, store, cluster.DaemonOptions{Workers: 1, Engage: s.engage})
	s.handler = d.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: http.HandlerFunc(s.serveHTTP)}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve(ln)
	}()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
	}}
	// The untimed warm-up: every warm key once.
	for _, e := range s.warm {
		code, a, err := s.ask(e, 0, 0)
		if err != nil || code != http.StatusOK || !s.want[e.Key()].matches(a) {
			return fmt.Errorf("warm-up %s: status %d, err %v", e.Key(), code, err)
		}
	}
	return nil
}

func (s *serve) close() {
	if s.srv != nil {
		s.srv.Close()
		<-s.served
	}
	if s.cancel != nil {
		s.cancel()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	os.RemoveAll(s.dir)
}

// serveHTTP times the daemon's handler when a segment is traced.
func (s *serve) serveHTTP(w http.ResponseWriter, r *http.Request) {
	tr := s.tr.Load()
	if tr == nil {
		s.handler.ServeHTTP(w, r)
		return
	}
	var op, parent int64
	fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d", &op, &parent)
	sp := tr.begin(op, parent, "cluster.handler")
	s.handler.ServeHTTP(w, r)
	d := sp.end()
	s.mu.Lock()
	s.handlerD = append(s.handlerD, d)
	s.mu.Unlock()
}

// engage is the daemon's EngageFunc: campaign.DefaultEngage untraced, the
// phase-by-phase tracer.engage under the cold key's span when traced.
func (s *serve) engage(ctx context.Context, e campaign.Engagement, osp *stack.OSProfile) (*core.Report, error) {
	tr := s.tr.Load()
	if tr == nil {
		return campaign.DefaultEngage(ctx, e, osp)
	}
	s.mu.Lock()
	k := s.cold[e.Key()]
	var ref spanRef
	if k != nil {
		k.engaged = time.Now()
		s.waits = append(s.waits, k.engaged.Sub(k.firstDue))
		ref = spanRef{k.op, k.root}
	}
	s.mu.Unlock()
	return tr.engage(withSpan(ctx, ref.op, ref.parent), e, osp)
}

// ask sends one /v1/answer query and decodes a 200 reply.
func (s *serve) ask(e campaign.Engagement, op, parent int64) (int, cluster.Answer, error) {
	q := url.Values{}
	q.Set("network", e.Network)
	q.Set("trace", e.Trace)
	q.Set("hour", strconv.Itoa(e.Hour))
	q.Set("body", strconv.Itoa(e.Body))
	q.Set("seed", strconv.FormatInt(e.Seed, 10))
	req, err := http.NewRequest(http.MethodGet, s.base+"/v1/answer?"+q.Encode(), nil)
	if err != nil {
		return 0, cluster.Answer{}, err
	}
	if op != 0 {
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", op, parent))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, cluster.Answer{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, cluster.Answer{}, err
	}
	var a cluster.Answer
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(body, &a)
	}
	return resp.StatusCode, a, err
}

// request is one scheduled query: a warm key, or an ask for a cold key.
type request struct {
	due  time.Time
	warm campaign.Engagement
	cold *coldKey
}

// coldCombos are the network × trace pairs cold keys are drawn from: every
// pair of the golden sweep, each asked equally often at a fresh body size.
func coldCombos() [][2]string {
	var out [][2]string
	for _, n := range registry.NetworkNames() {
		for _, t := range goldenSpec().Traces {
			out = append(out, [2]string{n, t})
		}
	}
	return out
}

func (s *serve) measure(d time.Duration, tr *tracer) segment {
	s.tr.Store(tr)
	defer s.tr.Store(nil)
	// The tail is p95, not p99: a block holds about 1200 warm answers, so
	// its p99 rests on 12 samples, and any stall of a few tens of ms caused
	// by another tenant of the machine moves it (see README.md).
	seg := segment{tailQ: 0.95, coldPairs: map[string][]time.Duration{}}
	storeBefore := s.store.Stats()

	// The seed-driven schedule: one warm arrival per 1/serveRate slot at a
	// random offset inside it, and the cold keys likewise.
	start := time.Now().Add(20 * time.Millisecond)
	var sched []request
	nWarm := int(serveRate * d.Seconds())
	for i := 0; i < nWarm; i++ {
		due := start.Add(time.Duration((float64(i) + s.rng.Float64()) / serveRate * float64(time.Second)))
		sched = append(sched, request{due: due, warm: s.warm[s.rng.Intn(len(s.warm))]})
	}
	// Every pair gets the same body sizes on every seed, so seeds change
	// the order and timing of the cold work, not its cost.
	combos := coldCombos()
	perCombo := max(1, int(coldPerSecond*d.Seconds()/float64(len(combos))+0.5))
	var colds []*coldKey
	for _, c := range combos {
		for i := 0; i < perCombo; i++ {
			colds = append(colds, &coldKey{eng: campaign.Engagement{
				Network: c[0], Trace: c[1], Body: 8<<10 + 16*(s.coldBody+i+1), Seed: 1}})
		}
	}
	s.coldBody += perCombo
	colds = shuffled(s.rng, colds)
	s.mu.Lock()
	s.cold = map[string]*coldKey{}
	for i, k := range colds {
		// Each key is due in the first half of its slot, so a cold key's
		// engagement ends before the next one is asked and cold keys do
		// not queue behind each other.
		span := float64(d) / float64(len(colds))
		k.firstDue = start.Add(time.Duration((float64(i) + s.rng.Float64()/2) * span))
		k.op, k.root = tr.newID(), tr.newID()
		s.cold[k.eng.Key()] = k
		sched = append(sched, request{due: k.firstDue, cold: k})
	}
	s.mu.Unlock()
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].due.Before(sched[j].due) })

	jobs := make(chan request)
	stop := make(chan struct{})
	var pending, senders sync.WaitGroup
	pending.Add(len(colds))
	var mu sync.Mutex // guards seg and the cold keys' progress
	var lastEnd time.Time
	do := func(r request) {
		pickup := time.Now()
		s.mu.Lock()
		s.late = append(s.late, pickup.Sub(r.due))
		s.mu.Unlock()
		if r.cold == nil {
			op := tr.newID()
			root := tr.newID()
			code, a, err := s.ask(r.warm, op, root)
			end := time.Now()
			if tr != nil {
				tr.add(span{ID: root, Op: op, Name: "bench.query", Start: tr.at(r.due), End: tr.at(end)})
			}
			mu.Lock()
			defer mu.Unlock()
			if end.After(lastEnd) {
				lastEnd = end
			}
			switch {
			case err == nil && code == http.StatusOK && s.want[r.warm.Key()].matches(a):
				seg.latency = append(seg.latency, sample{at: end.Sub(start), d: end.Sub(r.due)})
				seg.work = append(seg.work, work{at: end.Sub(start), n: 1})
			case err == nil && code == http.StatusOK:
				seg.mismatches++
				seg.failed++
			default:
				s.countRefused(code)
				seg.failed++
			}
			return
		}
		k := r.cold
		code, a, err := s.ask(k.eng, k.op, k.root)
		end := time.Now()
		mu.Lock()
		defer mu.Unlock()
		k.asks++
		switch {
		case err == nil && code == http.StatusOK:
			k.done, k.answer, k.at, k.latency = true, a, end.Sub(start), end.Sub(k.firstDue)
			if end.After(lastEnd) {
				lastEnd = end
			}
			if tr != nil {
				tr.add(span{ID: k.root, Op: k.op, Name: "bench.cold", Start: tr.at(k.firstDue), End: tr.at(end)})
			}
			pending.Done()
		case err == nil && code == http.StatusAccepted:
			next := request{due: end.Add(repollEvery), cold: k}
			time.AfterFunc(repollEvery, func() {
				select {
				case jobs <- next:
				case <-stop:
				}
			})
		default:
			s.countRefused(code)
			k.bad = true
			pending.Done()
		}
	}
	for i := 0; i < serveConns; i++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for {
				select {
				case r := <-jobs:
					do(r)
				case <-stop:
					return
				}
			}
		}()
	}
	sampled := make(chan struct{})
	if tr != nil {
		go s.sampleStats(stop, sampled)
	} else {
		close(sampled)
	}
	for _, r := range sched {
		time.Sleep(time.Until(r.due))
		jobs <- r
	}
	waited := make(chan struct{})
	go func() {
		pending.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(coldGrace):
	}
	close(stop)
	senders.Wait()
	<-sampled

	mu.Lock()
	defer mu.Unlock()
	seg.attempted = nWarm + len(colds)
	for _, k := range colds {
		switch {
		case !k.done:
			if !k.bad {
				logf("serve-mixed: cold key %s unanswered after %s", k.eng.Key(), coldGrace)
			}
			seg.failed++
		default:
			pair := k.eng.Network + "/" + k.eng.Trace
			seg.coldPairs[pair] = append(seg.coldPairs[pair], k.latency)
			seg.work = append(seg.work, work{at: k.at, n: 1})
		}
	}
	seg.failed += s.verifyCold(colds, &seg.mismatches)
	seg.span = lastEnd.Sub(start)
	st := s.store.Stats()
	s.mu.Lock()
	s.hits += st.Hits - storeBefore.Hits
	s.lookups += st.Hits - storeBefore.Hits + st.Misses - storeBefore.Misses
	for _, k := range colds {
		s.asks += k.asks
	}
	s.colds += len(colds)
	s.mu.Unlock()
	return seg
}

func (s *serve) countRefused(code int) {
	if code == http.StatusServiceUnavailable {
		s.mu.Lock()
		s.refused++
		s.mu.Unlock()
	}
}

// verifyCold checks every answered cold key against a report computed
// for it by core.Liberate.Run after the segment, and returns how many
// failed the check.
func (s *serve) verifyCold(colds []*coldKey, mismatches *int) int {
	bad := 0
	for _, k := range colds {
		if !k.done {
			continue
		}
		net, err := registry.NewNetwork(k.eng.Network)
		if err != nil {
			bad++
			continue
		}
		tr, err := registry.NewTrace(k.eng.Trace, k.eng.Body)
		if err != nil {
			bad++
			continue
		}
		rep := (&core.Liberate{Net: net, Trace: tr, ServerOS: &stack.Linux}).Run()
		net.Release()
		if !expect(rep).matches(k.answer) {
			logf("serve-mixed: cold key %s answered %+v, expected %+v", k.eng.Key(), k.answer, expect(rep))
			bad++
			*mismatches++
		}
	}
	return bad
}

// sampleStats reads /v1/stats in-process every 10 ms until stop, keeping
// the queue depth and in-flight maxima.
func (s *serve) sampleStats(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		rec := httptest.NewRecorder()
		s.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var st cluster.DaemonStats
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			continue
		}
		s.mu.Lock()
		s.depthMax = max(s.depthMax, st.Queued)
		s.inMax = max(s.inMax, st.Inflight)
		s.mu.Unlock()
	}
}

// clusterMetrics adds the store and cluster metrics of the last traced
// segment, plus timed Store.Get, DecodeReport and Store.Put calls on the
// warm keys, to m.
func (s *serve) clusterMetrics(m metrics) error {
	var gets, decodes, puts []time.Duration
	probe, err := campaign.OpenStore(s.dir + "-probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(probe.Dir())
	for _, res := range s.fill {
		e := res.Engagement
		start := time.Now()
		rep, ok, err := s.store.Get(e, "linux")
		gets = append(gets, time.Since(start))
		if err != nil || !ok {
			return fmt.Errorf("store probe: %s missing (err %v)", e.Key(), err)
		}
		payload, err := campaign.EncodeReport(rep)
		if err != nil {
			return err
		}
		start = time.Now()
		if _, err := campaign.DecodeReport(payload); err != nil {
			return err
		}
		decodes = append(decodes, time.Since(start))
		start = time.Now()
		if err := probe.Put(e, "linux", rep); err != nil {
			return err
		}
		puts = append(puts, time.Since(start))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.handlerD) == 0 {
		return errors.New("serve: no traced segment")
	}
	m.set("campaign.store_get_us_p50", us(percentile(gets, 0.5)), "us")
	m.set("campaign.decode_us_p50", us(percentile(decodes, 0.5)), "us")
	m.set("campaign.store_put_ms_p50", ms(percentile(puts, 0.5)), "ms")
	m.set("campaign.store_hit_ratio", float64(s.hits)/float64(max(s.lookups, 1)), "ratio")
	m.set("cluster.handler_us_p50", us(percentile(s.handlerD, 0.5)), "us")
	m.set("cluster.handler_us_p99", us(percentile(s.handlerD, 0.99)), "us")
	m.set("cluster.queue_wait_ms_p50", ms(percentile(s.waits, 0.5)), "ms")
	m.set("cluster.queue_depth_max", float64(s.depthMax), "count")
	m.set("cluster.inflight_max", float64(s.inMax), "count")
	m.set("cluster.refused", float64(s.refused), "count")
	m.set("cluster.repolls_per_cold", float64(s.asks-s.colds)/float64(max(s.colds, 1)), "count")
	m.set("bench.generator_late_ms_p99", ms(percentile(s.late, 0.99)), "ms")
	return nil
}

func (s *serve) layerProbes(m metrics) error {
	return layerProbes(m, goldenSpec(), s.fill, s.rng.Int63(), s)
}
