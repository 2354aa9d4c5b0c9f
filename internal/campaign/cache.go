package campaign

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dpi"
	"repro/internal/netem/stack"
	"repro/internal/registry"
	"repro/internal/trace"
)

// CacheStats is the hit/miss accounting a campaign summary reports. The
// counts are deterministic for a given spec: misses equal the number of
// distinct cache keys the campaign expands to, hits equal engagements
// minus misses — regardless of worker count or scheduling, because a key's
// first arrival (whichever engagement that is) computes and every other
// arrival waits for it.
type CacheStats struct {
	Hits    int `json:"hits"`
	Misses  int `json:"misses"`
	Entries int `json:"entries"`
}

// contentKey is the canonical content address of one engagement's report,
// shared by the in-memory Cache and the persistent Store:
//
//	networkDigest|traceHash|hour|os|engagement[|sc:scenarioHash][|fp:1]
//
// The seed is deliberately absent: it only parameterizes the deployment
// transform built *after* the engagement, which both layers re-verify per
// seed on every hit. The body size is folded into the trace hash. The
// literal "engagement" segment names the memoized unit: detection,
// characterization and evaluation verdicts all travel inside one Report,
// because the three phases share one Session (middlebox flow state, port
// allocation, the virtual clock) and so cannot be reused separately. The
// optional segments appear only when armed, so clean-path keys — and the
// store paths derived from them — match older entries byte for byte.
func contentKey(e Engagement, osName string) (string, error) {
	nd, err := keyPart(&networkDigests, e.Network, func() (string, error) {
		net, err := registry.NewNetwork(e.Network)
		if err != nil {
			return "", err
		}
		defer net.Release()
		return net.ConfigDigest(), nil
	})
	if err != nil {
		return "", err
	}
	th, err := keyPart(&traceHashes, traceCell{e.Trace, e.Body}, func() (string, error) {
		tr, err := registry.NewTrace(e.Trace, e.Body)
		if err != nil {
			return "", err
		}
		return trace.ContentHash(tr), nil
	})
	if err != nil {
		return "", err
	}
	key := nd + "|" + th + "|" + strconv.Itoa(e.Hour) + "|" + osName + "|engagement"
	if e.Scenario != "" {
		if e.scenario == nil {
			return "", fmt.Errorf("campaign: %s: scenario %q not resolved (engagements must come from Spec.Expand)",
				e.Key(), e.Scenario)
		}
		sh, _ := keyPart(&scenarioHashes, e.scenario, func() (string, error) {
			return e.scenario.Hash(), nil
		})
		key += "|sc:" + sh
	}
	if e.Fingerprint {
		key += "|fp:1"
	}
	return key, nil
}

// The registry is fixed for the life of the process, so the expensive
// key inputs are memoized process-wide: the network profile digest by
// name, the trace content hash by (name, body), and the scenario hash by
// resolved spec identity (two packs reusing a scenario name never share
// an entry).
var (
	networkDigests memo[string, string]
	traceHashes    memo[traceCell, string]
	scenarioHashes memo[*dpi.ScenarioSpec, string]
)

type traceCell struct {
	name string
	body int
}

// keyPart memoizes one key input. Unlike report entries, failures are
// not kept: an unknown name from a daemon client must not grow a
// process-wide map.
func keyPart[K comparable](m *memo[K, string], k K, fn func() (string, error)) (string, error) {
	v, err := m.do(context.Background(), k, fn)
	if err != nil {
		m.forget(k)
	}
	return v, err
}

// Cache memoizes engagement reports across a campaign, keyed by
// contentKey. Campaign sweeps expand cross products (networks × traces ×
// hours × bodies × seeds), so distinct engagements routinely describe
// identical computations — every seed shares one, and so would repeated
// runs of overlapping specs sharing one Cache.
//
// Keys are resolved through the registry, so the cache applies to
// campaigns engaging built-in simulated profiles (DefaultEngage). A
// custom EngageFunc backed by real networks should run uncached: a live
// path's behaviour is not a pure function of its name.
type Cache struct {
	reports memo[string, *core.Report]

	// hits/misses are atomics: they are bumped from every worker goroutine
	// and read by Stats while the campaign is still running (progress
	// observers, liberate-d).
	hits   atomic.Int64
	misses atomic.Int64
}

// NewCache returns an empty campaign cache.
func NewCache() *Cache { return &Cache{} }

// Stats returns the current hit/miss counters. Safe to call while a
// campaign is running.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:    int(c.hits.Load()),
		Misses:  int(c.misses.Load()),
		Entries: c.reports.len(),
	}
}

// wrap decorates an EngageFunc with memoization. The leader for a key
// counts as a miss and every other caller as a hit. The per-seed
// deployment check runs for every engagement — including cache hits —
// because the seed is outside the cache key.
func (c *Cache) wrap(inner EngageFunc) EngageFunc {
	return func(ctx context.Context, e Engagement, osp *stack.OSProfile) (*core.Report, error) {
		key, err := contentKey(e, osName(osp))
		if err != nil {
			return nil, err
		}
		leader := false
		rep, err := c.reports.do(ctx, key, func() (*core.Report, error) {
			leader = true
			c.misses.Add(1)
			return inner(ctx, e, osp)
		})
		if !leader {
			c.hits.Add(1)
		}
		if err != nil {
			return nil, err
		}
		if err := verifySeedTransform(rep, e); err != nil {
			return nil, err
		}
		return rep, nil
	}
}

// verifySeedTransform re-checks that a report's deployed technique builds
// a live transform at this engagement's seed — the part of an engagement
// the content-addressed key deliberately excludes, so it must re-run on
// every hit (memory cache and persistent store alike).
func verifySeedTransform(rep *core.Report, e Engagement) error {
	if rep.Deployed != nil && rep.DeployTransform(e.Seed) == nil {
		return fmt.Errorf("campaign: %s: deployed technique %s built a nil transform (seed %d)",
			e.Key(), rep.Deployed.Technique.ID, e.Seed)
	}
	return nil
}

func osName(osp *stack.OSProfile) string {
	if osp == nil {
		return "linux"
	}
	return osp.Name
}
