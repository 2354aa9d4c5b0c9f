package campaign

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/netem/stack"
	"repro/internal/registry"
)

// fingerprintMemo memoizes phase-0 ambiguity-probe evidence per distinct
// probe-relevant configuration within one run. An armed sweep's matrix
// repeats the same (network, scenario, hour, OS) cell across traces,
// bodies, and seeds — none of which the probes see — so probing once and
// letting every sibling engagement adopt the result removes the probe
// cost from all but the first.
//
// Adoption is byte-identical to probing: a named profile's probe
// responses are deterministic, the memo probes on a recorder-less
// network (no stray observability events), and the core session charges
// adopted rounds/bytes exactly as it would its own. A memo miss or error
// simply leaves the engagement to probe for itself, which yields the
// same report.
type fingerprintMemo struct {
	probes memo[fpProbeKey, *core.FingerprintResult]
}

type fpProbeKey struct {
	network  string
	scenario string
	osName   string
	hour     int
}

// wrap injects memoized probe evidence into armed engagements before
// handing them to inner. Unarmed engagements pass through untouched.
func (m *fingerprintMemo) wrap(inner EngageFunc) EngageFunc {
	return func(ctx context.Context, e Engagement, osp *stack.OSProfile) (*core.Report, error) {
		if e.Fingerprint && e.fingerprinted == nil {
			e.fingerprinted = m.get(ctx, e, osp)
		}
		return inner(ctx, e, osp)
	}
}

// get returns the memoized evidence for e's probe configuration,
// probing once per key while concurrent siblings wait for the first
// prober. A nil return means no memo is available (an unresolved
// scenario, a failed or panicked probe, a cancelled wait) — the
// engagement probes for itself.
func (m *fingerprintMemo) get(ctx context.Context, e Engagement, osp *stack.OSProfile) *core.FingerprintResult {
	if e.Scenario != "" && e.scenario == nil {
		// Hand-built engagement with an unresolved scenario: the probe
		// network cannot be constructed faithfully. DefaultEngage will
		// report the real error.
		return nil
	}
	key := fpProbeKey{network: e.Network, scenario: e.Scenario, osName: osp.Name, hour: e.Hour}
	fp, err := m.probes.do(ctx, key, func() (*core.FingerprintResult, error) {
		return probeFingerprint(e, osp)
	})
	if err != nil {
		return nil
	}
	return fp
}

// probeFingerprint builds the engagement's network exactly as
// DefaultEngage does — scenario applied, clock advanced to the hour —
// and runs the ambiguity probes against it. The network carries no
// recorder: memoized probing must not emit observability events that
// per-engagement probing would attribute to a session.
func probeFingerprint(e Engagement, osp *stack.OSProfile) (*core.FingerprintResult, error) {
	net, err := registry.NewNetwork(e.Network)
	if err != nil {
		return nil, err
	}
	defer net.Release()
	if e.scenario != nil {
		if err := e.scenario.Apply(net); err != nil {
			return nil, err
		}
	}
	if e.Hour > 0 {
		net.Clock.RunFor(time.Duration(e.Hour) * time.Hour)
	}
	return core.FingerprintNetwork(net, osp), nil
}
