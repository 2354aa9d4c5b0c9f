package dpi

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/netem"
)

// ImpairmentSpec is the JSON/CLI description of one path impairment —
// a lossy, duplicating, bursty (Gilbert-Elliott), bit-corrupting,
// silently payload-corrupting, delaying, reordering, nth-packet-losing,
// or token-bucket-throttling link inserted at the client side of the
// path, where access-link flakiness lives. Dir restricts the impairment
// to one direction of travel (pumba-style tc-egress vs iptables-ingress
// asymmetry); empty means both.
type ImpairmentSpec struct {
	// Kind is one of "loss", "dup", "ge", "corrupt", "payload",
	// "delay", "reorder", "nth", "rate".
	Kind string `json:"kind"`
	// Rate is the impairment's primary probability: loss/dup/corruption/
	// reorder rate, or the Good→Bad transition probability for "ge". The
	// non-probabilistic kinds reuse it as their CLI shorthand slot:
	// "delay" reads it as milliseconds, "nth" as the cycle length, and
	// "rate" as KB/s, unless the dedicated JSON field below is set.
	Rate float64 `json:"rate"`
	// Rate2 is "ge"'s Bad→Good transition probability (default 0.3), the
	// CLI jitter-ms slot for "delay", the hold-ms slot for "reorder",
	// the offset slot for "nth", and the burst-KB slot for "rate".
	Rate2 float64 `json:"rate2,omitempty"`
	// Rate3 is "ge"'s Bad-state loss probability (default 0.8).
	Rate3 float64 `json:"rate3,omitempty"`
	// Seed offsets the link's RNG stream (0 = a fixed default).
	Seed int64 `json:"seed,omitempty"`

	// DelayMs/JitterMs configure "delay" (JSON form; fall back to
	// Rate/Rate2 when zero).
	DelayMs  float64 `json:"delay_ms,omitempty"`
	JitterMs float64 `json:"jitter_ms,omitempty"`
	// HoldMs is "reorder"'s hold-back duration (default 5ms).
	HoldMs float64 `json:"hold_ms,omitempty"`
	// Every/Offset configure "nth": drop one packet in Every, rotated by
	// Offset.
	Every  int `json:"every,omitempty"`
	Offset int `json:"offset,omitempty"`
	// KBps/BurstKB configure "rate": sustained kilobytes per second and
	// bucket depth (default: one second of KBps).
	KBps    float64 `json:"kbps,omitempty"`
	BurstKB float64 `json:"burst_kb,omitempty"`
	// Dir is "", "egress" (client→server only), or "ingress"
	// (server→client only).
	Dir string `json:"dir,omitempty"`
}

// probabilistic reports whether the kind's Rate is a probability that
// must sit in [0,1).
func (s ImpairmentSpec) probabilistic() bool {
	switch s.Kind {
	case "loss", "dup", "ge", "corrupt", "payload", "reorder":
		return true
	}
	return false
}

// build constructs the netem element an impairment spec describes,
// wrapped in an AsymLink when Dir restricts it to one direction.
func (s ImpairmentSpec) build(label string) (netem.Element, error) {
	el, err := s.buildInner(label)
	if err != nil {
		return nil, err
	}
	switch s.Dir {
	case "":
		return el, nil
	case "egress":
		return &netem.AsymLink{Label: label + "-egress", Dir: netem.ToServer, Inner: el}, nil
	case "ingress":
		return &netem.AsymLink{Label: label + "-ingress", Dir: netem.ToClient, Inner: el}, nil
	}
	return nil, fmt.Errorf("dpi: impairment %q: unknown direction %q (egress|ingress)", s.Kind, s.Dir)
}

func (s ImpairmentSpec) buildInner(label string) (netem.Element, error) {
	if s.probabilistic() && (s.Rate < 0 || s.Rate >= 1) {
		return nil, fmt.Errorf("dpi: impairment %q rate %v outside [0,1)", s.Kind, s.Rate)
	}
	switch s.Kind {
	case "loss":
		return &netem.LossyLink{Label: label, LossRate: s.Rate, Seed: s.Seed}, nil
	case "dup":
		return &netem.DuplicatingLink{Label: label, DupRate: s.Rate, Seed: s.Seed}, nil
	case "ge":
		pbg, lossBad := s.Rate2, s.Rate3
		if pbg <= 0 {
			pbg = 0.3
		}
		if lossBad <= 0 {
			lossBad = 0.8
		}
		return &netem.GilbertElliottLink{Label: label, PGB: s.Rate, PBG: pbg, LossBad: lossBad, Seed: s.Seed}, nil
	case "corrupt":
		return &netem.CorruptingLink{Label: label, CorruptRate: s.Rate, Seed: s.Seed}, nil
	case "payload":
		return &netem.PayloadCorruptingLink{Label: label, CorruptRate: s.Rate, Seed: s.Seed}, nil
	case "delay":
		ms, jitter := s.DelayMs, s.JitterMs
		if ms <= 0 {
			ms = s.Rate
		}
		if jitter <= 0 {
			jitter = s.Rate2
		}
		if ms <= 0 && jitter <= 0 {
			return nil, fmt.Errorf("dpi: impairment %q needs a positive delay", s.Kind)
		}
		return &netem.DelayLink{Label: label,
			Delay:  time.Duration(ms * float64(time.Millisecond)),
			Jitter: time.Duration(jitter * float64(time.Millisecond)), Seed: s.Seed}, nil
	case "reorder":
		hold := s.HoldMs
		if hold <= 0 {
			hold = s.Rate2
		}
		return &netem.ReorderLink{Label: label, Rate: s.Rate,
			HoldFor: time.Duration(hold * float64(time.Millisecond)), Seed: s.Seed}, nil
	case "nth":
		every, offset := s.Every, s.Offset
		if every <= 0 {
			every = int(s.Rate)
		}
		if offset == 0 {
			offset = int(s.Rate2)
		}
		if every < 1 {
			return nil, fmt.Errorf("dpi: impairment %q needs every ≥ 1, got %d", s.Kind, every)
		}
		return &netem.NthLink{Label: label, Every: every, Offset: offset}, nil
	case "rate":
		kbps, burst := s.KBps, s.BurstKB
		if kbps <= 0 {
			kbps = s.Rate
		}
		if burst <= 0 {
			burst = s.Rate2
		}
		if kbps <= 0 {
			return nil, fmt.Errorf("dpi: impairment %q needs a positive KB/s rate", s.Kind)
		}
		return &netem.TokenBucketLink{Label: label, Rate: kbps * 1024, Burst: burst * 1024}, nil
	}
	return nil, fmt.Errorf("dpi: unknown impairment kind %q (loss|dup|ge|corrupt|payload|delay|reorder|nth|rate)", s.Kind)
}

// ParseImpairments parses the -impair CLI form: comma-separated
// kind:rate entries, with "ge" taking kind:pgb/pbg[/lossbad] and an
// optional @egress / @ingress direction suffix per entry, e.g.
//
//	loss:0.02@egress,dup:0.01,ge:0.05/0.3/0.8,delay:5/2@ingress
//
// The non-probabilistic kinds read their slots positionally: delay:ms/jitter,
// reorder:rate/holdms, nth:every/offset, rate:kbps/burstkb.
func ParseImpairments(s string) ([]ImpairmentSpec, error) {
	var specs []ImpairmentSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var dir string
		if body, suffix, ok := strings.Cut(part, "@"); ok {
			part, dir = body, suffix
		}
		kind, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("dpi: impairment %q: want kind:rate", part)
		}
		spec := ImpairmentSpec{Kind: kind, Dir: dir}
		rates := strings.Split(rest, "/")
		for i, r := range rates {
			v, err := strconv.ParseFloat(r, 64)
			if err != nil {
				return nil, fmt.Errorf("dpi: impairment %q: bad rate %q: %w", part, r, err)
			}
			switch i {
			case 0:
				spec.Rate = v
			case 1:
				spec.Rate2 = v
			case 2:
				spec.Rate3 = v
			default:
				return nil, fmt.Errorf("dpi: impairment %q: too many rates", part)
			}
		}
		if _, err := spec.build("probe"); err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// AddImpairments inserts the specified links at the client end of the
// path, before any existing element, so they impair the client's view of
// both data and injected teardown packets. Call before the first replay
// or Fork.
func (n *Network) AddImpairments(specs []ImpairmentSpec) error {
	if len(specs) == 0 {
		return nil
	}
	els := make([]netem.Element, 0, len(specs)+len(n.Env.Elements()))
	for i, s := range specs {
		el, err := s.build(fmt.Sprintf("%s-impair-%s-%d", n.Name, s.Kind, i))
		if err != nil {
			return err
		}
		els = append(els, el)
	}
	n.Env.ReplaceElements(append(els, n.Env.Elements()...))
	return nil
}

// Noisy reports whether the network carries any stochastic fault or
// impairment — the signal lib·erate's phases use to switch from the
// single-shot fast path to robust (voted, retried) probing.
func (n *Network) Noisy() bool {
	if n.MB != nil && n.MB.Cfg.Faults.Any() {
		return true
	}
	for _, el := range n.Env.Elements() {
		if noisyElement(el) {
			return true
		}
	}
	return false
}

// noisyElement reports whether one element injects stochastic or
// verdict-perturbing behaviour, recursing through the scenario-pack
// wrappers. Pure shaping (constant delay, rate limiting) is not noisy —
// it shifts timing without losing or mutating bytes.
func noisyElement(el netem.Element) bool {
	switch e := el.(type) {
	case *netem.LossyLink:
		return e.LossRate > 0
	case *netem.DuplicatingLink:
		return e.DupRate > 0
	case *netem.GilbertElliottLink:
		return e.PGB > 0 && e.LossBad > 0 || e.LossGood > 0
	case *netem.CorruptingLink:
		return e.CorruptRate > 0
	case *netem.PayloadCorruptingLink:
		return e.CorruptRate > 0
	case *netem.DelayLink:
		return e.Jitter > 0
	case *netem.ReorderLink:
		return e.Rate > 0
	case *netem.NthLink:
		return e.Every > 0
	case *netem.AsymLink:
		return noisyElement(e.Inner)
	case *netem.PhaseLink:
		return noisyElement(e.Inner)
	}
	return false
}

// FaultsSpec is the JSON form of Faults (classifier-side stochastic
// misbehaviour) for custom network specs.
type FaultsSpec struct {
	MissRate     float64 `json:"miss_rate,omitempty"`
	RSTDropRate  float64 `json:"rst_drop_rate,omitempty"`
	RSTDelayRate float64 `json:"rst_delay_rate,omitempty"`
	RSTDelayMs   int     `json:"rst_delay_ms,omitempty"`
	FlowTableCap int     `json:"flow_table_cap,omitempty"`
	OutageEveryS int     `json:"outage_every_s,omitempty"`
	OutageForS   int     `json:"outage_for_s,omitempty"`
}

// validate rejects knobs the middlebox would misread: a rate outside
// [0, 1] (NaN included), a negative count or duration, and a duration too
// long for time.Duration, which would wrap.
func (fs *FaultsSpec) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"miss_rate", fs.MissRate},
		{"rst_drop_rate", fs.RSTDropRate},
		{"rst_delay_rate", fs.RSTDelayRate},
	} {
		if !(r.v >= 0 && r.v <= 1) {
			return fmt.Errorf("dpi: faults %s %v outside [0, 1]", r.name, r.v)
		}
	}
	for _, n := range []struct {
		name string
		v    int
		unit time.Duration // 1 for a plain count
	}{
		{"rst_delay_ms", fs.RSTDelayMs, time.Millisecond},
		{"flow_table_cap", fs.FlowTableCap, 1},
		{"outage_every_s", fs.OutageEveryS, time.Second},
		{"outage_for_s", fs.OutageForS, time.Second},
	} {
		if n.v < 0 {
			return fmt.Errorf("dpi: faults %s %d is negative", n.name, n.v)
		}
		if int64(n.v) > math.MaxInt64/int64(n.unit) {
			return fmt.Errorf("dpi: faults %s %d overflows a duration", n.name, n.v)
		}
	}
	return nil
}

func (fs *FaultsSpec) faults() Faults {
	return Faults{
		MissRate:     fs.MissRate,
		RSTDropRate:  fs.RSTDropRate,
		RSTDelayRate: fs.RSTDelayRate,
		RSTDelay:     time.Duration(fs.RSTDelayMs) * time.Millisecond,
		FlowTableCap: fs.FlowTableCap,
		OutageEvery:  time.Duration(fs.OutageEveryS) * time.Second,
		OutageFor:    time.Duration(fs.OutageForS) * time.Second,
	}
}
