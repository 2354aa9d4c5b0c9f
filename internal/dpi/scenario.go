package dpi

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/netem"
)

// ScenarioSchema is the versioned identifier a scenario-pack file must
// carry. Unknown versions are rejected so old binaries fail loudly on
// packs written for newer schemas instead of silently ignoring fields.
const ScenarioSchema = "scenario-pack/v1"

// ScenarioPack is a named collection of scenarios — declarative "worlds"
// composing path impairments, phase schedules, and classifier faults —
// that a campaign spec expands into a sweep axis. The JSON form:
//
//	{
//	  "schema": "scenario-pack/v1",
//	  "name": "flaky-access",
//	  "scenarios": [
//	    {"name": "clean"},
//	    {"name": "bursty-up", "phases": [
//	      {"start_s": 0},
//	      {"start_s": 2, "egress": [{"kind": "ge", "rate": 0.2}]},
//	      {"start_s": 5, "impair": [{"kind": "rate", "kbps": 64}]}
//	    ]}
//	  ]
//	}
type ScenarioPack struct {
	Schema    string         `json:"schema"`
	Name      string         `json:"name"`
	Scenarios []ScenarioSpec `json:"scenarios"`
}

// ScenarioSpec is one named world: an optional classifier-fault overlay
// plus a phase schedule of path impairments. An empty spec (just a name)
// is the clean world — useful as the sweep's control arm.
type ScenarioSpec struct {
	Name string `json:"name"`
	// Faults, when set, replaces the middlebox's fault profile for the
	// engagement. Ignored on networks without a middlebox.
	Faults *FaultsSpec `json:"faults,omitempty"`
	// Phases is the time-varying impairment schedule. Phase i is active
	// from StartS_i until StartS_{i+1} (the last phase is open-ended),
	// measured in virtual time from the first packet of the engagement.
	Phases []ScenarioPhase `json:"phases,omitempty"`
}

// ScenarioPhase is one window of the schedule. Impair applies in both
// directions (honouring each spec's own Dir), Egress only client→server,
// Ingress only server→client.
type ScenarioPhase struct {
	// StartS is the phase's activation time in seconds of virtual time
	// since the engagement's first packet. Must be strictly increasing
	// across phases; the first phase usually starts at 0.
	StartS  float64          `json:"start_s"`
	Impair  []ImpairmentSpec `json:"impair,omitempty"`
	Egress  []ImpairmentSpec `json:"egress,omitempty"`
	Ingress []ImpairmentSpec `json:"ingress,omitempty"`
}

// Validate checks the scenario is buildable: phase starts strictly
// increasing and every impairment spec constructible.
func (sc *ScenarioSpec) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("dpi: scenario needs a name")
	}
	for i, ph := range sc.Phases {
		if ph.StartS < 0 {
			return fmt.Errorf("dpi: scenario %q phase %d: negative start %vs", sc.Name, i, ph.StartS)
		}
		if ph.StartS > maxStartS {
			return fmt.Errorf("dpi: scenario %q phase %d: start %vs beyond virtual time (max %vs)", sc.Name, i, ph.StartS, maxStartS)
		}
		// Compare the instants Apply schedules, not the floats: two starts
		// within a nanosecond would collapse into one instant, and a zero
		// end reads as open-ended.
		if i > 0 && phaseStart(ph.StartS) <= phaseStart(sc.Phases[i-1].StartS) {
			return fmt.Errorf("dpi: scenario %q phase %d: start %vs not after previous %vs",
				sc.Name, i, ph.StartS, sc.Phases[i-1].StartS)
		}
		for _, group := range []struct {
			dir   string
			specs []ImpairmentSpec
		}{{"", ph.Impair}, {"egress", ph.Egress}, {"ingress", ph.Ingress}} {
			for _, s := range group.specs {
				if group.dir != "" {
					s.Dir = group.dir
				}
				if _, err := s.build("probe"); err != nil {
					return fmt.Errorf("dpi: scenario %q phase %d: %w", sc.Name, i, err)
				}
			}
		}
	}
	return nil
}

// maxStartS is the latest phase start, in seconds, a time.Duration can
// hold (about 292 years); a later start would wrap negative.
const maxStartS = float64(math.MaxInt64/int64(time.Second)) - 1

// phaseStart converts a phase's start_s into its virtual-time offset.
func phaseStart(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Hash returns a short content digest of the scenario — stable across
// processes, used to salt fingerprint-keyed caches so a scenario-armed
// engagement never collides with the clean one.
func (sc *ScenarioSpec) Hash() string {
	b, _ := json.Marshal(sc)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:12]
}

// Apply arms the network with the scenario: phase-gated impairment
// elements are prepended at the client end of the path (like
// AddImpairments), and the fault overlay replaces the middlebox's fault
// profile when one is present. Call after building the network and
// before the first replay or Fork.
func (sc *ScenarioSpec) Apply(n *Network) error {
	if sc.Faults != nil && n.MB != nil {
		n.MB.Cfg.Faults = sc.Faults.faults()
	}
	var els []netem.Element
	for i, ph := range sc.Phases {
		start := phaseStart(ph.StartS)
		var end time.Duration // open-ended unless a later phase begins
		if i+1 < len(sc.Phases) {
			end = phaseStart(sc.Phases[i+1].StartS)
		}
		for _, group := range []struct {
			dir   string
			specs []ImpairmentSpec
		}{{"", ph.Impair}, {"egress", ph.Egress}, {"ingress", ph.Ingress}} {
			for j, s := range group.specs {
				if group.dir != "" {
					s.Dir = group.dir
				}
				label := fmt.Sprintf("%s-sc-%s-p%d-%s-%d", n.Name, sc.Name, i, s.Kind, j)
				inner, err := s.build(label)
				if err != nil {
					return err
				}
				// Each (phase, impairment) pair is its own flat chain element;
				// PhaseLink sits outermost so every wrapper sees every packet
				// and captures the same first-packet origin.
				els = append(els, &netem.PhaseLink{Label: label + "-phase", Start: start, End: end, Inner: inner})
			}
		}
	}
	if len(els) > 0 {
		n.Env.ReplaceElements(append(els, n.Env.Elements()...))
	}
	return nil
}

// ParseScenarioPack decodes and validates a scenario-pack document.
func ParseScenarioPack(data []byte) (*ScenarioPack, error) {
	var p ScenarioPack
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("dpi: parse scenario pack: %w", err)
	}
	if p.Schema != ScenarioSchema {
		return nil, fmt.Errorf("dpi: scenario pack schema %q, want %q", p.Schema, ScenarioSchema)
	}
	if len(p.Scenarios) == 0 {
		return nil, fmt.Errorf("dpi: scenario pack %q has no scenarios", p.Name)
	}
	seen := make(map[string]bool, len(p.Scenarios))
	for i := range p.Scenarios {
		sc := &p.Scenarios[i]
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		if seen[sc.Name] {
			return nil, fmt.Errorf("dpi: scenario pack %q: duplicate scenario %q", p.Name, sc.Name)
		}
		seen[sc.Name] = true
	}
	return &p, nil
}

// LoadScenarioPack reads and validates a scenario-pack file.
func LoadScenarioPack(path string) (*ScenarioPack, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dpi: load scenario pack: %w", err)
	}
	return ParseScenarioPack(data)
}

// Find returns the named scenario, or nil when absent.
func (p *ScenarioPack) Find(name string) *ScenarioSpec {
	for i := range p.Scenarios {
		if p.Scenarios[i].Name == name {
			return &p.Scenarios[i]
		}
	}
	return nil
}
