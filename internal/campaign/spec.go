// Package campaign orchestrates fleets of lib·erate engagements: it
// expands a declarative spec (networks × traces × sweep parameters) into
// an engagement matrix, executes it on a bounded worker pool with
// per-engagement fault isolation, and aggregates the per-engagement
// reports into a deterministic campaign summary.
//
// Determinism is a hard design constraint: the same spec produces
// byte-identical aggregated JSON at any worker count. Everything that
// depends on scheduling (wall-clock durations, progress rates) lives in
// the Observer stream, never in the Summary.
package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dpi"
	"repro/internal/netem/stack"
	"repro/internal/registry"
)

// Duration is a time.Duration that marshals to/from JSON as a string
// ("30s", "2m"), so campaign spec files stay human-editable.
type Duration time.Duration

// D returns the wrapped time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string ("30s") or integer
// nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("campaign: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("campaign: duration must be a string or integer nanoseconds: %s", b)
	}
	*d = Duration(ns)
	return nil
}

// Spec declares a campaign: the engagement matrix is the cross product
// Networks × Traces × Hours × Bodies × Seeds. Empty sweep dimensions get
// a single default element, and empty Networks/Traces mean "all
// built-ins" from the registry.
type Spec struct {
	// Name labels the campaign in reports.
	Name string `json:"name,omitempty"`

	// Networks are registry profile names (default: all built-ins).
	Networks []string `json:"networks,omitempty"`
	// Traces are registry trace names (default: all built-ins).
	Traces []string `json:"traces,omitempty"`

	// Hours advances each engagement's virtual clock to the given hour of
	// day before engaging — sweeps time-dependent classifier behaviour
	// such as the GFC's load-dependent flushing (default: [0]).
	Hours []int `json:"hours,omitempty"`
	// Bodies are nominal response body sizes in bytes for generated
	// traces (default: [registry.DefaultBody]).
	Bodies []int `json:"bodies,omitempty"`
	// Seeds drive deployment-transform construction per engagement
	// (default: [1]). Extra seeds act as replications: a deterministic
	// engine must agree across them, and the aggregator reports any
	// disagreement.
	Seeds []int64 `json:"seeds,omitempty"`

	// ServerOS selects the replay server endpoint profile for all
	// engagements: linux (default), macos, or windows.
	ServerOS string `json:"server_os,omitempty"`

	// EvalWorkers bounds each engagement's internal fork-and-join
	// evaluation pool (0 = GOMAXPROCS). Campaigns already running many
	// engagements in parallel set 1 to stop Workers × GOMAXPROCS
	// oversubscription; results are identical at any value.
	EvalWorkers int `json:"eval_workers,omitempty"`

	// Fingerprint arms the phase-0 ambiguity fingerprint on every
	// engagement: identify the DPI profile by probing, then prune the
	// evaluation suite of techniques the profile rules out. Off by
	// default; an unarmed campaign's rows, keys, and summary are
	// byte-identical to historical builds.
	Fingerprint bool `json:"fingerprint,omitempty"`

	// Timeout bounds each engagement attempt; 0 means no timeout.
	Timeout Duration `json:"timeout,omitempty"`
	// Retries is how many extra attempts a transiently-failed engagement
	// gets (timeouts and errors marked transient; panics never retry).
	Retries int `json:"retries,omitempty"`

	// ScenarioPack names a scenario-pack/v1 file whose scenarios become
	// the outermost sweep axis. LoadSpec/ParseSpec resolve it into the
	// inline Scenarios list (relative to the spec file's directory), so a
	// spec shipped to cluster workers never references local paths.
	ScenarioPack string `json:"scenario_pack,omitempty"`
	// Scenarios is the inline scenario axis (usually resolved from
	// ScenarioPack). Empty means a single clean pass — the engagement
	// matrix, keys, and summary stay byte-identical to a scenario-less
	// build. Scenarios do not get a default element: there is no implicit
	// clean arm, packs include a bare {"name": "clean"} when they want one.
	Scenarios []dpi.ScenarioSpec `json:"scenarios,omitempty"`
}

// ResolveScenarios loads the spec's scenario pack (if any) into the
// inline Scenarios list and clears the path, so the spec becomes
// self-contained. Relative paths resolve against baseDir ("" = cwd).
func (s *Spec) ResolveScenarios(baseDir string) error {
	if s.ScenarioPack == "" {
		return nil
	}
	if len(s.Scenarios) > 0 {
		return fmt.Errorf("campaign: spec sets both scenario_pack and inline scenarios")
	}
	path := s.ScenarioPack
	if baseDir != "" && !filepath.IsAbs(path) {
		path = filepath.Join(baseDir, path)
	}
	pack, err := dpi.LoadScenarioPack(path)
	if err != nil {
		return err
	}
	s.Scenarios = pack.Scenarios
	s.ScenarioPack = ""
	return nil
}

// Engagement is one cell of the expanded campaign matrix.
type Engagement struct {
	// Index is the cell's position in deterministic expansion order.
	Index   int    `json:"-"`
	Network string `json:"network"`
	Trace   string `json:"trace"`
	Hour    int    `json:"hour"`
	Body    int    `json:"body"`
	Seed    int64  `json:"seed"`
	// Scenario names the scenario-pack world this cell runs under; ""
	// means the clean path.
	Scenario string `json:"scenario,omitempty"`
	// Fingerprint arms the phase-0 ambiguity fingerprint for this cell
	// (set by Expand from Spec.Fingerprint). It salts cache and store
	// keys: pruned and unpruned engagements never alias.
	Fingerprint bool `json:"fingerprint,omitempty"`
	// EvalWorkers bounds the cell's evaluation pool (set by Expand from
	// Spec.EvalWorkers; 0 = GOMAXPROCS). Never part of the key — worker
	// count does not influence results.
	EvalWorkers int `json:"eval_workers,omitempty"`

	// scenario is the resolved spec behind Scenario, set by Expand.
	// Engagements constructed by hand (tests, ad-hoc subsets) with a
	// non-empty Scenario but nil pointer fail loudly in DefaultEngage.
	scenario *dpi.ScenarioSpec
	// fingerprinted is precomputed phase-0 probe evidence injected by the
	// runner's per-run fingerprint memo (nil = the engagement probes for
	// itself). Probing a named profile is deterministic, so adoption is
	// byte-identical to re-probing.
	fingerprinted *core.FingerprintResult
}

// Key is the engagement's stable identity, used for sorting, failure
// records, and disagreement reporting. The scenario segment appears only
// when one is set, so scenario-less keys match older records.
func (e Engagement) Key() string {
	k := e.Network + "/" + e.Trace +
		"/h=" + strconv.Itoa(e.Hour) +
		"/b=" + strconv.Itoa(e.Body) +
		"/s=" + strconv.FormatInt(e.Seed, 10)
	if e.Scenario != "" {
		k += "/sc=" + e.Scenario
	}
	return k
}

// withDefaults returns a copy of the spec with every empty dimension
// filled in, so Expand and Aggregate see the same effective matrix.
func (s Spec) withDefaults() Spec {
	if len(s.Networks) == 0 {
		s.Networks = registry.NetworkNames()
	}
	if len(s.Traces) == 0 {
		s.Traces = registry.TraceNames()
	}
	if len(s.Hours) == 0 {
		s.Hours = []int{0}
	}
	if len(s.Bodies) == 0 {
		s.Bodies = []int{registry.DefaultBody}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1}
	}
	if s.ServerOS == "" {
		s.ServerOS = "linux"
	}
	return s
}

// Validate checks every referenced name without building anything.
func (s Spec) Validate() error {
	eff := s.withDefaults()
	for _, n := range eff.Networks {
		if _, err := registry.LookupNetwork(n); err != nil {
			return err
		}
	}
	for _, t := range eff.Traces {
		if _, err := registry.LookupTrace(t); err != nil {
			return err
		}
	}
	if stack.OSByName(eff.ServerOS) == nil {
		return fmt.Errorf("campaign: unknown server OS %q (linux|macos|windows)", eff.ServerOS)
	}
	if s.ScenarioPack != "" {
		return fmt.Errorf("campaign: scenario pack %q not resolved (call ResolveScenarios)", s.ScenarioPack)
	}
	seenSc := make(map[string]bool, len(s.Scenarios))
	for i := range s.Scenarios {
		sc := &s.Scenarios[i]
		if err := sc.Validate(); err != nil {
			return err
		}
		if seenSc[sc.Name] {
			return fmt.Errorf("campaign: duplicate scenario %q", sc.Name)
		}
		seenSc[sc.Name] = true
	}
	if s.Retries < 0 {
		return fmt.Errorf("campaign: negative retries %d", s.Retries)
	}
	if s.EvalWorkers < 0 {
		return fmt.Errorf("campaign: negative eval workers %d", s.EvalWorkers)
	}
	if s.Timeout < 0 {
		return fmt.Errorf("campaign: negative timeout %s", s.Timeout)
	}
	return nil
}

// Expand validates the spec and returns the engagement matrix in
// deterministic order: scenarios × networks × traces × hours × bodies ×
// seeds, each dimension in spec order. With no scenarios the matrix (and
// its order) is identical to a scenario-less build.
func (s Spec) Expand() ([]Engagement, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	eff := s.withDefaults()
	// The scenario axis: one nil (clean) pass when the spec has none.
	// Pointers into eff.Scenarios stay valid after return — the backing
	// array outlives the local copy.
	scAxis := []*dpi.ScenarioSpec{nil}
	if len(eff.Scenarios) > 0 {
		scAxis = scAxis[:0]
		for i := range eff.Scenarios {
			scAxis = append(scAxis, &eff.Scenarios[i])
		}
	}
	out := make([]Engagement, 0, len(scAxis)*
		len(eff.Networks)*len(eff.Traces)*len(eff.Hours)*len(eff.Bodies)*len(eff.Seeds))
	for _, sc := range scAxis {
		scName := ""
		if sc != nil {
			scName = sc.Name
		}
		for _, n := range eff.Networks {
			for _, t := range eff.Traces {
				for _, h := range eff.Hours {
					for _, b := range eff.Bodies {
						for _, seed := range eff.Seeds {
							out = append(out, Engagement{
								Index: len(out), Network: n, Trace: t,
								Hour: h, Body: b, Seed: seed,
								Scenario: scName, scenario: sc,
								Fingerprint: eff.Fingerprint,
								EvalWorkers: eff.EvalWorkers,
							})
						}
					}
				}
			}
		}
	}
	return out, nil
}

// LoadSpec reads a campaign spec from a JSON file. A scenario_pack
// reference is resolved relative to the spec file's directory.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	return parseSpec(data, filepath.Dir(path))
}

// ParseSpec decodes a campaign spec from JSON bytes and validates it. A
// scenario_pack reference is resolved relative to the working directory.
func ParseSpec(data []byte) (Spec, error) {
	return parseSpec(data, "")
}

func parseSpec(data []byte, baseDir string) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("campaign: parse spec: %w", err)
	}
	if err := s.ResolveScenarios(baseDir); err != nil {
		return Spec{}, err
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// MarshalIndent renders the spec (with defaults applied) as JSON, the
// format LoadSpec reads — used by -export-spec to bootstrap campaign
// files.
func (s Spec) MarshalIndent() ([]byte, error) {
	eff := s.withDefaults()
	return json.MarshalIndent(eff, "", "  ")
}
