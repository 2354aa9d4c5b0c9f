// Package liberate is the public API of this lib·erate reproduction: a
// library for exposing traffic-classification rules and avoiding them
// efficiently (Li et al., IMC 2017).
//
// The package re-exports the core engine (detection, characterization,
// evasion evaluation, deployment), the evasion-technique taxonomy, the
// simulated network profiles of the paper's six evaluated environments,
// and the built-in application traces. A typical engagement:
//
//	net := liberate.NewTMobile()
//	tr := liberate.AmazonPrimeVideo(10 << 20)
//	report := (&liberate.Liberate{Net: net, Trace: tr}).Run()
//	report.WriteSummary(os.Stdout)
//	transform := report.DeployTransform(1) // install on live flows
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured comparison of every table and figure.
package liberate

import (
	"repro/internal/core"
	"repro/internal/dpi"
	"repro/internal/netem"
	"repro/internal/netem/stack"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

// Engine types (the paper's four phases).
type (
	// Liberate orchestrates detection → characterization → evaluation →
	// deployment against one network for one recorded trace.
	Liberate = core.Liberate
	// Report is a full engagement outcome.
	Report = core.Report
	// Detection is the differentiation-detection phase output.
	Detection = core.Detection
	// Characterization is the classifier reverse-engineering output.
	Characterization = core.Characterization
	// Evaluation holds per-technique verdicts.
	Evaluation = core.Evaluation
	// Verdict is one technique's outcome.
	Verdict = core.Verdict
	// Technique is one row of the Table 3 taxonomy.
	Technique = core.Technique
	// FieldRef is one matching-field byte range.
	FieldRef = core.FieldRef
	// Session tracks one engagement's replays and accounting.
	Session = core.Session
	// BuildParams parameterizes technique construction.
	BuildParams = core.BuildParams
)

// Ambiguity fingerprint (DESIGN.md §16): the opt-in phase 0 that
// identifies the path's DPI profile and prunes the evaluation suite.
type (
	// FingerprintResult is the phase-0 ambiguity-fingerprint outcome:
	// identified profile, probe evidence, and the pruned technique list.
	FingerprintResult = core.FingerprintResult
	// AmbiguityObservation is one probe's observed resolution.
	AmbiguityObservation = dpi.Observation
)

var (
	// FingerprintNetwork runs only the ambiguity probes against a network
	// and identifies its DPI profile — no detection or evaluation.
	FingerprintNetwork = core.FingerprintNetwork
	// IdentifyProfile maps observed probe resolutions to a known profile.
	IdentifyProfile = dpi.IdentifyProfile
	// RuledOutTechniques lists the technique IDs a profile rules out.
	RuledOutTechniques = dpi.RuledOutTechniques
	// AmbiguityProfiles lists the profiles the decision tree can identify.
	AmbiguityProfiles = dpi.AmbiguityProfiles
)

// Network and trace types.
type (
	// Network is a simulated evaluation environment.
	Network = dpi.Network
	// Trace is a recorded application flow. Treat a trace as immutable
	// once an engagement or replay has used it: the probes and replay
	// scripts derived from it are memoized per trace for the whole
	// process. Edit a Clone or ShallowClone instead.
	Trace = trace.Trace
	// TraceMessage is one application write in a trace.
	TraceMessage = trace.Message

	// ReplayResult is everything one replay observes (Session.Replay's
	// return type).
	ReplayResult = replay.Result
	// ReplayOptions configures one replay; Session.Replay accepts
	// functional options over it.
	ReplayOptions = replay.Options
	// Recorder reconstructs a replayable trace from observed wire packets
	// (Figure 3 step 1).
	Recorder = replay.Recorder

	// OutgoingTransform is the hook evasion techniques implement.
	OutgoingTransform = stack.OutgoingTransform
	// OSProfile is an endpoint operating-system validation profile.
	OSProfile = stack.OSProfile
	// NetworkElement is one in-path device of a simulated topology.
	NetworkElement = netem.Element
)

// Endpoint OS profiles (the Table 3 server-response columns).
var (
	LinuxOS   = stack.Linux
	MacOSOS   = stack.MacOS
	WindowsOS = stack.Windows
)

// NewRecorder returns an empty flow recorder.
func NewRecorder() *Recorder { return replay.NewRecorder() }

// Differentiation kinds.
const (
	DiffBlocking   = core.DiffBlocking
	DiffThrottling = core.DiffThrottling
	DiffZeroRating = core.DiffZeroRating
)

// Extension types (§7 future-work features implemented here).
type (
	// Masquerade impersonates a better-treated traffic class.
	Masquerade = core.Masquerade
	// Monitor is the runtime adaptation loop: re-check the deployed
	// technique, re-engage when the classifier changes.
	Monitor = core.Monitor
	// RuleCache shares characterization results between clients.
	RuleCache = core.RuleCache
	// CacheEntry is one shared characterization + technique choice.
	CacheEntry = core.CacheEntry
)

// Extension constructors and helpers.
var (
	// NewMonitor wraps a completed engagement for runtime monitoring.
	NewMonitor = core.NewMonitor
	// NewRuleCache returns an empty shared-results cache.
	NewRuleCache = core.NewRuleCache
	// LoadRuleCache reads a shared cache file (missing file = empty cache).
	LoadRuleCache = core.LoadRuleCache
	// DeployFromCache verifies and deploys a shared cache entry.
	DeployFromCache = core.DeployFromCache
	// MasqueradeFromReport builds a masquerade from an engagement.
	MasqueradeFromReport = core.MasqueradeFromReport
	// BaitFromTrace extracts masquerade bait from a recorded flow.
	BaitFromTrace = core.BaitFromTrace
	// BilateralDummyPrefix is the server-assisted dummy-prefix evasion.
	BilateralDummyPrefix = core.BilateralDummyPrefix
)

// Taxonomy returns the full evasion-technique suite in Table 3 row order.
func Taxonomy() []Technique { return core.Taxonomy() }

// TechniqueByID finds one taxonomy entry.
func TechniqueByID(id string) (Technique, bool) { return core.TechniqueByID(id) }

// NewSession starts a manual engagement (replay accounting, port
// management) for callers that run their own replays (Session.Replay),
// e.g. to verify a deployed transform.
func NewSession(net *Network) *Session { return core.NewSession(net) }

// HopInfo is one discovered router on the path.
type HopInfo = core.HopInfo

// Traceroute discovers the path's hops with ICMP time-exceeded probes.
func Traceroute(net *Network, maxTTL int) []HopInfo { return core.Traceroute(net, maxTTL) }

// Network profiles of the paper's evaluated environments.
var (
	// NewTestbed is the §6.1 carrier-grade DPI testbed.
	NewTestbed = dpi.NewTestbed
	// NewTMobile is the §6.2 T-Mobile Binge On / Music Freedom model.
	NewTMobile = dpi.NewTMobile
	// NewATT is the §6.3 AT&T Stream Saver transparent proxy model.
	NewATT = dpi.NewATT
	// NewSprint is the §6.4 null-result network.
	NewSprint = dpi.NewSprint
	// NewGFC is the §6.5 Great Firewall of China model.
	NewGFC = dpi.NewGFC
	// NewIran is the §6.6 Iranian censor model.
	NewIran = dpi.NewIran
	// NewBaseline is a clean classifier-free path.
	NewBaseline = dpi.NewBaseline
	// NetworkByName builds a profile by name
	// (testbed|tmobile|gfc|iran|att|sprint).
	NetworkByName = dpi.ByName
	// LoadNetworkSpec builds a custom network from a JSON spec file.
	LoadNetworkSpec = dpi.LoadNetworkSpec
	// ParseNetworkSpec builds a custom network from JSON bytes.
	ParseNetworkSpec = dpi.ParseNetworkSpec
)

// NetworkSpec is the JSON-serializable custom-network description.
type NetworkSpec = dpi.NetworkSpec

// Flaky-world types: stochastic middlebox faults and link impairments.
type (
	// Faults holds per-middlebox stochastic fault knobs (classifier miss
	// rate, RST drop/delay, flow-table cap, outage windows).
	Faults = dpi.Faults
	// ImpairmentSpec describes one client-side link impairment (loss,
	// duplication, Gilbert-Elliott bursty loss, corruption, delay,
	// reordering, nth-packet loss, rate limiting), optionally restricted
	// to one direction.
	ImpairmentSpec = dpi.ImpairmentSpec
)

// ParseImpairments parses the CLI impairment syntax, e.g.
// "loss:0.02,ge:0.05/0.3/0.8,delay:5/2@ingress".
var ParseImpairments = dpi.ParseImpairments

// Scenario packs: named worlds composing phase-scheduled, possibly
// direction-asymmetric impairments with classifier faults (DESIGN.md §15).
type (
	// ScenarioPack is a scenario-pack/v1 document: a named set of worlds.
	ScenarioPack = dpi.ScenarioPack
	// ScenarioSpec is one world: a fault overlay plus a phase schedule.
	ScenarioSpec = dpi.ScenarioSpec
	// ScenarioPhase is one activation window of a schedule.
	ScenarioPhase = dpi.ScenarioPhase
)

// ScenarioSchema is the versioned identifier scenario-pack files carry.
const ScenarioSchema = dpi.ScenarioSchema

var (
	// LoadScenarioPack reads and validates a scenario-pack file.
	LoadScenarioPack = dpi.LoadScenarioPack
	// ParseScenarioPack decodes and validates scenario-pack bytes.
	ParseScenarioPack = dpi.ParseScenarioPack
)

// Built-in application traces (§6 workloads).
var (
	AmazonPrimeVideo = trace.AmazonPrimeVideo
	Spotify          = trace.Spotify
	YouTubeTLS       = trace.YouTubeTLS
	EconomistWeb     = trace.EconomistWeb
	FacebookWeb      = trace.FacebookWeb
	NBCSportsVideo   = trace.NBCSportsVideo
	SkypeCall        = trace.SkypeCall
	ESPNStream       = trace.ESPNStream
	BuiltinTraces    = trace.Builtin
	LoadTrace        = trace.Load
)

// Observability: the deterministic evidence stream threaded through the
// simulator, classifier, and engine (see DESIGN.md §11). Attach a
// buffer to a network before running an engagement and serialize it
// afterwards:
//
//	net := liberate.NewTestbed()
//	buf := liberate.NewTraceBuffer()
//	net.Env.SetRecorder(buf)
//	(&liberate.Liberate{Net: net, Trace: tr}).Run()
//	buf.WriteJSON(os.Stdout, liberate.TraceMeta{Network: net.Name, Trace: tr.Name})
type (
	// TraceBuffer collects events and counters; also the bounded flight
	// ring used for failure post-mortems.
	TraceBuffer = obs.Buffer
	// TraceEvent is one recorded packet-path or engine event.
	TraceEvent = obs.Event
	// TraceMeta labels a serialized trace.
	TraceMeta = obs.TraceMeta
	// TraceSink is the recording interface networks accept
	// (Env.SetRecorder); TraceBuffer implements it.
	TraceSink = obs.Recorder
)

var (
	// NewTraceBuffer returns an unbounded event buffer.
	NewTraceBuffer = obs.NewBuffer
	// NewFlightRecorder returns a ring keeping only the newest n events.
	NewFlightRecorder = obs.NewFlightRecorder
	// ValidateTrace checks a serialized trace against the event schema.
	ValidateTrace = obs.ValidateTrace
)
