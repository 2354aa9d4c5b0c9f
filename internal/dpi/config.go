package dpi

import (
	"math"
	"time"

	"repro/internal/netem/packet"
)

// InspectMode selects how much of a flow the classifier looks at.
type InspectMode int

const (
	// InspectWindow inspects only the first WindowPackets payload-carrying
	// packets of each direction (the testbed and T-Mobile behaviour the
	// paper reverse-engineered: "most classifiers made final decisions
	// within a small number of packets").
	InspectWindow InspectMode = iota
	// InspectAllPackets inspects the whole flow for as long as state is
	// retained (the GFC).
	InspectAllPackets
	// InspectPerPacket matches each packet's payload independently with no
	// flow state at all (Iran, §6.6).
	InspectPerPacket
)

// ReassemblyMode selects whether TCP payloads are matched per packet or as
// a reconstructed stream.
type ReassemblyMode int

const (
	// ReassembleNone matches each packet payload in isolation — splitting
	// a keyword across segments defeats such classifiers.
	ReassembleNone ReassemblyMode = iota
	// ReassembleArrival concatenates payloads in *arrival order* without
	// consulting sequence numbers (T-Mobile: reordered segments scramble
	// the reconstruction).
	ReassembleArrival
	// ReassembleSeq performs sequence-correct stream reassembly (the GFC:
	// splitting and reordering do not help).
	ReassembleSeq
)

// RSTBehavior selects what a classifier does when it sees a RST on a flow.
type RSTBehavior int

const (
	// RSTIgnored: RSTs have no effect on classifier state (Iran).
	RSTIgnored RSTBehavior = iota
	// RSTKillsFlow: the flow is marked dead and its classification result
	// flushed immediately (T-Mobile, §6.2).
	RSTKillsFlow
	// RSTShortensTimeout: the flow's idle timeout drops to RSTTimeout
	// (the testbed device: 120 s → 10 s, §6.1).
	RSTShortensTimeout
	// RSTKillsUnclassifiedOnly: a RST before classification kills the
	// flow, but once classified the result sticks (the GFC, §6.5).
	RSTKillsUnclassifiedOnly
)

// LoadModel describes load-dependent flow-state eviction, the GFC
// behaviour behind Figure 4: during busy hours state is evicted after
// shorter idle intervals; during quiet hours even long pauses survive.
type LoadModel struct {
	// MinIdle returns the idle duration beyond which eviction becomes
	// possible at the given hour of day.
	MinIdle func(hour float64) time.Duration
	// EvictProb returns the probability that a flow idle for `idle` at
	// `hour` has been evicted (evaluated once per arrival).
	EvictProb func(hour float64, idle time.Duration) float64
}

// GFCLoad returns the diurnal load model used by the GFC profile: a load
// curve peaking in the evening, with the evictable-idle threshold
// shrinking as load rises. At night the threshold exceeds 240 s, so even
// the longest pauses in the paper's sweep fail — the red dots in Figure 4.
func GFCLoad() LoadModel {
	load := func(hour float64) float64 {
		// Diurnal curve in [0.05, 0.97], peaking at 21:00 (busy evening)
		// with its trough twelve hours away.
		return 0.51 + 0.46*math.Sin((hour-21.0)/24.0*2*math.Pi+math.Pi/2)
	}
	minIdle := func(hour float64) time.Duration {
		l := load(hour)
		sec := 35 + 420*math.Pow(1-l, 1.6)
		return time.Duration(sec * float64(time.Second))
	}
	return LoadModel{
		MinIdle: minIdle,
		EvictProb: func(hour float64, idle time.Duration) float64 {
			// minIdle is 35 s plus a term positive at every hour (the load
			// never exceeds 0.97, so it adds at least 1.5 s): shorter idles
			// are never evictable, and skip the Sin and Pow.
			if idle < 35*time.Second {
				return 0
			}
			mi := minIdle(hour)
			if idle < mi {
				return 0
			}
			p := 0.55 + float64(idle-mi)/float64(2*mi)
			if p > 1 {
				p = 1
			}
			return p
		},
	}
}

// Policy describes what happens to a flow classified into a class.
type Policy struct {
	// ThrottleBps shapes the flow to this rate when > 0.
	ThrottleBps float64
	// ThrottleBurst is the shaper's bucket depth in bytes.
	ThrottleBurst int
	// Block injects RSTs (and optionally a block page) and is the censors'
	// enforcement.
	Block bool
	// BlockRSTs is how many RSTs are injected toward the client on block
	// (the GFC sends 3–5).
	BlockRSTs int
	// BlockPage403 injects Iran's unsolicited "HTTP/1.1 403 Forbidden"
	// before the RSTs.
	BlockPage403 bool
	// BlacklistAfter, when > 0, adds the server:port to a blacklist after
	// this many classified flows, blocking *all* subsequent traffic to it
	// (GFC, §6.5).
	BlacklistAfter int
	// BlacklistFor is how long the server:port blacklist entry lasts.
	BlacklistFor time.Duration
	// ZeroRate marks the flow's bytes as not counting against the
	// subscriber's data quota (T-Mobile Binge On).
	ZeroRate bool
}

// Faults describes stochastic misbehaviour of the middlebox itself —
// the flaky-classifier reality §6 hints at (the GFC misses a fraction of
// flows and injects RSTs unreliably). All probabilistic knobs draw from a
// dedicated deterministic RNG stream (seeded Seed^0xfa17) that is created
// lazily and never consumed while every rate is zero, so a zero-fault
// config replays byte-identically to a build without the fault layer and
// forks cleanly mid-stream.
type Faults struct {
	// MissRate is the probability that the classifier fails to engage on
	// a new flow at all (overload sampling): the flow is created but never
	// inspected. One draw per flow-record creation.
	MissRate float64
	// RSTDropRate is the probability that each forged teardown packet
	// (block-page, RST, blacklist RST) is lost before injection.
	RSTDropRate float64
	// RSTDelayRate is the probability that a forged teardown packet that
	// survived the drop draw is injected late, by RSTDelay.
	RSTDelayRate float64
	// RSTDelay is how late a delayed teardown packet is injected
	// (default 200 ms when a delay fires with a zero value here).
	RSTDelay time.Duration
	// FlowTableCap bounds tracked flows; creating a flow beyond the cap
	// evicts the least-recently-seen one (deterministic LRU, ties broken
	// by flow key) — the state-exhaustion behaviour of loaded middleboxes.
	FlowTableCap int
	// OutageEvery / OutageFor describe transient classifier outages: in
	// every OutageEvery window of virtual time the classifier is offline
	// (forwards without inspecting) for the first OutageFor. Purely
	// clock-driven, so outages are reproducible and fork-safe for free.
	OutageEvery time.Duration
	OutageFor   time.Duration
}

// Any reports whether any fault knob is active. The middlebox consults it
// on the hot path to keep zero-fault configs draw-free.
func (fl Faults) Any() bool {
	return fl.MissRate > 0 || fl.RSTDropRate > 0 || fl.RSTDelayRate > 0 ||
		fl.FlowTableCap > 0 || (fl.OutageEvery > 0 && fl.OutageFor > 0)
}

// FaultStats counts fault firings, for tests and the chaos experiment.
type FaultStats struct {
	FlowsMissed  int
	RSTsDropped  int
	RSTsDelayed  int
	LRUEvictions int
	OutageSkips  int
}

// Config assembles a classifier from mechanisms.
type Config struct {
	Name string

	Rules []Rule

	Mode          InspectMode
	WindowPackets int
	// WindowBytes, when > 0, bounds inspection by payload *bytes* instead
	// of packets — the alternative limit §5.1's probing distinguishes
	// ("if so, we conclude there is a fixed packet-based limit; else ...
	// no more than k∗MTU bytes"). Only consulted in InspectWindow mode.
	WindowBytes int
	Reassembly  ReassemblyMode
	// StreamCap bounds retained reassembled stream bytes per direction.
	StreamCap int

	// FirstPacketGate requires protocol-family recognition on the first
	// inspected payload before any of that family's rules are evaluated.
	FirstPacketGate bool
	// GateStrict requires the full family signature in the first payload
	// packet (testbed). When false, a first packet that is merely a viable
	// prefix of the signature keeps the family armed (T-Mobile) — which is
	// why a 1-byte first segment evades the former but not the latter.
	GateStrict bool

	// ValidatedDefects are checked by this middlebox: packets exhibiting
	// them are ignored (neither inspected nor counted). Defects NOT listed
	// are processed despite being invalid — the incomplete-implementation
	// gap inert-packet insertion exploits.
	ValidatedDefects packet.DefectSet

	// TrackSeq ignores TCP segments outside the expected receive window,
	// defeating wrong-sequence-number inert packets (GFC).
	TrackSeq bool
	// RequireSYN leaves mid-stream flows (no observed handshake)
	// unclassified — why pauses that outlive flow state evade
	// classification.
	RequireSYN bool
	// ClassifyUDP enables UDP inspection (only the testbed device did).
	ClassifyUDP bool
	// ReassembleFragments lets the classifier reassemble IP fragments for
	// inspection; without it, fragmentation hides keywords.
	ReassembleFragments bool
	// ParseWrongProtoAsTCP makes the classifier interpret unknown
	// IP-protocol packets as TCP (testbed quirk, Table 3 note 1) — the
	// hole that lets wrong-protocol inert packets poison TCP flows.
	ParseWrongProtoAsTCP bool
	// MatchAndForget stops inspecting a flow once classified.
	MatchAndForget bool

	// FlowTimeout evicts idle flow state (testbed: 120 s). Zero means no
	// idle eviction within experiment horizons.
	FlowTimeout time.Duration
	// RST selects RST handling; RSTTimeout is the shortened timeout for
	// RSTShortensTimeout.
	RST        RSTBehavior
	RSTTimeout time.Duration
	// Load, when non-nil, adds load-dependent eviction (GFC/Figure 4).
	Load *LoadModel
	// Seed feeds the middlebox's deterministic RNG.
	Seed int64
	// Faults injects stochastic middlebox misbehaviour (classifier
	// misses, flaky teardown injection, state exhaustion, outages). The
	// zero value is the perfectly reliable classifier.
	Faults Faults

	// PortFilter restricts inspection to flows whose server port is
	// listed (Iran: port 80 only). Empty = all ports.
	PortFilter []uint16

	// Policies maps rule classes to enforcement.
	Policies map[string]Policy
}

// inspectsPort reports whether the classifier looks at flows to port p.
func (c *Config) inspectsPort(p uint16) bool {
	if len(c.PortFilter) == 0 {
		return true
	}
	for _, q := range c.PortFilter {
		if q == p {
			return true
		}
	}
	return false
}
