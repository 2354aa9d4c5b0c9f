package dpi

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/netem"
	"repro/internal/netem/packet"
	"repro/internal/netem/vclock"
)

// NetworkSpec is the JSON-serializable description of a custom evaluation
// environment: path shape plus a classifier built from the same mechanisms
// as the six built-in profiles. It lets downstream users model their own
// middlebox without writing Go:
//
//	{
//	  "name": "my-isp",
//	  "hops_before": 3, "hops_after": 2, "link_mbps": 20,
//	  "classifier": {
//	    "rules": [{"class": "video", "family": "http", "dir": "c2s",
//	               "keywords": ["cdn.example.com"]}],
//	    "mode": "window", "window_packets": 5, "reassembly": "arrival",
//	    "first_packet_gate": true, "require_syn": true,
//	    "validated_defects": ["ip-checksum", "tcp-checksum"],
//	    "match_and_forget": true, "flow_timeout_s": 120,
//	    "policies": {"video": {"throttle_mbps": 1.5, "burst_kb": 32}}
//	  }
//	}
type NetworkSpec struct {
	Name       string  `json:"name"`
	HopsBefore int     `json:"hops_before"`
	HopsAfter  int     `json:"hops_after"`
	LinkMbps   float64 `json:"link_mbps"`
	// DownstreamDropDefects drop malformed packets between the classifier
	// and the server (the operational-network behaviour of §7).
	DownstreamDropDefects []string `json:"downstream_drop_defects,omitempty"`
	// ReassembleFragmentsInPath inserts a normalizer after the classifier
	// (Table 3 note 2 behaviour).
	ReassembleFragmentsInPath bool `json:"reassemble_fragments_in_path,omitempty"`
	// StatefulFirewall adds a seq-tracking firewall after the classifier.
	StatefulFirewall bool `json:"stateful_firewall,omitempty"`

	// Impairments inserts flaky links at the client end of the path.
	Impairments []ImpairmentSpec `json:"impairments,omitempty"`

	Classifier *ClassifierSpec `json:"classifier,omitempty"`
}

// RuleSpec is the JSON form of a Rule. Binary patterns use KeywordsHex.
type RuleSpec struct {
	Class       string   `json:"class"`
	Family      string   `json:"family,omitempty"` // http|tls|stun|any
	Dir         string   `json:"dir,omitempty"`    // c2s|s2c|either
	Keywords    []string `json:"keywords,omitempty"`
	KeywordsHex []string `json:"keywords_hex,omitempty"`
	Ports       []uint16 `json:"ports,omitempty"`
	// AnchorPacket anchors matching to one inspected packet (-1 = any).
	AnchorPacket *int `json:"anchor_packet,omitempty"`
}

// PolicySpec is the JSON form of a Policy.
type PolicySpec struct {
	ThrottleMbps   float64 `json:"throttle_mbps,omitempty"`
	BurstKB        int     `json:"burst_kb,omitempty"`
	ZeroRate       bool    `json:"zero_rate,omitempty"`
	Block          bool    `json:"block,omitempty"`
	BlockRSTs      int     `json:"block_rsts,omitempty"`
	BlockPage403   bool    `json:"block_page_403,omitempty"`
	BlacklistAfter int     `json:"blacklist_after,omitempty"`
	BlacklistSecs  int     `json:"blacklist_s,omitempty"`
}

// ClassifierSpec is the JSON form of Config.
type ClassifierSpec struct {
	Rules []RuleSpec `json:"rules"`

	Mode          string `json:"mode"` // window|all|per-packet
	WindowPackets int    `json:"window_packets,omitempty"`
	Reassembly    string `json:"reassembly,omitempty"` // none|arrival|seq

	FirstPacketGate bool `json:"first_packet_gate,omitempty"`
	GateStrict      bool `json:"gate_strict,omitempty"`

	// ValidatedDefects is a list of defect names; the single element "all"
	// validates everything.
	ValidatedDefects []string `json:"validated_defects,omitempty"`

	TrackSeq             bool `json:"track_seq,omitempty"`
	RequireSYN           bool `json:"require_syn,omitempty"`
	ClassifyUDP          bool `json:"classify_udp,omitempty"`
	ReassembleFragments  bool `json:"reassemble_fragments,omitempty"`
	ParseWrongProtoAsTCP bool `json:"parse_wrong_proto_as_tcp,omitempty"`
	MatchAndForget       bool `json:"match_and_forget,omitempty"`

	FlowTimeoutSecs int    `json:"flow_timeout_s,omitempty"`
	RST             string `json:"rst,omitempty"` // ignored|kills-flow|shortens-timeout|kills-unclassified
	RSTTimeoutSecs  int    `json:"rst_timeout_s,omitempty"`
	GFCLoadModel    bool   `json:"gfc_load_model,omitempty"`
	Seed            int64  `json:"seed,omitempty"`

	// Faults injects stochastic classifier misbehaviour (see Faults).
	Faults *FaultsSpec `json:"faults,omitempty"`

	PortFilter []uint16              `json:"port_filter,omitempty"`
	Policies   map[string]PolicySpec `json:"policies,omitempty"`
}

// ParseNetworkSpec builds a Network from JSON.
func ParseNetworkSpec(data []byte) (*Network, error) {
	var spec NetworkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("dpi: parse network spec: %w", err)
	}
	return BuildNetwork(&spec)
}

// LoadNetworkSpec reads a spec file and builds the network.
func LoadNetworkSpec(path string) (*Network, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseNetworkSpec(data)
}

// BuildNetwork assembles the environment a spec describes.
func BuildNetwork(spec *NetworkSpec) (*Network, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("dpi: network spec needs a name")
	}
	if spec.HopsBefore <= 0 {
		spec.HopsBefore = 2
	}
	if spec.HopsAfter <= 0 {
		spec.HopsAfter = 1
	}
	if spec.LinkMbps <= 0 {
		spec.LinkMbps = 20
	}
	clock := vclock.New()
	env := netem.New(clock, DefaultClientAddr, DefaultServerAddr)
	addHops(env, 1, spec.HopsBefore)

	n := &Network{
		Name: spec.Name, Clock: clock, Env: env,
		MiddleboxHops: spec.HopsBefore,
		TotalHops:     spec.HopsBefore + spec.HopsAfter,
	}
	if spec.Classifier != nil {
		cfg, err := buildConfig(spec.Name, spec.Classifier)
		if err != nil {
			return nil, err
		}
		n.MB = NewMiddlebox(*cfg)
		env.Append(n.MB)
	} else {
		n.MiddleboxHops = -1
	}
	if len(spec.DownstreamDropDefects) > 0 {
		drops, err := defectSet(spec.DownstreamDropDefects)
		if err != nil {
			return nil, err
		}
		env.Append(&netem.Filter{Label: spec.Name + "-filter", DropDefects: drops})
	}
	if spec.ReassembleFragmentsInPath {
		env.Append(&netem.PathReassembler{Label: spec.Name + "-reasm"})
	}
	if spec.StatefulFirewall {
		fw := &StatefulFirewall{Label: spec.Name + "-fw", DropOutOfWindow: true}
		env.Append(fw)
		n.resets = append(n.resets, fw.Reset)
	}
	env.Append(&netem.Pipe{Label: spec.Name + "-link", RateBps: spec.LinkMbps * 1e6})
	addHops(env, spec.HopsBefore+1, spec.HopsAfter)
	if err := n.AddImpairments(spec.Impairments); err != nil {
		return nil, err
	}
	return n, nil
}

func buildConfig(name string, cs *ClassifierSpec) (*Config, error) {
	cfg := &Config{
		Name:                 name + "-classifier",
		WindowPackets:        cs.WindowPackets,
		FirstPacketGate:      cs.FirstPacketGate,
		GateStrict:           cs.GateStrict,
		TrackSeq:             cs.TrackSeq,
		RequireSYN:           cs.RequireSYN,
		ClassifyUDP:          cs.ClassifyUDP,
		ReassembleFragments:  cs.ReassembleFragments,
		ParseWrongProtoAsTCP: cs.ParseWrongProtoAsTCP,
		MatchAndForget:       cs.MatchAndForget,
		FlowTimeout:          time.Duration(cs.FlowTimeoutSecs) * time.Second,
		RSTTimeout:           time.Duration(cs.RSTTimeoutSecs) * time.Second,
		Seed:                 cs.Seed,
		PortFilter:           cs.PortFilter,
		Policies:             map[string]Policy{},
	}
	switch cs.Mode {
	case "", "window":
		cfg.Mode = InspectWindow
		if cfg.WindowPackets <= 0 {
			cfg.WindowPackets = 5
		}
	case "all":
		cfg.Mode = InspectAllPackets
	case "per-packet":
		cfg.Mode = InspectPerPacket
	default:
		return nil, fmt.Errorf("dpi: unknown mode %q", cs.Mode)
	}
	switch cs.Reassembly {
	case "", "none":
		cfg.Reassembly = ReassembleNone
	case "arrival":
		cfg.Reassembly = ReassembleArrival
	case "seq":
		cfg.Reassembly = ReassembleSeq
	default:
		return nil, fmt.Errorf("dpi: unknown reassembly %q", cs.Reassembly)
	}
	switch cs.RST {
	case "", "ignored":
		cfg.RST = RSTIgnored
	case "kills-flow":
		cfg.RST = RSTKillsFlow
	case "shortens-timeout":
		cfg.RST = RSTShortensTimeout
	case "kills-unclassified":
		cfg.RST = RSTKillsUnclassifiedOnly
	default:
		return nil, fmt.Errorf("dpi: unknown rst behaviour %q", cs.RST)
	}
	if cs.GFCLoadModel {
		lm := GFCLoad()
		cfg.Load = &lm
	}
	if cs.Faults != nil {
		if err := cs.Faults.validate(); err != nil {
			return nil, err
		}
		cfg.Faults = cs.Faults.faults()
	}
	if len(cs.ValidatedDefects) == 1 && cs.ValidatedDefects[0] == "all" {
		cfg.ValidatedDefects = packet.AllDefects()
	} else {
		v, err := defectSet(cs.ValidatedDefects)
		if err != nil {
			return nil, err
		}
		cfg.ValidatedDefects = v
	}
	for i, rs := range cs.Rules {
		r, err := buildRule(rs)
		if err != nil {
			return nil, fmt.Errorf("dpi: rule %d: %w", i, err)
		}
		cfg.Rules = append(cfg.Rules, r)
	}
	for class, ps := range cs.Policies {
		cfg.Policies[class] = Policy{
			ThrottleBps:    ps.ThrottleMbps * 1e6,
			ThrottleBurst:  ps.BurstKB << 10,
			ZeroRate:       ps.ZeroRate,
			Block:          ps.Block,
			BlockRSTs:      ps.BlockRSTs,
			BlockPage403:   ps.BlockPage403,
			BlacklistAfter: ps.BlacklistAfter,
			BlacklistFor:   time.Duration(ps.BlacklistSecs) * time.Second,
		}
	}
	return cfg, nil
}

func buildRule(rs RuleSpec) (Rule, error) {
	r := Rule{Class: rs.Class, Ports: rs.Ports, AnchorPacket: -1}
	if rs.AnchorPacket != nil {
		r.AnchorPacket = *rs.AnchorPacket
	}
	switch rs.Family {
	case "", "any":
		r.Family = FamilyAny
	case "http":
		r.Family = FamilyHTTP
	case "tls":
		r.Family = FamilyTLS
	case "stun":
		r.Family = FamilySTUN
	default:
		return r, fmt.Errorf("unknown family %q", rs.Family)
	}
	switch rs.Dir {
	case "", "c2s":
		r.Dir = MatchC2S
	case "s2c":
		r.Dir = MatchS2C
	case "either":
		r.Dir = MatchEither
	default:
		return r, fmt.Errorf("unknown dir %q", rs.Dir)
	}
	for _, kw := range rs.Keywords {
		r.Keywords = append(r.Keywords, []byte(kw))
	}
	for _, h := range rs.KeywordsHex {
		b, err := hex.DecodeString(h)
		if err != nil {
			return r, fmt.Errorf("bad hex keyword %q: %w", h, err)
		}
		r.Keywords = append(r.Keywords, b)
	}
	if len(r.Keywords) == 0 {
		return r, fmt.Errorf("rule for class %q has no keywords", rs.Class)
	}
	if r.Class == "" {
		return r, fmt.Errorf("rule missing class")
	}
	return r, nil
}

func defectSet(names []string) (packet.DefectSet, error) {
	var s packet.DefectSet
	for _, n := range names {
		d, ok := packet.DefectByName(n)
		if !ok {
			return 0, fmt.Errorf("dpi: unknown defect %q (valid: %v)", n, packet.DefectNames())
		}
		s = s.Add(d)
	}
	return s, nil
}
