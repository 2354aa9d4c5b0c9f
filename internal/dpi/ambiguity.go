package dpi

import (
	"fmt"
	"sort"
)

// Ambiguity fingerprinting ("Fingerprinting Deep Packet Inspection
// Devices by Their Ambiguities"): DPI boxes are identifiable by how the
// path resolves protocol ambiguities — overlapping fragments, segments
// with wrong checksums, TTL-limited insertions, out-of-window data,
// urgent-pointer handling. This file is the resolution model: the probe
// taxonomy, the per-profile signature matrix, and the decision procedure
// mapping observed resolutions back to a known profile.
//
// This is a *behavioral* fingerprint, elicited by active probing. It is
// unrelated to Network.ConfigDigest (fingerprint.go), which hashes the
// simulated topology configuration for cache keying.
//
// The probe traffic itself lives in internal/core (it needs a replay
// session); this package only knows probes by ID and resolutions by
// observed outcome, so the matrix stays a pure data model.

// ProbeID names one ambiguity probe.
type ProbeID string

// The probe taxonomy, in canonical emission order (ProbeOrder).
const (
	// ProbeHopCount counts responding hops via TTL-limited UDP probes
	// (the traceroute the paper already uses for middlebox localization).
	ProbeHopCount ProbeID = "hop-count"
	// ProbeUsageCounter replays a plain flow and checks whether a
	// subscriber usage counter metered it (T-Mobile's billing coupling).
	ProbeUsageCounter ProbeID = "usage-counter"
	// ProbeOverlappingFragments sends a marker split across overlapping
	// IP fragments: does the path reassemble, forward the fragments raw,
	// forward only some of them, or drop them?
	ProbeOverlappingFragments ProbeID = "overlapping-fragments"
	// ProbeWrongTCPChecksum sends a marker segment with a corrupted TCP
	// checksum: delivered raw, normalized (checksum corrected in-path),
	// or dropped?
	ProbeWrongTCPChecksum ProbeID = "wrong-tcp-checksum"
	// ProbeOutOfWindowData sends a marker far beyond the receive window.
	ProbeOutOfWindowData ProbeID = "out-of-window-data"
	// ProbeUrgentPointer sends a marker with URG set and a non-zero
	// urgent pointer: delivered with the flag, normalized without it, or
	// dropped?
	ProbeUrgentPointer ProbeID = "urgent-pointer"
	// ProbeTTLLimitedInsertion sends a marker whose IP TTL expires just
	// short of the server: expired in-path as expected, or regenerated by
	// a terminating proxy and delivered anyway?
	ProbeTTLLimitedInsertion ProbeID = "ttl-limited-insertion"
)

// ProbeOrder is the canonical probe emission order. The decision
// procedure consumes observations in this order, so identification is
// deterministic regardless of how callers assembled the slice.
var ProbeOrder = []ProbeID{
	ProbeHopCount,
	ProbeUsageCounter,
	ProbeOverlappingFragments,
	ProbeWrongTCPChecksum,
	ProbeOutOfWindowData,
	ProbeUrgentPointer,
	ProbeTTLLimitedInsertion,
}

// Resolution is the observed outcome of one probe.
type Resolution string

// Probe resolutions. Not every resolution applies to every probe; the
// signature matrix says which combinations occur.
const (
	// ResDelivered: the marker arrived at the server as sent.
	ResDelivered Resolution = "delivered"
	// ResNormalized: the marker arrived, but rewritten in-path (checksum
	// corrected, flag stripped, proxy re-emission).
	ResNormalized Resolution = "normalized"
	// ResDropped: the marker never reached the server.
	ResDropped Resolution = "dropped"
	// ResReassembled: fragments were merged in-path; the server saw one
	// whole datagram.
	ResReassembled Resolution = "reassembled"
	// ResFragments: the fragments arrived raw; the server reassembled.
	ResFragments Resolution = "fragments"
	// ResPartial: only some fragments survived the path.
	ResPartial Resolution = "partial"
	// ResCounted / ResUncounted: a usage counter did / did not meter the
	// probe flow.
	ResCounted   Resolution = "counted"
	ResUncounted Resolution = "uncounted"
	// ResExpired / ResArrived: the TTL-limited marker died in-path as TTL
	// arithmetic predicts, or arrived anyway (terminating proxy).
	ResExpired Resolution = "expired"
	ResArrived Resolution = "arrived"
)

// HopsResolution encodes a hop-count observation ("hops=N").
func HopsResolution(hops int) Resolution {
	return Resolution(fmt.Sprintf("hops=%d", hops))
}

// Observation is one resolved probe — the evidence unit the decision
// procedure consumes and CLIs print.
type Observation struct {
	Probe      ProbeID    `json:"probe"`
	Resolution Resolution `json:"resolution"`
}

// AmbiguitySignature maps each probe to the resolution a profile
// exhibits.
type AmbiguitySignature map[ProbeID]Resolution

// ambiguitySignatures is the per-profile resolution matrix, calibrated
// against the simulated profiles (TestAmbiguitySignaturesMatchSimulation
// re-derives it end-to-end; TestAmbiguityMatrixPairwiseDistinct proves
// every pair of profiles differs on at least one probe).
var ambiguitySignatures = map[string]AmbiguitySignature{
	"testbed": {
		ProbeHopCount:             HopsResolution(2),
		ProbeUsageCounter:         ResUncounted,
		ProbeOverlappingFragments: ResReassembled,
		ProbeWrongTCPChecksum:     ResDelivered,
		ProbeOutOfWindowData:      ResDelivered,
		ProbeUrgentPointer:        ResDelivered,
		ProbeTTLLimitedInsertion:  ResExpired,
	},
	"tmobile": {
		ProbeHopCount:             HopsResolution(3),
		ProbeUsageCounter:         ResCounted,
		ProbeOverlappingFragments: ResReassembled,
		ProbeWrongTCPChecksum:     ResDropped,
		ProbeOutOfWindowData:      ResDropped,
		ProbeUrgentPointer:        ResDelivered,
		ProbeTTLLimitedInsertion:  ResExpired,
	},
	"gfc": {
		ProbeHopCount:             HopsResolution(12),
		ProbeUsageCounter:         ResUncounted,
		ProbeOverlappingFragments: ResReassembled,
		ProbeWrongTCPChecksum:     ResNormalized,
		ProbeOutOfWindowData:      ResDelivered,
		ProbeUrgentPointer:        ResDelivered,
		ProbeTTLLimitedInsertion:  ResExpired,
	},
	"iran": {
		ProbeHopCount:             HopsResolution(10),
		ProbeUsageCounter:         ResUncounted,
		ProbeOverlappingFragments: ResDropped,
		ProbeWrongTCPChecksum:     ResDropped,
		ProbeOutOfWindowData:      ResDropped,
		ProbeUrgentPointer:        ResDelivered,
		ProbeTTLLimitedInsertion:  ResExpired,
	},
	"att": {
		ProbeHopCount:     HopsResolution(3),
		ProbeUsageCounter: ResUncounted,
		// The terminating proxy only parses whole TCP packets; raw
		// fragments bypass it untouched.
		ProbeOverlappingFragments: ResFragments,
		ProbeWrongTCPChecksum:     ResDropped,
		ProbeOutOfWindowData:      ResDropped,
		ProbeUrgentPointer:        ResNormalized,
		ProbeTTLLimitedInsertion:  ResArrived,
	},
	"sprint": {
		ProbeHopCount:             HopsResolution(3),
		ProbeUsageCounter:         ResUncounted,
		ProbeOverlappingFragments: ResFragments,
		ProbeWrongTCPChecksum:     ResDelivered,
		ProbeOutOfWindowData:      ResDelivered,
		ProbeUrgentPointer:        ResDelivered,
		ProbeTTLLimitedInsertion:  ResExpired,
	},
}

// AmbiguityProfiles returns the profile names in the signature matrix,
// sorted.
func AmbiguityProfiles() []string {
	names := make([]string, 0, len(ambiguitySignatures))
	for name := range ambiguitySignatures {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SignatureFor returns a copy of the named profile's expected signature
// (nil for unknown profiles).
func SignatureFor(profile string) AmbiguitySignature {
	sig, ok := ambiguitySignatures[profile]
	if !ok {
		return nil
	}
	out := make(AmbiguitySignature, len(sig))
	for k, v := range sig {
		out[k] = v
	}
	return out
}

// Identification is the decision procedure's verdict.
type Identification struct {
	// Profile is the identified profile name, "" when the observations
	// match no profile (or more than one) — the unknown fallback, which
	// downstream degrades to the full un-pruned suite.
	Profile string `json:"profile,omitempty"`
	// Confidence is 1 for a unique match, 0 otherwise.
	Confidence float64 `json:"confidence"`
	// Candidates lists the profiles still compatible with the evidence,
	// sorted; useful diagnostics when identification is ambiguous.
	Candidates []string `json:"candidates,omitempty"`
}

// Identified reports whether a unique profile was pinned down.
func (id Identification) Identified() bool { return id.Profile != "" }

// IdentifyProfile runs the decision procedure: starting from every known
// profile, each observation (consumed in ProbeOrder) eliminates the
// candidates whose signature resolves that probe differently. A unique
// survivor identifies the path; zero or several survivors fall back to
// unknown. Pure and deterministic — same observations, same verdict.
func IdentifyProfile(observed []Observation) Identification {
	byProbe := make(map[ProbeID]Resolution, len(observed))
	for _, o := range observed {
		byProbe[o.Probe] = o.Resolution
	}
	candidates := AmbiguityProfiles()
	for _, probe := range ProbeOrder {
		res, ok := byProbe[probe]
		if !ok {
			continue // probe not run; eliminates nobody
		}
		var kept []string
		for _, name := range candidates {
			if ambiguitySignatures[name][probe] == res {
				kept = append(kept, name)
			}
		}
		candidates = kept
		if len(candidates) == 0 {
			break
		}
	}
	id := Identification{Candidates: candidates}
	if len(candidates) == 1 {
		id.Profile = candidates[0]
		id.Confidence = 1
	}
	return id
}

// ruledOutTechniques is per-profile knowledge keyed by *identity*, not
// mechanically by probe resolutions: a probe dying in-path does not rule
// its technique out (an inert packet dropped after the classifier has
// already been poisoned by it — the paper's central point), so each list
// is curated from what the profile's classifier configuration provably
// defeats, and TestPruningSoundness verifies none of them would have
// worked.
var ruledOutTechniques = map[string][]string{
	// Testbed DPI validates IP version/IHL/short-total-length and the TCP
	// data offset before matching, so inserting packets with those
	// defects never poisons it.
	"testbed": {
		"ip-invalid-version",
		"ip-invalid-ihl",
		"ip-total-length-short",
		"tcp-invalid-data-offset",
	},
	// T-Mobile's bingeon box validates nearly every header defect, tracks
	// sequence numbers, and reassembles fragments before matching. (TTL
	// limiting is NOT ruled out: a TTL-limited inert is header-clean when
	// it transits the box, so it still poisons the classifier.)
	"tmobile": {
		"ip-invalid-version",
		"ip-invalid-ihl",
		"ip-total-length-long",
		"ip-total-length-short",
		"ip-wrong-protocol",
		"ip-wrong-checksum",
		"tcp-wrong-seq",
		"tcp-wrong-checksum",
		"tcp-no-ack",
		"tcp-invalid-data-offset",
		"tcp-invalid-flags",
		"ip-fragment",
		"ip-fragment-reorder",
	},
	// The GFC inspects every packet (so inert insertion and flushing are
	// structurally ineffective), reassembles TCP streams, and sits behind
	// a NAT that corrects bad TCP checksums (making "inert" bad-checksum
	// segments real).
	"gfc": {
		"ip-ttl-limited",
		"ip-invalid-version",
		"ip-invalid-ihl",
		"ip-total-length-long",
		"ip-total-length-short",
		"ip-wrong-protocol",
		"ip-wrong-checksum",
		"ip-invalid-options",
		"ip-deprecated-options",
		"tcp-wrong-seq",
		"tcp-wrong-checksum",
		"tcp-no-ack",
		"tcp-invalid-data-offset",
		"tcp-invalid-flags",
		"pause-after-match",
		"pause-before-match",
		"ttl-rst-after",
		"ttl-rst-before",
	},
	// Iran's filter matches per-packet (inert insertion and flushing
	// cannot help) and its firewall drops fragments outright.
	"iran": {
		"ip-ttl-limited",
		"ip-invalid-version",
		"ip-invalid-ihl",
		"ip-total-length-long",
		"ip-total-length-short",
		"ip-wrong-protocol",
		"ip-wrong-checksum",
		"ip-invalid-options",
		"ip-deprecated-options",
		"tcp-wrong-seq",
		"tcp-wrong-checksum",
		"tcp-no-ack",
		"tcp-invalid-data-offset",
		"tcp-invalid-flags",
		"pause-after-match",
		"pause-before-match",
		"ttl-rst-after",
		"ttl-rst-before",
		"ip-fragment",
		"ip-fragment-reorder",
	},
	// AT&T's StreamSaver terminates every port-80 TCP connection: it
	// drops malformed packets, reassembles first-copy-wins, and re-emits
	// clean segments — no unilateral technique survives it (Table 3's
	// empty AT&T column).
	"att": {
		"ip-ttl-limited",
		"ip-invalid-version",
		"ip-invalid-ihl",
		"ip-total-length-long",
		"ip-total-length-short",
		"ip-wrong-protocol",
		"ip-wrong-checksum",
		"ip-invalid-options",
		"ip-deprecated-options",
		"tcp-wrong-seq",
		"tcp-wrong-checksum",
		"tcp-no-ack",
		"tcp-invalid-data-offset",
		"tcp-invalid-flags",
		"ip-fragment",
		"tcp-segment-split",
		"ip-fragment-reorder",
		"tcp-segment-reorder",
		"pause-after-match",
		"pause-before-match",
		"ttl-rst-after",
		"ttl-rst-before",
	},
	// Sprint does not differentiate; evaluation never runs, so nothing
	// needs ruling out.
	"sprint": nil,
}

// RuledOutTechniques returns the technique IDs the identified profile's
// classifier provably defeats — the evaluation phase skips these without
// a replay. Unknown profiles return nil: identification failure degrades
// to the full un-pruned suite.
func RuledOutTechniques(profile string) []string {
	out := ruledOutTechniques[profile]
	return append([]string(nil), out...)
}
