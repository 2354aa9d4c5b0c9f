package core

import (
	"bytes"
	"time"

	"repro/internal/dpi"
	"repro/internal/netem/packet"
	"repro/internal/netem/stack"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

// FingerprintResult is the phase-0 ambiguity-fingerprint outcome: the
// probe evidence, the decision-tree identification, and the technique
// pruning it licenses for the evaluation phase.
type FingerprintResult struct {
	// Profile is the identified DPI profile ("" = unknown: the evidence
	// matched no built-in profile uniquely, and evaluation runs the full
	// un-pruned suite).
	Profile string `json:"profile,omitempty"`
	// Confidence is 1 for a unique identification, 0 otherwise.
	Confidence float64 `json:"confidence"`
	// Candidates lists the profiles still compatible with the evidence
	// when identification was ambiguous.
	Candidates []string `json:"candidates,omitempty"`
	// Probes is the evidence: every ambiguity probe and its observed
	// resolution, in canonical probe order.
	Probes []dpi.Observation `json:"probes"`
	// RuledOut is the technique IDs the identified profile's classifier
	// provably defeats; evaluation skips them without a replay.
	RuledOut []string `json:"ruled_out,omitempty"`

	// Probe cost, in the same units the other phases account.
	Rounds int           `json:"rounds"`
	Bytes  int64         `json:"bytes"`
	Time   time.Duration `json:"time"`
}

// Identified reports whether a unique profile was pinned down. Nil-safe:
// an unarmed engagement has no fingerprint and identifies nothing.
func (f *FingerprintResult) Identified() bool { return f != nil && f.Profile != "" }

// RuledOutSet returns the pruning set for the evaluation phase, nil when
// nothing was identified (nil-safe, so unarmed engagements pass nil
// through without branching).
func (f *FingerprintResult) RuledOutSet() map[string]bool {
	if f == nil || len(f.RuledOut) == 0 {
		return nil
	}
	m := make(map[string]bool, len(f.RuledOut))
	for _, id := range f.RuledOut {
		m[id] = true
	}
	return m
}

// The marker payload every ambiguity probe carries: deterministic dummy
// bytes (high bit set — never a rule keyword), long enough to fragment
// and to find unambiguously in server arrivals.
const (
	fpMarkerSeed = 0xFC
	fpMarkerLen  = 48
)

// runFingerprint executes phase 0: run the ambiguity probes serially,
// feed the observations through the decision tree, and derive the
// pruning set. The probes ride a forked replica of the path, exactly
// like an evaluation trial: the parent's classifier state, meter noise
// stream, clock, and port counters stay untouched, so the engagement
// proper behaves byte-for-byte as it would unarmed — only the probe
// accounting (rounds, bytes, merged events) joins back. The single fork
// runs serially before any other phase, so the result is identical at
// any worker count.
//
// adopt, when non-nil, is precomputed probe evidence to use instead of
// re-probing (see Liberate.Fingerprinted).
func runFingerprint(s *Session, adopt *FingerprintResult) *FingerprintResult {
	done := s.span("fingerprint")
	defer done()
	fp := &FingerprintResult{}

	if adopt != nil {
		// Adopted evidence: the probes already ran against an identical
		// replica of this network (probing a named profile is
		// deterministic), so the observations — and their accounting — are
		// exactly what re-probing would produce. The identification below
		// still runs from the evidence, keeping one code path.
		fp.Probes = adopt.Probes
		fp.Rounds, fp.Bytes, fp.Time = adopt.Rounds, adopt.Bytes, adopt.Time
		s.Rounds += fp.Rounds
		s.BytesUsed += fp.Bytes
	} else {
		fs := s.forkFor(0)
		fp.Probes = collectAmbiguityObservations(fs)
		fp.Rounds, fp.Bytes, fp.Time = fs.Rounds, fs.BytesUsed, fs.Elapsed()
		s.Rounds += fs.Rounds
		s.BytesUsed += fs.BytesUsed
		obs.Merge(s.rec(), fs.rec())
		fs.Net.Release()
	}
	id := dpi.IdentifyProfile(fp.Probes)
	fp.Profile, fp.Confidence, fp.Candidates = id.Profile, id.Confidence, id.Candidates
	if id.Identified() {
		fp.RuledOut = dpi.RuledOutTechniques(id.Profile)
	}

	label := fp.Profile
	if label == "" {
		label = "unknown"
	}
	if s.rec().Enabled() {
		if id.Identified() {
			s.rec().Add(obs.CtrFPIdentified, 1)
		}
		s.rec().Record(obs.Event{
			VNS:   s.vns(),
			Kind:  obs.KindFPIdentify,
			Actor: "fingerprint",
			Label: label,
			Value: confPPM(fp.Confidence),
			Aux:   int64(len(fp.RuledOut)),
		})
	}
	s.verdict("fingerprint", label, confPPM(fp.Confidence), int64(len(fp.Probes)))
	return fp
}

// FingerprintNetwork runs just the fingerprint phase against a fresh
// network — the daemon's cheap identification path (no detect, no
// evaluation, a handful of probe rounds).
func FingerprintNetwork(net *dpi.Network, osp *stack.OSProfile) *FingerprintResult {
	s := NewSession(net)
	s.ServerOS = osp
	return runFingerprint(s, nil)
}

// collectAmbiguityObservations runs the probe library in canonical order
// (dpi.ProbeOrder) and emits one fp.probe event per resolution.
func collectAmbiguityObservations(s *Session) []dpi.Observation {
	var out []dpi.Observation
	emit := func(p dpi.ProbeID, r dpi.Resolution) {
		out = append(out, dpi.Observation{Probe: p, Resolution: r})
		if s.rec().Enabled() {
			s.rec().Add(obs.CtrFPProbes, 1)
			s.rec().Record(obs.Event{VNS: s.vns(), Kind: obs.KindFPProbe, Actor: string(p), Label: string(r)})
		}
	}
	marker := dummyBytes(fpMarkerSeed, fpMarkerLen)
	probe := fingerprintProbeTrace()

	// Hop count: TTL-limited UDP probes, counting responding routers.
	// Runs first because the TTL-limited insertion probe needs the count.
	hops := 0
	for _, h := range Traceroute(s.Net, 24) {
		if h.Responded {
			hops++
		}
	}
	emit(dpi.ProbeHopCount, dpi.HopsResolution(hops))

	// Usage counter: does a plain replay move a subscriber meter?
	res := s.Replay(probe, nil)
	if res.CounterDelta > 0 {
		emit(dpi.ProbeUsageCounter, dpi.ResCounted)
	} else {
		emit(dpi.ProbeUsageCounter, dpi.ResUncounted)
	}

	// Overlapping fragments: the marker cut into two fragments whose
	// bodies overlap by 8 bytes (same original bytes, so every
	// reassembly policy reconstructs the same datagram).
	res = s.Replay(probe, fpMarkerProbe(marker, fpFragmentOverlap))
	emit(dpi.ProbeOverlappingFragments, judgeFragments(res, marker))

	// Wrong TCP checksum: delivered raw, corrected in-path, or dropped?
	res = s.Replay(probe, fpMarkerProbe(marker, func(inert *packet.Packet) []*packet.Packet {
		inert.TCP.Checksum ^= 0xFFFF
		return []*packet.Packet{inert}
	}))
	emit(dpi.ProbeWrongTCPChecksum, judgeChecksum(res, marker))

	// Out-of-window data: the marker a megabyte beyond the receive
	// window.
	res = s.Replay(probe, fpMarkerProbe(marker, func(inert *packet.Packet) []*packet.Packet {
		inert.TCP.Seq += 1 << 20
		fixTCP(inert)
		return []*packet.Packet{inert}
	}))
	emit(dpi.ProbeOutOfWindowData, judgePresence(res, marker, dpi.ResDelivered, dpi.ResDropped))

	// Urgent pointer: URG|ACK|PSH with a non-zero urgent offset.
	res = s.Replay(probe, fpMarkerProbe(marker, func(inert *packet.Packet) []*packet.Packet {
		inert.TCP.Flags |= packet.FlagURG
		inert.TCP.Urgent = 8
		fixTCP(inert)
		return []*packet.Packet{inert}
	}))
	emit(dpi.ProbeUrgentPointer, judgeURG(res, marker))

	// TTL-limited insertion: a marker whose TTL expires at the last
	// responding hop. A terminating proxy regenerates TTL, so arrival
	// here is the proxy's tell.
	ttl := hops
	if ttl < 1 {
		ttl = 1
	}
	res = s.Replay(probe, fpMarkerProbe(marker, func(inert *packet.Packet) []*packet.Packet {
		inert.IP.TTL = uint8(ttl)
		fixIP(inert)
		return []*packet.Packet{inert}
	}))
	emit(dpi.ProbeTTLLimitedInsertion, judgePresence(res, marker, dpi.ResArrived, dpi.ResExpired))
	return out
}

// fingerprintProbeTrace is the fixed synthetic flow the marker probes
// ride on: one opaque client write on port 80 (every built-in classifier
// watches 80) and a server response.
func fingerprintProbeTrace() *trace.Trace {
	tr := &trace.Trace{
		Name:       "fp-probe",
		App:        "fp",
		Proto:      packet.ProtoTCP,
		ServerPort: 80,
		Messages: []trace.Message{
			{Dir: trace.ClientToServer, Data: dummyBytes(0xF1, 64)},
			{Dir: trace.ServerToClient, Data: dummyBytes(0xF2, 256)},
		},
	}
	tr.PrecomputeSums()
	return tr
}

// fpMarkerProbe builds the probe transform: on the first client write,
// clone the first real packet, give it the marker payload, finalize
// (correct checksums), hand it to mutate for the probe's one ambiguity,
// and emit the mutated packet(s) ahead of the real traffic — the
// inert-insertion scaffolding the evasion techniques already use.
func fpMarkerProbe(marker []byte, mutate func(inert *packet.Packet) []*packet.Packet) stack.OutgoingTransform {
	return stack.TransformFunc(func(fi stack.FlowInfo, pkts []*packet.Packet) []stack.Scheduled {
		out := make([]stack.Scheduled, 0, len(pkts)+2)
		if fi.WriteIndex == 0 && fi.Proto == packet.ProtoTCP && len(pkts) > 0 {
			inert := pkts[0].Clone()
			inert.Payload = append([]byte(nil), marker...)
			inert.Finalize()
			for _, m := range mutate(inert) {
				out = append(out, stack.Scheduled{Pkt: m, Inert: true})
			}
		}
		for _, pk := range pkts {
			out = append(out, stack.Scheduled{Pkt: pk})
		}
		return out
	})
}

// fpFragmentOverlap cuts the finalized marker packet into two IP
// fragments and extends the second backward by 8 bytes so their bodies
// overlap (carrying identical original bytes, so first-wins and
// last-wins reassembly agree).
func fpFragmentOverlap(inert *packet.Packet) []*packet.Packet {
	hdr := 20
	if inert.TCP != nil {
		hdr = 20 + len(inert.TCP.Options)
	}
	cut := (hdr + len(inert.Payload)) / 2 / 8 * 8
	if cut <= hdr {
		cut = hdr + 8
	}
	frags := packet.FragmentAt(inert, []int{cut})
	if len(frags) == 2 {
		f := frags[1]
		off := int(f.IP.FragOffset) * 8
		head := frags[0].Payload
		if off >= 8 && len(head) >= 8 {
			f.Payload = append(append([]byte(nil), head[len(head)-8:]...), f.Payload...)
			f.IP.FragOffset -= 1
			f.IP.TotalLength = uint16(int(f.IP.IHL)*4 + len(f.Payload))
			f.FixIPChecksum()
		}
	}
	return frags
}

// judgeFragments classifies the overlapping-fragment probe from the
// marker's fate: whole in a non-fragment arrival (reassembled in-path),
// complete across raw fragments, partially present, or gone.
func judgeFragments(res *replay.Result, marker []byte) dpi.Resolution {
	// The head fragment carries only the first few marker bytes (the TCP
	// header takes most of its body), so coverage is judged by the
	// marker's first and last 8-byte chunks rather than halves.
	head, tail := marker[:8], marker[len(marker)-8:]
	var sawHead, sawTail bool
	for _, arr := range res.ServerArrivals {
		p, _ := packet.InspectView(arr.Raw)
		frag := p.IP.FragOffset != 0 || p.IP.MoreFragments()
		if !frag && bytes.Contains(arr.Raw, marker) {
			return dpi.ResReassembled
		}
		if bytes.Contains(arr.Raw, head) {
			sawHead = true
		}
		if bytes.Contains(arr.Raw, tail) {
			sawTail = true
		}
	}
	switch {
	case sawHead && sawTail:
		return dpi.ResFragments
	case sawHead || sawTail:
		return dpi.ResPartial
	}
	return dpi.ResDropped
}

// judgeChecksum classifies the wrong-checksum probe: the marker arriving
// with the bad checksum intact is "delivered", with a now-valid checksum
// "normalized" (an in-path device rewrote it), absent "dropped".
func judgeChecksum(res *replay.Result, marker []byte) dpi.Resolution {
	for _, arr := range res.ServerArrivals {
		if !bytes.Contains(arr.Raw, marker) {
			continue
		}
		_, defs := packet.InspectView(arr.Raw)
		if defs.Has(packet.DefectTCPChecksum) {
			return dpi.ResDelivered
		}
		return dpi.ResNormalized
	}
	return dpi.ResDropped
}

// judgeURG classifies the urgent-pointer probe: URG still set on the
// arriving marker is "delivered", marker bytes arriving without it is
// "normalized" (a terminating proxy re-emitted clean segments), absent
// is "dropped".
func judgeURG(res *replay.Result, marker []byte) dpi.Resolution {
	for _, arr := range res.ServerArrivals {
		if !bytes.Contains(arr.Raw, marker) {
			continue
		}
		p, _ := packet.InspectView(arr.Raw)
		if p.TCP != nil && p.TCP.Flags.Has(packet.FlagURG) && p.TCP.Urgent != 0 {
			return dpi.ResDelivered
		}
		return dpi.ResNormalized
	}
	return dpi.ResDropped
}

// judgePresence is the presence/absence judgment shared by the
// out-of-window and TTL-limited probes.
func judgePresence(res *replay.Result, marker []byte, present, absent dpi.Resolution) dpi.Resolution {
	for _, arr := range res.ServerArrivals {
		if bytes.Contains(arr.Raw, marker) {
			return present
		}
	}
	return absent
}
