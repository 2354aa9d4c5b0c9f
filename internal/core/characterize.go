package core

import (
	"sort"
	"time"

	"repro/internal/netem/packet"
	"repro/internal/netem/stack"
	"repro/internal/replay"
	"repro/internal/trace"
)

// Characterization is the output of the classifier reverse-engineering
// phase (§4.2/§5.1): where the matching fields are, how much of a flow the
// classifier inspects, whether it matches-and-forgets, whether rules are
// port-specific, and where the middlebox sits.
type Characterization struct {
	Fields     []FieldRef
	MatchWrite int // client write index carrying the first field

	// WindowLimited: prepending packets changed the classification result,
	// so the classifier inspects a bounded prefix of the flow.
	WindowLimited bool
	// WindowUpperBound is the paper's (i+j−1) bound on inspected packets.
	WindowUpperBound int
	// PacketCountBased: 1-byte prepends also change classification, so
	// the limit counts packets, not bytes.
	PacketCountBased bool
	// InspectsAllPackets: prepending up to the threshold never changed
	// classification (Iran).
	InspectsAllPackets bool
	// PortSpecific: moving the server port removed classification.
	PortSpecific bool
	// ResidualBlocking: repeated classified flows poisoned the server:port
	// itself (GFC blacklist) — ports were rotated during analysis.
	ResidualBlocking bool

	// MiddleboxTTL is the smallest TTL that reaches the classifier; 0 if
	// localization failed (e.g. a terminating proxy).
	MiddleboxTTL int

	Rounds    int
	BytesUsed int64
	TimeUsed  time.Duration
}

// maxPrependProbes is the paper's tunable threshold of prepended packets
// before concluding the classifier inspects all packets (§5.1: "based on
// our observations, 10").
const maxPrependProbes = 10

// fieldGranularity is the finest blinding range the bisection descends to.
const fieldGranularity = 4

// Characterize reverse-engineers the classifier that produced det.
func Characterize(s *Session, tr *trace.Trace, det *Detection) *Characterization {
	// Registered first, so the span closes after the verdict event the
	// accounting defer below emits.
	defer s.span("characterize")()
	c := &Characterization{}
	startRounds, startBytes := s.Rounds, s.BytesUsed
	startTime := s.Net.Clock.Now()
	defer func() {
		c.Rounds = s.Rounds - startRounds
		c.BytesUsed = s.BytesUsed - startBytes
		c.TimeUsed = s.Net.Clock.Since(startTime)
		label := "prefix-window"
		switch {
		case c.InspectsAllPackets:
			label = "all-packets"
		case c.WindowLimited:
			label = "window-limited"
		}
		s.verdict("characterize", label, int64(len(c.Fields)), int64(c.MiddleboxTTL))
	}()

	probe := s.trimmedProbe(tr, det.ProbeBytes)
	// On robust sessions every "not classified" reading — the decisions the
	// bisection below is built on — is re-verified one-sidedly before it is
	// believed; clean sessions keep the single-replay oracle.
	classified := s.robustify(func(t *trace.Trace) bool { return det.Classified(s.Replay(t, nil)) })
	if det.ResidualBlocking {
		c.ResidualBlocking = true // detection already had to rotate ports
	}

	// Calibration: original must classify, fully-inverted must not. If the
	// inverted control comes back classified, residual (blacklist-style)
	// blocking has poisoned the server:port — switch to port rotation if
	// the classifier still matches on other ports.
	if !classified(probe) {
		// Possibly residual blocking from the detection phase replays.
		if det.Has(DiffBlocking) {
			s.RotatePorts = true
			if classified(probe) {
				c.ResidualBlocking = true
			} else {
				s.RotatePorts = false
				return c
			}
		} else {
			return c
		}
	}
	if classified(s.inverted(probe)) {
		if !s.RotatePorts && det.Has(DiffBlocking) {
			s.RotatePorts = true
			c.ResidualBlocking = true
			if classified(s.inverted(probe)) {
				// Even fresh ports see the control classified: give up on
				// content analysis.
				return c
			}
		}
	}

	// Port specificity (§6.6, §6.3): does the classifier still match on a
	// non-standard server port? A "still matched" observation is
	// authoritative; "no match" may be fault noise, so robust sessions
	// re-verify it before pinning the server port.
	if !s.RotatePorts {
		matched := s.confirm(func() bool {
			return det.Classified(s.Replay(probe, nil, func(o *replay.Options) { o.ServerPort = 8080 }))
		}).Positive
		if !matched {
			c.PortSpecific = true
			s.ForceServerPort = probe.ServerPort
		}
	}

	// Matching-field analysis: binary blinding per message, then
	// recursive bisection inside messages that carry necessary bytes.
	oracle := func(t *trace.Trace) bool { return classified(t) }
	for msg := range probe.Messages {
		whole := FieldRef{Msg: msg, Start: 0, End: len(probe.Messages[msg].Data)}
		if oracle(blindRanges(probe, []FieldRef{whole})) {
			continue // no necessary bytes in this message
		}
		fields := bisect(probe, oracle, msg, 0, len(probe.Messages[msg].Data), nil, 0)
		c.Fields = append(c.Fields, mergeFields(fields)...)
	}
	sort.Slice(c.Fields, func(i, j int) bool {
		if c.Fields[i].Msg != c.Fields[j].Msg {
			return c.Fields[i].Msg < c.Fields[j].Msg
		}
		return c.Fields[i].Start < c.Fields[j].Start
	})
	if len(c.Fields) > 0 {
		// MatchWrite is the index among client writes of the first field's
		// message.
		w := 0
		for i := 0; i < c.Fields[0].Msg; i++ {
			if probe.Messages[i].Dir == trace.ClientToServer {
				w++
			}
		}
		c.MatchWrite = w
	}

	// Prepend probes (§5.1): MTU-sized, then 1-byte.
	c.probeWindow(s, probe, det)

	// Localization (§5.2): find the smallest TTL that reaches the
	// classifier.
	c.MiddleboxTTL = locate(s, probe, det, c)
	return c
}

// bisect finds, within message msg's range [lo,hi), the byte ranges whose
// blinding defeats classification, given that blinding [lo,hi)+ctx defeats
// it. ctx carries extra ranges blinded for duplicate-keyword handling.
func bisect(probe *trace.Trace, oracle func(*trace.Trace) bool, msg, lo, hi int, ctx []FieldRef, depth int) []FieldRef {
	if hi-lo <= fieldGranularity || depth > 24 {
		return []FieldRef{{Msg: msg, Start: lo, End: hi}}
	}
	mid := (lo + hi) / 2
	blindL := append([]FieldRef{{Msg: msg, Start: lo, End: mid}}, ctx...)
	blindR := append([]FieldRef{{Msg: msg, Start: mid, End: hi}}, ctx...)
	leftBreaks := !oracle(blindRanges(probe, blindL))
	rightBreaks := !oracle(blindRanges(probe, blindR))
	var out []FieldRef
	switch {
	case leftBreaks && rightBreaks:
		out = append(out, bisect(probe, oracle, msg, lo, mid, ctx, depth+1)...)
		out = append(out, bisect(probe, oracle, msg, mid, hi, ctx, depth+1)...)
	case leftBreaks:
		out = append(out, bisect(probe, oracle, msg, lo, mid, ctx, depth+1)...)
	case rightBreaks:
		out = append(out, bisect(probe, oracle, msg, mid, hi, ctx, depth+1)...)
	default:
		// Neither half alone is necessary, but the union is: duplicated
		// content (e.g. a keyword occurring twice). Find each copy with
		// the other half held blinded.
		out = append(out, bisect(probe, oracle, msg, lo, mid,
			append([]FieldRef{{Msg: msg, Start: mid, End: hi}}, ctx...), depth+1)...)
		out = append(out, bisect(probe, oracle, msg, mid, hi,
			append([]FieldRef{{Msg: msg, Start: lo, End: mid}}, ctx...), depth+1)...)
	}
	return out
}

// mergeFields coalesces adjacent/overlapping ranges.
func mergeFields(fields []FieldRef) []FieldRef {
	if len(fields) == 0 {
		return nil
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Start < fields[j].Start })
	out := []FieldRef{fields[0]}
	for _, f := range fields[1:] {
		last := &out[len(out)-1]
		if f.Start <= last.End {
			if f.End > last.End {
				last.End = f.End
			}
			continue
		}
		out = append(out, f)
	}
	return out
}

// prependMessages returns a copy of tr with n extra client messages of
// size bytes each inserted before the first client message.
func prependMessages(tr *trace.Trace, n, size int) *trace.Trace {
	c := tr.ShallowClone() // only splices messages; payloads stay shared

	var extra []trace.Message
	for i := 0; i < n; i++ {
		extra = append(extra, trace.Message{Dir: trace.ClientToServer, Data: dummyBytes(int64(4000+i), size)})
	}
	idx := c.FirstClientMessage()
	if idx < 0 {
		idx = 0
	}
	msgs := make([]trace.Message, 0, len(c.Messages)+n)
	msgs = append(msgs, c.Messages[:idx]...)
	msgs = append(msgs, extra...)
	msgs = append(msgs, c.Messages[idx:]...)
	c.Messages = msgs
	return c
}

// probeWindow implements the §5.1 prepend probes. The conclusions here
// rest on "not classified" readings, so robust sessions re-verify each
// one before believing the classifier is window-limited.
func (c *Characterization) probeWindow(s *Session, probe *trace.Trace, det *Detection) {
	mtu := packet.MTU - 40
	judge := s.robustify(func(t *trace.Trace) bool { return det.Classified(s.Replay(t, nil)) })
	for j := 1; j <= maxPrependProbes; j++ {
		if !judge(prependMessages(probe, j, mtu)) {
			c.WindowLimited = true
			// The paper's bound: i matching packets (here 1) + j − 1.
			c.WindowUpperBound = 1 + j - 1
			// Now test j one-byte packets: a packet-count-based limit
			// reacts the same way.
			c.PacketCountBased = !judge(prependMessages(probe, j, 1))
			return
		}
	}
	c.InspectsAllPackets = true
}

// locate finds the smallest TTL that reaches the classifier (§5.2). For
// blocking classifiers it sends a TTL-limited inert packet carrying
// *matching* content on an otherwise-innocuous flow and watches for the
// block signal; for shaping classifiers it sweeps the TTL-limited
// dummy-insertion technique and watches classification disappear.
func locate(s *Session, probe *trace.Trace, det *Detection, c *Characterization) int {
	if !det.Differentiated {
		return 0
	}
	const maxTTL = 16
	matchPayload := matchingWritePayload(probe, c)
	if det.Has(DiffBlocking) {
		inv := s.inverted(probe)
		for t := 1; t <= maxTTL; t++ {
			tf := injectContentTTL(matchPayload, c.MatchWrite, t)
			// "Classified" means the probe reached the middlebox —
			// authoritative. Its absence at the true boundary TTL may be a
			// fault, so robust sessions re-verify before moving on (an
			// overshot TTL would leak inert packets past the middlebox).
			if s.confirm(func() bool { return det.Classified(s.Replay(inv, tf)) }).Positive {
				return t
			}
		}
		return 0
	}
	// Shapers: the dummy-desync sweep (which is also the row-1 technique).
	// Here the *success* reading (not classified, integrity intact) is the
	// suppressible one — a missed flow looks exactly like a working TTL —
	// so robust sessions demand every repeated trial succeed.
	tech, _ := TechniqueByID("ip-ttl-limited")
	for t := 1; t <= maxTTL; t++ {
		ap := tech.Build(BuildParams{Fields: c.Fields, MatchWrite: c.MatchWrite, InertTTL: t, Seed: 99})
		failed := s.confirm(func() bool {
			res := s.Replay(probe, ap.Transform)
			return det.Classified(res) || !res.IntegrityOK
		}).Positive
		if !failed {
			return t
		}
	}
	return 0
}

// matchingWritePayload returns the payload of the client write carrying
// the first matching field (the whole first client write when no fields
// were found).
func matchingWritePayload(tr *trace.Trace, c *Characterization) []byte {
	w := 0
	for _, m := range tr.Messages {
		if m.Dir != trace.ClientToServer {
			continue
		}
		if w == c.MatchWrite {
			return append([]byte(nil), m.Data...)
		}
		w++
	}
	if idx := tr.FirstClientMessage(); idx >= 0 {
		return append([]byte(nil), tr.Messages[idx].Data...)
	}
	return nil
}

// injectContentTTL builds a transform that prepends a TTL-limited inert
// packet carrying the given (matching) content before the target write.
func injectContentTTL(content []byte, matchWrite, ttl int) stack.OutgoingTransform {
	return stack.TransformFunc(func(fi stack.FlowInfo, pkts []*packet.Packet) []stack.Scheduled {
		out := passAll(pkts)
		if fi.WriteIndex != matchWrite || len(pkts) == 0 {
			return out
		}
		inert := pkts[0].Clone()
		inert.Payload = append([]byte(nil), content...)
		if len(inert.Payload) > packet.MTU-40 {
			inert.Payload = inert.Payload[:packet.MTU-40]
		}
		inert.IP.TTL = uint8(ttl)
		inert.Finalize()
		return append([]stack.Scheduled{{Pkt: inert, Inert: true}}, out...)
	})
}
