package packet

import (
	"encoding/binary"
	"fmt"
)

// MTU is the maximum transmission unit assumed throughout the simulator.
const MTU = 1500

// MSS is the maximum transport segment payload the simulated stacks use:
// MTU minus 20 bytes of IPv4 header and 20 bytes of TCP header. Trace
// precomputation (trace.SegmentSums) and the stacks' segmentation loops
// must agree on it, which is why it lives here rather than in stack.
const MSS = MTU - 40

// Packet is a full IPv4 datagram: an IP header, at most one transport
// header, and an application payload. Exactly one of TCP, UDP, ICMP may be
// non-nil; when all are nil the payload sits directly above IP (used for
// wrong-protocol inert packets that still carry transport-shaped bytes in
// Payload).
type Packet struct {
	IP   IPv4
	TCP  *TCP
	UDP  *UDP
	ICMP *ICMP
	// Payload is the application payload above the transport header (or
	// above IP when no transport header is present).
	Payload []byte

	// TrailerPadding appends extra bytes after the payload on the wire
	// without being claimed by TotalLength. It exists so the
	// "total length shorter than payload" inert technique can be expressed
	// naturally: set TotalLength to the claimed size and put the surplus
	// here.
	TrailerPadding []byte

	// paySum memoizes the payload's checksum partial sum across repeated
	// Finalize/Fix*Checksum calls on the same packet, so single-field edits
	// don't re-sum a 1400-byte payload.
	paySum paySumCache

	// flowCK and flowFwd are Flow().Canonical() as of the parse (see
	// CanonicalFlow). A frame is parsed once for every element on its
	// path, so each frame's flow identity is computed once, not once per
	// element that keys a flow table by it.
	flowCK  FlowKey
	flowFwd bool
}

// Clone returns a deep copy of p.
func (p *Packet) Clone() *Packet {
	q := *p
	q.paySum = paySumCache{}
	q.IP.Options = append([]byte(nil), p.IP.Options...)
	if p.TCP != nil {
		t := *p.TCP
		t.Options = append([]byte(nil), p.TCP.Options...)
		q.TCP = &t
	}
	if p.UDP != nil {
		u := *p.UDP
		q.UDP = &u
	}
	if p.ICMP != nil {
		ic := *p.ICMP
		q.ICMP = &ic
	}
	q.Payload = append([]byte(nil), p.Payload...)
	q.TrailerPadding = append([]byte(nil), p.TrailerPadding...)
	return &q
}

// transportLen returns the serialized length of the transport header.
func (p *Packet) transportLen() int {
	switch {
	case p.TCP != nil:
		return p.TCP.headerLen()
	case p.UDP != nil:
		return 8
	case p.ICMP != nil:
		return 8
	}
	return 0
}

// Finalize fills every derived field (version, header lengths, total
// length, UDP length, data offset, and all checksums) so that the packet
// serializes to a strictly valid wire format. Evasion techniques call
// Finalize first and then corrupt the one field they target.
func (p *Packet) Finalize() *Packet {
	// Pad options to 32-bit boundary.
	for len(p.IP.Options)%4 != 0 {
		p.IP.Options = append(p.IP.Options, IPOptEOL)
	}
	p.IP.Version = 4
	p.IP.IHL = uint8(p.IP.headerLen() / 4)
	total := p.IP.headerLen() + p.transportLen() + len(p.Payload)
	if total > 0xffff {
		// A packet that cannot be expressed in IPv4 is a caller bug;
		// silently wrapping the 16-bit length produces baffling failures.
		panic(fmt.Sprintf("packet: Finalize: datagram of %d bytes exceeds the IPv4 maximum", total))
	}
	p.IP.TotalLength = uint16(total)
	switch {
	case p.TCP != nil:
		for len(p.TCP.Options)%4 != 0 {
			p.TCP.Options = append(p.TCP.Options, 0)
		}
		p.TCP.DataOffset = uint8(p.TCP.headerLen() / 4)
	case p.UDP != nil:
		p.UDP.Length = uint16(8 + len(p.Payload))
	}
	p.FixTransportChecksum()
	p.IP.Checksum = p.IP.computeChecksum()
	return p
}

// FixTransportChecksum recomputes only the transport-layer checksum for the
// current field values, reusing the packet's cached payload sum when the
// payload slice is unchanged. Techniques that edit a single header field
// after Finalize use this instead of re-summing the whole segment.
func (p *Packet) FixTransportChecksum() {
	switch {
	case p.TCP != nil:
		p.TCP.Checksum = p.TCP.checksumWith(p.IP.Src, p.IP.Dst, p.Payload, &p.paySum)
	case p.UDP != nil:
		p.UDP.Checksum = p.UDP.checksumWith(p.IP.Src, p.IP.Dst, p.Payload, &p.paySum)
	case p.ICMP != nil:
		p.ICMP.Checksum = p.ICMP.checksumWith(p.Payload, &p.paySum)
	}
}

// FixIPChecksum recomputes only the IP header checksum for the current
// field values — equivalent to serializing the header and summing it.
func (p *Packet) FixIPChecksum() {
	p.IP.Checksum = p.IP.computeChecksum()
}

// CachedPayloadSum returns the payload's partial sum (see PayloadSum) when
// the packet's checksum cache holds it for the exact slice Payload still
// points at: after Finalize (or FixTransportChecksum), or on a parse
// whose transport checksum was verified. Frames serialized from such a
// packet carry the value so parse-side checksum verification can skip
// re-summing the payload: the wire payload is the finalized payload's
// bytes, and both start 16-bit aligned in the checksummed stream, so the
// partial sums are identical. A packet whose Payload was rebound after
// Finalize (the documented way techniques change payloads) yields no
// sum and verification runs in full. Parsed packets are shared
// read-only, and reading the cache does not change it.
func (p *Packet) CachedPayloadSum() (uint32, bool) {
	if len(p.Payload) == 0 || p.paySum.ptr != &p.Payload[0] || p.paySum.n != len(p.Payload) {
		return 0, false
	}
	return p.paySum.val, true
}

// wireLen returns the serialized size of the packet.
func (p *Packet) wireLen() int {
	return p.IP.headerLen() + p.transportLen() + len(p.Payload) + len(p.TrailerPadding)
}

// Serialize produces the literal wire bytes for the packet. No field is
// recomputed: whatever the header structs say is what goes on the wire.
func (p *Packet) Serialize() []byte {
	return p.AppendSerialize(make([]byte, 0, p.wireLen()))
}

// AppendSerialize appends the packet's wire bytes to b and returns the
// extended slice, letting hot paths reuse pooled or stack buffers.
func (p *Packet) AppendSerialize(b []byte) []byte {
	b = p.appendHeaders(b)
	b = append(b, p.Payload...)
	b = append(b, p.TrailerPadding...)
	return b
}

// appendHeaders appends the IP and transport headers' wire bytes to b.
func (p *Packet) appendHeaders(b []byte) []byte {
	b = p.IP.marshal(b)
	switch {
	case p.TCP != nil:
		b = p.TCP.marshal(b)
	case p.UDP != nil:
		b = p.UDP.marshal(b)
	case p.ICMP != nil:
		b = p.ICMP.marshal(b)
	}
	return b
}

// seedPaySum primes the parse's payload-sum cache from a sender-carried
// hint (see CachedPayloadSum). The hint is taken only when the recovered
// payload length matches what the sender finalized — header mangling
// that shifts the payload boundary changes the length and falls back to
// a full verification sum.
func (p *Packet) seedPaySum(hintVal uint32, hintN int) {
	if hintN > 0 && len(p.Payload) == hintN {
		p.paySum = paySumCache{ptr: &p.Payload[0], n: hintN, val: hintVal}
	}
}

// parseAlloc is the single allocation backing one parse: the packet plus
// every transport header it could need. Inspect hands out interior pointers
// (&a.tcp etc.), so a full TCP parse costs one allocation for the structs
// and — in copy mode — one more for the payload.
type parseAlloc struct {
	pkt  Packet
	tcp  TCP
	udp  UDP
	icmp ICMP
}

// Inspect parses raw wire bytes into a Packet and reports every defect it
// finds. Parsing is best-effort: a malformed packet still yields the most
// plausible interpretation, because middleboxes differ in how much of a
// malformed packet they are willing to look at — that difference is the
// point of this library. The returned packet owns copies of its variable-
// length fields and is safe to mutate.
func Inspect(raw []byte) (*Packet, DefectSet) { return inspect(nil, raw, nil, false, 0, 0) }

// InspectView parses like Inspect but zero-copy: the returned packet's
// Payload, Options, and TrailerPadding alias raw. The result is read-only —
// callers that want to mutate it must Clone first — and is only valid while
// raw itself stays unmodified (which Frame guarantees by construction).
func InspectView(raw []byte) (*Packet, DefectSet) { return inspect(nil, raw, nil, true, 0, 0) }

// view returns b in alias mode and a copy in copy mode; empty slices
// normalize to nil in both modes so the two parses are interchangeable.
func view(alias bool, b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if alias {
		return b
	}
	return append([]byte(nil), b...)
}

// inspect parses the datagram raw ++ pay. pay is nil for contiguous
// bytes; otherwise raw holds exactly the IP and transport headers and pay
// the transport payload, which the headers must describe (splitOK) — the
// parse is then the one of the concatenation. hintVal/hintN, when
// hintN > 0, carry the payload partial sum the sender's Finalize computed
// (see Packet.CachedPayloadSum); the transport parsers seed the parse's paySum
// cache with it when the recovered payload length matches, so
// verification of well-formed stack-built traffic costs no per-byte work.
func inspect(ar *Arena, raw, pay []byte, alias bool, hintVal uint32, hintN int) (*Packet, DefectSet) {
	var defects DefectSet
	var a *parseAlloc
	if ar != nil {
		a = ar.parse()
	} else {
		a = &parseAlloc{}
	}
	p := &a.pkt
	if len(raw) < 20 {
		defects = defects.Add(DefectTruncated)
		return p, defects
	}
	h := &p.IP
	h.Version = raw[0] >> 4
	h.IHL = raw[0] & 0x0f
	h.TOS = raw[1]
	h.TotalLength = binary.BigEndian.Uint16(raw[2:4])
	h.ID = binary.BigEndian.Uint16(raw[4:6])
	fo := binary.BigEndian.Uint16(raw[6:8])
	h.Flags = uint8(fo >> 13)
	h.FragOffset = fo & 0x1fff
	h.TTL = raw[8]
	h.Protocol = raw[9]
	h.Checksum = binary.BigEndian.Uint16(raw[10:12])
	copy(h.Src[:], raw[12:16])
	copy(h.Dst[:], raw[16:20])

	if h.Version != 4 {
		defects = defects.Add(DefectIPVersion)
	}
	hdrLen := int(h.IHL) * 4
	if h.IHL < 5 || hdrLen > len(raw) {
		defects = defects.Add(DefectIPHeaderLength)
		hdrLen = 20 // best-effort fallback
	}
	if hdrLen > 20 {
		h.Options = view(alias, raw[20:hdrLen])
		inv, dep := validOptions(h.Options)
		if inv {
			defects = defects.Add(DefectIPOptionInvalid)
		}
		if dep {
			defects = defects.Add(DefectIPOptionDeprecated)
		}
	}
	// Verify header checksum over the claimed header bytes.
	if internetChecksum(0, raw[:hdrLen]) != 0 {
		defects = defects.Add(DefectIPChecksum)
	}
	// Total length consistency. A split datagram's headers describe its
	// exact length, so it has no trailer and its body is raw's transport
	// header followed by pay.
	claimed := int(h.TotalLength)
	switch {
	case claimed > len(raw)+len(pay):
		defects = defects.Add(DefectIPTotalLengthLong)
	case claimed < len(raw)+len(pay):
		defects = defects.Add(DefectIPTotalLengthShort)
		p.TrailerPadding = view(alias, raw[claimed:])
	}
	end := claimed
	if end > len(raw) || end < hdrLen {
		end = len(raw)
	}
	body := raw[hdrLen:end]

	switch {
	case h.FragOffset != 0:
		// Fragments other than the first carry no parseable transport
		// header.
		p.Payload = view(alias, body)
	case h.Protocol == ProtoTCP:
		defects |= p.parseTCP(a, body, pay, alias, hintVal, hintN)
	case h.Protocol == ProtoUDP:
		defects |= p.parseUDP(a, body, pay, alias, hintVal, hintN)
	case h.Protocol == ProtoICMP:
		defects |= p.parseICMP(a, body, alias, hintVal, hintN)
	default:
		defects = defects.Add(DefectIPProtocol)
		p.Payload = view(alias, body)
	}
	p.setFlow()
	return p, defects
}

// setFlow stores Flow().Canonical() on the parse. It writes the fields in
// place: FlowKey holds arrays, so the compiler keeps every FlowKey value
// in memory, and building one to return costs copies on the per-frame
// path.
func (p *Packet) setFlow() {
	var sp, dp uint16
	switch {
	case p.TCP != nil:
		sp, dp = p.TCP.SrcPort, p.TCP.DstPort
	case p.UDP != nil:
		sp, dp = p.UDP.SrcPort, p.UDP.DstPort
	}
	k := &p.flowCK
	k.Proto = p.IP.Protocol
	p.flowFwd = endOf(p.IP.Src, sp) < endOf(p.IP.Dst, dp)
	if p.flowFwd {
		k.Src, k.Dst, k.SrcPort, k.DstPort = p.IP.Src, p.IP.Dst, sp, dp
	} else {
		k.Src, k.Dst, k.SrcPort, k.DstPort = p.IP.Dst, p.IP.Src, dp, sp
	}
}

// parseTCP and parseUDP parse the transport segment body ++ pay, where a
// non-nil pay is exactly the payload (see inspect).
func (p *Packet) parseTCP(a *parseAlloc, body, pay []byte, alias bool, hintVal uint32, hintN int) DefectSet {
	var defects DefectSet
	if len(body) < 20 {
		p.Payload = view(alias, body)
		return defects.Add(DefectTruncated)
	}
	t := &a.tcp
	t.SrcPort = binary.BigEndian.Uint16(body[0:2])
	t.DstPort = binary.BigEndian.Uint16(body[2:4])
	t.Seq = binary.BigEndian.Uint32(body[4:8])
	t.Ack = binary.BigEndian.Uint32(body[8:12])
	t.DataOffset = body[12] >> 4
	t.Flags = TCPFlags(body[13])
	t.Window = binary.BigEndian.Uint16(body[14:16])
	t.Checksum = binary.BigEndian.Uint16(body[16:18])
	t.Urgent = binary.BigEndian.Uint16(body[18:20])
	p.TCP = t

	off := int(t.DataOffset) * 4
	if t.DataOffset < 5 || off > len(body) {
		defects = defects.Add(DefectTCPDataOffset)
		off = 20
	}
	if off > 20 {
		t.Options = view(alias, body[20:off])
	}
	p.Payload = view(alias, payloadOf(body[off:], pay))
	p.seedPaySum(hintVal, hintN)

	// Checksums cannot be verified on a first fragment: the rest of the
	// segment is in later fragments.
	if !p.IP.MoreFragments() && t.checksumWith(p.IP.Src, p.IP.Dst, p.Payload, &p.paySum) != t.Checksum {
		defects = defects.Add(DefectTCPChecksum)
	}
	if t.Flags.invalid() {
		defects = defects.Add(DefectTCPFlagCombo)
	}
	if !t.Flags.Has(FlagACK) && !t.Flags.Has(FlagSYN) && !t.Flags.Has(FlagRST) && !t.Flags.invalid() {
		defects = defects.Add(DefectTCPNoACK)
	}
	return defects
}

func (p *Packet) parseUDP(a *parseAlloc, body, pay []byte, alias bool, hintVal uint32, hintN int) DefectSet {
	var defects DefectSet
	if len(body) < 8 {
		p.Payload = view(alias, body)
		return defects.Add(DefectTruncated)
	}
	u := &a.udp
	u.SrcPort = binary.BigEndian.Uint16(body[0:2])
	u.DstPort = binary.BigEndian.Uint16(body[2:4])
	u.Length = binary.BigEndian.Uint16(body[4:6])
	u.Checksum = binary.BigEndian.Uint16(body[6:8])
	p.UDP = u
	p.Payload = view(alias, payloadOf(body[8:], pay))
	p.seedPaySum(hintVal, hintN)
	if p.IP.MoreFragments() {
		// Length and checksum describe the full datagram; they cannot be
		// judged from a first fragment alone.
		return defects
	}
	switch n := len(body) + len(pay); {
	case int(u.Length) > n:
		defects = defects.Add(DefectUDPLengthLong)
	case int(u.Length) < n:
		defects = defects.Add(DefectUDPLengthShort)
	}
	if u.Checksum != 0 {
		want := u.checksumWith(p.IP.Src, p.IP.Dst, p.Payload, &p.paySum)
		if want != u.Checksum {
			defects = defects.Add(DefectUDPChecksum)
		}
	}
	return defects
}

// payloadOf returns a split segment's payload pay, or the contiguous
// segment's rest.
func payloadOf(rest, pay []byte) []byte {
	if pay != nil {
		return pay
	}
	return rest
}

func (p *Packet) parseICMP(a *parseAlloc, body []byte, alias bool, hintVal uint32, hintN int) DefectSet {
	var defects DefectSet
	if len(body) < 8 {
		p.Payload = view(alias, body)
		return defects.Add(DefectTruncated)
	}
	ic := &a.icmp
	ic.Type = body[0]
	ic.Code = body[1]
	ic.Checksum = binary.BigEndian.Uint16(body[2:4])
	ic.Rest = binary.BigEndian.Uint32(body[4:8])
	p.ICMP = ic
	p.Payload = view(alias, body[8:])
	p.seedPaySum(hintVal, hintN)
	if ic.checksumWith(p.Payload, &p.paySum) != ic.Checksum {
		// ICMP checksum errors are folded into the generic truncation
		// defect bucket; no middlebox in the study keyed on them.
		defects = defects.Add(DefectTruncated)
	}
	return defects
}

// FlowKey identifies a unidirectional flow.
type FlowKey struct {
	Proto            uint8
	Src, Dst         Addr
	SrcPort, DstPort uint16
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Proto: k.Proto, Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort}
}

// Canonical returns a direction-independent key (the smaller orientation
// under Less) plus whether the original orientation was kept: the kept
// one is the one whose source end, address then port, is the smaller.
func (k FlowKey) Canonical() (FlowKey, bool) {
	if endOf(k.Src, k.SrcPort) < endOf(k.Dst, k.DstPort) {
		return k, true
	}
	return k.Reverse(), false
}

// Less is a total order over flow keys (the one Canonical uses), exposed
// for callers that need deterministic tie-breaking over key sets. It
// orders by protocol, then source address and port, then destination
// address and port, with addresses compared byte by byte.
func (k FlowKey) Less(o FlowKey) bool {
	if k.Proto != o.Proto {
		return k.Proto < o.Proto
	}
	if a, b := endOf(k.Src, k.SrcPort), endOf(o.Src, o.SrcPort); a != b {
		return a < b
	}
	return endOf(k.Dst, k.DstPort) < endOf(o.Dst, o.DstPort)
}

// endOf packs one end of a flow, its address (big-endian, so integer
// order is byte order) above its port.
func endOf(a Addr, port uint16) uint64 {
	return uint64(binary.BigEndian.Uint32(a[:]))<<16 | uint64(port)
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%d %s:%d>%s:%d", k.Proto, k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// CanonicalFlow returns the packet's direction-independent flow key and
// whether the packet's own orientation is the canonical one, as its parse
// (Inspect, InspectView, Frame.Parse) computed them. Only parses carry
// them: a packet built or edited in code must use Flow().Canonical().
func (p *Packet) CanonicalFlow() (FlowKey, bool) { return p.flowCK, p.flowFwd }

// Flow extracts the packet's flow key. Port fields are zero for packets
// without a transport header.
func (p *Packet) Flow() FlowKey {
	k := FlowKey{Proto: p.IP.Protocol, Src: p.IP.Src, Dst: p.IP.Dst}
	switch {
	case p.TCP != nil:
		k.SrcPort, k.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	case p.UDP != nil:
		k.SrcPort, k.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	}
	return k
}

func (p *Packet) String() string {
	switch {
	case p.TCP != nil:
		return fmt.Sprintf("TCP %s:%d>%s:%d seq=%d ack=%d %s len=%d ttl=%d",
			p.IP.Src, p.TCP.SrcPort, p.IP.Dst, p.TCP.DstPort, p.TCP.Seq, p.TCP.Ack, p.TCP.Flags, len(p.Payload), p.IP.TTL)
	case p.UDP != nil:
		return fmt.Sprintf("UDP %s:%d>%s:%d len=%d ttl=%d",
			p.IP.Src, p.UDP.SrcPort, p.IP.Dst, p.UDP.DstPort, len(p.Payload), p.IP.TTL)
	case p.ICMP != nil:
		return fmt.Sprintf("ICMP %s>%s type=%d code=%d", p.IP.Src, p.IP.Dst, p.ICMP.Type, p.ICMP.Code)
	}
	return fmt.Sprintf("IP %s>%s proto=%d len=%d", p.IP.Src, p.IP.Dst, p.IP.Protocol, len(p.Payload))
}
