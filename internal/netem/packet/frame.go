package packet

// Frame carries one datagram across the simulated path: the authoritative
// raw wire bytes plus a lazily computed, cached (Packet, DefectSet) parse.
// Elements that only route or delay a packet never trigger a parse; the
// first element that inspects it pays for exactly one zero-copy parse,
// and every later inspector — including the endpoint stacks — reuses it.
//
// Frames are logically immutable after construction: the wire bytes a frame
// denotes never change. Mutation happens by building a new packet (Clone +
// edits) and wrapping it in a new frame (FrameOf), which is the
// invalidate-on-write contract — a frame's parse can never go stale because
// the bytes it describes can never change. Immutability is also what makes
// frame sharing safe: duplicating links forward the same frame twice, taps
// retain it without copying, and retransmit queues re-wrap the same raw
// buffer.
//
// Internally a frame may carry pending TTL decrements that have not yet
// been applied to a private copy of the bytes (ttlDelta). Consecutive
// routers then share one buffer, and the copy + RFC 1624 checksum patches
// are applied once, by the first reader downstream. This is invisible to
// callers: Raw and Parse always present the fully patched bytes.
type Frame struct {
	raw      []byte
	ttlDelta uint8 // pending TTL decrements not yet applied to raw
	pkt      *Packet
	defects  DefectSet
	// ar, when non-nil, is the arena this frame was allocated from.
	// Derived allocations (TTL-decrement frames, materialized byte copies,
	// the cached parse) draw from the same arena, so a frame's whole
	// lifecycle shares its owner's reset boundary.
	ar *Arena
	// psVal/psN carry the sender's payload partial sum (Packet.paySumHint)
	// when the frame was serialized from a finalized packet; psN == 0 means
	// no hint. Parse seeds its checksum verification from it.
	psVal uint32
	psN   int
}

// NewFrame wraps raw wire bytes in a frame. The frame takes ownership:
// the caller must not modify raw afterwards.
func NewFrame(raw []byte) *Frame { return &Frame{raw: raw} }

// FrameOf serializes p into a fresh frame. The parse cache starts empty
// rather than adopting p, because p's fields may disagree with its own
// wire bytes in exactly the ways defect detection exists to notice.
func FrameOf(p *Packet) *Frame { return &Frame{raw: p.Serialize()} }

// materialize applies any pending TTL decrements to a private copy of the
// bytes. Decrements are replayed one at a time so the resulting checksum
// bytes are bit-identical to a chain of per-hop updates. A parse inherited
// from the pre-decrement frame is carried across by shallow-copying it and
// patching the two fields a router changes — the defect set is TTL-invariant
// under an incremental update, so it transfers untouched.
func (f *Frame) materialize() {
	if f.ttlDelta == 0 {
		return
	}
	var out []byte
	if f.ar != nil {
		out = f.ar.Bytes(len(f.raw))
	} else {
		out = make([]byte, len(f.raw))
	}
	copy(out, f.raw)
	for i := uint8(0); i < f.ttlDelta; i++ {
		decrementTTL(out)
	}
	f.raw, f.ttlDelta = out, 0
	if f.pkt != nil {
		// Transport headers, options, and payload stay shared with the
		// parent's parse — safe because both are read-only views over
		// byte-identical regions.
		var q *Packet
		if f.ar != nil {
			q = &f.ar.parse().pkt
		} else {
			q = &Packet{}
		}
		*q = *f.pkt
		q.IP.TTL = out[8]
		q.IP.Checksum = uint16(out[10])<<8 | uint16(out[11])
		f.pkt = q
	}
}

// Raw returns the wire bytes. Callers must treat them as read-only.
func (f *Frame) Raw() []byte {
	f.materialize()
	return f.raw
}

// Len returns the wire length.
func (f *Frame) Len() int { return len(f.raw) }

// TTL returns the effective IP TTL byte without materializing pending
// decrements. Only valid on frames of at least 20 bytes.
func (f *Frame) TTL() uint8 { return f.raw[8] - f.ttlDelta }

// Parse returns the cached parse of the frame, computing it on first use.
// The returned packet is a read-only view whose Payload and Options alias
// the frame's raw bytes; callers that want to mutate it must Clone first.
func (f *Frame) Parse() (*Packet, DefectSet) {
	if f.pkt == nil {
		f.materialize()
		f.pkt, f.defects = inspect(f.ar, f.raw, true, f.psVal, f.psN)
	}
	return f.pkt, f.defects
}

// Parsed reports whether the parse cache is populated.
func (f *Frame) Parsed() bool { return f.pkt != nil }

// WithTTLDecrementedBy returns a new frame whose TTL is n lower — the
// frame after n routers — with the IP header checksum incrementally
// updated per RFC 1624, one decrement at a time. The update preserves
// checksum *wrongness*: a deliberately corrupted checksum stays exactly as
// wrong after the hops, just as through real routers. The frame must hold
// at least a 20-byte IP header (routers discard shorter garbage before
// decrementing) and a TTL above n.
//
// The decrement is always lazy: the new frame shares the raw buffer (and
// any cached parse) with its parent and just records n more pending
// decrements, so a run of routers costs one small allocation and zero
// copies. The first downstream reader pays for one copy and — when the
// parent had a warm parse — one shallow parse patch, so a datagram still
// parses at most once across any number of routers.
func (f *Frame) WithTTLDecrementedBy(n uint8) *Frame {
	if f.ar != nil {
		nf := f.ar.frame()
		*nf = Frame{raw: f.raw, ttlDelta: f.ttlDelta + n, pkt: f.pkt, defects: f.defects, ar: f.ar, psVal: f.psVal, psN: f.psN}
		return nf
	}
	return &Frame{raw: f.raw, ttlDelta: f.ttlDelta + n, pkt: f.pkt, defects: f.defects, psVal: f.psVal, psN: f.psN}
}

// decrementTTL lowers the TTL byte in place and incrementally updates the
// header checksum per RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m').
func decrementTTL(raw []byte) {
	oldWord := uint16(raw[8])<<8 | uint16(raw[9])
	raw[8]--
	newWord := uint16(raw[8])<<8 | uint16(raw[9])
	hc := uint16(raw[10])<<8 | uint16(raw[11])
	sum := uint32(^hc) + uint32(^oldWord) + uint32(newWord)
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	hc = ^uint16(sum)
	raw[10] = byte(hc >> 8)
	raw[11] = byte(hc)
}
