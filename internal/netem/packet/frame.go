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
// routers then share one buffer. Parse never copies: it parses the shared
// bytes and patches the TTL and RFC 1624 header checksum into the parse.
// Only Raw pays for the copy, once, for the readers that need the wire
// bytes themselves. This is invisible to callers: Raw and Parse always
// present the fully patched bytes.
//
// A frame may also hold its datagram in two parts: raw with only the IP
// and transport headers, and pay aliasing an immutable payload (see
// Arena.FrameOf). Raw joins them into one private copy on first use, the
// way it applies pending TTL decrements; Parse and Len never need to.
type Frame struct {
	raw      []byte
	pay      []byte // aliased payload following raw on the wire, or nil
	ttlDelta uint8  // pending TTL decrements not yet applied to raw
	pkt      *Packet
	defects  DefectSet
	// inherited marks pkt as the parse of the frame this one was derived
	// from by WithTTLDecrementedBy, so its TTL and header checksum are
	// stale; Parse patches them into a copy.
	inherited bool
	// ar, when non-nil, is the arena this frame was allocated from.
	// Derived allocations (TTL-decrement frames, materialized byte copies,
	// the cached parse) draw from the same arena, so a frame's whole
	// lifecycle shares its owner's reset boundary.
	ar *Arena
	// psVal/psN carry the sender's payload partial sum (Packet.CachedPayloadSum)
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

// materialize joins an aliased payload onto the headers and applies any
// pending TTL decrements, in a private copy of the bytes, with the
// checksum bit-identical to a chain of per-hop updates
// (decrementedChecksum). The parse, if any, is left alone: it already
// denotes the decremented bytes, or is inherited and patched by Parse.
func (f *Frame) materialize() {
	if f.ttlDelta == 0 && f.pay == nil {
		return
	}
	var out []byte
	if f.ar != nil {
		out = f.ar.Bytes(f.Len())
	} else {
		out = make([]byte, f.Len())
	}
	copy(out[copy(out, f.raw):], f.pay)
	ttl, hc := f.ttlAndChecksum()
	out[8], out[10], out[11] = ttl, byte(hc>>8), byte(hc)
	f.raw, f.pay, f.ttlDelta = out, nil, 0
}

// Raw returns the wire bytes. Callers must treat them as read-only.
func (f *Frame) Raw() []byte {
	f.materialize()
	return f.raw
}

// Len returns the wire length.
func (f *Frame) Len() int { return len(f.raw) + len(f.pay) }

// TTL returns the effective IP TTL byte without materializing pending
// decrements. Only valid on frames of at least 20 bytes.
func (f *Frame) TTL() uint8 { return f.raw[8] - f.ttlDelta }

// Parse returns the cached parse of the frame, computing it on first use.
// The returned packet is a read-only view whose Payload and Options alias
// the frame's raw bytes; callers that want to mutate it must Clone first.
//
// Pending TTL decrements cost no copy here. The parse is taken over the
// shared pre-decrement bytes (or shallow-copied from the inherited parse)
// and gets the effective TTL and header checksum patched in. The defect
// set carries over unchanged, because an RFC 1624 update keeps a header
// checksum exactly as valid or as wrong as it was.
func (f *Frame) Parse() (*Packet, DefectSet) {
	if f.pkt != nil && !f.inherited {
		return f.pkt, f.defects
	}
	var q *Packet
	if f.inherited {
		// Transport headers, options, and payload stay shared with the
		// parent's parse — safe because both are read-only views over
		// byte-identical regions.
		if f.ar != nil {
			q = &f.ar.parse().pkt
		} else {
			q = &Packet{}
		}
		*q = *f.pkt
	} else {
		if f.pay != nil && !splitOK(f.raw, f.pay) {
			f.materialize()
		}
		q, f.defects = inspect(f.ar, f.raw, f.pay, true, f.psVal, f.psN)
	}
	if f.ttlDelta > 0 || f.inherited {
		q.IP.TTL, q.IP.Checksum = f.ttlAndChecksum()
	}
	f.pkt, f.inherited = q, false
	return f.pkt, f.defects
}

// ttlAndChecksum returns the IP TTL and header checksum the frame denotes:
// raw's, after the pending decrements.
func (f *Frame) ttlAndChecksum() (uint8, uint16) {
	hc := uint16(f.raw[10])<<8 | uint16(f.raw[11])
	return f.raw[8] - f.ttlDelta, decrementedChecksum(hc, f.ttlDelta)
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
// copies. A downstream Parse patches a shallow copy of a warm parse, so a
// datagram still parses at most once across any number of routers, and
// only a downstream Raw copies the bytes.
func (f *Frame) WithTTLDecrementedBy(n uint8) *Frame {
	var nf *Frame
	if f.ar != nil {
		nf = f.ar.frame()
	} else {
		nf = new(Frame)
	}
	// Field stores into the zeroed slot: copying a whole Frame literal
	// costs a temporary and a block copy on this per-hop path.
	nf.raw, nf.pay, nf.ttlDelta = f.raw, f.pay, f.ttlDelta+n
	nf.pkt, nf.defects, nf.inherited = f.pkt, f.defects, f.pkt != nil
	nf.ar, nf.psVal, nf.psN = f.ar, f.psVal, f.psN
	return nf
}

// splitOK reports whether the headers in hdr describe a datagram of
// exactly hdr ++ pay with pay as its TCP or UDP payload: an unfragmented
// datagram whose IP header length, transport header length and total
// length all put the boundary where the split does. inspect parses a
// two-part frame only under this precondition; any other frame (one whose
// length fields a technique corrupted, say) is materialized first.
func splitOK(hdr, pay []byte) bool {
	if len(hdr) < 20 {
		return false
	}
	ihl := int(hdr[0]&0x0f) * 4
	if ihl < 20 || int(hdr[2])<<8|int(hdr[3]) != len(hdr)+len(pay) || hdr[6]&0x3f != 0 || hdr[7] != 0 {
		return false
	}
	switch hdr[9] {
	case ProtoTCP:
		return len(hdr) >= ihl+20 && int(hdr[ihl+12]>>4)*4 == len(hdr)-ihl
	case ProtoUDP:
		return len(hdr) == ihl+8
	}
	return false
}

// decrementedChecksum returns the IP header checksum hc after n TTL
// decrements, each an RFC 1624 eqn. 3 update HC' = ~(~HC + ~m + m'), bit
// for bit. The TTL shares its 16-bit header word m with the protocol byte,
// and decrementing a nonzero TTL lowers m by exactly 0x100, so ~m + m' is
// always 0xFEFF and each update is one end-around-carry addition of 0xFEFF
// to ~HC. Frames carry a TTL above their pending decrements (see
// WithTTLDecrementedBy), so the TTL never wraps.
func decrementedChecksum(hc uint16, n uint8) uint16 {
	x := uint32(^hc)
	for ; n > 0; n-- {
		x += 0xFEFF
		if x > 0xFFFF {
			x -= 0xFFFF
		}
	}
	return ^uint16(x)
}
