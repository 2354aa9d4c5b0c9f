package packet

import "sync"

// Arena is a bump allocator for the short-lived objects the packet hot
// path churns through: Frames, parse blocks, built packets, and wire-byte
// buffers. One arena belongs to one simulated path (netem.Env) and is
// reset between replays, so an engagement converges to a near-constant
// allocation footprint — after the first replay warms the slabs, later
// replays allocate almost nothing.
//
// Ownership contract (see also DESIGN.md §13):
//
//   - Everything handed out by an arena — frames, parses, packets, byte
//     buffers, and any wire bytes or payload views aliasing them — is
//     valid only until the arena's next Reset.
//   - Reset may only be called at quiescence (no events pending on the
//     path's clock, no frames in flight) and after every consumer of the
//     previous replay's aliased bytes (the replay server's capture) has
//     been read.
//   - An arena is single-goroutine, like the Env that owns it. Forked
//     envs get their own fresh arena; pooled state never crosses forks.
//
// Reuse is index-based: Reset rewinds the slab cursors and clears the
// used prefix of the pointer-bearing slabs, so stale references do not
// pin dead buffers, but the slabs themselves are retained at capacity.
// Everything past the cursors is therefore always zero.
type Arena struct {
	frames [][]Frame
	fi, fn int // slab index, used count within it
	parses [][]parseAlloc
	pi, pn int
	bufs   [][]byte
	bi, bn int // slab index, byte offset within it
}

const (
	arenaFrameChunk = 512
	arenaParseChunk = 128
	// arenaByteChunk fits any one IPv4 datagram, the largest request the
	// packet path makes (wire bytes, a proxy chunk); anything larger is
	// not the arena's to recycle and goes to the heap.
	arenaByteChunk = 1 << 16
)

// arenaPool recycles whole arenas across owners. Trial forks are born and
// die by the dozen per engagement; handing a dead fork's warmed slabs to
// the next fork removes the per-fork slab warmup that otherwise dominates
// the allocation profile.
//
// It is an explicit bounded free list rather than a sync.Pool: replay
// workloads allocate fast enough that the collector runs every few
// replays, and a sync.Pool is emptied within two cycles — discarding
// exactly the multi-megabyte warmed slabs the pool exists to keep. The
// list caps worst-case retention at arenaPoolCap warmed arenas.
var arenaPool struct {
	mu   sync.Mutex
	free []*Arena
}

const arenaPoolCap = 16

// NewArena returns an arena ready for use — possibly a recycled one with
// pre-grown slabs; slabs grow on demand either way.
func NewArena() *Arena {
	arenaPool.mu.Lock()
	if n := len(arenaPool.free); n > 0 {
		a := arenaPool.free[n-1]
		arenaPool.free[n-1] = nil
		arenaPool.free = arenaPool.free[:n-1]
		arenaPool.mu.Unlock()
		return a
	}
	arenaPool.mu.Unlock()
	return new(Arena)
}

// Release resets the arena and returns it to the process-wide pool for
// another owner. Unlike Reset, Release may hand the arena to a different
// goroutine, so it is legal only when nothing can still reference any
// arena-owned object — i.e. when the owning path is dead, not merely
// quiescent between replays.
func (a *Arena) Release() {
	a.Reset()
	arenaPool.mu.Lock()
	if len(arenaPool.free) < arenaPoolCap {
		arenaPool.free = append(arenaPool.free, a)
	}
	arenaPool.mu.Unlock()
}

// Reset invalidates every object the arena has handed out since the last
// Reset and rewinds all slabs for reuse. See the type comment for when
// calling it is legal.
func (a *Arena) Reset() {
	clearUsed(a.frames, a.fi, a.fn)
	clearUsed(a.parses, a.pi, a.pn)
	a.fi, a.fn = 0, 0
	a.pi, a.pn = 0, 0
	a.bi, a.bn = 0, 0
}

// clearUsed zeroes the slots handed out since the last Reset: every slab
// before the cursor slab i, and the first n slots of slab i. Slots past
// the cursor were zeroed by an earlier Reset and never handed out since.
func clearUsed[T any](slabs [][]T, i, n int) {
	for _, s := range slabs[:min(i, len(slabs))] {
		clear(s)
	}
	if i < len(slabs) {
		clear(slabs[i][:n])
	}
}

// frame hands out one Frame slot, zeroed by the last Reset.
func (a *Arena) frame() *Frame {
	if a.fi == len(a.frames) {
		a.frames = append(a.frames, make([]Frame, arenaFrameChunk))
	}
	slab := a.frames[a.fi]
	f := &slab[a.fn]
	a.fn++
	if a.fn == len(slab) {
		a.fi++
		a.fn = 0
	}
	return f
}

// parse hands out one parse block (packet plus transport headers), zeroed
// by the last Reset: inspect and the builders fill fields piecemeal.
func (a *Arena) parse() *parseAlloc {
	if a.pi == len(a.parses) {
		a.parses = append(a.parses, make([]parseAlloc, arenaParseChunk))
	}
	pa := &a.parses[a.pi][a.pn]
	a.pn++
	if a.pn == arenaParseChunk {
		a.pi++
		a.pn = 0
	}
	return pa
}

// buf hands out a zero-length slice with capacity n, capped so appends
// past n cannot clobber a neighbouring allocation. Contents reachable by
// re-slicing are undefined (recycled slabs are not cleared).
func (a *Arena) buf(n int) []byte {
	if n > arenaByteChunk {
		return make([]byte, 0, n)
	}
	if a.bi == len(a.bufs) {
		a.bufs = append(a.bufs, make([]byte, arenaByteChunk))
	}
	if a.bn+n > arenaByteChunk {
		a.bi++
		a.bn = 0
		if a.bi == len(a.bufs) {
			a.bufs = append(a.bufs, make([]byte, arenaByteChunk))
		}
	}
	s := a.bufs[a.bi]
	b := s[a.bn : a.bn : a.bn+n]
	a.bn += n
	return b
}

// Bytes returns an n-byte buffer with undefined contents; the caller must
// overwrite all of it. cap == len, so appending grows a private copy.
func (a *Arena) Bytes(n int) []byte {
	return a.buf(n)[:n]
}

// NewFrame wraps raw in an arena-owned frame. Like packet.NewFrame, the
// frame takes ownership of raw; derived frames (TTL decrements,
// materialized copies, cached parses) draw from the same arena.
func (a *Arena) NewFrame(raw []byte) *Frame {
	f := a.frame()
	*f = Frame{raw: raw, ar: a}
	return f
}

// FrameOf serializes p into arena-owned wire bytes and wraps them in an
// arena-owned frame — the arena counterpart of packet.FrameOf. When p's
// payload sum is current (finalized and not rebound since), the frame
// carries it as a verification hint, so downstream parses of this
// stack-built frame skip the per-byte payload re-sum.
//
// A segment from a summed builder (NewTCPSummed, NewUDPSummed) whose
// payload is still the slice it was built over, with no trailer, is not
// copied: the frame holds its serialized headers in the arena and aliases
// the payload, which the summed builders' contract keeps unmodified until
// the arena's next Reset. Raw assembles the contiguous bytes on first use.
func (a *Arena) FrameOf(p *Packet) *Frame {
	f := a.frame() // zeroed: set only the fields that differ
	f.ar = a
	v, ok := p.CachedPayloadSum()
	if ok {
		f.psVal, f.psN = v, len(p.Payload)
	}
	if ok && p.paySum.stable && len(p.TrailerPadding) == 0 {
		f.raw = p.appendHeaders(a.buf(p.IP.headerLen() + p.transportLen()))
		f.pay = p.Payload
	} else {
		f.raw = a.Wire(p)
	}
	return f
}

// Wire serializes p into an arena-owned buffer — the arena counterpart of
// Packet.Serialize.
func (a *Arena) Wire(p *Packet) []byte {
	return p.AppendSerialize(a.buf(p.wireLen()))
}

// The builders below return finalized packets out of arena storage: the
// packet and its transport header live in the arena, and id is the IP
// identification, so each segment is finalized exactly once. The payload
// is ALIASED, not copied — sound under the repository-wide invariant (see
// paySumCache) that payload bytes are never mutated in place. Apart from
// the IP ID they are semantically identical to packet.NewTCP/NewUDP.

// NewTCP builds a finalized TCP packet.
func (a *Arena) NewTCP(src, dst Addr, id uint16, srcPort, dstPort uint16, seq, ack uint32, flags TCPFlags, payload []byte) *Packet {
	return a.tcp(src, dst, id, srcPort, dstPort, seq, ack, flags, payload).Finalize()
}

// NewTCPSummed is NewTCP with a precomputed payload partial sum (see
// PayloadSum): the packet's checksum cache is seeded before Finalize, so
// building the segment never walks the payload bytes. The caller must
// keep payload unmodified until the arena's next Reset, because FrameOf
// aliases it rather than copying it.
func (a *Arena) NewTCPSummed(src, dst Addr, id uint16, srcPort, dstPort uint16, seq, ack uint32, flags TCPFlags, payload []byte, paySum uint32) *Packet {
	return a.tcp(src, dst, id, srcPort, dstPort, seq, ack, flags, payload).seedStableSum(paySum).Finalize()
}

// NewUDP builds a finalized UDP packet.
func (a *Arena) NewUDP(src, dst Addr, id uint16, srcPort, dstPort uint16, payload []byte) *Packet {
	return a.udp(src, dst, id, srcPort, dstPort, payload).Finalize()
}

// NewUDPSummed is NewUDP seeded with a precomputed payload partial sum,
// under NewTCPSummed's contract.
func (a *Arena) NewUDPSummed(src, dst Addr, id uint16, srcPort, dstPort uint16, payload []byte, paySum uint32) *Packet {
	return a.udp(src, dst, id, srcPort, dstPort, payload).seedStableSum(paySum).Finalize()
}

// tcp lays out an unfinalized TCP packet in arena storage.
func (a *Arena) tcp(src, dst Addr, id uint16, srcPort, dstPort uint16, seq, ack uint32, flags TCPFlags, payload []byte) *Packet {
	pa := a.parse()
	p := &pa.pkt
	p.IP = IPv4{ID: id, TTL: DefaultTTL, Protocol: ProtoTCP, Src: src, Dst: dst}
	pa.tcp = TCP{
		SrcPort: srcPort, DstPort: dstPort,
		Seq: seq, Ack: ack, Flags: flags, Window: 65535,
	}
	p.TCP = &pa.tcp
	if len(payload) > 0 {
		p.Payload = payload
	}
	return p
}

// udp lays out an unfinalized UDP packet in arena storage.
func (a *Arena) udp(src, dst Addr, id uint16, srcPort, dstPort uint16, payload []byte) *Packet {
	pa := a.parse()
	p := &pa.pkt
	p.IP = IPv4{ID: id, TTL: DefaultTTL, Protocol: ProtoUDP, Src: src, Dst: dst}
	pa.udp = UDP{SrcPort: srcPort, DstPort: dstPort}
	p.UDP = &pa.udp
	if len(payload) > 0 {
		p.Payload = payload
	}
	return p
}

// seedStableSum seeds the checksum cache with the caller's payload sum and
// marks the payload stable for FrameOf.
func (p *Packet) seedStableSum(sum uint32) *Packet {
	if len(p.Payload) > 0 {
		p.paySum = paySumCache{ptr: &p.Payload[0], n: len(p.Payload), val: sum, stable: true}
	}
	return p
}
