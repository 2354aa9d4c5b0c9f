package netem

import (
	"time"

	"repro/internal/netem/packet"
	"repro/internal/obs"
)

// linkDrop records a path element discarding a packet. Shared by every
// dropping element so drop evidence is uniform across the chain.
func linkDrop(ctx Context, actor, reason string, size int) {
	r := ctx.Rec()
	r.Record(obs.Event{VNS: ctx.VNS(), Kind: obs.KindLinkDrop, Actor: actor, Label: reason, Value: int64(size)})
	r.Add(obs.CtrLinkDrops, 1)
}

// Hop models one TTL-decrementing router. A packet whose TTL reaches zero
// at this hop is dropped and, when EmitICMP is set, answered with an ICMP
// time-exceeded toward its source address — the mechanism lib·erate's
// middlebox-localization probes rely on.
type Hop struct {
	Label string
	Addr  packet.Addr
	// DropDefects drops packets exhibiting any of these defects, the way
	// strict operational routers discard malformed datagrams.
	DropDefects packet.DefectSet
	// EmitICMP controls whether TTL expiry is reported to the sender.
	EmitICMP bool
}

// Name implements Element.
func (h *Hop) Name() string { return h.Label }

// Process implements Element. Env forwards a frame that survives a hop
// without DropDefects itself, without calling Process (see
// Env.deliverBatch); Process still runs for expiry, short garbage,
// DropDefects hops, and every delivery while Env.Trace is set.
func (h *Hop) Process(ctx Context, dir Direction, f *packet.Frame) {
	if f.Len() < 20 {
		return // unroutable garbage
	}
	if !h.DropDefects.Empty() {
		if _, defects := f.Parse(); defects.Intersects(h.DropDefects) {
			if ctx.Traced() {
				linkDrop(ctx, h.Label, "defect", f.Len())
			}
			return
		}
	}
	if f.TTL() <= 1 {
		if ctx.Traced() {
			r := ctx.Rec()
			r.Record(obs.Event{VNS: ctx.VNS(), Kind: obs.KindLinkExpire, Actor: h.Label, Value: int64(f.Len())})
			r.Add(obs.CtrTTLExpiries, 1)
		}
		if h.EmitICMP {
			// Expiry is the rare path; materializing here keeps the quoted
			// bytes accurate (TTL as it arrived at this hop).
			raw := f.Raw()
			var src packet.Addr
			copy(src[:], raw[12:16])
			icmp := packet.NewICMPTimeExceeded(h.Addr, src, raw)
			if dir == ToServer {
				ctx.SendToClient(packet.FrameOf(icmp))
			} else {
				ctx.SendToServer(packet.FrameOf(icmp))
			}
		}
		return
	}
	// The TTL decrement is lazy until something downstream reads the bytes,
	// and the RFC 1624 incremental update keeps a warm parse cache valid
	// across the hop — routers neither copy nor re-parse in the fast path.
	ctx.Forward(f.WithTTLDecrementedBy(1))
}

// Filter drops packets matching a predicate or defect set, in one or both
// directions. Operational networks in the paper dropped most malformed
// packets somewhere between the classifier and the server; Filter is how
// the per-network profiles express that.
type Filter struct {
	Label       string
	DropDefects packet.DefectSet
	// Drop, when non-nil, additionally drops packets it returns true for.
	Drop func(p *packet.Packet, defects packet.DefectSet) bool
	// OnlyDir, when non-nil, restricts filtering to one direction.
	OnlyDir *Direction
}

// Name implements Element.
func (f *Filter) Name() string { return f.Label }

// Process implements Element.
func (f *Filter) Process(ctx Context, dir Direction, fr *packet.Frame) {
	if f.OnlyDir != nil && dir != *f.OnlyDir {
		ctx.Forward(fr)
		return
	}
	p, defects := fr.Parse()
	if defects.Intersects(f.DropDefects) {
		if ctx.Traced() {
			linkDrop(ctx, f.Label, "defect", fr.Len())
		}
		return
	}
	if f.Drop != nil && f.Drop(p, defects) {
		if ctx.Traced() {
			linkDrop(ctx, f.Label, "filter", fr.Len())
		}
		return
	}
	ctx.Forward(fr)
}

// Pipe models the bottleneck link: every byte takes wire time proportional
// to the configured rate, so end-to-end throughput measurements (the
// paper's throttling-detection signal) are meaningful.
type Pipe struct {
	Label string
	// RateBps is the link capacity in bits per second.
	RateBps float64

	// nextFree is when each direction's transmitter frees up, in virtual
	// ns since the vclock epoch.
	nextFree [2]int64
}

// Name implements Element.
func (p *Pipe) Name() string { return p.Label }

// ForkElement implements Forkable: the copy continues from the same
// per-direction transmission-queue positions.
func (p *Pipe) ForkElement() Element {
	c := *p
	return &c
}

// Process implements Element.
func (p *Pipe) Process(ctx Context, dir Direction, f *packet.Frame) {
	if p.RateBps <= 0 {
		ctx.Forward(f)
		return
	}
	tx := time.Duration(float64(f.Len()*8) / p.RateBps * float64(time.Second))
	now := ctx.VNS()
	done := max(now, p.nextFree[dir]) + int64(tx)
	p.nextFree[dir] = done
	ctx.ForwardAfter(time.Duration(done-now), f)
}

// TCPChecksumFixer rewrites incorrect TCP checksums to correct ones, the
// behaviour note 4 of Table 3 attributes to an in-path device on the China
// route ("the TCP checksum is corrected before arriving at the server").
type TCPChecksumFixer struct {
	Label string
}

// Name implements Element.
func (f *TCPChecksumFixer) Name() string { return f.Label }

// Process implements Element.
func (f *TCPChecksumFixer) Process(ctx Context, dir Direction, fr *packet.Frame) {
	p, defects := fr.Parse()
	if !defects.Has(packet.DefectTCPChecksum) || p.TCP == nil {
		ctx.Forward(fr)
		return
	}
	q := p.Clone()
	q.FixTransportChecksum()
	ctx.ForwardPacket(q)
}

// PathReassembler reassembles IP fragments in-path before forwarding, the
// behaviour note 2 of Table 3 observed on the testbed, T-Mobile, and China
// routes ("the fragmented packets are reassembled before reaching the
// server").
type PathReassembler struct {
	Label string
	r     *packet.Reassembler
}

// Name implements Element.
func (pr *PathReassembler) Name() string { return pr.Label }

// ForkElement implements Forkable: partial fragment state is deep-copied.
func (pr *PathReassembler) ForkElement() Element {
	c := &PathReassembler{Label: pr.Label}
	if pr.r != nil {
		c.r = pr.r.Clone()
	}
	return c
}

// Process implements Element.
func (pr *PathReassembler) Process(ctx Context, dir Direction, f *packet.Frame) {
	if pr.r == nil {
		pr.r = packet.NewReassembler()
	}
	// Non-fragments pass through with their cached parse intact; only
	// actual fragments pay the reassembly machinery (mirroring the
	// Reassembler's own pass-through rule, including short garbage whose
	// zero-valued parse has no fragment fields set).
	if p, _ := f.Parse(); p.IP.FragOffset == 0 && !p.IP.MoreFragments() {
		ctx.Forward(f)
		return
	}
	out, done := pr.r.Add(f.Raw())
	if done {
		if ctx.Traced() {
			r := ctx.Rec()
			r.Record(obs.Event{VNS: ctx.VNS(), Kind: obs.KindLinkReassemble, Actor: pr.Label, Value: int64(len(out))})
			r.Add(obs.CtrReassemblies, 1)
		}
		ctx.ForwardRaw(out)
	}
}

// Tap records every packet that passes it; tests and the replay server's
// packet capture use it to decide the paper's "Reaches Server?" column.
type Tap struct {
	Label  string
	Seen   []TapRecord
	OnPass func(dir Direction, raw []byte)
}

// TapRecord is one observed packet.
type TapRecord struct {
	At  time.Time
	Dir Direction
	Raw []byte
}

// Name implements Element.
func (t *Tap) Name() string { return t.Label }

// ForkElement implements Forkable. The capture slice is copied (records
// themselves are immutable); an OnPass hook is shared, so forks of tapped
// paths should only be driven when the hook is concurrency-safe or nil.
func (t *Tap) ForkElement() Element {
	return &Tap{Label: t.Label, Seen: append([]TapRecord(nil), t.Seen...), OnPass: t.OnPass}
}

// Process implements Element.
func (t *Tap) Process(ctx Context, dir Direction, f *packet.Frame) {
	// Taps outlive replays, so the capture copies the bytes: arena-owned
	// frame buffers are only valid until the next replay's arena reset.
	raw := append([]byte(nil), f.Raw()...)
	t.Seen = append(t.Seen, TapRecord{At: ctx.Now(), Dir: dir, Raw: raw})
	if t.OnPass != nil {
		t.OnPass(dir, raw)
	}
	ctx.Forward(f)
}

// Reset clears the tap's record.
func (t *Tap) Reset() { t.Seen = nil }
