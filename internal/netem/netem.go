// Package netem simulates an end-to-end IPv4 network path between one
// client and one server, with an ordered chain of in-path elements
// (routers, filters, normalizers, and DPI middleboxes) in between.
//
// The simulation is packet-level and wire-format-faithful: elements see the
// literal serialized bytes, because the whole point of the lib·erate
// reproduction is that different devices parse the same malformed bytes
// differently. Time is virtual (package vclock), so experiments involving
// multi-minute classifier timeouts run instantly and deterministically.
package netem

import (
	"time"

	"repro/internal/netem/packet"
	"repro/internal/netem/vclock"
	"repro/internal/obs"
)

// Direction is the direction a packet travels along the path.
type Direction int

const (
	// ToServer is client→server.
	ToServer Direction = iota
	// ToClient is server→client.
	ToClient
)

func (d Direction) String() string {
	if d == ToServer {
		return "→server"
	}
	return "→client"
}

// Reverse flips the direction.
func (d Direction) Reverse() Direction {
	if d == ToServer {
		return ToClient
	}
	return ToServer
}

// Endpoint receives packets that reach an end of the path.
type Endpoint interface {
	// Deliver hands the endpoint an arriving frame. The frame is shared
	// and immutable: its raw bytes and cached parse must not be modified.
	Deliver(f *packet.Frame)
}

// EndpointFunc adapts a raw-bytes function to the Endpoint interface, for
// tests and probes that only care about the wire bytes.
type EndpointFunc func(raw []byte)

// Deliver implements Endpoint.
func (f EndpointFunc) Deliver(fr *packet.Frame) { f(fr.Raw()) }

// Element is an in-path device. Process receives a frame moving in dir and
// decides its fate through the Context: forward it (possibly replaced),
// drop it (by doing nothing), or inject new packets in either direction.
// Frames are immutable — an element that modifies a packet builds new bytes
// and forwards a new frame, so a parse cached upstream can never go stale.
type Element interface {
	Name() string
	Process(ctx Context, dir Direction, f *packet.Frame)
}

// Context gives an Element access to the simulation during Process.
type Context struct {
	env *Env
	idx int
	dir Direction
}

// Forward passes f onward in the packet's direction of travel.
func (c Context) Forward(f *packet.Frame) { c.env.move(c.idx, c.dir, f) }

// ForwardRaw wraps raw in a fresh frame and forwards it. The frame takes
// ownership of raw.
func (c Context) ForwardRaw(raw []byte) { c.Forward(c.env.Arena().NewFrame(raw)) }

// ForwardPacket serializes and forwards p.
func (c Context) ForwardPacket(p *packet.Packet) { c.Forward(c.FrameOf(p)) }

// FrameOf serializes p into a frame drawn from the path's arena, for
// elements that re-emit packets they built (proxies, normalizers). The
// frame follows the arena ownership contract (valid until the next
// replay's reset).
func (c Context) FrameOf(p *packet.Packet) *packet.Frame { return c.env.Arena().FrameOf(p) }

// Arena exposes the path's packet arena so elements that build packets in
// bulk (proxy re-segmentation) can draw storage from it instead of the
// heap. Everything built from it follows the arena ownership contract.
func (c Context) Arena() *packet.Arena { return c.env.Arena() }

// SendToClient injects a frame from this element's position toward the
// client (e.g. an injected RST or a block page).
func (c Context) SendToClient(f *packet.Frame) { c.env.move(c.idx, ToClient, f) }

// SendToServer injects a frame from this element's position toward the
// server.
func (c Context) SendToServer(f *packet.Frame) { c.env.move(c.idx, ToServer, f) }

// Now returns the current virtual time.
func (c Context) Now() time.Time { return c.env.Clock.Now() }

// Schedule runs fn after d of virtual time.
func (c Context) Schedule(d time.Duration, fn func()) { c.env.Clock.Schedule(d, fn) }

// ForwardAfter forwards f in the packet's direction of travel after d of
// virtual time — the allocation-free form of Schedule(d, func() {
// Forward(f) }) for shapers, pipes, and other delay elements.
func (c Context) ForwardAfter(d time.Duration, f *packet.Frame) {
	c.env.forwardAfter(c.idx, c.dir, d, f)
}

// HourOfDay exposes the virtual time-of-day for load-dependent models.
func (c Context) HourOfDay() float64 { return c.env.Clock.HourOfDay() }

// Traced reports whether the env records observability events. Packet-path
// emission sites gate on this cached bool instead of an interface call, so
// disabled recording costs nothing measurable. A zero Context (unit tests
// driving element methods directly) is never traced.
func (c Context) Traced() bool { return c.env != nil && c.env.traced }

// Rec returns the env's recorder (obs.Nop when tracing is off).
func (c Context) Rec() obs.Recorder { return c.env.Recorder() }

// VNS returns the virtual timestamp (ns since the vclock epoch) events
// carry.
func (c Context) VNS() int64 { return c.env.Clock.NowNS() }

// Env is a simulated path: client — elements[0] … elements[n-1] — server.
type Env struct {
	Clock      *vclock.Clock
	ClientAddr packet.Addr
	ServerAddr packet.Addr

	// LinkDelay is the one-way latency of each link segment (there are
	// len(elements)+1 segments).
	LinkDelay time.Duration

	elements []Element
	client   Endpoint
	server   Endpoint

	// Trace, when non-nil, observes every delivery: to an element (name),
	// to "client", or to "server".
	Trace func(where string, dir Direction, raw []byte)

	// delivered counts deliveries per position (0 = client, i+1 = element
	// i, len(elements)+1 = server). A position-indexed slice keeps the
	// per-packet path free of map hashing; DeliveredTo resolves names.
	delivered []int

	// Delivery runs and delayed forwards ride the clock's index-addressed
	// event plane: deliverID/deferID name callbacks registered once per
	// clock (bindFns), scheduled events carry a uint32 slot into batches/
	// defs, and bfree/dfree recycle the slots — so scheduling a hop writes
	// no pointers into the event queue. open is the Batch still accepting
	// appends (nil once sealed or fired).
	deliverID vclock.FnID
	deferID   vclock.FnID
	fnsBound  bool
	batches   []*Batch
	bfree     []uint32
	open      *Batch
	defs      []*deferred
	dfree     []uint32

	// rec receives observability events; nil means disabled (Recorder()
	// reports obs.Nop). traced caches rec.Enabled() so the per-packet
	// path pays a bool test, never an interface call, when tracing is
	// off.
	rec    obs.Recorder
	traced bool

	// arena owns the path's short-lived packet objects (frames, parses,
	// wire buffers). Lazily created; reset between replays at quiescence.
	// Forked envs start with a fresh arena so pooled state never crosses
	// goroutines.
	arena *packet.Arena

	// Scratch parks replay-scoped reusable buffers (the server stack's
	// capture slice) between replays on this path. Same ownership
	// contract as the arena: the previous replay's consumers are done by
	// the time the next replay starts, so whoever reclaims it at
	// quiescence owns the backing array. Never copied by Fork.
	Scratch any
}

// delivery is one in-flight link traversal: frame f arriving at position
// pos moving in dir, owing dec TTL decrements from the plain hops it has
// crossed (see deliverBatch). Deliveries are carried by value inside a
// Batch so the per-packet hot path schedules and boxes nothing per frame.
type delivery struct {
	pos int
	dir Direction
	f   *packet.Frame
	dec uint8
}

// Batch is one scheduler event's worth of link traversals: a run of
// frames that share a virtual arrival instant and were scheduled with no
// intervening event between them. The clock fires the whole run as one
// event and Env.deliver processes the records in append order.
//
// Correctness of the batching fence (see Env.move): every event already
// queued when the Batch was scheduled has a smaller insertion seq and so
// fires before it; any schedule call after that point bumps the clock's
// seq counter, which seals the Batch, so a record can only join a Batch
// when its would-have-been event slot is directly adjacent to the
// previous record's. Firing the run back-to-back inside one event is
// therefore order-identical to the unbatched one-event-per-frame world.
type Batch struct {
	recs []delivery
	seq  uint64 // clock seq fence as of scheduling; stale seq = sealed
	at   int64  // arrival instant, ns since the vclock epoch
}

// deferred is one delayed forward (Context.ForwardAfter): after the
// element-chosen delay, frame f re-enters the path at position idx
// moving in dir, exactly as ctx.Forward would have sent it.
type deferred struct {
	idx int
	dir Direction
	f   *packet.Frame
}

// New constructs an empty path.
func New(clock *vclock.Clock, clientAddr, serverAddr packet.Addr) *Env {
	return &Env{
		Clock:      clock,
		ClientAddr: clientAddr,
		ServerAddr: serverAddr,
		LinkDelay:  time.Millisecond,
	}
}

// Forkable is implemented by elements that carry mutable state (per-flow
// tables, queueing positions, RNGs, captures). ForkElement returns a deep
// copy continuing from the same state, sharing nothing mutable with the
// original.
//
// Elements that do NOT implement Forkable are shared by Env.Fork and must
// therefore be stateless: their Process may read configuration but must
// not write any field. Hop, Filter, and TCPChecksumFixer qualify; every
// stateful built-in implements Forkable.
type Forkable interface {
	ForkElement() Element
}

// Quiescer is implemented by elements that retain per-flow scratch state
// (reassembly buffers, shaper positions) they can shed once the path is
// quiescent. Quiesce is called at replay entry — nothing in flight, no
// timers pending, the previous replay's results fully consumed — so an
// element may compact anything that can no longer influence traffic, as
// long as externally queryable verdicts (classification ground truth)
// survive. Compact state also makes Fork cheap: replicas deep-copy only
// what is still live.
type Quiescer interface {
	Quiesce()
}

// Fork returns a replica of the path driven by clock (normally the
// parent clock's Fork). Forkable elements are deep-copied; everything
// else is shared as stateless. Endpoints and the Trace hook are NOT
// carried over — replays install fresh endpoints per run, and a fork is
// only taken at quiescence, between replays, when none are live. The
// arena is not carried over either: the replica lazily creates its own,
// so recycled packet state never crosses goroutines.
func (e *Env) Fork(clock *vclock.Clock) *Env {
	ne := &Env{
		Clock:      clock,
		ClientAddr: e.ClientAddr,
		ServerAddr: e.ServerAddr,
		LinkDelay:  e.LinkDelay,
	}
	ne.elements = make([]Element, len(e.elements))
	for i, el := range e.elements {
		if f, ok := el.(Forkable); ok {
			ne.elements[i] = f.ForkElement()
		} else {
			ne.elements[i] = el
		}
	}
	ne.delivered = append([]int(nil), e.delivered...)
	// The replica records into its own fork of the recorder (an empty
	// buffer for obs.Buffer parents); the evaluation join merges the
	// per-fork streams back in canonical order.
	if e.rec != nil {
		ne.rec = obs.Fork(e.rec)
		ne.traced = e.traced
		clock.SetRecorder(ne.rec)
	}
	return ne
}

// SetRecorder installs the observability recorder (nil or obs.Nop
// disables recording). Elements reached through this env's Contexts and
// the env's own delivery counter emit into it.
func (e *Env) SetRecorder(r obs.Recorder) {
	if r == nil {
		r = obs.Nop
	}
	e.rec = r
	e.traced = r.Enabled()
	e.Clock.SetRecorder(r)
}

// Recorder returns the env's recorder, obs.Nop when none is installed.
func (e *Env) Recorder() obs.Recorder {
	if e.rec == nil {
		return obs.Nop
	}
	return e.rec
}

// DeliveredTo reports how many deliveries position name has received:
// "client", "server", or an element name (first match wins).
func (e *Env) DeliveredTo(name string) int {
	if len(e.delivered) == 0 {
		return 0
	}
	switch name {
	case "client":
		return e.delivered[0]
	case "server":
		return e.delivered[len(e.elements)+1]
	}
	for i, el := range e.elements {
		if el.Name() == name {
			return e.delivered[i+1]
		}
	}
	return 0
}

// Append adds an element to the server-side end of the chain.
func (e *Env) Append(el Element) { e.elements = append(e.elements, el) }

// Elements returns the chain, client side first.
func (e *Env) Elements() []Element { return e.elements }

// ReplaceElements swaps the whole chain — topology surgery for experiments
// that insert countermeasure devices mid-run.
func (e *Env) ReplaceElements(els []Element) { e.elements = els }

// SetClient installs the client endpoint.
func (e *Env) SetClient(ep Endpoint) { e.client = ep }

// SetServer installs the server endpoint.
func (e *Env) SetServer(ep Endpoint) { e.server = ep }

// FromClient sends raw onto the path at the client end. The path takes
// ownership of raw: the caller must not modify it afterwards.
func (e *Env) FromClient(raw []byte) { e.move(-1, ToServer, e.Arena().NewFrame(raw)) }

// FromServer sends raw onto the path at the server end. The path takes
// ownership of raw: the caller must not modify it afterwards.
func (e *Env) FromServer(raw []byte) { e.move(len(e.elements), ToClient, e.Arena().NewFrame(raw)) }

// FromClientFrame sends an already-built frame onto the path at the
// client end. Stacks use it instead of FromClient when they hold a frame
// from Arena.FrameOf, preserving frame-carried metadata such as the
// payload-sum verification hint.
func (e *Env) FromClientFrame(f *packet.Frame) { e.move(-1, ToServer, f) }

// FromServerFrame is FromClientFrame for the server end.
func (e *Env) FromServerFrame(f *packet.Frame) { e.move(len(e.elements), ToClient, f) }

// Arena returns the path's packet arena, creating it on first use.
// Endpoint stacks draw their built packets and wire buffers from it so
// that ResetArena reclaims a whole replay's packet churn at once.
func (e *Env) Arena() *packet.Arena {
	if e.arena == nil {
		e.arena = packet.NewArena()
	}
	return e.arena
}

// ResetArena recycles every arena-owned frame, parse, and buffer. Legal
// only at quiescence — nothing pending on the clock, no frames in flight,
// and the previous replay's server capture already consumed (see
// packet.Arena's ownership contract). Replays call it on entry.
func (e *Env) ResetArena() {
	if e.arena != nil {
		e.arena.Reset()
	}
}

// Quiesce marks a between-replays quiescence point: the arena is recycled
// and every Quiescer element compacts its dead per-flow state. Replays
// call it on entry instead of ResetArena when the clock is idle.
func (e *Env) Quiesce() {
	e.ResetArena()
	for _, el := range e.elements {
		if q, ok := el.(Quiescer); ok {
			q.Quiesce()
		}
	}
}

// Release returns the path's pooled resources (currently the arena) to
// their process-wide pools. It is legal only when the env is dead —
// nothing will deliver, schedule, or hold a frame on it again — because
// the arena may be adopted by another goroutine immediately. Trial forks
// call it after their verdict is extracted; a live env must use
// ResetArena instead.
func (e *Env) Release() {
	if e.arena != nil {
		e.arena.Release()
		e.arena = nil
	}
}

// move schedules delivery of f to the neighbour of position idx in dir.
// Position -1 is the client, len(elements) is the server. The frame is
// passed by reference across every hop — immutability makes per-hop
// defensive copies unnecessary.
//
// Consecutive moves with the same arrival instant and no intervening
// schedule call join the open Batch instead of costing a scheduler event
// each: a burst of segments (and the ACKs, forwards, and re-emissions it
// triggers downstream) rides the path as runs of frames per virtual tick.
func (e *Env) move(idx int, dir Direction, f *packet.Frame) { e.moveDec(idx, dir, f, 0) }

// moveDec is move for a frame that owes dec TTL decrements.
func (e *Env) moveDec(idx int, dir Direction, f *packet.Frame, dec uint8) {
	next := idx + 1
	if dir == ToClient {
		next = idx - 1
	}
	at := e.Clock.NowNS() + int64(e.LinkDelay)
	if b := e.open; b != nil && b.at == at && e.Clock.Seq() == b.seq {
		b.recs = append(b.recs, delivery{pos: next, dir: dir, f: f, dec: dec})
		return
	}
	if !e.fnsBound {
		e.bindFns()
	}
	var b *Batch
	var bid uint32
	if n := len(e.bfree); n > 0 {
		bid = e.bfree[n-1]
		e.bfree = e.bfree[:n-1]
		b = e.batches[bid]
	} else {
		b = new(Batch)
		bid = uint32(len(e.batches))
		e.batches = append(e.batches, b)
	}
	b.recs = append(b.recs[:0], delivery{pos: next, dir: dir, f: f, dec: dec})
	b.at = at
	e.Clock.ScheduleLink(e.LinkDelay, e.deliverID, bid)
	b.seq = e.Clock.Seq() // fence: any later schedule call seals the batch
	e.open = b
}

// bindFns registers the env's delivery callbacks with its clock. Bindings
// are per clock — a forked env starts unbound and rebinds lazily against
// the forked clock on its first scheduled hop.
func (e *Env) bindFns() {
	e.deliverID = e.Clock.RegisterFn(e.deliverBatch)
	e.deferID = e.Clock.RegisterFn(e.deferIdx)
	e.fnsBound = true
}

// deliverBatch fires one delivery run. The batch is closed to appends
// before the first record is processed, and its slot is released for
// reuse only after the run completes (nested moves open fresh batches).
//
// A record reaching a plain Hop that the frame survives is forwarded
// right here, at the point in the loop where Hop.Process would have
// called ctx.Forward, so the schedule order is unchanged; the hop's TTL
// decrement rides along in the record instead of a new frame. The frame
// is built once, with every owed decrement, when it reaches anything
// else. Expiry, short garbage and DropDefects hops still run Process on
// that frame, and so does every delivery while Env.Trace is set, so
// those see the bytes they always saw.
func (e *Env) deliverBatch(bid uint32) {
	b := e.batches[bid]
	if e.open == b {
		e.open = nil
	}
	if len(e.delivered) < len(e.elements)+2 {
		e.delivered = append(e.delivered, make([]int, len(e.elements)+2-len(e.delivered))...)
	}
	for i := 0; i < len(b.recs); i++ {
		r := b.recs[i]
		b.recs[i].f = nil
		if r.pos >= 0 && r.pos < len(e.elements) && e.Trace == nil {
			if h, ok := e.elements[r.pos].(*Hop); ok && h.DropDefects.Empty() && r.f.Len() >= 20 && r.f.TTL()-r.dec > 1 {
				e.delivered[r.pos+1]++
				if e.traced {
					e.rec.Add(obs.CtrDeliveries, 1)
				}
				e.moveDec(r.pos, r.dir, r.f, r.dec+1)
				continue
			}
		}
		f := r.f
		if r.dec > 0 {
			f = f.WithTTLDecrementedBy(r.dec)
		}
		e.deliver(r.pos, r.dir, f)
	}
	b.recs = b.recs[:0]
	e.bfree = append(e.bfree, bid)
}

// forwardAfter re-injects f at position idx after d of virtual time, via
// a typed recycled record (Context.ForwardAfter). The two-stage shape —
// one event for the delay, then a normal move — is identical to the
// ctx.Schedule(d, func() { ctx.Forward(f) }) closure it replaces.
func (e *Env) forwardAfter(idx int, dir Direction, d time.Duration, f *packet.Frame) {
	if !e.fnsBound {
		e.bindFns()
	}
	var r *deferred
	var did uint32
	if n := len(e.dfree); n > 0 {
		did = e.dfree[n-1]
		e.dfree = e.dfree[:n-1]
		r = e.defs[did]
	} else {
		r = new(deferred)
		did = uint32(len(e.defs))
		e.defs = append(e.defs, r)
	}
	r.idx, r.dir, r.f = idx, dir, f
	e.Clock.ScheduleIdx(d, e.deferID, did)
}

// deferIdx completes a ForwardAfter: the slot is released before the
// move so nested delays can reuse it immediately.
func (e *Env) deferIdx(did uint32) {
	r := e.defs[did]
	idx, dir, f := r.idx, r.dir, r.f
	r.f = nil
	e.dfree = append(e.dfree, did)
	e.move(idx, dir, f)
}

func (e *Env) deliver(pos int, dir Direction, f *packet.Frame) {
	if e.traced {
		e.rec.Add(obs.CtrDeliveries, 1)
	}
	switch {
	case pos < 0:
		if e.Trace != nil {
			e.Trace("client", dir, f.Raw())
		}
		e.delivered[0]++
		if e.client != nil {
			e.client.Deliver(f)
		}
	case pos >= len(e.elements):
		if e.Trace != nil {
			e.Trace("server", dir, f.Raw())
		}
		e.delivered[len(e.elements)+1]++
		if e.server != nil {
			e.server.Deliver(f)
		}
	default:
		el := e.elements[pos]
		if e.Trace != nil {
			e.Trace(el.Name(), dir, f.Raw())
		}
		e.delivered[pos+1]++
		el.Process(Context{env: e, idx: pos, dir: dir}, dir, f)
	}
}

// RTT returns the base round-trip time of the full path (no queueing).
func (e *Env) RTT() time.Duration {
	return 2 * time.Duration(len(e.elements)+1) * e.LinkDelay
}
