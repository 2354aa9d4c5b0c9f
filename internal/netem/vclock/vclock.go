// Package vclock implements a deterministic discrete-event virtual clock.
//
// All simulated components in this repository schedule work against a
// *Clock instead of the wall clock. This keeps every experiment — including
// the paper's two-day Figure 4 sweep and the 240-second classification-flush
// probes — deterministic and able to run in milliseconds of real time.
//
// The clock is single-threaded by design: Run drains the event queue in
// timestamp order, and ties are broken by insertion order so that repeated
// runs of the same experiment produce byte-identical results.
//
// Internally time is an int64 nanosecond offset from Epoch and the queue is
// a hierarchical timing wheel (a ladder/calendar queue) over pointer-free
// event records: events live in a flat slab addressed by uint32 handles,
// wheel buckets are intrusive uint32 lists, and callbacks are referenced by
// registry index rather than stored function values — so scheduling and
// firing an event in steady state writes no pointers (the GC write barrier
// never runs on the hot path) and allocates nothing. The wheel changes only
// the cost model, never the order: events fire in exact (at, seq) order,
// identical to a min-heap (DESIGN.md §14 states the invariants).
package vclock

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/obs"
)

// Wheel geometry. A tick is 2^tickBits ns ≈ 1.05 ms — the same scale as
// netem's default LinkDelay, so one tick usually holds one delivery
// instant. Four levels of 64 buckets cover a horizon of 64^4 ticks
// (≈ 4.9 hours); events beyond the horizon wait in an overflow list (the
// Figure 4 two-day sweep parks its hour marks there).
const (
	tickBits  = 20
	levelBits = 6
	slots     = 1 << levelBits // 64
	levels    = 4

	// noHandle terminates intrusive bucket lists and marks empty buckets.
	noHandle = ^uint32(0)
)

// horizonTicks is the largest cursor-relative tick delta the wheel can
// place; anything farther goes to the overflow list.
const horizonTicks = int64(1) << (levelBits * levels)

// Event callback kinds. The registry a record's fn index points into is
// selected by kind, so the slab itself stays pointer-free.
const (
	kindClosure uint8 = iota // fn indexes Clock.closures
	kindIdx                  // fn indexes Clock.regFns; arg is passed through
)

// Event locations. Wheel buckets and the overflow list hold live events
// only — Stop unlinks immediately — which is what lets the staging search
// advance the cursor knowing every candidate it chases is real. Staged
// events (near buffer, due ring, or link lane) are cancelled by marking:
// the pop pipeline skips dead entries, and a parked cursor is never
// advanced by them.
const (
	locStaged   uint8 = iota // in the near buffer, due ring, or link lane
	locWheel                 // in bucket[lvl][idx]
	locOverflow              // in the overflow list
)

// eventRec is one scheduled event in the flat slab. It contains no
// pointers: scheduling writes at/seq/fn/arg integers and links the record
// into a bucket by handle, so the GC write barrier never fires.
type eventRec struct {
	at   int64  // nanoseconds since Epoch
	seq  uint64 // insertion order, breaks timestamp ties deterministically
	next uint32 // intrusive bucket list link (noHandle = end)
	gen  uint32 // bumped on recycle so stale Timers cannot cancel the new tenant
	fn   uint32 // registry slot, interpreted per kind
	arg  uint32 // kindIdx argument
	kind uint8
	dead bool
	loc  uint8 // locStaged / locWheel / locOverflow
	lvl  uint8 // wheel level, valid when loc == locWheel
	idx  uint8 // wheel bucket index, valid when loc == locWheel
}

// nearEnt is one staged event of the tick currently being drained, or one
// link-lane event, kept in (at, seq) order. Pointer-free like the slab.
type nearEnt struct {
	at  int64
	seq uint64
	h   uint32
}

// wheel is the bucket hierarchy. occ bitmaps mirror bucket occupancy so
// searches and cursor advances touch only occupied buckets — advancing the
// cursor across an hour of empty time is a handful of bitmap operations.
type wheel struct {
	cursor int64 // current tick; never exceeds the tick of any unstaged event
	count  int   // events resident in buckets (excludes overflow)
	occ    [levels]uint64
	bucket [levels][slots]uint32
	// overflow holds handles beyond the horizon; ofMin caches their
	// minimum tick so the next-event search can compare without scanning.
	overflow []uint32
	ofMin    int64
}

// FnID names a callback registered with RegisterFn.
type FnID uint32

// Timer is a handle to a scheduled event that can be cancelled. The handle
// remembers the event's generation so a Stop after the event has fired and
// its record has been recycled is a safe no-op.
type Timer struct {
	c   *Clock
	h   uint32
	gen uint32
}

// Stop cancels the timer. Stopping an already-fired or already-stopped
// timer is a no-op. It reports whether the call prevented the event from
// firing.
func (t *Timer) Stop() bool {
	if t == nil || t.c == nil {
		return false
	}
	c := t.c
	r := &c.slab[t.h]
	if r.gen != t.gen || r.dead {
		return false
	}
	c.live--
	c.freeSlot(r.kind, r.fn)
	switch r.loc {
	case locWheel:
		c.unlink(t.h)
		c.recycleHandle(t.h)
	case locOverflow:
		c.overflowRemove(t.h)
		c.recycleHandle(t.h)
	default:
		// Staged: mark dead; the pop pipeline skips and recycles it.
		r.dead = true
	}
	return true
}

// Clock is a deterministic discrete-event scheduler.
//
// The zero value is not usable; construct with New.
type Clock struct {
	now int64 // nanoseconds since Epoch
	seq uint64
	// Budget guards against runaway simulations: Run stops with an error
	// after this many events when > 0.
	Budget int
	fired  int
	live   int // scheduled, unfired, uncancelled events — Pending() is O(1)

	slab  []eventRec
	freeh []uint32 // recycled slab handles

	// due is the FIFO of events at the instant currently firing (all at
	// dueAt). Same-instant schedules made from inside a callback append
	// here directly — the direct-dispatch fast path: no wheel, no sort,
	// provably the same order the heap would have produced because seq is
	// globally monotonic (DESIGN.md §14).
	due     []uint32
	dueHead int
	dueAt   int64

	// near holds the rest of the staged tick's events, sorted by
	// (at, seq); curTick is that tick, -1 when nothing is staged.
	near     []nearEnt
	nearHead int
	curTick  int64

	// lane is the link lane (ScheduleLink): a FIFO whose append order is
	// already (at, seq) order, so its events skip wheel placement, staging
	// and the near-buffer sort. laneHead indexes its first unconsumed
	// entry. Lane events whose tick is curTick belong to the staged tick.
	lane     []nearEnt
	laneHead int

	// depth counts nested callback dispatches; >0 means a callback is on
	// the stack, which is what arms the due-ring and Immediate fast paths.
	depth int

	wh wheel

	// Callback registries. regFns holds long-lived functions installed
	// once per clock (RegisterFn); closures are per-event slots recycled
	// through a free list.
	regFns   []func(uint32)
	closures []func()
	closFree []uint32

	// rec receives scheduler counters when tracing is armed; traced
	// caches rec.Enabled() so the disabled path costs one bool test.
	rec    obs.Recorder
	traced bool
}

// Epoch is the instant at which every new Clock starts. Using a fixed,
// recognizable epoch (midnight UTC) makes time-of-day experiments such as
// the Figure 4 sweep easy to express.
var Epoch = time.Date(2017, time.November, 1, 0, 0, 0, 0, time.UTC)

// New returns a clock positioned at Epoch with an empty event queue.
func New() *Clock {
	c := &Clock{curTick: -1}
	for l := 0; l < levels; l++ {
		for i := range c.wh.bucket[l] {
			c.wh.bucket[l][i] = noHandle
		}
	}
	c.wh.ofMin = math.MaxInt64
	return c
}

// SetRecorder installs the observability recorder the clock's scheduler
// counters (vclock_fired / vclock_fastpath / vclock_cascades) feed. Nil or
// obs.Nop disables them.
func (c *Clock) SetRecorder(r obs.Recorder) {
	if r == nil {
		r = obs.Nop
	}
	c.rec = r
	c.traced = r.Enabled()
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time { return Epoch.Add(time.Duration(c.now)) }

// NowNS returns the current virtual time as integer nanoseconds since
// Epoch — the timestamp form observability events carry.
func (c *Clock) NowNS() int64 { return c.now }

// Seq returns the insertion-order counter, which advances on every
// schedule call. Batching callers (netem's delivery runs) use it as a
// fence: a batch may only be extended while Seq is unchanged since the
// batch was scheduled, which proves no other event slotted in between the
// batched records' would-have-been queue positions.
func (c *Clock) Seq() uint64 { return c.seq }

// Since returns the virtual time elapsed since t.
func (c *Clock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// RegisterFn installs a long-lived callback and returns its FnID for use
// with ScheduleIdx. Registration is per clock (forks register their own)
// and permanent; it is meant for a handful of subsystem dispatchers (e.g.
// netem's batch delivery), not per-event use.
func (c *Clock) RegisterFn(fn func(uint32)) FnID {
	c.regFns = append(c.regFns, fn)
	return FnID(len(c.regFns) - 1)
}

// ScheduleIdx runs the registered callback fn(arg) after d of virtual
// time. This is the pointer-free hot-path form: the event record stores
// two integers, so scheduling writes no pointers at all.
func (c *Clock) ScheduleIdx(d time.Duration, fn FnID, arg uint32) Timer {
	if d < 0 {
		d = 0
	}
	return c.scheduleNS(c.now+int64(d), kindIdx, uint32(fn), arg)
}

// ScheduleLink is ScheduleIdx for events a link schedules at a constant
// delay d (netem's per-hop deliveries). Such events are scheduled at
// now+d while now only grows, so in seq order their instants never
// decrease and a FIFO holds them in exact (at, seq) order. The lane takes
// an event only when that order and the wheel's bookkeeping are provably
// unaffected; otherwise — d ≤ 0, an instant at or before a live due
// instant, one earlier than the lane's tail, or one beyond wheel level 0
// — it falls back to ScheduleIdx. Either way the firing order and the
// vclock_* counters are exactly ScheduleIdx's (DESIGN.md §14).
func (c *Clock) ScheduleLink(d time.Duration, fn FnID, arg uint32) Timer {
	at := c.now + int64(d)
	n := len(c.lane)
	if d <= 0 ||
		(c.dueHead < len(c.due) && at <= c.dueAt) ||
		(c.laneHead < n && at < c.lane[n-1].at) ||
		at>>tickBits-c.wh.cursor >= slots {
		return c.ScheduleIdx(d, fn, arg)
	}
	switch {
	case c.laneHead == n:
		c.lane = c.lane[:0]
		c.laneHead = 0
	case n == cap(c.lane) && c.laneHead >= n/2:
		// Reclaim the consumed front instead of growing.
		c.lane = c.lane[:copy(c.lane, c.lane[c.laneHead:])]
		c.laneHead = 0
	}
	c.seq++
	h := c.newHandle()
	r := &c.slab[h]
	r.at, r.seq, r.fn, r.arg, r.kind, r.loc = at, c.seq, uint32(fn), arg, kindIdx, locStaged
	c.live++
	c.lane = append(c.lane, nearEnt{at: at, seq: c.seq, h: h})
	return Timer{c: c, h: h, gen: r.gen}
}

// Schedule runs fn after d of virtual time has elapsed. A negative d is
// treated as zero. The returned Timer may be used to cancel the event; it
// is returned by value so callers that discard it cost no allocation.
func (c *Clock) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return c.scheduleNS(c.now+int64(d), kindClosure, c.newClosure(fn), 0)
}

// ScheduleAt runs fn at the absolute virtual instant at. Instants in the
// past are clamped to the present.
func (c *Clock) ScheduleAt(at time.Time, fn func()) Timer {
	return c.scheduleNS(int64(at.Sub(Epoch)), kindClosure, c.newClosure(fn), 0)
}

func (c *Clock) newClosure(fn func()) uint32 {
	if n := len(c.closFree); n > 0 {
		s := c.closFree[n-1]
		c.closFree = c.closFree[:n-1]
		c.closures[s] = fn
		return s
	}
	c.closures = append(c.closures, fn)
	return uint32(len(c.closures) - 1)
}

// freeSlot releases a closure registry slot (kindIdx callbacks are
// permanent and own no per-event slot).
func (c *Clock) freeSlot(kind uint8, slot uint32) {
	if kind == kindClosure {
		c.closures[slot] = nil
		c.closFree = append(c.closFree, slot)
	}
}

// newHandle returns a fresh or recycled slab handle with dead cleared and
// next unlinked. Generations persist across recycling (bumped at recycle)
// so Timers from previous tenants cannot cancel the new one.
func (c *Clock) newHandle() uint32 {
	if n := len(c.freeh); n > 0 {
		h := c.freeh[n-1]
		c.freeh = c.freeh[:n-1]
		r := &c.slab[h]
		r.dead = false
		r.next = noHandle
		return h
	}
	c.slab = append(c.slab, eventRec{next: noHandle})
	return uint32(len(c.slab) - 1)
}

// recycleHandle retires a reaped (fired or cancelled-and-collected) record.
// Registry slots are freed separately: Stop frees on cancel, dispatch frees
// after extracting the callback.
func (c *Clock) recycleHandle(h uint32) {
	r := &c.slab[h]
	r.gen++
	r.dead = true
	c.freeh = append(c.freeh, h)
}

// scheduleNS creates the event record and routes it: same-instant events
// scheduled from inside a callback join the due ring (the direct-dispatch
// fast path); events landing in the staged tick merge into the sorted near
// buffer; everything else goes to the wheel (or overflow past the horizon).
func (c *Clock) scheduleNS(at int64, kind uint8, fnSlot, arg uint32) Timer {
	if at < c.now {
		at = c.now
	}
	c.seq++
	h := c.newHandle()
	r := &c.slab[h]
	r.at, r.seq, r.fn, r.arg, r.kind = at, c.seq, fnSlot, arg, kind
	gen := r.gen
	c.live++

	switch {
	case c.dueHead < len(c.due) && at == c.dueAt:
		// The instant at the head of the pop pipeline: appending preserves
		// (at, seq) order because this event's seq is the largest yet.
		r.loc = locStaged
		c.due = append(c.due, h)
		if c.traced {
			c.rec.Add(obs.CtrVClockFastPath, 1)
		}
	case c.depth > 0 && at == c.now:
		// Same-instant schedule from inside a callback with the due ring
		// drained: revive it at the current instant. Every event pending at
		// now is (by construction) in the due ring, so FIFO order here is
		// exactly heap order.
		r.loc = locStaged
		c.due = c.due[:0]
		c.dueHead = 0
		c.dueAt = c.now
		c.due = append(c.due, h)
		if c.traced {
			c.rec.Add(obs.CtrVClockFastPath, 1)
		}
	case at>>tickBits == c.curTick:
		// The staged tick: binary-insert into the sorted near buffer. The
		// new event carries the largest seq, so it lands after any entry
		// sharing its instant.
		if c.dueHead < len(c.due) && at < c.dueAt {
			// Only reachable when a RunUntil deadline parked the pipeline
			// mid-tick with a promoted run still undrained: the new event
			// precedes that run, so demote the run back into near where
			// the sort covers both.
			c.demoteDue()
		}
		lo, hi := c.nearHead, len(c.near)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if c.near[mid].at <= at {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		r.loc = locStaged
		c.near = append(c.near, nearEnt{})
		copy(c.near[lo+1:], c.near[lo:])
		c.near[lo] = nearEnt{at: at, seq: c.seq, h: h}
	default:
		c.place(h, at>>tickBits)
	}
	return Timer{c: c, h: h, gen: gen}
}

// demoteDue returns the undrained due run to the front of the near buffer.
// Due entries all share dueAt — an instant strictly below every remaining
// near entry — and sit in seq order, so prepending them keeps near sorted.
func (c *Clock) demoteDue() {
	live := 0
	for _, dh := range c.due[c.dueHead:] {
		if !c.slab[dh].dead {
			live++
		}
	}
	tail := len(c.near) - c.nearHead
	copy(c.near, c.near[c.nearHead:])
	c.near = c.near[:tail]
	c.nearHead = 0
	for i := 0; i < live; i++ {
		c.near = append(c.near, nearEnt{})
	}
	copy(c.near[live:], c.near[:tail])
	w := 0
	for _, dh := range c.due[c.dueHead:] {
		if c.slab[dh].dead {
			c.recycleHandle(dh)
			continue
		}
		c.near[w] = nearEnt{at: c.dueAt, seq: c.slab[dh].seq, h: dh}
		w++
	}
	c.due = c.due[:0]
	c.dueHead = 0
}

// place links handle h (whose event is at tick t ≥ cursor) into the wheel
// level selected by its cursor-relative delta, or the overflow list beyond
// the horizon.
func (c *Clock) place(h uint32, t int64) {
	w := &c.wh
	delta := t - w.cursor
	var l int
	switch {
	case delta < slots:
		l = 0
	case delta < 1<<(2*levelBits):
		l = 1
	case delta < 1<<(3*levelBits):
		l = 2
	case delta < horizonTicks:
		l = 3
	default:
		c.slab[h].loc = locOverflow
		w.overflow = append(w.overflow, h)
		if t < w.ofMin {
			w.ofMin = t
		}
		return
	}
	idx := (t >> (levelBits * l)) & (slots - 1)
	r := &c.slab[h]
	r.next = w.bucket[l][idx]
	r.loc, r.lvl, r.idx = locWheel, uint8(l), uint8(idx)
	w.bucket[l][idx] = h
	w.occ[l] |= 1 << idx
	w.count++
}

// unlink removes a live event from its wheel bucket (Timer.Stop). Bucket
// chains are short — a handful of events sharing a span — so the list walk
// is cheap, and eager removal is what keeps the staging search honest:
// every occupied bucket it can chase holds at least one live event.
func (c *Clock) unlink(h uint32) {
	r := &c.slab[h]
	w := &c.wh
	l, idx := int(r.lvl), int(r.idx)
	if w.bucket[l][idx] == h {
		w.bucket[l][idx] = r.next
	} else {
		for cur := w.bucket[l][idx]; cur != noHandle; {
			n := &c.slab[cur]
			if n.next == h {
				n.next = r.next
				break
			}
			cur = n.next
		}
	}
	if w.bucket[l][idx] == noHandle {
		w.occ[l] &^= 1 << idx
	}
	w.count--
}

// overflowRemove removes a live event from the overflow list, restoring
// the cached minimum when the removed event defined it.
func (c *Clock) overflowRemove(h uint32) {
	w := &c.wh
	for i, oh := range w.overflow {
		if oh == h {
			w.overflow[i] = w.overflow[len(w.overflow)-1]
			w.overflow = w.overflow[:len(w.overflow)-1]
			break
		}
	}
	if c.slab[h].at>>tickBits == w.ofMin {
		w.ofMin = math.MaxInt64
		for _, oh := range w.overflow {
			if t := c.slab[oh].at >> tickBits; t < w.ofMin {
				w.ofMin = t
			}
		}
	}
}

// earliest returns the lowest tick that might hold the next event: the
// exact tick for level 0 (or laneTick, the link lane's head tick, which
// counts as a level-0 resident), the span start for higher levels (a
// lower bound the caller refines by cascading), or the cached overflow
// minimum. fromOverflow reports that the overflow list supplied the bound.
func (w *wheel) earliest(laneTick int64) (t int64, fromOverflow, ok bool) {
	best := laneTick
	if w.occ[0] != 0 {
		q := bits.TrailingZeros64(bits.RotateLeft64(w.occ[0], -int(w.cursor&(slots-1))))
		if cand := w.cursor + int64(q); cand < best {
			best = cand
		}
	}
	for l := 1; l < levels; l++ {
		if w.occ[l] == 0 {
			continue
		}
		cq := w.cursor >> (levelBits * l)
		rot := bits.RotateLeft64(w.occ[l], -int(cq&(slots-1)))
		q := int64(bits.TrailingZeros64(rot))
		if q == 0 {
			// The cursor's own bucket at this level was cascaded when the
			// cursor entered its span; anything in it now is a full wrap
			// away. A different bucket later in the current wrap is still
			// nearer than that, so the wrap candidate only stands when the
			// cursor's bucket is the sole occupied one.
			q = slots
			if rest := rot &^ 1; rest != 0 {
				if q2 := int64(bits.TrailingZeros64(rest)); q2 < q {
					q = q2
				}
			}
		}
		if cand := (cq + q) << (levelBits * l); cand < best {
			best = cand
		}
	}
	// On a tie the overflow must win: an overflow event can share a tick
	// with a bucketed one, and staging the bucket without draining the
	// overflow first would fire the tick's bucketed events ahead of an
	// earlier-(at,seq) overflow resident.
	if len(w.overflow) > 0 && w.ofMin <= best {
		return w.ofMin, true, true
	}
	if best == math.MaxInt64 {
		return 0, false, false
	}
	return best, false, true
}

// advanceTo moves the cursor to tick t, cascading every occupied
// higher-level bucket whose span the cursor enters. The caller guarantees
// no unstaged event lives at a tick below t, which is what makes the
// redistribution exact: every relocated event lands at a delta below its
// old level's span.
func (c *Clock) advanceTo(t int64) {
	w := &c.wh
	old := w.cursor
	if t <= old {
		return
	}
	w.cursor = t
	for l := 1; l < levels; l++ {
		shift := levelBits * l
		oldQ, newQ := old>>shift, t>>shift
		if oldQ == newQ {
			break // no boundary crossed here, so none above either
		}
		mask := ^uint64(0)
		if newQ-oldQ < slots {
			// Only the indices in (oldQ, newQ] entered their span.
			lo, hi := (oldQ+1)&(slots-1), newQ&(slots-1)
			if lo <= hi {
				mask = (^uint64(0) << lo) & (^uint64(0) >> (slots - 1 - hi))
			} else {
				mask = (^uint64(0) << lo) | (^uint64(0) >> (slots - 1 - hi))
			}
		}
		crossed := w.occ[l] & mask
		for crossed != 0 {
			idx := bits.TrailingZeros64(crossed)
			crossed &^= 1 << idx
			h := w.bucket[l][idx]
			w.bucket[l][idx] = noHandle
			w.occ[l] &^= 1 << idx
			moved := int64(0)
			for h != noHandle {
				r := &c.slab[h]
				nexth := r.next
				w.count--
				c.place(h, r.at>>tickBits)
				moved++
				h = nexth
			}
			if c.traced {
				c.rec.Add(obs.CtrVClockCascades, moved)
			}
		}
	}
}

// drainOverflow migrates every overflow event now inside the horizon into
// the wheel and recomputes the cached minimum of the remainder.
func (c *Clock) drainOverflow() {
	w := &c.wh
	keep := w.overflow[:0]
	newMin := int64(math.MaxInt64)
	for _, h := range w.overflow {
		t := c.slab[h].at >> tickBits
		if t-w.cursor < horizonTicks {
			c.place(h, t)
			continue
		}
		keep = append(keep, h)
		if t < newMin {
			newMin = t
		}
	}
	w.overflow = keep
	w.ofMin = newMin
}

// stage advances the cursor to the next occupied tick at or below
// limitTick, pulls that tick's live wheel events into the sorted near
// buffer, and records it as curTick. The link lane's head counts as a
// level-0 resident, so the cursor stops exactly where it would if lane
// events sat in the wheel; the lane's events of curTick stay in the lane
// and next merges them in. It reports false when no event lives at or
// below the limit (the cursor then stays put, so later schedules into the
// gap remain placeable).
func (c *Clock) stage(limitTick int64) bool {
	w := &c.wh
	laneTick := int64(math.MaxInt64)
	if at := c.laneFront(); at != math.MaxInt64 {
		laneTick = at >> tickBits
	}
	for {
		t, fromOverflow, ok := w.earliest(laneTick)
		if !ok || t > limitTick {
			return false
		}
		c.advanceTo(t)
		if fromOverflow {
			c.drainOverflow()
			continue
		}
		idx := t & (slots - 1)
		c.near = c.near[:0]
		c.nearHead = 0
		if w.occ[0]&(1<<idx) == 0 {
			if t == laneTick {
				c.curTick = t // the tick's events are all in the lane
				return true
			}
			continue // span-start bound only; re-search after the cascade
		}
		h := w.bucket[0][idx]
		w.bucket[0][idx] = noHandle
		w.occ[0] &^= 1 << idx
		for h != noHandle {
			r := &c.slab[h]
			nexth := r.next
			w.count--
			r.loc = locStaged
			c.near = append(c.near, nearEnt{at: r.at, seq: r.seq, h: h})
			h = nexth
		}
		slices.SortFunc(c.near, func(a, b nearEnt) int {
			if a.at != b.at {
				if a.at < b.at {
					return -1
				}
				return 1
			}
			if a.seq < b.seq {
				return -1
			}
			return 1
		})
		c.curTick = t
		return true
	}
}

// laneFront recycles cancelled entries at the head of the link lane and
// returns the instant of the first live one, MaxInt64 when none is left.
func (c *Clock) laneFront() int64 {
	for c.laneHead < len(c.lane) {
		en := c.lane[c.laneHead]
		if !c.slab[en.h].dead {
			return en.at
		}
		c.recycleHandle(en.h)
		c.laneHead++
	}
	return math.MaxInt64
}

// promote moves the run of live events at instant at — the near buffer's
// and the link lane's, merged by seq — into the due ring, where
// same-instant schedules can join it FIFO.
func (c *Clock) promote(at int64) {
	c.dueAt = at
	i, j := c.nearHead, c.laneHead
	for {
		var en nearEnt
		inNear := i < len(c.near) && c.near[i].at == at
		inLane := j < len(c.lane) && c.lane[j].at == at
		switch {
		case inNear && (!inLane || c.near[i].seq < c.lane[j].seq):
			en = c.near[i]
			i++
		case inLane:
			en = c.lane[j]
			j++
		default:
			c.nearHead, c.laneHead = i, j
			return
		}
		if c.slab[en.h].dead {
			c.recycleHandle(en.h)
		} else {
			c.due = append(c.due, en.h)
		}
	}
}

// next pops the earliest live event with at ≤ limit, walking the pop
// pipeline: due ring → staged tick (near buffer and link lane) → wheel. It
// reports false when nothing fires at or before the limit;
// staged-but-beyond-limit events stay staged.
func (c *Clock) next(limit int64) (h uint32, at int64, ok bool) {
	for {
		for c.dueHead < len(c.due) {
			h = c.due[c.dueHead]
			if c.slab[h].dead {
				c.recycleHandle(h)
				c.dueHead++
				continue
			}
			if c.dueAt > limit {
				return 0, 0, false
			}
			c.dueHead++
			return h, c.dueAt, true
		}
		if len(c.due) > 0 {
			c.due = c.due[:0]
			c.dueHead = 0
		}
		// The staged tick's next instant: the near buffer's head or the
		// lane's head, when the latter falls in the staged tick.
		at = math.MaxInt64
		for c.nearHead < len(c.near) {
			en := c.near[c.nearHead]
			if !c.slab[en.h].dead {
				at = en.at
				break
			}
			c.recycleHandle(en.h)
			c.nearHead++
		}
		if la := c.laneFront(); la < at && la>>tickBits == c.curTick {
			at = la
		}
		if at != math.MaxInt64 {
			if at > limit {
				return 0, 0, false
			}
			c.promote(at)
			continue
		}
		c.near = c.near[:0]
		c.nearHead = 0
		c.curTick = -1
		if c.wh.count == 0 && len(c.wh.overflow) == 0 && c.laneHead == len(c.lane) {
			return 0, 0, false
		}
		if !c.stage(limit >> tickBits) {
			return 0, 0, false
		}
	}
}

// Fork returns a new clock positioned at the same virtual instant, with
// the same insertion-order counter, event budget, and fired count — and an
// empty event queue. Pending events stay with the parent: forking is only
// meaningful at quiescence (between replays), when nothing is scheduled;
// a fork taken mid-replay would silently drop the in-flight events, so
// callers that cannot guarantee quiescence must drain the queue first.
//
// Copying seq keeps the fork's timestamp tie-breaking behaviour aligned
// with a hypothetical serial continuation of the parent, which is part of
// why forked evaluation reproduces serial results byte-for-byte.
//
// Callback registries are NOT carried over: subsystems holding FnIDs
// register afresh against the fork.
func (c *Clock) Fork() *Clock {
	nc := New()
	nc.now, nc.seq, nc.Budget, nc.fired = c.now, c.seq, c.Budget, c.fired
	nc.wh.cursor = c.now >> tickBits
	// Size the fork's lane like the parent's so a trial replay does not
	// regrow it from nothing.
	nc.lane = make([]nearEnt, 0, cap(c.lane))
	return nc
}

// Pending reports the number of live events in the queue. The count is
// maintained on schedule/Stop/fire, so this is O(1) — replay quiescence
// polling leans on it.
func (c *Clock) Pending() int { return c.live }

// Immediate reports whether an event scheduled at the current instant
// would be the very next thing to fire: a callback is on the stack and no
// other event is pending at now. Under this predicate a call site may run
// same-instant work inline instead of scheduling it — the resulting order
// is identical because the scheduled event would have fired immediately
// after the current callback returned, with nothing in between (the
// fast-path fence rules in DESIGN.md §14).
//
// Every event pending at the current instant lives in the due ring while a
// callback is dispatching — later events of a staged tick sit in near or
// the lane at strictly later instants, and unstaged wheel and lane events
// are at later ticks — so the check is two integer comparisons.
func (c *Clock) Immediate() bool {
	return c.depth > 0 && c.dueHead >= len(c.due)
}

// step fires the earliest event with at ≤ limit. It reports false when no
// such event exists.
func (c *Clock) step(limit int64) (bool, error) {
	h, at, ok := c.next(limit)
	if !ok {
		return false, nil
	}
	if at < c.now {
		return false, fmt.Errorf("vclock: event scheduled at %v before now %v", Epoch.Add(time.Duration(at)), c.Now())
	}
	c.now = at
	c.fired++
	if c.Budget > 0 && c.fired > c.Budget {
		return false, fmt.Errorf("vclock: event budget %d exhausted at %v", c.Budget, c.Now())
	}
	if c.traced {
		c.rec.Add(obs.CtrVClockFired, 1)
	}
	r := &c.slab[h]
	kind, fnSlot, arg := r.kind, r.fn, r.arg
	c.live--
	c.recycleHandle(h)
	c.depth++
	switch kind {
	case kindIdx:
		c.regFns[fnSlot](arg)
	default:
		fn := c.closures[fnSlot]
		c.closures[fnSlot] = nil
		c.closFree = append(c.closFree, fnSlot)
		fn()
	}
	c.depth--
	return true, nil
}

// Step fires the single earliest pending event, advancing virtual time to
// it. It reports false when the queue is empty. Run is Step in a loop;
// the scheduler benchmarks and differential tests drive Step directly.
func (c *Clock) Step() (bool, error) { return c.step(math.MaxInt64) }

// Run drains the event queue until it is empty, advancing virtual time as
// it goes. Events scheduled by running events are processed too.
func (c *Clock) Run() error {
	for {
		ok, err := c.step(math.MaxInt64)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// RunUntil drains events whose timestamp is at or before deadline, then
// advances the clock to deadline. Events beyond the deadline stay queued.
func (c *Clock) RunUntil(deadline time.Time) error {
	deadNS := int64(deadline.Sub(Epoch))
	for {
		ok, err := c.step(deadNS)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
	}
	if c.now < deadNS {
		c.now = deadNS
	}
	return nil
}

// RunFor is RunUntil(Now()+d).
func (c *Clock) RunFor(d time.Duration) error {
	return c.RunUntil(c.Now().Add(d))
}

// Sleep advances virtual time by d, firing any events that fall inside the
// interval. It is the simulation analogue of time.Sleep for code that is
// driving the clock from outside an event callback.
func (c *Clock) Sleep(d time.Duration) error { return c.RunFor(d) }

// HourOfDay returns the current virtual hour in [0,24), used by
// load-dependent middlebox models (GFC state flushing, Figure 4).
func (c *Clock) HourOfDay() float64 {
	h := time.Duration(c.now).Hours()
	h = h - float64(int(h/24))*24
	if h < 0 {
		h += 24
	}
	return h
}
