package vclock

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// The differential harness drives the timing wheel and a brute-force
// reference scheduler with the same randomized script — schedules across
// every delay class (zero, same-tick bursts, in-wheel, cross-level,
// past-the-horizon, negative/past-deadline clamps), cancellations, nested
// scheduling from inside callbacks, partial drains, and forks — and
// requires byte-identical logs: same fire order, same timestamps, same
// Pending counts, same Fork seq parity. The reference is deliberately the
// dumbest possible implementation (linear scan for the (at, seq) minimum),
// so any divergence indicts the wheel's routing, cascade, or staging
// logic, never the oracle.

// laneDelay is the link lane's constant delay in the scripts: just under
// one tick, like netem's default LinkDelay.
const laneDelay = int64(time.Millisecond)

// sched abstracts the two implementations behind one driving surface.
type sched interface {
	schedule(delayNS int64, kindSel int, fn func()) (stop func() bool)
	// scheduleLink schedules through the link lane (the reference treats
	// it as a plain schedule).
	scheduleLink(delayNS int64, fn func()) (stop func() bool)
	scheduleAt(atNS int64, fn func())
	step() (bool, error)
	run() error
	runUntil(atNS int64) error
	nowNS() int64
	seq() uint64
	pending() int
	fork() sched
}

// wheelSched adapts *Clock. kindSel picks the public scheduling API so the
// closure and registered-index paths both get differential coverage; it
// stays modulo 3 (two residues pick Schedule) so fuzz scripts keep their
// op mix.
// linkViaIdx routes scheduleLink through ScheduleIdx instead of the lane,
// for the lane-parity test; rec, when set, collects the scheduler counters
// of the clock and its forks.
type wheelSched struct {
	c          *Clock
	reg        FnID
	tramp      []func() // trampoline slots for the ScheduleIdx path
	free       []uint32
	linkViaIdx bool
	rec        *obs.Buffer
}

func newWheelSched() *wheelSched {
	w := &wheelSched{c: New()}
	w.bind()
	return w
}

func (w *wheelSched) bind() {
	w.reg = w.c.RegisterFn(func(arg uint32) {
		fn := w.tramp[arg]
		w.tramp[arg] = nil
		w.free = append(w.free, arg)
		fn()
	})
}

func (w *wheelSched) schedule(delayNS int64, kindSel int, fn func()) func() bool {
	var t Timer
	switch kindSel % 3 {
	case 0, 1:
		t = w.c.Schedule(time.Duration(delayNS), fn)
	default:
		t = w.c.ScheduleIdx(time.Duration(delayNS), w.reg, w.slot(fn))
	}
	return t.Stop
}

func (w *wheelSched) scheduleLink(delayNS int64, fn func()) func() bool {
	var t Timer
	if w.linkViaIdx {
		t = w.c.ScheduleIdx(time.Duration(delayNS), w.reg, w.slot(fn))
	} else {
		t = w.c.ScheduleLink(time.Duration(delayNS), w.reg, w.slot(fn))
	}
	return t.Stop
}

// slot parks fn in a trampoline slot for the registered-index paths.
func (w *wheelSched) slot(fn func()) uint32 {
	if n := len(w.free); n > 0 {
		slot := w.free[n-1]
		w.free = w.free[:n-1]
		w.tramp[slot] = fn
		return slot
	}
	w.tramp = append(w.tramp, fn)
	return uint32(len(w.tramp) - 1)
}

func (w *wheelSched) scheduleAt(atNS int64, fn func()) {
	w.c.ScheduleAt(Epoch.Add(time.Duration(atNS)), fn)
}

func (w *wheelSched) step() (bool, error)       { return w.c.Step() }
func (w *wheelSched) run() error                { return w.c.Run() }
func (w *wheelSched) runUntil(atNS int64) error { return w.c.RunUntil(Epoch.Add(time.Duration(atNS))) }
func (w *wheelSched) nowNS() int64              { return w.c.NowNS() }
func (w *wheelSched) seq() uint64               { return w.c.Seq() }
func (w *wheelSched) pending() int              { return w.c.Pending() }
func (w *wheelSched) fork() sched {
	nw := &wheelSched{c: w.c.Fork(), linkViaIdx: w.linkViaIdx, rec: w.rec}
	if w.rec != nil {
		nw.c.SetRecorder(w.rec)
	}
	nw.bind()
	return nw
}

// refSched is the oracle: a flat slice scanned linearly for the minimum
// (at, seq) live event.
type refEvent struct {
	at   int64
	seq  uint64
	fn   func()
	dead bool
}

type refSched struct {
	now    int64
	seqCtr uint64
	evs    []*refEvent
}

func (r *refSched) schedule(delayNS int64, _ int, fn func()) func() bool {
	if delayNS < 0 {
		delayNS = 0
	}
	return r.at(r.now+delayNS, fn)
}

func (r *refSched) scheduleLink(delayNS int64, fn func()) func() bool {
	return r.schedule(delayNS, 0, fn)
}

func (r *refSched) scheduleAt(atNS int64, fn func()) { r.at(atNS, fn) }

func (r *refSched) at(atNS int64, fn func()) func() bool {
	if atNS < r.now {
		atNS = r.now
	}
	r.seqCtr++
	e := &refEvent{at: atNS, seq: r.seqCtr, fn: fn}
	r.evs = append(r.evs, e)
	return func() bool {
		if e.dead || e.fn == nil {
			return false
		}
		e.dead = true
		return true
	}
}

func (r *refSched) step() (bool, error) { return r.stepLimit(int64(1)<<62 - 1) }

func (r *refSched) stepLimit(limit int64) (bool, error) {
	best := -1
	for i, e := range r.evs {
		if e.dead || e.fn == nil {
			continue
		}
		if best < 0 || e.at < r.evs[best].at || (e.at == r.evs[best].at && e.seq < r.evs[best].seq) {
			best = i
		}
	}
	if best < 0 || r.evs[best].at > limit {
		return false, nil
	}
	e := r.evs[best]
	r.now = e.at
	fn := e.fn
	e.fn = nil
	fn()
	return true, nil
}

func (r *refSched) run() error {
	for {
		ok, err := r.stepLimit(int64(1)<<62 - 1)
		if err != nil || !ok {
			return err
		}
	}
}

func (r *refSched) runUntil(atNS int64) error {
	for {
		ok, err := r.stepLimit(atNS)
		if err != nil || !ok {
			break
		}
	}
	if r.now < atNS {
		r.now = atNS
	}
	return nil
}

func (r *refSched) nowNS() int64 { return r.now }
func (r *refSched) seq() uint64  { return r.seqCtr }
func (r *refSched) pending() int {
	n := 0
	for _, e := range r.evs {
		if !e.dead && e.fn != nil {
			n++
		}
	}
	return n
}
func (r *refSched) fork() sched { return &refSched{now: r.now, seqCtr: r.seqCtr} }

// delayFor maps a class byte to a delay exercising a distinct wheel path.
func delayFor(class byte, rng *rand.Rand) int64 {
	tick := int64(1) << tickBits
	switch class % 8 {
	case 0:
		return 0 // same instant
	case 1:
		return rng.Int63n(tick) // same or adjacent tick
	case 2:
		return tick + rng.Int63n(tick*slots) // level 0/1
	case 3:
		return tick * slots * (1 + rng.Int63n(slots)) // level 1/2
	case 4:
		return tick * slots * slots * (1 + rng.Int63n(slots)) // level 2/3
	case 5:
		return tick * horizonTicks / 2 // deep level 3
	case 6:
		return tick*horizonTicks + rng.Int63n(tick*horizonTicks) // overflow
	default:
		return -rng.Int63n(1 << 30) // negative: clamps to now
	}
}

// runScript interprets data as an op program against s, returning the log.
func runScript(s sched, data []byte) string {
	var log strings.Builder
	rng := rand.New(rand.NewSource(12345)) // same stream for both drivers
	var stops []func() bool
	nextID := 0
	var mkFn func(depth int) func()
	mkFn = func(depth int) func() {
		id := nextID
		nextID++
		// Nested behavior is derived from the id, so both drivers' events
		// perform identical actions when (and only when) fired in the same
		// order at the same instants.
		return func() {
			fmt.Fprintf(&log, "fire %d @%d\n", id, s.nowNS())
			if depth < 2 {
				switch id % 5 {
				case 0: // same-instant burst from inside a callback
					n := 1 + id%3
					for i := 0; i < n; i++ {
						stops = append(stops, s.schedule(0, id+i, mkFn(depth+1)))
					}
				case 1: // short reschedule
					s.schedule(int64(1)<<tickBits/4, id, mkFn(depth+1))
				case 2: // cancel a random earlier timer from inside a callback
					if len(stops) > 0 {
						k := id % len(stops)
						fmt.Fprintf(&log, "nested-stop %d %v\n", k, stops[k]())
					}
				case 3: // a delivery forwarding over the next link
					stops = append(stops, s.scheduleLink(laneDelay, mkFn(depth+1)))
				}
			}
		}
	}

	for i := 0; i+1 < len(data); i += 2 {
		op, p := data[i], data[i+1]
		switch op % 8 {
		case 0, 1: // schedule (weighted: most common op)
			d := delayFor(p, rng)
			stops = append(stops, s.schedule(d, int(p), mkFn(0)))
		case 2: // scheduleAt, sometimes in the past
			at := s.nowNS() + delayFor(p, rng) - int64(p)<<16
			s.scheduleAt(at, mkFn(0))
			nextIDCheck(&log, s)
		case 3: // cancel
			if len(stops) > 0 {
				k := int(p) % len(stops)
				fmt.Fprintf(&log, "stop %d %v\n", k, stops[k]())
			}
		case 4: // partial drain to an arbitrary deadline (may split a tick)
			d := s.nowNS() + delayFor(p, rng)/2 + int64(p)
			if err := s.runUntil(d); err != nil {
				fmt.Fprintf(&log, "rununtil err %v\n", err)
			}
			fmt.Fprintf(&log, "rununtil @%d pend %d\n", s.nowNS(), s.pending())
		case 5: // single steps
			for n := 0; n < int(p%4)+1; n++ {
				ok, err := s.step()
				fmt.Fprintf(&log, "step %v %v @%d\n", ok, err, s.nowNS())
			}
		case 6: // fork parity: seq/now carried, fresh queue replays identically
			f := s.fork()
			fmt.Fprintf(&log, "fork seq %d now %d pend %d\n", f.seq(), f.nowNS(), f.pending())
			f.schedule(delayFor(p, rng), int(p), func() {
				fmt.Fprintf(&log, "fork-fire-a @%d\n", f.nowNS())
			})
			f.schedule(0, int(p)+1, func() {
				fmt.Fprintf(&log, "fork-fire-b @%d\n", f.nowNS())
			})
			if err := f.run(); err != nil {
				fmt.Fprintf(&log, "fork err %v\n", err)
			}
			fmt.Fprintf(&log, "fork done seq %d @%d\n", f.seq(), f.nowNS())
		case 7: // link lane
			switch p % 8 {
			case 0, 1, 2: // one link hop
				stops = append(stops, s.scheduleLink(laneDelay, mkFn(0)))
			case 3: // a burst of hops at one instant
				for n := 0; n < int(p%5)+2; n++ {
					stops = append(stops, s.scheduleLink(laneDelay, mkFn(0)))
				}
			case 4: // an idle gap past the wheel horizon, then a hop
				gap := int64(1)<<tickBits*horizonTicks + int64(p)<<20
				if err := s.runUntil(s.nowNS() + gap); err != nil {
					fmt.Fprintf(&log, "gap err %v\n", err)
				}
				fmt.Fprintf(&log, "gap @%d pend %d\n", s.nowNS(), s.pending())
				stops = append(stops, s.scheduleLink(laneDelay, mkFn(0)))
			case 5: // fork at quiescence; the fork forwards over links
				if err := s.run(); err != nil {
					fmt.Fprintf(&log, "drain err %v\n", err)
				}
				f := s.fork()
				for n := 0; n < 3; n++ {
					f.scheduleLink(laneDelay, func() {
						fmt.Fprintf(&log, "fork-link %d @%d\n", n, f.nowNS())
						if n == 0 {
							f.scheduleLink(laneDelay, func() { fmt.Fprintf(&log, "fork-link-next @%d\n", f.nowNS()) })
						}
					})
				}
				if err := f.run(); err != nil {
					fmt.Fprintf(&log, "fork err %v\n", err)
				}
				fmt.Fprintf(&log, "fork-lane done seq %d @%d\n", f.seq(), f.nowNS())
			case 6: // another delay, mostly earlier than the lane tail
				stops = append(stops, s.scheduleLink(int64(p)<<12, mkFn(0)))
			default: // a zero or negative delay
				stops = append(stops, s.scheduleLink(-int64(p%2), mkFn(0)))
			}
		}
	}
	if err := s.run(); err != nil {
		fmt.Fprintf(&log, "run err %v\n", err)
	}
	fmt.Fprintf(&log, "end @%d pend %d seq %d\n", s.nowNS(), s.pending(), s.seq())
	return log.String()
}

func nextIDCheck(log *strings.Builder, s sched) {
	fmt.Fprintf(log, "pend %d seq %d\n", s.pending(), s.seq())
}

// TestLaneMatchesScheduleIdx is the lane's parity contract: the same
// script with every link schedule routed through ScheduleLink on one clock
// and through ScheduleIdx on another must fire identically and leave the
// scheduler counters — fired, fast-path, and cascades — equal. Equal
// cascades mean the lane advances the wheel cursor exactly where staging
// the same events from the wheel would have.
func TestLaneMatchesScheduleIdx(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1a7e))
	for script := 0; script < 300; script++ {
		n := 8 + rng.Intn(160)
		data := make([]byte, n)
		rng.Read(data)
		// Bias toward lane ops so most scripts keep the lane busy.
		for i := 0; i+1 < len(data); i += 2 {
			if data[i]%3 == 0 {
				data[i] = 7
			}
		}
		laneParity(t, data)
	}
}

func laneParity(t *testing.T, data []byte) {
	t.Helper()
	run := func(viaIdx bool) (string, map[string]int64) {
		w := newWheelSched()
		w.linkViaIdx = viaIdx
		w.rec = obs.NewBuffer()
		w.c.SetRecorder(w.rec)
		return runScript(w, data), w.rec.CounterMap()
	}
	lane, laneCtr := run(false)
	idx, idxCtr := run(true)
	if lane != idx {
		t.Fatalf("lane and ScheduleIdx logs diverge (script %x)", data)
	}
	for _, k := range []string{"vclock_fired", "vclock_fastpath", "vclock_cascades"} {
		if laneCtr[k] != idxCtr[k] {
			t.Fatalf("%s: lane %d, ScheduleIdx %d (script %x)", k, laneCtr[k], idxCtr[k], data)
		}
	}
}

func diffScripts(t *testing.T, data []byte) {
	t.Helper()
	got := runScript(newWheelSched(), data)
	want := runScript(&refSched{}, data)
	if got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("divergence at log line %d:\n  wheel: %q\n  ref:   %q\n(script %x)", i, gl[i], wl[i], data)
			}
		}
		t.Fatalf("log length mismatch: wheel %d lines, ref %d lines (script %x)", len(gl), len(wl), data)
	}
}

// TestWheelMatchesReferenceRandom drives several hundred randomized
// scripts through both schedulers. Run with -race in CI.
func TestWheelMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11b3247e))
	for script := 0; script < 300; script++ {
		n := 8 + rng.Intn(120)
		data := make([]byte, n)
		rng.Read(data)
		diffScripts(t, data)
	}
}

// TestWheelSameTickBurst pins the due-ring fast path: a callback-scheduled
// same-instant burst must fire FIFO, interleaved correctly with events at
// later instants inside the same tick.
func TestWheelSameTickBurst(t *testing.T) {
	diffScripts(t, []byte{
		0, 0, 0, 0, 0, 0, // three same-instant roots
		0, 1, 0, 1, // same-tick followers
		5, 2, // a couple of single steps
		0, 0, 4, 1, // more roots, partial drain
	})
}

// TestWheelDeadlineSplitsTick pins the demotion path: a RunUntil deadline
// that parks the pipeline mid-tick, followed by schedules below the parked
// instant.
func TestWheelDeadlineSplitsTick(t *testing.T) {
	c := New()
	var order []string
	tick := int64(1) << tickBits
	base := Epoch.Add(time.Duration(10 * tick))
	// Two instants inside tick 10.
	c.ScheduleAt(base.Add(100), func() { order = append(order, "a") })
	c.ScheduleAt(base.Add(900), func() { order = append(order, "d") })
	c.ScheduleAt(base.Add(900), func() { order = append(order, "e") })
	// Stop between them: the 900ns run is promoted but undrained.
	if err := c.RunUntil(base.Add(500)); err != nil {
		t.Fatal(err)
	}
	// Schedule below the parked run — must fire before it.
	c.ScheduleAt(base.Add(600), func() { order = append(order, "b") })
	c.ScheduleAt(base.Add(700), func() { order = append(order, "c") })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abcde" {
		t.Fatalf("fire order = %q, want abcde", got)
	}
}

// FuzzWheelVsHeap lets the fuzzer hunt for schedule/cancel/run interleavings
// where the wheel and the reference disagree.
func FuzzWheelVsHeap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 16, 0, 32, 4, 9, 0, 48, 3, 1, 5, 2})
	f.Add([]byte{0, 6, 0, 6, 4, 200, 0, 5, 6, 7, 0, 0, 5, 3})
	f.Add([]byte{2, 255, 0, 7, 3, 0, 0, 64, 4, 128, 0, 0, 0, 1, 5, 1, 6, 9})
	// Link-lane scripts: hops and bursts among wheel events, a cancel, a
	// deadline that parks the pipeline, a horizon-long idle gap, a fork at
	// quiescence, and the fallback delays.
	f.Add([]byte{7, 0, 0, 1, 7, 3, 3, 1, 7, 1, 4, 3, 7, 2, 5, 1, 7, 6, 7, 7})
	f.Add([]byte{0, 3, 7, 4, 7, 0, 0, 2, 7, 5, 7, 11, 4, 9, 7, 3, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			t.Skip()
		}
		diffScripts(t, data)
		laneParity(t, data)
	})
}
