package core

import (
	"runtime"
	"time"

	"repro/internal/dpi"
	"repro/internal/netem/stack"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

// Session tracks one lib·erate engagement with a network: it owns client
// port allocation, optional server-port rotation (the GFC-blacklist
// countermeasure of §6.5), and the round/byte/time accounting the paper
// reports for each phase.
type Session struct {
	Net      *dpi.Network
	ServerOS *stack.OSProfile

	// RotatePorts uses a fresh server port for every replay; enabled when
	// residual (blacklist-style) blocking is detected.
	RotatePorts bool
	// ForceServerPort pins the server port (Iran characterization must
	// stay on port 80).
	ForceServerPort uint16

	// EvalWorkers bounds the evaluation phase's fork-and-join worker pool.
	// 0 means GOMAXPROCS. The worker count never changes results — every
	// technique runs in its own forked replica and the merge order is
	// canonical — only how many replicas are driven concurrently.
	EvalWorkers int

	// Robust enables noise-robust phase logic: replays retry transient
	// wipeouts, and every phase re-verifies "no enforcement" readings with
	// one-sided voting (see Session.confirm). NewSession enables it
	// automatically when the network carries fault knobs or impairment
	// links; on clean networks it stays false and every phase runs the
	// byte-identical single-observation path.
	Robust bool

	nextClientPort uint16
	nextServerPort uint16

	// invCache memoizes Trace.Invert per source trace: detection and
	// characterization replay the inverted control dozens of times per
	// engagement, and inversion is deterministic, so cloning the
	// (multi-megabyte) trace once per session is enough. Sessions are
	// single-goroutine, so a plain map suffices.
	invCache map[*trace.Trace]*trace.Trace

	// probeCache memoizes padTrace/trimTrace probe construction per
	// (source trace, byte budget). Beyond skipping the (up to megabyte)
	// pad fill, a stable probe pointer is what makes invCache effective:
	// detection, characterization, and evaluation all rebuild the same
	// probe, and a fresh pointer each time would force a fresh Invert.
	probeCache map[probeKey]*trace.Trace

	// Accounting.
	Rounds    int
	BytesUsed int64
	started   time.Time
}

// inverted returns the bit-inverted control for tr, cached per session.
// The returned trace is shared — callers must treat it as immutable, the
// same contract every trace in the library carries.
func (s *Session) inverted(tr *trace.Trace) *trace.Trace {
	if inv, ok := s.invCache[tr]; ok {
		return inv
	}
	if s.invCache == nil {
		s.invCache = make(map[*trace.Trace]*trace.Trace)
	}
	inv := tr.Invert()
	s.invCache[tr] = inv
	return inv
}

// probeKey identifies one probe build: pad tr to at least min bytes and,
// when trim is set, cap the final server message at min bytes.
type probeKey struct {
	tr   *trace.Trace
	min  int
	trim bool
}

// paddedProbe returns padTrace(tr, minBytes), cached per session. Probes
// are shared and immutable, like every trace in the library.
func (s *Session) paddedProbe(tr *trace.Trace, minBytes int) *trace.Trace {
	return s.probeFor(probeKey{tr: tr, min: minBytes})
}

// trimmedProbe returns trimTrace(padTrace(tr, n), n), cached per session —
// the standard fixed-budget probe every phase after detection replays.
func (s *Session) trimmedProbe(tr *trace.Trace, n int) *trace.Trace {
	return s.probeFor(probeKey{tr: tr, min: n, trim: true})
}

func (s *Session) probeFor(k probeKey) *trace.Trace {
	if p, ok := s.probeCache[k]; ok {
		return p
	}
	if s.probeCache == nil {
		s.probeCache = make(map[probeKey]*trace.Trace)
	}
	p := padTrace(k.tr, k.min)
	if k.trim {
		p = trimTrace(p, k.min)
	}
	s.probeCache[k] = p
	return p
}

// Initial port-counter bases. They double as wrap floors: if an
// engagement ever burns through the whole uint16 range, the counters wrap
// back to these floors rather than into the reserved/server ranges.
const (
	clientPortBase = 41000
	serverPortBase = 8100
)

// NewSession starts an engagement. Robust mode is enabled iff the network
// is noisy (fault knobs or impairment links configured), so clean
// engagements keep their historical byte-identical behavior.
func NewSession(net *dpi.Network) *Session {
	return &Session{
		Net:            net,
		Robust:         net.Noisy(),
		nextClientPort: clientPortBase,
		nextServerPort: serverPortBase,
		started:        net.Clock.Now(),
	}
}

// Elapsed reports virtual time spent so far.
func (s *Session) Elapsed() time.Duration { return s.Net.Clock.Since(s.started) }

// trialPortStride is the block of client/server ports reserved for each
// forked trial. A technique replays at most once per variant (≤ 8 rounds),
// so 64 leaves generous headroom while keeping port numbers disjoint across
// forks and from the parent session's own later replays.
const trialPortStride = 64

// wrapPort maps a widened port counter back into [floor, 65535]: counter
// arithmetic is done in uint32 and any overflow past 65535 re-enters at
// the floor instead of silently wrapping a uint16 into the reserved or
// server port ranges. Identity for all in-range values, so engagements
// that never exhaust the range (all of them, in practice) are unaffected.
func wrapPort(v uint32, floor uint16) uint16 {
	span := uint32(1<<16) - uint32(floor)
	for v > 0xFFFF {
		v -= span
	}
	return uint16(v)
}

// advancePorts moves both port counters forward by delta with overflow
// protection.
func (s *Session) advancePorts(delta uint32) {
	s.nextClientPort = wrapPort(uint32(s.nextClientPort)+delta, clientPortBase)
	s.nextServerPort = wrapPort(uint32(s.nextServerPort)+delta, serverPortBase)
}

// forkFor returns an isolated replica of the session for trial i: a forked
// network (deep-copied classifier, firewall, shaper, and RNG state; forked
// clock) and the same replay policy, with port counters offset into trial
// i's private block so flow keys never collide across concurrent replicas.
func (s *Session) forkFor(i int) *Session {
	net := s.Net.Fork()
	offset := uint32(i+1) * trialPortStride
	return &Session{
		Net:             net,
		ServerOS:        s.ServerOS,
		RotatePorts:     s.RotatePorts,
		ForceServerPort: s.ForceServerPort,
		Robust:          s.Robust,
		nextClientPort:  wrapPort(uint32(s.nextClientPort)+offset, clientPortBase),
		nextServerPort:  wrapPort(uint32(s.nextServerPort)+offset, serverPortBase),
		started:         net.Clock.Now(),
	}
}

// evalWorkers resolves the effective evaluation worker count.
func (s *Session) evalWorkers() int {
	if s.EvalWorkers > 0 {
		return s.EvalWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// replayRetries is how many additional attempts a robust session grants a
// replay that was wiped out without any enforcement signal.
const replayRetries = 2

// transientWipeout reports a replay that died showing no *active*
// enforcement signal: nothing completed, yet no block page, no RSTs, no
// reset-close. Handshake failures count — on a noisy path a lost SYN is
// indistinguishable from silent blocking, and a fresh-flow retry
// disambiguates the two (real blocking fails again; loss does not) — so
// robust sessions retry, escalating to reliable endpoints.
func transientWipeout(r *replay.Result) bool {
	return !r.Completed && !r.Got403 && r.RSTsSeen == 0 && r.CloseState != "rst"
}

// Replay runs one replay round with accounting. Robust sessions grant a
// transiently-wiped replay up to replayRetries fresh-flow retries,
// escalating to reliable (retransmitting) endpoints on the final attempt;
// clean sessions run exactly one round, unchanged.
func (s *Session) Replay(tr *trace.Trace, transform stack.OutgoingTransform, extra ...func(*replay.Options)) *replay.Result {
	res := s.replayOnce(tr, transform, extra...)
	if !s.Robust {
		return res
	}
	for attempt := 1; attempt <= replayRetries && transientWipeout(res); attempt++ {
		if r := s.rec(); r.Enabled() {
			r.Record(obs.Event{VNS: s.vns(), Kind: obs.KindRetry, Actor: tr.Name,
				Label: "transient-wipeout", Aux: int64(attempt)})
			r.Add(obs.CtrRetries, 1)
		}
		rx := extra
		if attempt == replayRetries {
			rx = append(append([]func(*replay.Options){}, extra...),
				func(o *replay.Options) { o.Reliable = true })
		}
		res = s.replayOnce(tr, transform, rx...)
	}
	if transientWipeout(res) {
		// Still wiped with zero enforcement signals after every retry. All
		// simulated blocking mechanisms emit an active signal (RSTs or a
		// block page), so a signal-free handshake failure is noise, not a
		// verdict: clear the Blocked reading so downstream oracles treat it
		// as a negative — which the one-sided voting re-verifies — instead
		// of an authoritative positive.
		res.Blocked = false
	}
	return res
}

// replayOnce runs a single replay round with accounting.
func (s *Session) replayOnce(tr *trace.Trace, transform stack.OutgoingTransform, extra ...func(*replay.Options)) *replay.Result {
	s.nextClientPort = wrapPort(uint32(s.nextClientPort)+1, clientPortBase)
	opts := replay.Options{
		Net:        s.Net,
		Trace:      tr,
		ClientPort: s.nextClientPort,
		ServerOS:   s.ServerOS,
		Transform:  transform,
	}
	if s.RotatePorts {
		s.nextServerPort = wrapPort(uint32(s.nextServerPort)+1, serverPortBase)
		opts.ServerPort = s.nextServerPort
	}
	if s.ForceServerPort != 0 {
		opts.ServerPort = s.ForceServerPort
	}
	for _, f := range extra {
		f(&opts)
	}
	res, err := replay.Run(opts)
	if err != nil {
		// The only error paths are programming errors (nil args); surface
		// loudly in experiments rather than limping on.
		panic(err)
	}
	s.Rounds++
	s.BytesUsed += res.BytesOut + res.BytesIn
	if r := s.rec(); r.Enabled() {
		r.Record(obs.Event{VNS: s.vns(), Kind: obs.KindReplay, Actor: tr.Name,
			Value: res.BytesOut + res.BytesIn})
		r.Add(obs.CtrReplays, 1)
	}
	return res
}

// blindRanges returns a copy of tr with the byte ranges inverted — the
// characterization "blinding" primitive (§5.1). The copy is
// copy-on-write: only messages a range actually touches get private
// payloads, so the content bisection's dozens of probe clones per
// engagement cost kilobytes instead of the whole trace.
func blindRanges(tr *trace.Trace, ranges []FieldRef) *trace.Trace {
	c := tr.ShallowClone()
	var copied []int
	for _, r := range ranges {
		if r.Msg < 0 || r.Msg >= len(c.Messages) {
			continue
		}
		fresh := true
		for _, m := range copied {
			if m == r.Msg {
				fresh = false
				break
			}
		}
		if fresh {
			c.Messages[r.Msg].Data = append([]byte(nil), c.Messages[r.Msg].Data...)
			copied = append(copied, r.Msg)
		}
		data := c.Messages[r.Msg].Data
		lo, hi := r.Start, r.End
		if lo < 0 {
			lo = 0
		}
		if hi > len(data) {
			hi = len(data)
		}
		trace.InvertBytes(data[lo:hi])
	}
	return c
}

// padTrace grows the trace's final server message so the replay moves at
// least minBytes — needed when the differentiation signal (e.g. a noisy
// zero-rating counter) requires a minimum transfer to read reliably.
func padTrace(tr *trace.Trace, minBytes int) *trace.Trace {
	total := tr.TotalBytes()
	if total >= minBytes {
		return tr
	}
	c := tr.ShallowClone()
	for i := len(c.Messages) - 1; i >= 0; i-- {
		if c.Messages[i].Dir == trace.ServerToClient {
			// The grown message gets a private buffer: appending to the
			// shared payload could scribble on the original's spare capacity.
			old := c.Messages[i].Data
			grown := make([]byte, len(old)+(minBytes-total))
			copy(grown, old)
			fillPad(grown[len(old):])
			c.Messages[i].Data = grown
			c.Messages[i].Precompute()
			return c
		}
	}
	return c
}

// fillPad writes the padding pattern byte(0x80|(j%97)) into dst, j counted
// from dst's start. One period is written bytewise, then copy-doubled —
// bit-identical to the per-byte loop without the per-byte modulo.
func fillPad(dst []byte) {
	n := len(dst)
	if n == 0 {
		return
	}
	period := 97
	if period > n {
		period = n
	}
	for j := 0; j < period; j++ {
		dst[j] = byte(0x80 | (j % 97))
	}
	for w := period; w < n; w *= 2 {
		copy(dst[w:], dst[:w])
	}
}

// trimTrace shrinks server messages so probe replays stay cheap: the final
// server message is capped at maxTail bytes (request/keyword content is
// never touched).
func trimTrace(tr *trace.Trace, maxTail int) *trace.Trace {
	c := tr.ShallowClone() // only re-slices; payload bytes stay shared

	for i := len(c.Messages) - 1; i >= 0; i-- {
		if c.Messages[i].Dir == trace.ServerToClient && len(c.Messages[i].Data) > maxTail {
			c.Messages[i].Data = c.Messages[i].Data[:maxTail]
			break
		}
	}
	return c
}

// TwoPartTrace exposes the two-part probe trace builder for experiment
// harnesses (classification-flushing probes need a continuation request
// after the matching one).
func TwoPartTrace(tr *trace.Trace) *trace.Trace { return twoPart(tr) }

// twoPart rewrites a trace into the two-phase shape flushing probes need:
// request → small first response → continuation request → response tail.
// The continuation request carries no matching content.
func twoPart(tr *trace.Trace) *trace.Trace {
	c := tr.ShallowClone() // splits are views into the shared payloads

	// Find the last server message and split it.
	for i := len(c.Messages) - 1; i >= 0; i-- {
		m := c.Messages[i]
		if m.Dir != trace.ServerToClient || len(m.Data) < 4096 {
			continue
		}
		half := 16 << 10
		if half > len(m.Data)/2 {
			half = len(m.Data) / 2
		}
		first := m.Data[:half]
		rest := m.Data[half:]
		cont := []byte("NEXT /continuation range=tail\r\n\r\n")
		out := make([]trace.Message, 0, len(c.Messages)+2)
		out = append(out, c.Messages[:i]...)
		out = append(out,
			trace.Message{Dir: trace.ServerToClient, Data: first},
			trace.Message{Dir: trace.ClientToServer, Data: cont},
			trace.Message{Dir: trace.ServerToClient, Data: rest},
		)
		out = append(out, c.Messages[i+1:]...)
		c.Messages = out
		return c
	}
	return c
}
