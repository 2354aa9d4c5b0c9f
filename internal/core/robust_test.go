package core

import (
	"testing"

	"repro/internal/dpi"
	"repro/internal/netem"
	"repro/internal/netem/packet"
	"repro/internal/trace"
)

func TestSessionConfirm(t *testing.T) {
	s := &Session{Robust: true}
	calls := 0
	out := s.confirm(func() bool { calls++; return true })
	if !out.Positive || out.Trials != 1 || out.Confidence != 1 || calls != 1 {
		t.Fatalf("authoritative positive must terminate immediately: %+v calls=%d", out, calls)
	}

	calls = 0
	out = s.confirm(func() bool { calls++; return false })
	if out.Positive || out.Trials != maxTrials || calls != maxTrials {
		t.Fatalf("all-negative must take maxTrials observations: %+v calls=%d", out, calls)
	}
	if out.Confidence < 0.96 || out.Confidence >= 1 {
		t.Fatalf("absence confidence after 5 trials = %v, want 1-2^-5", out.Confidence)
	}

	// A late positive still wins: faults suppress signals, never invent them.
	calls = 0
	out = s.confirm(func() bool { calls++; return calls == 3 })
	if !out.Positive || out.Trials != 3 || out.Confidence != 1 {
		t.Fatalf("late positive: %+v", out)
	}

	// A clean session believes its first negative.
	clean := &Session{}
	calls = 0
	out = clean.confirm(func() bool { calls++; return false })
	if out.Positive || out.Trials != 1 || calls != 1 {
		t.Fatalf("clean session must observe exactly once: %+v calls=%d", out, calls)
	}
}

func TestWrapPortOverflow(t *testing.T) {
	if got := wrapPort(41000, clientPortBase); got != 41000 {
		t.Fatalf("in-range value changed: %d", got)
	}
	if got := wrapPort(0xFFFF, clientPortBase); got != 0xFFFF {
		t.Fatalf("boundary value changed: %d", got)
	}
	// One past the top re-enters at the floor, not at 0.
	if got := wrapPort(0x10000, clientPortBase); got != clientPortBase {
		t.Fatalf("overflow wrapped to %d, want %d", got, clientPortBase)
	}
	// Deep overflow still lands in [floor, 65535].
	for v := uint32(0x10000); v < 0x50000; v += 977 {
		got := wrapPort(v, serverPortBase)
		if got < serverPortBase {
			t.Fatalf("wrapPort(%#x) = %d, below floor %d", v, got, serverPortBase)
		}
	}
}

func TestForkForSurvivesPortExhaustion(t *testing.T) {
	s := NewSession(dpi.NewBaseline())
	// Simulate an engagement that marched the counters to the top of the
	// range: fork offsets must not wrap into the reserved/server ranges.
	s.nextClientPort = 0xFFF0
	s.nextServerPort = 0xFFF0
	for i := 0; i < 40; i++ {
		fs := s.forkFor(i)
		if fs.nextClientPort < 1024 {
			t.Fatalf("fork %d client port wrapped into reserved range: %d", i, fs.nextClientPort)
		}
		if fs.nextServerPort < serverPortBase {
			t.Fatalf("fork %d server port wrapped below floor: %d", i, fs.nextServerPort)
		}
	}
	s.advancePorts(40 * trialPortStride)
	if s.nextClientPort < clientPortBase || s.nextServerPort < serverPortBase {
		t.Fatalf("advancePorts wrapped below floors: client=%d server=%d",
			s.nextClientPort, s.nextServerPort)
	}
}

func TestNewSessionAutoRobust(t *testing.T) {
	if s := NewSession(dpi.NewGFC()); s.Robust {
		t.Fatal("clean network must start in single-shot mode")
	}
	net := dpi.NewGFC()
	net.MB.Cfg.Faults = dpi.Faults{MissRate: 0.1}
	if s := NewSession(net); !s.Robust {
		t.Fatal("faulted network must start in robust mode")
	}
}

// dropPayloadOnce drops every payload-carrying packet the first time it
// transits (handshakes pass), so a flow stalls without any enforcement
// signal unless the endpoints retransmit — the shape of failure the
// robust replay retry's Reliable escalation exists for.
type dropPayloadOnce struct{ seen map[string]bool }

func (d *dropPayloadOnce) Name() string { return "drop-payload-once" }

func (d *dropPayloadOnce) Process(ctx netem.Context, dir netem.Direction, f *packet.Frame) {
	p, _ := f.Parse()
	if p != nil && len(p.Payload) > 0 {
		k := string(f.Raw())
		if !d.seen[k] {
			if d.seen == nil {
				d.seen = map[string]bool{}
			}
			d.seen[k] = true
			return
		}
	}
	ctx.Forward(f)
}

func TestRobustReplayRetriesTransientWipeout(t *testing.T) {
	// Without retransmission the flow stalls mid-transfer showing no
	// block/RST/403 — a transient wipeout. A robust session must retry it
	// and complete on the final, Reliable attempt; a clean session runs
	// exactly one round.
	build := func() *Session {
		net := dpi.NewBaseline()
		net.Env.Append(&dropPayloadOnce{})
		s := NewSession(net)
		s.Robust = true // custom element: Noisy() cannot see it
		return s
	}
	tr := trace.AmazonPrimeVideo(4 << 10)

	s := build()
	res := s.Replay(tr, nil)
	if !res.Completed {
		t.Fatalf("reliable escalation should have completed the replay: %+v", res)
	}
	if s.Rounds != 1+replayRetries {
		t.Fatalf("robust session took %d rounds, want %d (1 + %d retries)",
			s.Rounds, 1+replayRetries, replayRetries)
	}

	s2 := build()
	s2.Robust = false
	res2 := s2.Replay(tr, nil)
	if res2.Completed || res2.Blocked || res2.RSTsSeen != 0 || res2.Got403 {
		t.Fatalf("expected a bare transient wipeout, got %+v", res2)
	}
	if s2.Rounds != 1 {
		t.Fatalf("clean session retried a wipeout: %d rounds", s2.Rounds)
	}

	// On a clean path a robust session must not burn extra rounds.
	s3 := NewSession(dpi.NewBaseline())
	s3.Robust = true
	if res := s3.Replay(tr, nil); !res.Completed || s3.Rounds != 1 {
		t.Fatalf("robust session retried a completed replay: rounds=%d completed=%v",
			s3.Rounds, res.Completed)
	}
}

// TestDetectEscalatesOnInconsistentBlocking pins the single-shot
// detector's size-escalation path ("inconsistent; retry bigger"): with a
// 50% classifier miss rate and this searched seed, the first-size quad
// observes contradictory blocking and detection only succeeds after
// enlarging the probe.
func TestDetectEscalatesOnInconsistentBlocking(t *testing.T) {
	cleanRounds := func() int {
		s := NewSession(dpi.NewGFC())
		return Detect(s, trace.EconomistWeb(8<<10)).Rounds
	}()

	net := dpi.NewGFC()
	net.MB.Cfg.Faults = dpi.Faults{MissRate: 0.5}
	net.MB.Cfg.Seed = 1
	s := NewSession(net)
	s.Robust = false // force the legacy single-shot logic onto the noisy box
	d := Detect(s, trace.EconomistWeb(8<<10))
	if !d.Differentiated || !d.Has(DiffBlocking) {
		t.Fatalf("detection failed entirely: %+v", d)
	}
	if !d.ResidualBlocking {
		t.Fatal("GFC blacklist must still be identified after escalation")
	}
	if d.Rounds <= cleanRounds {
		t.Fatalf("rounds = %d, want > clean %d (size escalation must have happened)",
			d.Rounds, cleanRounds)
	}
	if d.Trials != 0 || d.Confidence != 0 {
		t.Fatalf("single-shot detection must not report robust stats: trials=%d conf=%v",
			d.Trials, d.Confidence)
	}
}

func TestRobustDetectOnFaultedGFC(t *testing.T) {
	net := dpi.NewGFC()
	net.MB.Cfg.Faults = dpi.Faults{MissRate: 0.1, RSTDropRate: 0.2}
	s := NewSession(net)
	d := Detect(s, trace.EconomistWeb(8<<10))
	if !d.Differentiated || !d.Has(DiffBlocking) {
		t.Fatalf("robust detection lost the blocking signal: %+v", d)
	}
	if d.Trials == 0 {
		t.Fatal("robust detection must report its trial count")
	}
	if d.Confidence != 1 {
		t.Fatalf("blocking confirmed by an authoritative observation must carry confidence 1, got %v", d.Confidence)
	}
}
