package dpi

import (
	"repro/internal/netem"
	"repro/internal/netem/packet"
)

// StatefulFirewall models the strict in-path devices operational networks
// deploy between the classifier and the wider Internet: it validates
// packet formats, tracks TCP sequence state, and silently drops anything
// abnormal. This is why "many of the inert packets that worked in our
// testbed were dropped in every operational network we tested" (§7) — the
// Reaches-Server column of Table 3.
type StatefulFirewall struct {
	Label string
	// DropDefects are discarded outright.
	DropDefects packet.DefectSet
	// DropOutOfWindow tracks per-flow TCP sequence state and drops
	// segments far outside the expected window.
	DropOutOfWindow bool
	// DropFragments discards any IP fragment (observed on the Iran path).
	DropFragments bool

	seq packet.FlowTable[*fwFlow]
}

type fwFlow struct {
	exp   [2]uint32
	valid [2]bool
}

// Name implements netem.Element.
func (f *StatefulFirewall) Name() string { return f.Label }

// ForkElement implements netem.Forkable: per-flow sequence state is
// deep-copied.
func (f *StatefulFirewall) ForkElement() netem.Element {
	c := *f
	c.seq = f.seq.Clone(func(st *fwFlow) *fwFlow {
		cp := *st
		return &cp
	})
	return &c
}

// Process implements netem.Element.
func (f *StatefulFirewall) Process(ctx netem.Context, dir netem.Direction, fr *packet.Frame) {
	p, defects := fr.Parse()
	if p.IP.FragOffset != 0 || p.IP.MoreFragments() {
		if f.DropFragments {
			return
		}
		ctx.Forward(fr)
		return
	}
	if defects.Intersects(f.DropDefects) {
		return
	}
	if f.DropOutOfWindow && p.TCP != nil {
		if !f.track(dir, p) {
			return
		}
	}
	ctx.Forward(fr)
}

// track updates sequence state; it reports false when the segment should
// be dropped as out-of-window.
func (f *StatefulFirewall) track(dir netem.Direction, p *packet.Packet) bool {
	ck, _ := p.CanonicalFlow()
	st, ok := f.seq.Get(ck)
	if !ok {
		st = &fwFlow{}
		f.seq.Put(ck, st)
	}
	di := 0
	if dir == netem.ToClient {
		di = 1
	}
	t := p.TCP
	if t.Flags.Has(packet.FlagSYN) {
		st.exp[di] = t.Seq + 1
		st.valid[di] = true
		return true
	}
	if !st.valid[di] {
		st.exp[di] = t.Seq
		st.valid[di] = true
	}
	if len(p.Payload) == 0 && !t.Flags.Has(packet.FlagFIN) && !t.Flags.Has(packet.FlagRST) {
		return true // pure ACKs pass
	}
	const win = 1 << 17
	if t.Seq-st.exp[di] < win {
		end := t.Seq + uint32(len(p.Payload))
		if end-st.exp[di] < win && end-st.exp[di] > 0 {
			st.exp[di] = end
		}
		return true
	}
	// Left-overlapping retransmissions are normal; let them through.
	if st.exp[di]-t.Seq < win {
		return true
	}
	return false
}

// Reset clears flow state (between replays).
func (f *StatefulFirewall) Reset() { f.seq.Reset() }
