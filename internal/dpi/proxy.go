package dpi

import (
	"bytes"
	"sync"
	"time"

	"repro/internal/netem"
	"repro/internal/netem/packet"
	"repro/internal/obs"
)

// TransparentProxy models AT&T Stream Saver (§6.3): a connection-
// terminating transparent HTTP proxy on port 80. It validates and
// normalizes everything — reassembling each direction's byte stream and
// re-emitting it as clean, in-order segments — so no packet-level evasion
// technique survives it. Classification runs over the reassembled streams
// (request keywords plus the response Content-Type), and classified flows
// are throttled. Traffic to any other port bypasses it entirely, which is
// why simply changing the server port evades Stream Saver.
type TransparentProxy struct {
	Label string
	// Ports the proxy intercepts (AT&T: 80 only).
	Ports []uint16
	// Rules are evaluated over the reassembled streams.
	Rules []Rule
	// FirstPacketGate requires the client stream to open with a recognized
	// protocol before rules fire (why server-assisted dummy-prepending
	// evades even AT&T).
	FirstPacketGate bool
	// ThrottleBps shapes the response direction of classified flows.
	ThrottleBps   float64
	ThrottleBurst int

	flows packet.FlowTable[*proxyFlow]
	// bufFree holds stream buffers reclaimed from cleanly closed flows
	// (compactFlow) for reuse by new flows on this proxy instance. Local,
	// never shared with forks.
	bufFree [][]byte
	// scratch backs MatchEither's stream concatenation so per-packet
	// classification does not allocate. Never shared across forks.
	scratch []byte
}

type proxyFlow struct {
	class       string
	gateChecked bool
	families    map[Family]bool
	// Per direction (0 = c2s, 1 = s2c) stream state.
	exp       [2]uint32
	expValid  [2]bool
	fin       [2]bool
	forwarded [2]uint32 // stream offset already re-emitted
	ooo       [2]map[uint32][]byte
	stream    [2][]byte
	// kwSeen has bit 2k+di set once keyword k of the proxy's rules
	// (numbered in rule order) occurs in stream[di], whose first kwFed[di]
	// bytes have been searched. A stream only grows until compactFlow
	// clears it, so a keyword once seen stays seen, and each packet
	// searches only the new bytes plus each keyword's length less one.
	kwSeen []uint64
	kwFed  [2]int
	shaper *shaper
}

// Name implements netem.Element.
func (x *TransparentProxy) Name() string { return x.Label }

// Intercepts reports whether the proxy terminates flows to this port.
func (x *TransparentProxy) Intercepts(port uint16) bool {
	for _, p := range x.Ports {
		if p == port {
			return true
		}
	}
	return false
}

// FlowClass exposes classification ground truth.
func (x *TransparentProxy) FlowClass(clientKey packet.FlowKey) string {
	ck, _ := clientKey.Canonical()
	if f, ok := x.flows.Get(ck); ok {
		return f.class
	}
	return ""
}

// ResetState clears per-flow state.
func (x *TransparentProxy) ResetState() { x.flows.Reset() }

// ForkElement implements netem.Forkable: per-flow reassembly buffers,
// classification, forwarding offsets, and shaper positions are deep-copied.
// Ports and Rules are shared read-only configuration.
func (x *TransparentProxy) ForkElement() netem.Element {
	c := *x
	c.scratch = nil // never share the match buffer with the fork
	c.bufFree = nil // nor the reclaimed-buffer free list
	c.flows = x.flows.Clone((*proxyFlow).clone)
	return &c
}

// proxyFlowPool recycles proxied-flow records (with their grown stream
// buffers and families maps) across proxy instances, mirroring mbFlowPool:
// single-trial forks deep-copy every live flow, and reassembled streams
// are the bulk of fork cost.
var proxyFlowPool = sync.Pool{New: func() any { return new(proxyFlow) }}

// clearProxyFlow resets a flow record for reuse, keeping stream capacity
// and the (cleared) families map; out-of-order maps are dropped.
func clearProxyFlow(f *proxyFlow) {
	s0, s1 := f.stream[0][:0], f.stream[1][:0]
	fam := f.families
	kw := f.kwSeen[:0]
	*f = proxyFlow{}
	f.stream[0], f.stream[1] = s0, s1
	f.kwSeen = kw
	if fam != nil {
		clear(fam)
		f.families = fam
	}
}

// Release returns all flow records to the process-wide pool. Legal only
// once the proxy is dead: its trial finished and every result derived
// from it has been read.
func (x *TransparentProxy) Release() {
	x.flows.Range(func(_ packet.FlowKey, f *proxyFlow) {
		clearProxyFlow(f)
		proxyFlowPool.Put(f)
	})
	x.flows.Reset()
}

// clone deep-copies one proxied flow into a pooled record, reusing the
// recycled record's stream capacity, keyword bitset and families map.
func (f *proxyFlow) clone() *proxyFlow {
	c := proxyFlowPool.Get().(*proxyFlow)
	s0, s1 := c.stream[0][:0], c.stream[1][:0]
	fam := c.families
	kw := c.kwSeen[:0]
	*c = *f
	c.kwSeen = append(kw, f.kwSeen...)
	if fam == nil {
		fam = make(map[Family]bool, len(f.families))
	}
	for k, v := range f.families {
		fam[k] = v
	}
	c.families = fam
	c.stream[0] = append(s0, f.stream[0]...)
	c.stream[1] = append(s1, f.stream[1]...)
	for di := 0; di < 2; di++ {
		if f.ooo[di] != nil {
			c.ooo[di] = make(map[uint32][]byte, len(f.ooo[di]))
			for seq, data := range f.ooo[di] {
				c.ooo[di][seq] = append([]byte(nil), data...)
			}
		}
	}
	if f.shaper != nil {
		sh := *f.shaper
		c.shaper = &sh
	}
	return c
}

// Process implements netem.Element.
func (x *TransparentProxy) Process(ctx netem.Context, dir netem.Direction, fr *packet.Frame) {
	p, defects := fr.Parse()
	if p.TCP == nil {
		// Non-TCP traffic is not proxied.
		if defects.Empty() {
			ctx.Forward(fr)
		}
		return
	}
	serverPort := p.TCP.DstPort
	if dir == netem.ToClient {
		serverPort = p.TCP.SrcPort
	}
	if !x.Intercepts(serverPort) {
		ctx.Forward(fr)
		return
	}
	// A terminating proxy accepts nothing malformed.
	if !defects.Empty() {
		return
	}
	ck, _ := p.CanonicalFlow()
	f, _ := x.flows.Get(ck)
	t := p.TCP

	if t.Flags.Has(packet.FlagSYN) && !t.Flags.Has(packet.FlagACK) {
		f = proxyFlowPool.Get().(*proxyFlow)
		if f.families == nil {
			f.families = make(map[Family]bool)
		}
		for di := 0; di < 2; di++ {
			if n := len(x.bufFree); f.stream[di] == nil && n > 0 {
				f.stream[di] = x.bufFree[n-1]
				x.bufFree[n-1] = nil
				x.bufFree = x.bufFree[:n-1]
			}
		}
		f.exp[0] = t.Seq + 1
		f.expValid[0] = true
		x.flows.Put(ck, f)
		ctx.Forward(fr)
		return
	}
	if f == nil {
		// Mid-stream traffic the proxy has no state for is dropped: a
		// terminating proxy cannot adopt a connection it never saw open.
		return
	}
	di := 0
	if dir == netem.ToClient {
		di = 1
	}
	if t.Flags.Has(packet.FlagSYN) && t.Flags.Has(packet.FlagACK) {
		f.exp[1] = t.Seq + 1
		f.expValid[1] = true
		ctx.Forward(fr)
		return
	}
	if t.Flags.Has(packet.FlagRST) {
		ctx.Forward(fr)
		return
	}

	if len(p.Payload) > 0 {
		at := x.ingest(f, di, t.Seq, p.Payload)
		x.classifyStreams(ctx, dir, p, f, serverPort)
		x.drain(ctx, dir, f, di, p, at)
	}
	if t.Flags.Has(packet.FlagFIN) {
		f.fin[di] = true
	}
	if len(p.Payload) == 0 || t.Flags.Has(packet.FlagFIN) {
		// Pure ACKs and FINs pass through once their sequence numbers are
		// consistent with the normalized stream position.
		if t.Seq == f.exp[di] || len(p.Payload) == 0 {
			ctx.Forward(fr)
		}
	}
	if f.fin[0] && f.fin[1] &&
		f.forwarded[0] == uint32(len(f.stream[0])) && f.forwarded[1] == uint32(len(f.stream[1])) {
		x.compactFlow(f)
	}
}

// Quiesce implements netem.Quiescer: with nothing in flight every flow
// is dead, so all reassembly state compacts away. Classification stays —
// FlowClass keeps answering for past flows — and the parent's flow map
// staying compact is what keeps ForkElement cheap for trial replicas.
func (x *TransparentProxy) Quiesce() {
	x.flows.Range(func(_ packet.FlowKey, f *proxyFlow) { x.compactFlow(f) })
}

// compactFlow retires a cleanly closed flow's reassembly state, parking
// its stream buffers on the proxy's local free list. The record stays in
// the flow map so classification ground truth (FlowClass) remains
// queryable, but later forks no longer deep-copy dead connection
// history — fork cost tracks open flows, not every flow ever proxied.
func (x *TransparentProxy) compactFlow(f *proxyFlow) {
	for di := 0; di < 2; di++ {
		if c := f.stream[di]; cap(c) > 0 {
			x.bufFree = append(x.bufFree, c[:0])
		}
		f.stream[di] = nil
		f.ooo[di] = nil
		f.forwarded[di] = 0
		f.kwFed[di] = 0
	}
	clear(f.kwSeen)
	f.shaper = nil
}

// ingest adds payload to the direction's reassembly, first copy wins. It
// returns the stream offset the whole payload was appended at when it
// arrived in order, and -1 otherwise.
func (x *TransparentProxy) ingest(f *proxyFlow, di int, seq uint32, payload []byte) int {
	at := -1
	if f.ooo[di] == nil {
		f.ooo[di] = make(map[uint32][]byte)
	}
	if !f.expValid[di] {
		f.exp[di] = seq
		f.expValid[di] = true
	}
	const win = 1 << 17
	switch {
	case seq == f.exp[di]:
		at = len(f.stream[di])
		f.stream[di] = append(f.stream[di], payload...)
		f.exp[di] += uint32(len(payload))
	case seq-f.exp[di] < win:
		if _, dup := f.ooo[di][seq]; !dup {
			f.ooo[di][seq] = append([]byte(nil), payload...)
		}
	case f.exp[di]-seq < win && seq+uint32(len(payload))-f.exp[di] < win && seq+uint32(len(payload)) != f.exp[di]:
		tail := payload[f.exp[di]-seq:]
		f.stream[di] = append(f.stream[di], tail...)
		f.exp[di] += uint32(len(tail))
	default:
		return at
	}
	drainOOO(f.ooo[di], &f.stream[di], &f.exp[di], 0)
	return at
}

// drainOOO integrates buffered out-of-order segments into the contiguous
// stream, including segments that partially overlap the head (their new
// tail is kept, matching first-copy-wins semantics). cap_ of 0 means no
// stream cap.
func drainOOO(ooo map[uint32][]byte, stream *[]byte, exp *uint32, cap_ int) {
	for {
		if next, ok := ooo[*exp]; ok {
			delete(ooo, *exp)
			*stream = appendMaybeCapped(*stream, next, cap_)
			*exp += uint32(len(next))
			continue
		}
		// Look for a buffered segment overlapping the head from the left.
		found := false
		for seq, data := range ooo {
			if *exp-seq < 1<<17 && seq+uint32(len(data))-*exp < 1<<17 && seq+uint32(len(data)) != *exp {
				tail := data[*exp-seq:]
				delete(ooo, seq)
				*stream = appendMaybeCapped(*stream, tail, cap_)
				*exp += uint32(len(tail))
				found = true
				break
			}
		}
		if !found {
			return
		}
	}
}

func appendMaybeCapped(buf, data []byte, cap_ int) []byte {
	buf = append(buf, data...)
	if cap_ > 0 && len(buf) > cap_ {
		buf = buf[:cap_]
	}
	return buf
}

func (x *TransparentProxy) classifyStreams(ctx netem.Context, dir netem.Direction, p *packet.Packet, f *proxyFlow, serverPort uint16) {
	if f.class != "" {
		return
	}
	if !f.gateChecked && len(f.stream[0]) >= 4 {
		f.gateChecked = true
		for _, fam := range gateFamilies {
			if RecognizeFamily(fam, f.stream[0]) {
				f.families[fam] = true
			}
		}
	}
	x.searchKeywords(f)
	k0 := 0 // number of rule i's first keyword
	for i := range x.Rules {
		r := &x.Rules[i]
		k0 += len(r.Keywords)
		if !r.AppliesToPort(serverPort) {
			continue
		}
		if x.FirstPacketGate && r.Family != FamilyAny && !f.families[r.Family] {
			continue
		}
		if len(r.Keywords) > 0 && x.ruleMatches(f, r, k0-len(r.Keywords)) {
			f.class = r.Class
			if ctx.Traced() {
				flow := clientKey(dir, p).String()
				rec := ctx.Rec()
				rec.Record(obs.Event{VNS: ctx.VNS(), Kind: obs.KindDPIMatch, Actor: x.Label,
					Label: r.Class, Flow: flow, Value: int64(i)})
				rec.Add(obs.CtrRuleMatches, 1)
				rec.Record(obs.Event{VNS: ctx.VNS(), Kind: obs.KindDPIClassify, Actor: x.Label,
					Label: r.Class, Flow: flow, Value: int64(i)})
				rec.Add(obs.CtrClassifications, 1)
			}
			break
		}
	}
}

// searchKeywords searches the bytes each stream gained since the last
// call for every keyword not yet seen in it (see proxyFlow.kwSeen).
func (x *TransparentProxy) searchKeywords(f *proxyFlow) {
	nkw := 0
	for i := range x.Rules {
		nkw += len(x.Rules[i].Keywords)
	}
	if words := (2*nkw + 63) / 64; len(f.kwSeen) < words {
		f.kwSeen = append(f.kwSeen, make([]uint64, words-len(f.kwSeen))...)
	}
	for di := 0; di < 2; di++ {
		s := f.stream[di]
		if len(s) == f.kwFed[di] {
			continue
		}
		k := 0
		for i := range x.Rules {
			for _, kw := range x.Rules[i].Keywords {
				if !f.seen(di, k) && bytes.Contains(s[max(0, f.kwFed[di]-len(kw)+1):], kw) {
					b := 2*k + di
					f.kwSeen[b/64] |= 1 << (b % 64)
				}
				k++
			}
		}
		f.kwFed[di] = len(s)
	}
}

// seen reports whether keyword k was found in stream[di].
func (f *proxyFlow) seen(di, k int) bool {
	b := 2*k + di
	return f.kwSeen[b/64]&(1<<(b%64)) != 0
}

// ruleMatches reports r.MatchBytes over the rule's direction: stream[0],
// stream[1], or for MatchEither their concatenation, without rescanning
// the streams. k0 numbers r's first keyword; searchKeywords has run. A
// keyword occurs in stream[0] ++ stream[1] exactly when it occurs in
// either stream or in the seam: the last len(kw)-1 bytes of one before
// the first len(kw)-1 of the other.
func (x *TransparentProxy) ruleMatches(f *proxyFlow, r *Rule, k0 int) bool {
	for j, kw := range r.Keywords {
		k := k0 + j
		in0 := len(kw) == 0 || f.seen(0, k)
		in1 := len(kw) == 0 || f.seen(1, k)
		switch r.Dir {
		case MatchC2S:
			if !in0 {
				return false
			}
		case MatchS2C:
			if !in1 {
				return false
			}
		case MatchEither:
			if in0 || in1 {
				continue
			}
			s0, s1 := f.stream[0], f.stream[1]
			x.scratch = append(append(x.scratch[:0], s0[max(0, len(s0)-len(kw)+1):]...), s1[:min(len(s1), len(kw)-1)]...)
			if !bytes.Contains(x.scratch, kw) {
				return false
			}
		}
	}
	return true
}

// drain re-emits newly contiguous stream bytes as clean MTU segments with
// regenerated headers — the proxy's own packets, not the client's. tmpl
// is the inbound segment and at the stream offset ingest appended its
// payload at (-1 if it did not arrive in order). Stream buffers are
// recycled (bufFree), so every chunk is copied into the arena, and the
// segment aliases that copy. A chunk that is exactly the inbound payload
// reuses its payload sum, which the parse verified; any other is summed.
func (x *TransparentProxy) drain(ctx netem.Context, dir netem.Direction, f *proxyFlow, di int, tmpl *packet.Packet, at int) {
	start := f.forwarded[di]
	// Stream offsets are relative to the initial sequence number exp was
	// seeded with; forwarded tracks how many stream bytes went out.
	avail := uint32(len(f.stream[di]))
	if start >= avail {
		return
	}
	base := f.exp[di] - avail // sequence number of stream[0]
	var delay time.Duration
	if f.class != "" && x.ThrottleBps > 0 && di == 1 {
		if f.shaper == nil {
			f.shaper = newShaper(x.ThrottleBps, x.ThrottleBurst)
		}
	}
	for off := start; off < avail; {
		end := off + MSSu32
		if end > avail {
			end = avail
		}
		cp := ctx.Arena().Bytes(int(end - off))
		copy(cp, f.stream[di][off:end])
		sum, ok := tmpl.CachedPayloadSum()
		if !ok || int(off) != at || len(cp) != len(tmpl.Payload) {
			sum = packet.PayloadSum(cp)
		}
		seg := ctx.Arena().NewTCPSummed(tmpl.IP.Src, tmpl.IP.Dst, 0, tmpl.TCP.SrcPort, tmpl.TCP.DstPort,
			base+off, tmpl.TCP.Ack, packet.FlagACK|packet.FlagPSH, cp, sum)
		out := ctx.FrameOf(seg)
		if f.shaper != nil && di == 1 {
			delay = f.shaper.delay(ctx.VNS(), out.Len())
		}
		if delay > 0 {
			if ctx.Traced() {
				rec := ctx.Rec()
				rec.Record(obs.Event{VNS: ctx.VNS(), Kind: obs.KindDPIThrottle, Actor: x.Label,
					Label: f.class, Value: int64(delay)})
				rec.Add(obs.CtrThrottleDelays, 1)
			}
			ctx.ForwardAfter(delay, out)
		} else {
			ctx.Forward(out)
		}
		off = end
	}
	f.forwarded[di] = avail
}

// MSSu32 is the proxy's re-segmentation size.
const MSSu32 = uint32(packet.MTU - 40)
