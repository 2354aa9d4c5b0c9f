package dpi

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/detrand"
	"repro/internal/netem"
	"repro/internal/netem/packet"
	"repro/internal/obs"
)

// Middlebox is the DPI classifier as an in-path element. Classification
// actions (classify, match, block, forged injections, throttle delays,
// blacklisting, flow-table flushes, fault firings) are emitted as typed
// events on the env's obs.Recorder — the observability plane replaced
// the private event log this type used to keep.
type Middlebox struct {
	Label string
	Cfg   Config

	rng       *detrand.Rand
	flows     map[packet.FlowKey]*mbFlow
	blacklist map[hostPort]time.Time
	blCount   map[hostPort]int
	shapers   map[string]*shaper
	reasm     *packet.Reassembler

	// prog is the compiled Aho-Corasick form of Cfg.Rules (nil = naive
	// per-rule scan). Built once at construction, shared read-only across
	// ForkElement copies; never part of Cfg (Fingerprint hashes Cfg).
	prog *ruleProgram
	// bufFree holds stream buffers reclaimed from flows compacted at
	// quiescence, for reuse by new flow records on this instance. Local,
	// never shared with forks (ForkElement builds a fresh struct).
	bufFree [][]byte
	// flowFree recycles evicted flow records (and their stream buffers)
	// so steady-state flow churn allocates nothing.
	flowFree []*mbFlow

	// faultRNG drives the stochastic fault knobs in Cfg.Faults. It is a
	// stream separate from rng so enabling faults cannot shift the draws
	// behind load eviction or RST-count jitter, and it is created lazily
	// on the first fault draw so zero-fault configs never consume it.
	faultRNG *detrand.Rand
	// FaultStats counts fault firings since construction or ResetState.
	FaultStats FaultStats
}

type hostPort struct {
	addr packet.Addr
	port uint16
}

type mbFlow struct {
	clientKey packet.FlowKey
	sawSYN    bool
	dead      bool
	// missed marks a flow the classifier failed to engage on at all
	// (Faults.MissRate): state is tracked but never inspected.
	missed   bool
	class    string
	zeroRate bool // memoized Policies[class].ZeroRate (valid when zrSet)
	zrSet    bool
	lastSeen time.Time
	timeout  time.Duration // effective idle timeout (0 = config default)

	inspected      [2]int // payload packets inspected, per direction
	inspectedBytes [2]int // payload bytes inspected, per direction
	gateChecked    [2]bool
	famBits        uint8 // recognized gate families (famBit bits)
	stream         [2][]byte
	expSeq         [2]uint32
	expValid       [2]bool
	ooo            [2]map[uint32][]byte

	// Compiled-program stream state, per direction: automaton position,
	// sticky pattern hits, and how many stream bytes have been fed.
	acState [2]int32
	kwHits  [2]uint64
	fed     [2]int32
}

// NewMiddlebox builds a classifier element from a config.
func NewMiddlebox(cfg Config) *Middlebox {
	return &Middlebox{
		Label:     cfg.Name,
		Cfg:       cfg,
		rng:       detrand.New(cfg.Seed ^ 0x5eed),
		flows:     make(map[packet.FlowKey]*mbFlow),
		blacklist: make(map[hostPort]time.Time),
		blCount:   make(map[hostPort]int),
		shapers:   make(map[string]*shaper),
		reasm:     packet.NewReassembler(),
		prog:      compileRules(cfg.Rules),
	}
}

// Name implements netem.Element.
func (m *Middlebox) Name() string { return m.Label }

// ResetState clears all flow and blacklist state (between experiments).
// Configuration (including the compiled rule program) is retained.
func (m *Middlebox) ResetState() {
	for _, f := range m.flows {
		m.freeFlow(f)
	}
	m.flows = make(map[packet.FlowKey]*mbFlow)
	m.blacklist = make(map[hostPort]time.Time)
	m.blCount = make(map[hostPort]int)
	m.shapers = make(map[string]*shaper)
	m.reasm.Flush()
	m.FaultStats = FaultStats{}
}

// event emits one classifier event (plus its counter) onto the env's
// recorder. The flow key is stringified only here, after the caller's
// Traced() gate, so disabled recording allocates nothing.
func (m *Middlebox) event(ctx netem.Context, kind obs.Kind, ctr obs.Counter, label string, flow packet.FlowKey, value, aux int64) {
	r := ctx.Rec()
	r.Record(obs.Event{VNS: ctx.VNS(), Kind: kind, Actor: m.Label, Label: label,
		Flow: flow.String(), Value: value, Aux: aux})
	r.Add(ctr, 1)
}

// eventNoFlow is event for emission sites (forged-packet injection) where
// no single flow association exists.
func (m *Middlebox) eventNoFlow(ctx netem.Context, kind obs.Kind, ctr obs.Counter, label string, value, aux int64) {
	r := ctx.Rec()
	r.Record(obs.Event{VNS: ctx.VNS(), Kind: kind, Actor: m.Label, Label: label, Value: value, Aux: aux})
	r.Add(ctr, 1)
}

// ForkElement implements netem.Forkable: the copy continues from the same
// flow tables, blacklist, shaper positions, reassembly buffers, and RNG
// stream position, sharing no mutable state with the original. Cfg is
// shared: rules, policies, and the load model are read-only after
// construction. (Events need no copying here: they live on the env's
// recorder, which Env.Fork forks alongside the element chain.)
func (m *Middlebox) ForkElement() netem.Element {
	c := &Middlebox{
		Label:     m.Label,
		Cfg:       m.Cfg,
		rng:       m.rng.Clone(),
		flows:     make(map[packet.FlowKey]*mbFlow, len(m.flows)),
		blacklist: make(map[hostPort]time.Time, len(m.blacklist)),
		blCount:   make(map[hostPort]int, len(m.blCount)),
		shapers:   make(map[string]*shaper, len(m.shapers)),
		reasm:     m.reasm.Clone(),
		prog:      m.prog, // read-only after compilation
	}
	c.FaultStats = m.FaultStats
	if m.faultRNG != nil {
		c.faultRNG = m.faultRNG.Clone()
	}
	for k, f := range m.flows {
		c.flows[k] = f.clone()
	}
	for k, v := range m.blacklist {
		c.blacklist[k] = v
	}
	for k, v := range m.blCount {
		c.blCount[k] = v
	}
	for k, sh := range m.shapers {
		cp := *sh
		c.shapers[k] = &cp
	}
	return c
}

// clone deep-copies one flow record into a pooled record, reusing the
// recycled record's stream capacity. Trial forks clone every live flow,
// so fork cost is dominated by these copies; drawing from the pool turns
// the per-fork buffer allocations into plain memmoves.
func (f *mbFlow) clone() *mbFlow {
	c := mbFlowPool.Get().(*mbFlow)
	s0, s1 := c.stream[0][:0], c.stream[1][:0]
	*c = *f
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
	return c
}

// FlowClass reports the current classification of the flow with the given
// client-orientation key ("" = unclassified). Ground truth for tests and
// the testbed environment.
func (m *Middlebox) FlowClass(clientKey packet.FlowKey) string {
	ck, _ := clientKey.Canonical()
	if f, ok := m.flows[ck]; ok {
		return f.class
	}
	return ""
}

// IsZeroRated reports whether the flow is currently classified into a
// zero-rated class; the subscriber usage counter consults this.
func (m *Middlebox) IsZeroRated(key packet.FlowKey) bool {
	ck, _ := key.Canonical()
	return m.zeroRatedCanonical(ck)
}

// isZeroRatedPacket is IsZeroRated keyed by the packet's memoized
// canonical flow (the usage counter's per-packet path).
func (m *Middlebox) isZeroRatedPacket(p *packet.Packet) bool {
	ck, _ := p.CanonicalFlow()
	return m.zeroRatedCanonical(ck)
}

func (m *Middlebox) zeroRatedCanonical(ck packet.FlowKey) bool {
	f, ok := m.flows[ck]
	if !ok || f.class == "" {
		return false
	}
	if !f.zrSet {
		// The policy-map lookup hashes a string; once a flow is
		// classified its policy never changes, so memoize per flow.
		f.zeroRate = m.Cfg.Policies[f.class].ZeroRate
		f.zrSet = true
	}
	return f.zeroRate
}

// Process implements netem.Element.
func (m *Middlebox) Process(ctx netem.Context, dir netem.Direction, f *packet.Frame) {
	if f.Len() < 20 {
		ctx.Forward(f)
		return
	}
	p, defects := f.Parse()

	// Wrong-protocol reinterpretation quirk (testbed, note 1): try to read
	// unknown-protocol packets as TCP. The patched copy is private, so the
	// zero-copy parse may alias it.
	if defects.Has(packet.DefectIPProtocol) && m.Cfg.ParseWrongProtoAsTCP && len(p.Payload) >= 20 {
		patched := append([]byte(nil), f.Raw()...)
		patched[9] = packet.ProtoTCP
		if q, qd := packet.InspectView(patched); q.TCP != nil {
			p, defects = q, qd.Add(packet.DefectIPProtocol)
		}
	}

	// Blacklist enforcement precedes everything (GFC residual blocking).
	if m.enforceBlacklist(ctx, dir, p) {
		return
	}

	m.inspectPacket(ctx, dir, p, defects, f.Raw())
	m.forward(ctx, dir, p, f)
}

// ---- inspection ----------------------------------------------------------

func (m *Middlebox) inspectPacket(ctx netem.Context, dir netem.Direction, p *packet.Packet, defects packet.DefectSet, raw []byte) {
	if m.inOutage(ctx) {
		m.FaultStats.OutageSkips++
		if ctx.Traced() {
			m.event(ctx, obs.KindDPIFault, obs.CtrFaults, "outage", m.clientKey(dir, p), 0, 0)
		}
		return
	}
	serverPort := m.serverPort(dir, p)
	if !m.Cfg.inspectsPort(serverPort) {
		return
	}
	if p.UDP != nil && !m.Cfg.ClassifyUDP {
		return
	}
	if p.ICMP != nil {
		return
	}
	// Fragments.
	if p.IP.FragOffset != 0 || p.IP.MoreFragments() {
		if m.Cfg.ReassembleFragments {
			whole, done := m.reasm.Add(raw)
			if !done {
				return
			}
			q, qd := packet.InspectView(whole)
			if q.IP.FragOffset != 0 || q.IP.MoreFragments() {
				return // reassembly could not produce a whole datagram
			}
			m.inspectPacket(ctx, dir, q, qd, whole)
			return
		}
		if p.IP.FragOffset != 0 {
			return // cannot even associate a flow without ports
		}
		// First fragment: fall through and inspect its visible payload.
	}
	// Validation: checked defects make the packet invisible to the
	// classifier.
	if defects.Intersects(m.Cfg.ValidatedDefects) {
		return
	}

	if m.Cfg.Mode == InspectPerPacket {
		m.inspectStateless(ctx, dir, p, serverPort)
		return
	}

	f := m.flowFor(ctx, dir, p)
	if f == nil || f.missed {
		return
	}
	now := ctx.Now()
	f.lastSeen = now
	di := 0
	if dir == netem.ToClient {
		di = 1
	}

	if p.TCP != nil && p.TCP.Flags.Has(packet.FlagRST) {
		m.onRST(ctx, f)
		return
	}
	if f.dead {
		return
	}
	// Handshake packets seed the expected sequence state so that a
	// wrong-sequence first data packet cannot poison a seq-tracking
	// classifier.
	if p.TCP != nil && p.TCP.Flags.Has(packet.FlagSYN) {
		f.expSeq[di] = p.TCP.Seq + 1
		f.expValid[di] = true
	}
	if m.Cfg.RequireSYN && p.TCP != nil && !f.sawSYN {
		return
	}
	if f.class != "" && m.Cfg.MatchAndForget {
		return
	}
	payload := p.Payload
	if len(payload) == 0 {
		return
	}
	if m.Cfg.Mode == InspectWindow {
		if m.Cfg.WindowBytes > 0 {
			if f.inspectedBytes[di] >= m.Cfg.WindowBytes {
				return
			}
		} else if f.inspected[di] >= m.Cfg.WindowPackets {
			return
		}
	}

	// Sequence handling.
	if m.Cfg.TrackSeq && p.TCP != nil {
		if !f.expValid[di] {
			f.expSeq[di] = p.TCP.Seq
			f.expValid[di] = true
		}
		if !inWindow32(p.TCP.Seq, f.expSeq[di], 65535) && !inWindowTail(p.TCP.Seq, uint32(len(payload)), f.expSeq[di]) {
			return // out-of-window: invisible to a seq-tracking classifier
		}
	}

	f.inspected[di]++
	f.inspectedBytes[di] += len(payload)
	idx := f.inspected[di] - 1

	var inspectBuf []byte
	perPacket := false // inspectBuf is this packet's payload, not a stream
	switch m.Cfg.Reassembly {
	case ReassembleNone:
		inspectBuf = payload
		perPacket = true
	case ReassembleArrival:
		f.stream[di] = appendCapped(f.stream[di], payload, m.streamCap())
		inspectBuf = f.stream[di]
	case ReassembleSeq:
		if p.TCP != nil {
			m.seqInsert(f, di, p.TCP.Seq, payload)
		} else {
			f.stream[di] = appendCapped(f.stream[di], payload, m.streamCap())
		}
		inspectBuf = f.stream[di]
	}

	// Protocol gate: for per-packet and arrival-order classifiers the gate
	// is judged on the first inspected c2s payload packet; for
	// sequence-reassembling classifiers it is judged on the contiguous
	// stream head once at least 4 bytes have arrived (so reordering alone
	// cannot blind the gate).
	if di == 0 && !f.gateChecked[0] {
		var head []byte
		eval := false
		if m.Cfg.Reassembly == ReassembleSeq && p.TCP != nil {
			if len(f.stream[0]) >= 4 {
				head, eval = f.stream[0], true
			}
		} else {
			head, eval = payload, true
		}
		if eval {
			f.gateChecked[0] = true
			for _, fam := range gateFamilies {
				ok := RecognizeFamily(fam, head)
				if !ok && !m.Cfg.GateStrict && m.Cfg.Reassembly != ReassembleSeq {
					ok = FamilyViable(fam, head)
				}
				if ok {
					f.famBits |= famBit(fam)
				}
			}
		}
	}

	// One automaton pass over the inspected bytes replaces the per-rule
	// bytes.Contains scan. Per-packet modes feed the payload from the root
	// state; stream modes feed only the bytes that arrived since the last
	// inspection, carrying state and sticky hits per flow direction
	// (streams are append-only, so sticky hits ≡ a full rescan).
	pg := m.prog
	var hits uint64
	if pg != nil {
		if perPacket {
			hits = pg.matchOnce(inspectBuf)
		} else {
			if n := int32(len(inspectBuf)); n > f.fed[di] {
				f.acState[di], f.kwHits[di] = pg.feed(f.acState[di], inspectBuf[f.fed[di]:], f.kwHits[di])
				f.fed[di] = n
			}
			hits = f.kwHits[di]
		}
	}

	for i := range m.Cfg.Rules {
		r := &m.Cfg.Rules[i]
		if f.class != "" && m.Cfg.MatchAndForget {
			break
		}
		if !m.ruleApplies(r, dirIdxToMatchDir(di), serverPort) {
			continue
		}
		if m.Cfg.FirstPacketGate && r.Family != FamilyAny && f.famBits&famBit(r.Family) == 0 {
			continue
		}
		if r.AnchorPacket >= 0 && m.Cfg.Reassembly == ReassembleNone && idx != r.AnchorPacket {
			continue
		}
		matched := false
		if pg != nil {
			matched = hits&pg.ruleMask[i] == pg.ruleMask[i]
		} else {
			matched = r.MatchBytes(inspectBuf)
		}
		if matched {
			m.classify(ctx, dir, f, r.Class, p, i)
		}
	}
}

// inspectStateless implements Iran's per-packet matcher: every packet is
// judged in isolation, forever, with no flow state.
func (m *Middlebox) inspectStateless(ctx netem.Context, dir netem.Direction, p *packet.Packet, serverPort uint16) {
	if len(p.Payload) == 0 {
		return
	}
	di := 0
	if dir == netem.ToClient {
		di = 1
	}
	pg := m.prog
	// The payload is scanned once, on the first rule that applies: most
	// packets (every server payload, for a client-to-server rule set) have
	// no applicable rule and are never scanned.
	var hits uint64
	scanned := false
	for i := range m.Cfg.Rules {
		r := &m.Cfg.Rules[i]
		if !m.ruleApplies(r, dirIdxToMatchDir(di), serverPort) {
			continue
		}
		matched := false
		if pg != nil {
			if !scanned {
				hits, scanned = pg.matchOnce(p.Payload), true
			}
			matched = hits&pg.ruleMask[i] == pg.ruleMask[i]
		} else {
			matched = r.MatchBytes(p.Payload)
		}
		if matched {
			m.actStateless(ctx, dir, p, r.Class, i)
		}
	}
}

func (m *Middlebox) ruleApplies(r *Rule, d MatchDir, serverPort uint16) bool {
	if !r.AppliesToPort(serverPort) {
		return false
	}
	switch r.Dir {
	case MatchEither:
		return true
	default:
		return r.Dir == d
	}
}

func dirIdxToMatchDir(di int) MatchDir {
	if di == 0 {
		return MatchC2S
	}
	return MatchS2C
}

func (m *Middlebox) streamCap() int {
	if m.Cfg.StreamCap > 0 {
		return m.Cfg.StreamCap
	}
	return 16 << 10
}

func appendCapped(buf, data []byte, cap_ int) []byte {
	buf = append(buf, data...)
	if len(buf) > cap_ {
		buf = buf[:cap_]
	}
	return buf
}

// seqInsert performs first-copy-wins sequence-ordered reassembly into
// f.stream[di].
func (m *Middlebox) seqInsert(f *mbFlow, di int, seq uint32, payload []byte) {
	if !f.expValid[di] {
		f.expSeq[di] = seq
		f.expValid[di] = true
	}
	if f.ooo[di] == nil {
		f.ooo[di] = make(map[uint32][]byte)
	}
	switch {
	case seq == f.expSeq[di]:
		f.stream[di] = appendCapped(f.stream[di], payload, m.streamCap())
		f.expSeq[di] += uint32(len(payload))
	case inWindow32(seq, f.expSeq[di], 65535):
		if _, dup := f.ooo[di][seq]; !dup {
			f.ooo[di][seq] = append([]byte(nil), payload...)
		}
	case inWindowTail(seq, uint32(len(payload)), f.expSeq[di]):
		// Overlapping retransmission: first copy wins; accept only the
		// genuinely new tail.
		tail := payload[f.expSeq[di]-seq:]
		f.stream[di] = appendCapped(f.stream[di], tail, m.streamCap())
		f.expSeq[di] += uint32(len(tail))
	default:
		return
	}
	drainOOO(f.ooo[di], &f.stream[di], &f.expSeq[di], m.streamCap())
}

func inWindow32(seq, base, win uint32) bool { return seq-base < win }

// inWindowTail reports whether [seq, seq+l) overlaps base from the left.
func inWindowTail(seq, l, base uint32) bool {
	return seq-base >= 1<<31 && seq+l-base < 1<<31 && seq+l != base
}

// ---- flow state ----------------------------------------------------------

func (m *Middlebox) serverPort(dir netem.Direction, p *packet.Packet) uint16 {
	k := p.Flow()
	if dir == netem.ToServer {
		return k.DstPort
	}
	return k.SrcPort
}

func (m *Middlebox) clientKey(dir netem.Direction, p *packet.Packet) packet.FlowKey {
	k := p.Flow()
	if dir == netem.ToClient {
		k = k.Reverse()
	}
	return k
}

// flowFor fetches or creates flow state, applying idle/load eviction.
func (m *Middlebox) flowFor(ctx netem.Context, dir netem.Direction, p *packet.Packet) *mbFlow {
	clientKey := m.clientKey(dir, p)
	ck, _ := p.CanonicalFlow()
	now := ctx.Now()
	f, ok := m.flows[ck]
	if ok {
		idle := now.Sub(f.lastSeen)
		reason := "" // empty = keep; otherwise the eviction cause
		to := f.timeout
		if to == 0 {
			to = m.Cfg.FlowTimeout
		}
		if to > 0 && idle > to {
			reason = "idle"
		}
		if reason == "" && m.Cfg.Load != nil && idle > 0 {
			if m.rng.Float64() < m.Cfg.Load.EvictProb(ctx.HourOfDay(), idle) {
				reason = "load"
			}
		}
		if reason != "" {
			if ctx.Traced() {
				m.event(ctx, obs.KindDPIFlush, obs.CtrFlowEvictions, reason, f.clientKey, 0, 0)
			}
			delete(m.flows, ck)
			m.freeFlow(f)
			ok = false
		}
	}
	if !ok {
		isSYN := p.TCP != nil && p.TCP.Flags.Has(packet.FlagSYN) && !p.TCP.Flags.Has(packet.FlagACK) && dir == netem.ToServer
		f = m.newFlowRecord(ctx, clientKey, isSYN || p.TCP == nil, now)
		m.flows[ck] = f
		m.enforceFlowCap(ctx, ck)
	} else if p.TCP != nil && p.TCP.Flags.Has(packet.FlagSYN) && !p.TCP.Flags.Has(packet.FlagACK) && dir == netem.ToServer {
		// Fresh handshake on a stale tuple: restart the flow record.
		m.freeFlow(f)
		nf := m.newFlowRecord(ctx, clientKey, true, now)
		m.flows[ck] = nf
		return nf
	}
	return f
}

// Quiesce implements netem.Quiescer: with the path idle every flow is
// finished, so reassembly scratch compacts away. Classification verdicts,
// gate state, and automaton positions survive — ground truth stays
// queryable — while fork clones and stream appends stop paying for dead
// connection history.
func (m *Middlebox) Quiesce() {
	for _, f := range m.flows {
		m.compactFlow(f)
	}
}

// compactFlow sheds a dead flow's reassembly buffers into the local free
// list. Emptying the stream requires resetting fed (bytes of stream
// already fed to the rule automaton) to keep its invariant fed ≤
// len(stream); acState and kwHits keep the automaton's verdict-relevant
// position.
func (m *Middlebox) compactFlow(f *mbFlow) {
	for di := 0; di < 2; di++ {
		if c := f.stream[di]; cap(c) > 0 {
			m.bufFree = append(m.bufFree, c[:0])
		}
		f.stream[di] = nil
		f.ooo[di] = nil
		f.fed[di] = 0
	}
}

// clearFlow resets a flow record for reuse. Stream buffer capacity is
// kept so a recycled flow's reassembly does not reallocate; out-of-order
// maps are dropped (rare, unbounded key sets).
func clearFlow(f *mbFlow) {
	s0, s1 := f.stream[0][:0], f.stream[1][:0]
	*f = mbFlow{}
	f.stream[0], f.stream[1] = s0, s1
}

// freeFlow resets a flow record and returns it to the free list.
func (m *Middlebox) freeFlow(f *mbFlow) {
	clearFlow(f)
	m.flowFree = append(m.flowFree, f)
}

// mbFlowPool recycles flow records (with their grown stream buffers)
// across middlebox instances. Trial forks live for a single trial, so
// their local flowFree lists never warm up; without the process-wide pool
// every fork re-grows each flow's reassembly buffers from zero, which
// dominated the allocation profile.
var mbFlowPool = sync.Pool{New: func() any { return new(mbFlow) }}

// Release returns all flow records — live and free-listed — to the
// process-wide pool. Like Arena.Release, it may hand the records to a
// different goroutine, so it is legal only when the middlebox is dead:
// its trial finished and every result derived from it has been read.
func (m *Middlebox) Release() {
	for _, f := range m.flows {
		clearFlow(f)
		mbFlowPool.Put(f)
	}
	clear(m.flows)
	for i, f := range m.flowFree {
		mbFlowPool.Put(f)
		m.flowFree[i] = nil
	}
	m.flowFree = m.flowFree[:0]
}

// newFlowRecord allocates flow state, applying the per-flow classifier
// miss draw (Faults.MissRate). Every new flow costs exactly one draw when
// the knob is active, so the fault stream's position depends only on the
// flow-creation sequence.
func (m *Middlebox) newFlowRecord(ctx netem.Context, clientKey packet.FlowKey, sawSYN bool, now time.Time) *mbFlow {
	var f *mbFlow
	if n := len(m.flowFree); n > 0 {
		f = m.flowFree[n-1]
		m.flowFree = m.flowFree[:n-1]
	} else {
		f = mbFlowPool.Get().(*mbFlow)
	}
	for di := 0; di < 2; di++ {
		if n := len(m.bufFree); cap(f.stream[di]) == 0 && n > 0 {
			f.stream[di] = m.bufFree[n-1]
			m.bufFree[n-1] = nil
			m.bufFree = m.bufFree[:n-1]
		}
	}
	f.clientKey = clientKey
	f.sawSYN = sawSYN
	f.lastSeen = now
	if r := m.Cfg.Faults.MissRate; r > 0 && m.faultRand().Float64() < r {
		f.missed = true
		m.FaultStats.FlowsMissed++
		if ctx.Traced() {
			m.event(ctx, obs.KindDPIFault, obs.CtrFaults, "miss", clientKey, 0, int64(m.faultRand().Steps()))
		}
	}
	return f
}

// enforceFlowCap evicts the least-recently-seen flow once the table
// exceeds Faults.FlowTableCap, sparing the flow just inserted. Ties on
// lastSeen break by flow key so eviction is independent of map iteration
// order.
func (m *Middlebox) enforceFlowCap(ctx netem.Context, justAdded packet.FlowKey) {
	cap_ := m.Cfg.Faults.FlowTableCap
	if cap_ <= 0 || len(m.flows) <= cap_ {
		return
	}
	var victim packet.FlowKey
	var vf *mbFlow
	for k, f := range m.flows {
		if k == justAdded {
			continue
		}
		if vf == nil || f.lastSeen.Before(vf.lastSeen) ||
			(f.lastSeen.Equal(vf.lastSeen) && k.Less(victim)) {
			victim, vf = k, f
		}
	}
	if vf == nil {
		return
	}
	if ctx.Traced() {
		m.event(ctx, obs.KindDPIFlush, obs.CtrFlowEvictions, "lru", vf.clientKey, 0, 0)
	}
	delete(m.flows, victim)
	m.freeFlow(vf)
	m.FaultStats.LRUEvictions++
}

// inOutage reports whether the classifier is inside a transient outage
// window. Outages are a pure function of the virtual clock — no RNG — so
// they reproduce exactly under Fork().
func (m *Middlebox) inOutage(ctx netem.Context) bool {
	fl := m.Cfg.Faults
	if fl.OutageEvery <= 0 || fl.OutageFor <= 0 {
		return false
	}
	phase := ctx.Now().UnixNano() % int64(fl.OutageEvery)
	if phase < 0 {
		phase += int64(fl.OutageEvery)
	}
	return phase < int64(fl.OutageFor)
}

// faultRand returns the dedicated fault RNG, creating it on first use.
func (m *Middlebox) faultRand() *detrand.Rand {
	if m.faultRNG == nil {
		m.faultRNG = detrand.New(m.Cfg.Seed ^ 0xfa17)
	}
	return m.faultRNG
}

func (m *Middlebox) onRST(ctx netem.Context, f *mbFlow) {
	switch m.Cfg.RST {
	case RSTIgnored:
	case RSTKillsFlow:
		f.dead = true
		if f.class != "" && ctx.Traced() {
			m.event(ctx, obs.KindDPIFlush, obs.CtrFlowEvictions, "rst", f.clientKey, 0, 0)
		}
		f.class = ""
	case RSTShortensTimeout:
		f.timeout = m.Cfg.RSTTimeout
	case RSTKillsUnclassifiedOnly:
		if f.class == "" {
			f.dead = true
		}
	}
}

// ---- actions -------------------------------------------------------------

func (m *Middlebox) classify(ctx netem.Context, dir netem.Direction, f *mbFlow, class string, trigger *packet.Packet, ruleIdx int) {
	if f.class == class {
		return
	}
	f.class = class
	if ctx.Traced() {
		m.event(ctx, obs.KindDPIMatch, obs.CtrRuleMatches, class, f.clientKey, int64(ruleIdx), 0)
		m.event(ctx, obs.KindDPIClassify, obs.CtrClassifications, class, f.clientKey, int64(ruleIdx), 0)
	}
	pol := m.Cfg.Policies[class]
	if pol.Block {
		m.injectBlock(ctx, dir, trigger, pol)
		if ctx.Traced() {
			m.event(ctx, obs.KindDPIBlock, obs.CtrBlocks, class, f.clientKey, 0, 0)
		}
		hp := hostPort{addr: f.clientKey.Dst, port: f.clientKey.DstPort}
		if pol.BlacklistAfter > 0 {
			m.blCount[hp]++
			if m.blCount[hp] >= pol.BlacklistAfter {
				m.blacklist[hp] = ctx.Now().Add(pol.BlacklistFor)
				if ctx.Traced() {
					m.event(ctx, obs.KindDPIBlacklist, obs.CtrBlacklistAdds, "add", f.clientKey, 0, 0)
				}
			}
		}
	}
}

func (m *Middlebox) actStateless(ctx netem.Context, dir netem.Direction, trigger *packet.Packet, class string, ruleIdx int) {
	if ctx.Traced() {
		m.event(ctx, obs.KindDPIMatch, obs.CtrRuleMatches, class, m.clientKey(dir, trigger), int64(ruleIdx), 0)
		m.event(ctx, obs.KindDPIBlock, obs.CtrBlocks, class, m.clientKey(dir, trigger), 0, 0)
	}
	pol := m.Cfg.Policies[class]
	if pol.Block {
		m.injectBlock(ctx, dir, trigger, pol)
	}
}

// injectBlock forges the censor's teardown packets, sequenced off the
// triggering packet so endpoints accept them.
func (m *Middlebox) injectBlock(ctx netem.Context, dir netem.Direction, trigger *packet.Packet, pol Policy) {
	if trigger.TCP == nil {
		return
	}
	t := trigger.TCP
	var clientAddr, serverAddr packet.Addr
	var clientPort, serverPort uint16
	var cliSeq, srvSeq uint32
	if dir == netem.ToServer {
		clientAddr, serverAddr = trigger.IP.Src, trigger.IP.Dst
		clientPort, serverPort = t.SrcPort, t.DstPort
		srvSeq = t.Seq + uint32(len(trigger.Payload)) // forged "from client" seq
		cliSeq = t.Ack                                // forged "from server" seq
	} else {
		clientAddr, serverAddr = trigger.IP.Dst, trigger.IP.Src
		clientPort, serverPort = t.DstPort, t.SrcPort
		srvSeq = t.Ack
		cliSeq = t.Seq + uint32(len(trigger.Payload))
	}

	if pol.BlockPage403 {
		page := blockPage()
		bp := packet.NewTCP(serverAddr, clientAddr, serverPort, clientPort, cliSeq, srvSeq, packet.FlagACK|packet.FlagPSH, page)
		m.sendForged(ctx, true, packet.FrameOf(bp))
		cliSeq += uint32(len(page))
	}
	n := pol.BlockRSTs
	if n <= 0 {
		n = 1
	}
	if pol.BlockRSTs >= 3 {
		// The GFC sends 3–5 RSTs; vary deterministically.
		n = pol.BlockRSTs + m.rng.Intn(3)
	}
	for i := 0; i < n; i++ {
		rstC := packet.NewTCP(serverAddr, clientAddr, serverPort, clientPort, cliSeq, srvSeq, packet.FlagRST|packet.FlagACK, nil)
		m.sendForged(ctx, true, packet.FrameOf(rstC))
	}
	rstS := packet.NewTCP(clientAddr, serverAddr, clientPort, serverPort, srvSeq, cliSeq, packet.FlagRST|packet.FlagACK, nil)
	m.sendForged(ctx, false, packet.FrameOf(rstS))
}

// sendForged injects one forged teardown packet, subject to the
// drop-then-delay fault draws (Faults.RSTDropRate / RSTDelayRate). The
// draw order is fixed so a given fault stream position is stable, and no
// draw happens while both rates are zero.
func (m *Middlebox) sendForged(ctx netem.Context, toClient bool, f *packet.Frame) {
	fl := m.Cfg.Faults
	if fl.RSTDropRate > 0 && m.faultRand().Float64() < fl.RSTDropRate {
		m.FaultStats.RSTsDropped++
		if ctx.Traced() {
			m.eventNoFlow(ctx, obs.KindDPIFault, obs.CtrFaults, "rst-drop", int64(f.Len()), int64(m.faultRand().Steps()))
		}
		return
	}
	send := func() {
		if ctx.Traced() {
			// Recorded at send time, so a delayed injection's timestamp is
			// the instant the forged packet actually enters the path.
			lbl := "to-server"
			if toClient {
				lbl = "to-client"
			}
			m.eventNoFlow(ctx, obs.KindDPIInject, obs.CtrForgedPackets, lbl, int64(f.Len()), 0)
		}
		if toClient {
			ctx.SendToClient(f)
		} else {
			ctx.SendToServer(f)
		}
	}
	if fl.RSTDelayRate > 0 && m.faultRand().Float64() < fl.RSTDelayRate {
		m.FaultStats.RSTsDelayed++
		d := fl.RSTDelay
		if d <= 0 {
			d = 200 * time.Millisecond
		}
		if ctx.Traced() {
			m.eventNoFlow(ctx, obs.KindDPIFault, obs.CtrFaults, "rst-delay", int64(d), int64(m.faultRand().Steps()))
		}
		ctx.Schedule(d, send)
		return
	}
	send()
}

func (m *Middlebox) enforceBlacklist(ctx netem.Context, dir netem.Direction, p *packet.Packet) bool {
	if len(m.blacklist) == 0 || p.TCP == nil {
		return false
	}
	var hp hostPort
	if dir == netem.ToServer {
		hp = hostPort{addr: p.IP.Dst, port: p.TCP.DstPort}
	} else {
		hp = hostPort{addr: p.IP.Src, port: p.TCP.SrcPort}
	}
	until, ok := m.blacklist[hp]
	if !ok {
		return false
	}
	if ctx.Now().After(until) {
		delete(m.blacklist, hp)
		delete(m.blCount, hp)
		return false
	}
	if ctx.Traced() {
		m.event(ctx, obs.KindDPIBlacklist, obs.CtrBlocks, "enforce", m.clientKey(dir, p), 0, 0)
	}
	if dir == netem.ToServer {
		rst := packet.NewTCP(hp.addr, p.IP.Src, p.TCP.DstPort, p.TCP.SrcPort, p.TCP.Ack, p.TCP.Seq+uint32(len(p.Payload)), packet.FlagRST|packet.FlagACK, nil)
		m.sendForged(ctx, true, packet.FrameOf(rst))
	}
	return true
}

// ---- forwarding & policy -------------------------------------------------

func (m *Middlebox) forward(ctx netem.Context, dir netem.Direction, p *packet.Packet, f *packet.Frame) {
	class := ""
	if m.Cfg.Mode != InspectPerPacket {
		ck, _ := p.CanonicalFlow()
		if fl, ok := m.flows[ck]; ok {
			class = fl.class
		}
	}
	if class == "" {
		ctx.Forward(f)
		return
	}
	pol := m.Cfg.Policies[class]
	if pol.ThrottleBps > 0 {
		sh := m.shapers[class]
		if sh == nil {
			sh = newShaper(pol.ThrottleBps, pol.ThrottleBurst)
			m.shapers[class] = sh
		}
		d := sh.delay(ctx.Now(), f.Len())
		if d > 0 {
			if ctx.Traced() {
				m.event(ctx, obs.KindDPIThrottle, obs.CtrThrottleDelays, class, m.clientKey(dir, p), int64(d), 0)
			}
			ctx.ForwardAfter(d, f)
			return
		}
	}
	ctx.Forward(f)
}

// blockPage renders Iran's unsolicited 403 (kept local to avoid an
// appproto dependency cycle; content mirrors appproto.BlockPage403).
func blockPage() []byte {
	body := "<html><head><title>403 Forbidden</title></head><body>M14.8</body></html>"
	head := fmt.Sprintf("HTTP/1.1 403 Forbidden\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n", len(body))
	return append([]byte(head), body...)
}

// shaper is a token bucket.
type shaper struct {
	rate   float64 // bytes/sec
	burst  float64
	tokens float64
	last   time.Time
	// nextFree serializes queued packets so ordering is preserved.
	nextFree time.Time
}

func newShaper(bps float64, burstBytes int) *shaper {
	if burstBytes <= 0 {
		burstBytes = 48 << 10
	}
	return &shaper{rate: bps / 8, burst: float64(burstBytes), tokens: float64(burstBytes)}
}

// delay returns how long a packet of n bytes must wait.
func (s *shaper) delay(now time.Time, n int) time.Duration {
	if s.last.IsZero() {
		s.last = now
	}
	s.tokens += now.Sub(s.last).Seconds() * s.rate
	if s.tokens > s.burst {
		s.tokens = s.burst
	}
	s.last = now
	s.tokens -= float64(n)
	var d time.Duration
	if s.tokens < 0 {
		d = time.Duration(-s.tokens / s.rate * float64(time.Second))
	}
	at := now.Add(d)
	if at.Before(s.nextFree) {
		at = s.nextFree
		d = at.Sub(now)
	}
	s.nextFree = at
	return d
}
