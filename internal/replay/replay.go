// Package replay drives recorded application traces across a simulated
// network and reports the client-observable signals lib·erate's detection
// and characterization phases consume: throughput, blocking (RSTs, block
// pages), content integrity, data-usage counter movement, and raw
// server-side packet capture for the "Reaches Server?" judgment.
//
// It is the simulator analogue of the paper's replay client/server pair
// (Figure 3, step 2): the server knows the trace script and plays the
// server role; the client plays the client role through an optional
// evasion transform.
package replay

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/dpi"
	"repro/internal/netem/packet"
	"repro/internal/netem/stack"
	"repro/internal/trace"
)

// Options configures one replay.
type Options struct {
	Net   *dpi.Network
	Trace *trace.Trace
	// ClientPort is the client source port; callers vary it per replay so
	// each replay is a fresh flow.
	ClientPort uint16
	// ServerPort overrides the trace's server port when nonzero (the GFC
	// characterization workaround and the Iran/AT&T port experiments).
	ServerPort uint16
	// ServerOS selects the replay server's OS validation profile
	// (defaults to Linux).
	ServerOS *stack.OSProfile
	// Transform installs an evasion technique on the client flow.
	Transform stack.OutgoingTransform
	// ServerTransform installs an evasion technique on the server side of
	// the flow (the paper's server-only deployment mode).
	ServerTransform stack.OutgoingTransform
	// PostWriteDelay inserts a pause after the write with this index
	// completes (classification-flushing probes). Ignored when
	// PostWriteDelay.Delay is zero.
	PostWriteDelay PostDelay
	// ExtraBudget extends the run horizon for replays with long pauses.
	ExtraBudget time.Duration
	// Reliable arms TCP retransmission on both endpoints (for lossy-path
	// robustness experiments). Off by default: the clean simulated paths
	// never need it and techniques stay byte-deterministic.
	Reliable bool
}

// PostDelay describes a pause inserted between application writes.
// AfterWrite -1 pauses between connection establishment and the first
// write (the paper's "pause before match" probe).
type PostDelay struct {
	AfterWrite int // client write index after which to pause; -1 = before first
	Delay      time.Duration
}

// Result is everything the client side can observe from one replay, plus
// ground-truth fields (marked as such) that only tests and experiment
// tables read.
type Result struct {
	// Completed: every scripted message was exchanged.
	Completed bool
	// IntegrityOK: the server received exactly the client's scripted
	// stream and the client received exactly the server's.
	IntegrityOK bool
	// Blocked signals: connection reset, 403 page, or handshake failure.
	Blocked    bool
	RSTsSeen   int
	Got403     bool
	CloseState string

	// Throughput of server→client application data.
	AvgThroughputBps  float64
	PeakThroughputBps float64
	// TailThroughputBps measures only the s2c data that arrived after the
	// client's final write — the signal the classification-flushing probes
	// use to judge whether the *rest* of a flow is still differentiated.
	TailThroughputBps float64
	Duration          time.Duration

	// Wire accounting at the client.
	BytesOut int64
	BytesIn  int64

	// CounterDelta is the subscriber-counter movement (noisy; -1 when the
	// network has no counter).
	CounterDelta int64

	// ServerArrivals is the replay server's raw packet capture — the
	// paper's tcpdump-at-the-server for the RS? column.
	ServerArrivals []stack.Arrival

	// ServerAppBytes counts application-layer bytes the server actually
	// delivered to its application (stream bytes for TCP, datagram bytes
	// for UDP). Zero means the client's request never functionally
	// arrived — e.g. fragments silently dropped in-path.
	ServerAppBytes int

	// GroundTruthClass is the classifier's final class for the flow.
	// Tests and tables only; lib·erate never reads it outside the testbed
	// (where the paper also had direct access to classification results).
	GroundTruthClass string

	FlowKey packet.FlowKey
}

// script is the replay plan of one trace, built once per trace and shared
// by every replay of it (trace.Memo), so nothing here is rebuilt or
// concatenated per replay.
type script struct {
	// client and server are each side's writes in trace order, each gated
	// on how many bytes its writer must first have received from the peer.
	client, server []scriptStep
	// c2sLen and s2cLen are the lengths of the expected client→server and
	// server→client streams.
	c2sLen, s2cLen int

	blockOnce sync.Once
	blockPage bool // the trace's own s2c stream contains blockLine
}

type scriptStep struct {
	// need is how many bytes the writer must have received from its peer
	// before sending data.
	need int
	data []byte
	// segSums is the trace's precomputed per-MSS payload partial-sum
	// table for data, when still valid (trace.Message.CheckedSegSums).
	segSums []uint32
}

// blockLine is the status line of the block page a censor injects.
const blockLine = "HTTP/1.1 403 Forbidden"

// scriptKey is the key of the replay script in a trace's memo slot.
type scriptKey struct{}

// scriptOf returns tr's memoized replay plan.
func scriptOf(tr *trace.Trace) *script {
	return tr.Memo(scriptKey{}, buildScript).(*script)
}

func buildScript(tr *trace.Trace) any {
	s := &script{}
	for _, m := range tr.Messages {
		if m.Dir == trace.ClientToServer {
			s.client = append(s.client, scriptStep{need: s.s2cLen, data: m.Data, segSums: m.CheckedSegSums()})
			s.c2sLen += len(m.Data)
		} else {
			s.server = append(s.server, scriptStep{need: s.c2sLen, data: m.Data, segSums: m.CheckedSegSums()})
			s.s2cLen += len(m.Data)
		}
	}
	return s
}

// servesBlockPage reports whether the trace's own server stream contains
// the block page's status line, in which case receiving it proves
// nothing. It is computed on first need: only replays that received the
// line ask.
func (s *script) servesBlockPage() bool {
	s.blockOnce.Do(func() {
		var stream []byte
		for _, st := range s.server {
			stream = append(stream, st.data...)
		}
		s.blockPage = bytes.Contains(stream, []byte(blockLine))
	})
	return s.blockPage
}

// carryLen is how many bytes of a stream's past a block-line search must
// see: any occurrence that started earlier has already been seen whole.
const carryLen = len(blockLine) - 1

// streamCheck judges one direction of a replay as its in-order bytes
// arrive, against the steps the peer's script sends, and stores none of
// them. Datagram boundaries do not matter: a UDP write larger than one
// MTU legitimately arrives split, so both protocols judge the joined
// stream.
type streamCheck struct {
	steps []scriptStep
	total int // length of the scripted stream
	n     int // bytes received so far
	// While every received byte has matched, the next one is expected at
	// steps[step].data[off]; diverged records the first mismatch.
	step, off int
	diverged  bool
	// scan asks whether blockLine arrived (TCP server→client only). An
	// occurrence inside the matching prefix would be the trace's own and
	// prove nothing, so the search starts at the first mismatch, joined
	// to carry, the stream's last carryLen bytes before the searched ones
	// (taken from the script at the mismatch, from deliveries after it).
	scan   bool
	found  bool
	carry  [carryLen]byte
	carryN int
}

// intact reports whether exactly the scripted stream arrived.
func (c *streamCheck) intact() bool { return !c.diverged && c.n == c.total }

// got403 reports a block page the trace itself does not serve: exactly
// bytes.Contains(received, blockLine) && !sc.servesBlockPage().
func (c *streamCheck) got403(sc *script) bool { return c.found && !sc.servesBlockPage() }

// feed takes the next in-order delivery.
func (c *streamCheck) feed(d []byte) {
	c.n += len(d)
	if !c.diverged {
		i := c.match(d)
		if i == len(d) {
			return
		}
		c.diverged = true
		if !c.scan {
			return
		}
		// An occurrence that matters holds a byte at or past the mismatch:
		// search from there, with the bytes before it in carry.
		c.carryScript()
		d = d[i:]
	}
	if c.scan && !c.found {
		var seam [2 * carryLen]byte
		s := append(append(seam[:0], c.carry[:c.carryN]...), d[:min(len(d), carryLen)]...)
		c.found = bytes.Contains(s, []byte(blockLine)) || bytes.Contains(d, []byte(blockLine))
		c.keep(d)
	}
}

// match advances the matched position over the leading bytes of d that
// agree with the steps and returns how many it passed; a result short of
// len(d) is at most the offset of d's first mismatching byte.
func (c *streamCheck) match(d []byte) int {
	i := 0
	for i < len(d) && c.step < len(c.steps) {
		want := c.steps[c.step].data[c.off:]
		k := min(len(want), len(d)-i)
		if !bytes.Equal(d[i:i+k], want[:k]) {
			return i
		}
		i += k
		c.off += k
		if c.off == len(c.steps[c.step].data) {
			c.step, c.off = c.step+1, 0
		}
	}
	return i
}

// carryScript fills carry with the carryLen bytes before the matched
// position, which are the script's own.
func (c *streamCheck) carryScript() {
	end := carryLen
	for st, off := c.step, c.off; end > 0; {
		if off == 0 {
			if st == 0 {
				break
			}
			st--
			off = len(c.steps[st].data)
			continue
		}
		k := min(end, off)
		copy(c.carry[end-k:end], c.steps[st].data[off-k:off])
		end, off = end-k, off-k
	}
	c.carryN = copy(c.carry[:], c.carry[end:])
}

// keep slides d into carry.
func (c *streamCheck) keep(d []byte) {
	if len(d) >= carryLen {
		c.carryN = copy(c.carry[:], d[len(d)-carryLen:])
		return
	}
	drop := max(0, c.carryN+len(d)-carryLen)
	c.carryN = copy(c.carry[:], c.carry[drop:c.carryN])
	c.carryN += copy(c.carry[c.carryN:], d)
}

type serverApp struct {
	sc        *script
	released  int // server steps released
	received  int // stream bytes from every connection on the port
	transform stack.OutgoingTransform
	// c2s judges the replay flow's connection only.
	srv  *stack.Server
	flow packet.FlowKey
	c2s  *streamCheck
}

func (a *serverApp) OnStream(c *stack.ServerConn, data []byte) {
	if a.transform != nil && c.Transform == nil {
		c.Transform = a.transform
	}
	if c == a.srv.ConnFor(a.flow) {
		a.c2s.feed(data)
	}
	a.received += len(data)
	a.release(c)
}

func (a *serverApp) OnClose(c *stack.ServerConn, reason string) {}

// release sends every server message whose client-byte precondition is met.
func (a *serverApp) release(c *stack.ServerConn) {
	for a.released < len(a.sc.server) {
		st := a.sc.server[a.released]
		if a.received < st.need {
			return
		}
		a.released++
		c.SendSummed(st.data, st.segSums)
	}
}

// dgramApp is the UDP replay server. Its c2s check sees every datagram on
// the port, and its byte count gates the server's writes.
type dgramApp struct {
	sc       *script
	released int
	c2s      *streamCheck
}

func (a *dgramApp) OnDatagram(s *stack.Server, src packet.Addr, srcPort, dstPort uint16, data []byte) {
	a.c2s.feed(data)
	for a.released < len(a.sc.server) {
		st := a.sc.server[a.released]
		if a.c2s.n < st.need {
			return
		}
		a.released++
		s.SendDatagramSummed(src, dstPort, srcPort, st.data, st.segSums)
	}
}

// Run replays the trace and returns the observed result.
func Run(opts Options) (*Result, error) {
	if opts.Net == nil || opts.Trace == nil {
		return nil, fmt.Errorf("replay: nil network or trace")
	}
	net := opts.Net
	tr := opts.Trace
	clock := net.Clock
	serverPort := tr.ServerPort
	if opts.ServerPort != 0 {
		serverPort = opts.ServerPort
	}
	clientPort := opts.ClientPort
	if clientPort == 0 {
		clientPort = 40000
	}
	osProf := stack.Linux
	if opts.ServerOS != nil {
		osProf = *opts.ServerOS
	}

	// Recycle the previous replay's packet churn before installing fresh
	// endpoints. Safe only at quiescence: with events still pending (an
	// aborted horizon run), in-flight frames could outlive the reset, so
	// the arena is left alone and that replay simply allocates fresh.
	// By this point every consumer of the last replay's aliased bytes
	// (judgeReach over Result.ServerArrivals) has already run.
	var captured []stack.Arrival
	if clock.Pending() == 0 {
		net.Env.Quiesce()
		// The previous replay's capture is consumed by the same deadline
		// as its arena bytes (which Arrival.Raw aliases), so its slice
		// can be reclaimed exactly when the arena can.
		if c, ok := net.Env.Scratch.([]stack.Arrival); ok {
			captured = c[:0]
		}
	}

	srv := stack.NewServer(net.Env, osProf)
	srv.Captured = captured
	host := stack.NewClientHost(net.Env)
	sc := scriptOf(tr)

	res := &Result{CounterDelta: -1}
	var counterBefore int64
	if net.Counter != nil {
		counterBefore = net.Counter.Read()
	}
	start := clock.Now()

	// Throughput sampling of s2c application bytes, in virtual ns since
	// the vclock epoch; noTime marks an instant not seen yet (the clock
	// never reads below zero).
	const noTime = -1
	lastDataAt, firstDataAt, windowStart := int64(noTime), int64(noTime), int64(noTime)
	var windowBytes int
	var peak float64
	lastWriteAt, tailFirst, tailLast := int64(noTime), int64(noTime), int64(noTime)
	var tailBytes int
	markWrite := func() {
		// A new write restarts the tail window: "tail" means s2c data
		// after the *final* client write.
		lastWriteAt = clock.NowNS()
		tailFirst, tailLast = noTime, noTime
		tailBytes = 0
	}
	onData := func(n int) {
		now := clock.NowNS()
		if firstDataAt == noTime {
			firstDataAt = now
			windowStart = now
		}
		lastDataAt = now
		windowBytes += n
		if lastWriteAt != noTime && now > lastWriteAt {
			if tailFirst == noTime {
				tailFirst = now
			}
			tailLast = now
			tailBytes += n
		}
		if w := time.Duration(now - windowStart); w >= 200*time.Millisecond {
			rate := float64(windowBytes*8) / w.Seconds()
			if rate > peak {
				peak = rate
			}
			windowStart = now
			windowBytes = 0
		}
	}

	f := &flow{
		opts: opts, sc: sc, onData: onData, markWrite: markWrite,
		s2c: streamCheck{steps: sc.server, total: sc.s2cLen, scan: tr.Proto == packet.ProtoTCP},
		c2s: streamCheck{steps: sc.client, total: sc.c2sLen},
	}
	switch tr.Proto {
	case packet.ProtoTCP:
		f.runTCP(srv, host, serverPort, clientPort, res)
	case packet.ProtoUDP:
		f.runUDP(srv, host, serverPort, clientPort, res)
	default:
		return nil, fmt.Errorf("replay: unsupported protocol %d", tr.Proto)
	}
	res.ServerAppBytes = f.c2s.n
	res.IntegrityOK = f.c2s.intact() && f.s2c.intact()

	res.Duration = clock.Since(start)
	res.BytesOut = host.BytesOut
	res.BytesIn = host.BytesIn
	res.ServerArrivals = srv.Captured
	net.Env.Scratch = srv.Captured
	if net.Counter != nil {
		res.CounterDelta = net.Counter.Read() - counterBefore
	}
	res.GroundTruthClass = net.GroundTruthClass(res.FlowKey)
	if f.s2c.n > 0 && lastDataAt > firstDataAt {
		res.AvgThroughputBps = float64(f.s2c.n*8) / time.Duration(lastDataAt-firstDataAt).Seconds()
	}
	if w := time.Duration(clock.NowNS() - windowStart); windowBytes > 0 && w > 0 {
		if rate := float64(windowBytes*8) / w.Seconds(); rate > peak {
			peak = rate
		}
	}
	res.PeakThroughputBps = peak
	if tailBytes > 0 && tailLast > tailFirst {
		res.TailThroughputBps = float64(tailBytes*8) / time.Duration(tailLast-tailFirst).Seconds()
	}
	return res, nil
}

// flow is what the TCP and UDP replays share: the running check of each
// direction, the client's write loop and the throughput hooks.
type flow struct {
	opts      Options
	sc        *script
	s2c, c2s  streamCheck
	sent      int // client steps sent
	pump      func()
	onData    func(int)
	markWrite func()
}

// startPump installs the client's write loop over send as f.pump. Each
// call sends, in order, every client step whose precondition s2c has met
// and marks each write. PostWriteDelay pauses the loop before the first
// write (AfterWrite -1) or after write AfterWrite; it resumes by itself.
func (f *flow) startPump(send func(data []byte, segSums []uint32)) {
	clock := f.opts.Net.Clock
	pause := f.opts.PostWriteDelay
	preDelayed := false
	f.pump = func() {
		if pause.Delay > 0 && pause.AfterWrite == -1 && !preDelayed {
			preDelayed = true
			clock.ScheduleAt(clock.Now().Add(pause.Delay), f.pump)
			return
		}
		for f.sent < len(f.sc.client) && f.s2c.n >= f.sc.client[f.sent].need {
			st := f.sc.client[f.sent]
			f.sent++
			send(st.data, st.segSums)
			f.markWrite()
			if pause.Delay > 0 && pause.AfterWrite == f.sent-1 {
				clock.ScheduleAt(clock.Now().Add(pause.Delay), f.pump)
				return
			}
		}
	}
}

// receive is the client's in-order server→client delivery hook.
func (f *flow) receive(d []byte) {
	f.s2c.feed(d)
	f.onData(len(d))
	f.pump()
}

func (f *flow) runTCP(srv *stack.Server, host *stack.ClientHost, serverPort, clientPort uint16, res *Result) {
	opts, sc := f.opts, f.sc
	res.FlowKey = packet.FlowKey{Proto: packet.ProtoTCP, Src: host.Addr, Dst: opts.Net.Env.ServerAddr, SrcPort: clientPort, DstPort: serverPort}
	app := &serverApp{sc: sc, transform: opts.ServerTransform, srv: srv, flow: res.FlowKey, c2s: &f.c2s}
	srv.ListenStream(serverPort, app)
	cli := stack.NewTCPClient(host, opts.Net.Env.ServerAddr, clientPort, serverPort)
	if opts.Transform != nil {
		cli.Transform = opts.Transform
	}
	if opts.Reliable {
		cli.RTO = stack.DefaultRTO
		srv.RTO = stack.DefaultRTO
	}

	f.startPump(cli.SendSummed)
	cli.OnConnected = f.pump
	cli.OnData = f.receive
	cli.Connect()
	runClock(opts, opts.Net.Clock)

	res.RSTsSeen = cli.RSTsSeen
	_, res.CloseState = cli.Closed()
	res.Got403 = f.s2c.got403(sc)
	res.Blocked = res.CloseState == "rst" || res.Got403 || !cli.Established()
	res.Completed = f.sent == len(sc.client) && app.received >= sc.c2sLen && f.s2c.n >= sc.s2cLen && !res.Blocked
}

func (f *flow) runUDP(srv *stack.Server, host *stack.ClientHost, serverPort, clientPort uint16, res *Result) {
	opts, sc := f.opts, f.sc
	srv.ListenDatagram(serverPort, &dgramApp{sc: sc, c2s: &f.c2s})
	cli := stack.NewUDPClient(host, opts.Net.Env.ServerAddr, clientPort, serverPort)
	if opts.Transform != nil {
		cli.Transform = opts.Transform
	}
	res.FlowKey = packet.FlowKey{Proto: packet.ProtoUDP, Src: host.Addr, Dst: opts.Net.Env.ServerAddr, SrcPort: clientPort, DstPort: serverPort}

	f.startPump(cli.SendSummed)
	cli.OnData = f.receive
	f.pump()
	runClock(opts, opts.Net.Clock)

	res.Completed = f.sent == len(sc.client) && f.s2c.n >= sc.s2cLen
}

// runClock drains the simulation with a generous horizon so that pauses
// and shapers complete, without spinning forever on pathological state.
func runClock(opts Options, clock interface {
	RunFor(time.Duration) error
	Pending() int
}) {
	horizon := 10 * time.Minute
	if opts.ExtraBudget > 0 {
		horizon += opts.ExtraBudget
	}
	// Run in small slices until quiescent, so virtual time never races far
	// past the last event (a runaway clock would contaminate elapsed-time
	// signals such as the usage counter's background accrual).
	slice := time.Second
	for spent := time.Duration(0); spent < horizon; spent += slice {
		if clock.Pending() == 0 {
			return
		}
		if err := clock.RunFor(slice); err != nil {
			return
		}
	}
}
