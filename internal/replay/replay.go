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
var blockLine = []byte("HTTP/1.1 403 Forbidden")

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
		s.blockPage = bytes.Contains(stream, blockLine)
	})
	return s.blockPage
}

// checkS2C judges the server→client stream a TCP client received: got403
// reports a block page the trace itself does not serve, exactly
// bytes.Contains(received, blockLine) && !bytes.Contains(expected,
// blockLine); intact reports received == expected. Neither builds the
// expected stream.
func (s *script) checkS2C(received []byte) (got403, intact bool) {
	got := matchLen(received, s.server)
	// When the expected stream lacks the status line, any occurrence in
	// received must reach past the prefix that matches it, which is at
	// least got bytes long, so the scan starts got minus the line's length
	// in.
	from := max(0, got-len(blockLine))
	got403 = bytes.Contains(received[from:], blockLine) && !s.servesBlockPage()
	return got403, got == len(received) && got == s.s2cLen
}

// matchLen returns how many leading bytes of got are known to match the
// concatenation of the steps' data, without building the concatenation:
// the whole common prefix when got is a prefix of the stream or the
// stream of got, else the start of the first step that differs. A lower
// bound serves both callers, since a difference always leaves it short
// of len(got).
func matchLen(got []byte, steps []scriptStep) int {
	n := 0
	for _, st := range steps {
		rest := got[n:]
		k := min(len(rest), len(st.data))
		if !bytes.Equal(rest[:k], st.data[:k]) {
			return n
		}
		n += k
		if k < len(st.data) {
			break
		}
	}
	return n
}

// streamIs reports whether got is exactly the concatenation of the steps'
// data.
func streamIs(got []byte, steps []scriptStep, total int) bool {
	return len(got) == total && matchLen(got, steps) == total
}

type serverApp struct {
	sc        *script
	released  int // server steps released
	received  int
	closed    bool
	transform stack.OutgoingTransform
}

func (a *serverApp) OnStream(c *stack.ServerConn, data []byte) {
	if a.transform != nil && c.Transform == nil {
		c.Transform = a.transform
	}
	a.received += len(data)
	a.release(c)
}

func (a *serverApp) OnClose(c *stack.ServerConn, reason string) { a.closed = true }

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

type dgramApp struct {
	sc       *script
	released int
	received int
	peer     struct {
		addr             packet.Addr
		srcPort, dstPort uint16
	}
}

func (a *dgramApp) OnDatagram(s *stack.Server, src packet.Addr, srcPort, dstPort uint16, data []byte) {
	a.received += len(data)
	a.peer.addr, a.peer.srcPort, a.peer.dstPort = src, srcPort, dstPort
	for a.released < len(a.sc.server) {
		st := a.sc.server[a.released]
		if a.received < st.need {
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
	var s2cBytes int
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
		s2cBytes += n
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

	h := hooks{onData: onData, markWrite: markWrite}
	switch tr.Proto {
	case packet.ProtoTCP:
		runTCP(opts, srv, host, sc, serverPort, clientPort, h, res)
	case packet.ProtoUDP:
		runUDP(opts, srv, host, sc, serverPort, clientPort, h, res)
	default:
		return nil, fmt.Errorf("replay: unsupported protocol %d", tr.Proto)
	}

	res.Duration = clock.Since(start)
	res.BytesOut = host.BytesOut
	res.BytesIn = host.BytesIn
	res.ServerArrivals = srv.Captured
	net.Env.Scratch = srv.Captured
	if net.Counter != nil {
		res.CounterDelta = net.Counter.Read() - counterBefore
	}
	res.GroundTruthClass = net.GroundTruthClass(res.FlowKey)
	if s2cBytes > 0 && lastDataAt > firstDataAt {
		res.AvgThroughputBps = float64(s2cBytes*8) / time.Duration(lastDataAt-firstDataAt).Seconds()
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

type hooks struct {
	onData    func(int)
	markWrite func()
}

func runTCP(opts Options, srv *stack.Server, host *stack.ClientHost, sc *script,
	serverPort, clientPort uint16, h hooks, res *Result) {
	onData := h.onData

	clock := opts.Net.Clock
	app := &serverApp{sc: sc, transform: opts.ServerTransform}
	srv.ListenStream(serverPort, app)
	cli := stack.NewTCPClient(host, opts.Net.Env.ServerAddr, clientPort, serverPort)
	if opts.Transform != nil {
		cli.Transform = opts.Transform
	}
	if opts.Reliable {
		cli.RTO = stack.DefaultRTO
		srv.RTO = stack.DefaultRTO
	}
	res.FlowKey = packet.FlowKey{Proto: packet.ProtoTCP, Src: host.Addr, Dst: opts.Net.Env.ServerAddr, SrcPort: clientPort, DstPort: serverPort}

	// Size the receive buffer to the expected stream up front: repeated
	// append-growth while a multi-megabyte replay trickles in segment by
	// segment otherwise dominates the allocation profile. The buffer is
	// arena-owned; everything read out of it is copied or consumed before
	// the next replay resets the arena.
	cli.Received = opts.Net.Env.Arena().Buffer(sc.s2cLen)

	// The client sends its i-th message once it has received all server
	// bytes scripted before it.
	clientSends := sc.client
	sent := 0
	preDelayed := false
	var pump func()
	pump = func() {
		if opts.PostWriteDelay.Delay > 0 && opts.PostWriteDelay.AfterWrite == -1 && !preDelayed {
			preDelayed = true
			clock.ScheduleAt(clock.Now().Add(opts.PostWriteDelay.Delay), pump)
			return
		}
		for sent < len(clientSends) && len(cli.Received) >= clientSends[sent].need {
			idx := sent
			sent++
			cli.SendSummed(clientSends[idx].data, clientSends[idx].segSums)
			h.markWrite()
			if opts.PostWriteDelay.Delay > 0 && opts.PostWriteDelay.AfterWrite == idx {
				// Pause, then resume pumping; the next write (if its
				// precondition is met) goes out after the pause.
				clock.ScheduleAt(clock.Now().Add(opts.PostWriteDelay.Delay), pump)
				return
			}
		}
	}
	cli.OnConnected = func() { pump() }
	cli.OnData = func(d []byte) { onData(len(d)); pump() }

	cli.Connect()
	runClock(opts, clock)

	res.RSTsSeen = cli.RSTsSeen
	_, res.CloseState = cli.Closed()
	var s2cIntact bool
	res.Got403, s2cIntact = sc.checkS2C(cli.Received)
	res.Blocked = res.CloseState == "rst" || res.Got403 || !cli.Established()
	serverGotAll := app.received >= sc.c2sLen
	clientGotAll := len(cli.Received) >= sc.s2cLen
	res.Completed = sent == len(clientSends) && serverGotAll && clientGotAll && !res.Blocked
	serverStream := serverStreamBytes(srv, res.FlowKey)
	res.ServerAppBytes = len(serverStream)
	res.IntegrityOK = streamIs(serverStream, sc.client, sc.c2sLen) && s2cIntact
}

func runUDP(opts Options, srv *stack.Server, host *stack.ClientHost, sc *script,
	serverPort, clientPort uint16, h hooks, res *Result) {
	onData := h.onData

	clock := opts.Net.Clock
	app := &dgramApp{sc: sc}
	srv.ListenDatagram(serverPort, app)
	cli := stack.NewUDPClient(host, opts.Net.Env.ServerAddr, clientPort, serverPort)
	if opts.Transform != nil {
		cli.Transform = opts.Transform
	}
	res.FlowKey = packet.FlowKey{Proto: packet.ProtoUDP, Src: host.Addr, Dst: opts.Net.Env.ServerAddr, SrcPort: clientPort, DstPort: serverPort}

	clientSends := sc.client
	received := 0
	sent := 0
	preDelayed := false
	var pump func()
	pump = func() {
		if opts.PostWriteDelay.Delay > 0 && opts.PostWriteDelay.AfterWrite == -1 && !preDelayed {
			preDelayed = true
			clock.ScheduleAt(clock.Now().Add(opts.PostWriteDelay.Delay), pump)
			return
		}
		for sent < len(clientSends) && received >= clientSends[sent].need {
			idx := sent
			sent++
			cli.SendSummed(clientSends[idx].data, clientSends[idx].segSums)
			h.markWrite()
			if opts.PostWriteDelay.Delay > 0 && opts.PostWriteDelay.AfterWrite == idx {
				clock.ScheduleAt(clock.Now().Add(opts.PostWriteDelay.Delay), pump)
				return
			}
		}
	}
	cli.OnData = func(d []byte) { received += len(d); onData(len(d)); pump() }
	pump()
	runClock(opts, clock)

	res.Completed = sent == len(clientSends) && received >= sc.s2cLen
	// UDP integrity compares the joined byte streams: datagram boundaries
	// legitimately shift when an application write exceeds one MTU.
	var gotJoined []byte
	for _, d := range cli.Received {
		gotJoined = append(gotJoined, d...)
	}
	serverJoined := joinedServerDatagrams(srv)
	res.ServerAppBytes = len(serverJoined)
	res.IntegrityOK = streamIs(gotJoined, sc.server, sc.s2cLen) &&
		streamIs(serverJoined, sc.client, sc.c2sLen)
	res.Blocked = false
}

// joinedServerDatagrams concatenates the UDP payloads the server's
// application layer actually received.
func joinedServerDatagrams(srv *stack.Server) []byte {
	var out []byte
	for _, d := range srv.Datagrams {
		out = append(out, d...)
	}
	return out
}

// serverStreamBytes digs the received stream for the replay flow out of
// the server (for integrity checking).
func serverStreamBytes(srv *stack.Server, key packet.FlowKey) []byte {
	if c := srv.ConnFor(key); c != nil {
		return c.Received
	}
	return nil
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
