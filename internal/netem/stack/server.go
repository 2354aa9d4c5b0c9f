package stack

import (
	"time"

	"repro/internal/netem"
	"repro/internal/netem/packet"
	"repro/internal/netem/vclock"
)

// MSS is the maximum TCP segment payload used by the stacks.
const MSS = packet.MSS

const serverISS = 50000

// Arrival is one raw packet captured at the server before OS validation —
// the simulator's equivalent of running tcpdump next to the replay server,
// which is how the paper decides the "Reaches Server?" column of Table 3.
type Arrival struct {
	At      time.Time
	Raw     []byte
	Defects packet.DefectSet
}

// StreamHandler is the application callback for TCP connections.
type StreamHandler interface {
	// OnStream receives in-order stream bytes.
	OnStream(c *ServerConn, data []byte)
	// OnClose is called when the connection ends (FIN or RST).
	OnClose(c *ServerConn, reason string)
}

// DatagramHandler is the application callback for UDP traffic.
type DatagramHandler interface {
	OnDatagram(s *Server, src packet.Addr, srcPort, dstPort uint16, data []byte)
}

// Server is a multi-flow endpoint transport stack with a pluggable OS
// validation profile.
type Server struct {
	Env   *netem.Env
	Clock *vclock.Clock
	Addr  packet.Addr
	OS    OSProfile

	streamApps   map[uint16]StreamHandler
	datagramApps map[uint16]DatagramHandler

	conns packet.FlowTable[*ServerConn]
	reasm *packet.Reassembler
	arena *packet.Arena

	// RTO enables data retransmission when positive (see TCPClient.RTO).
	RTO time.Duration
	// Retransmissions counts segments re-sent across all connections.
	Retransmissions int

	// Captured holds every raw arrival (pre-validation).
	Captured []Arrival
	ids      ipIDs
}

// ConnFor returns the connection for a client-orientation flow key, or nil.
func (s *Server) ConnFor(clientKey packet.FlowKey) *ServerConn {
	c, _ := s.conns.Get(clientKey)
	return c
}

// NewServer wires a server stack to env's server end.
func NewServer(env *netem.Env, os OSProfile) *Server {
	s := &Server{
		Env:          env,
		Clock:        env.Clock,
		Addr:         env.ServerAddr,
		OS:           os,
		streamApps:   make(map[uint16]StreamHandler),
		datagramApps: make(map[uint16]DatagramHandler),
		reasm:        packet.NewReassembler(),
		arena:        env.Arena(),
	}
	env.SetServer(s)
	return s
}

// ListenStream registers a TCP application on port.
func (s *Server) ListenStream(port uint16, h StreamHandler) { s.streamApps[port] = h }

// ListenDatagram registers a UDP application on port.
func (s *Server) ListenDatagram(port uint16, h DatagramHandler) { s.datagramApps[port] = h }

// Deliver implements netem.Endpoint. Frame immutability lets the capture
// retain the arriving bytes without a defensive copy, and the cached parse
// is shared with every element that already inspected the packet in-path.
func (s *Server) Deliver(f *packet.Frame) {
	p, defects := f.Parse()
	raw := f.Raw()
	s.Captured = append(s.Captured, Arrival{At: s.Clock.Now(), Raw: raw, Defects: defects})

	// Host IP reassembly comes before validation of transport defects:
	// fragments are judged once whole.
	if p.IP.FragOffset != 0 || p.IP.MoreFragments() {
		whole, done := s.reasm.Add(raw)
		if !done {
			return
		}
		raw = whole
		p, defects = packet.InspectView(raw)
	}

	ok, rst := s.OS.Accepts(defects)
	if !ok {
		if rst && p.TCP != nil {
			s.sendRST(p)
		}
		if defects.Has(packet.DefectIPProtocol) && s.OS.ICMPOnUnknownProto {
			icmp := packet.NewICMPProtoUnreachable(s.Addr, p.IP.Src, raw)
			s.Env.FromServer(icmp.Serialize())
		}
		return
	}

	switch {
	case p.TCP != nil:
		s.handleTCP(p, defects)
	case p.UDP != nil:
		s.handleUDP(p, defects)
	}
}

func (s *Server) sendRST(p *packet.Packet) {
	rst := s.arena.NewTCP(s.Addr, p.IP.Src, s.ids.next(), p.TCP.DstPort, p.TCP.SrcPort, p.TCP.Ack, p.TCP.Seq, packet.FlagRST|packet.FlagACK, nil)
	s.Env.FromServerFrame(s.arena.FrameOf(rst))
}

func (s *Server) handleTCP(p *packet.Packet, defects packet.DefectSet) {
	key := p.Flow()
	conn, _ := s.conns.Get(key)
	t := p.TCP

	if t.Flags.Has(packet.FlagSYN) && !t.Flags.Has(packet.FlagACK) {
		app, ok := s.streamApps[t.DstPort]
		if !ok {
			s.sendRST(p)
			return
		}
		conn = &ServerConn{
			srv: s, app: app,
			Src: p.IP.Src, SrcPort: t.SrcPort, DstPort: t.DstPort,
			rx: inOrder{next: t.Seq + 1}, sndNxt: serverISS,
		}
		s.conns.Put(key, conn)
		synack := s.arena.NewTCP(s.Addr, conn.Src, s.ids.next(), conn.DstPort, conn.SrcPort, conn.sndNxt, conn.rx.next, packet.FlagSYN|packet.FlagACK, nil)
		conn.sndNxt++
		s.Env.FromServerFrame(s.arena.FrameOf(synack))
		return
	}
	if conn == nil || conn.closed {
		// Segment for an unknown or closed connection.
		if t.Flags.Has(packet.FlagRST) {
			return
		}
		s.sendRST(p)
		return
	}

	if t.Flags.Has(packet.FlagRST) {
		// A RST is honored only when its sequence number is in-window;
		// TTL-limited RSTs never get here (they expire in-path), but a
		// full-TTL forged RST would.
		if inWindow(t.Seq, conn.rx.next, rcvWindow) {
			conn.close("rst")
		}
		return
	}
	if t.Flags.Has(packet.FlagACK) && t.Ack-conn.ackedByClient < 1<<31 && t.Ack != conn.ackedByClient {
		conn.ackedByClient = t.Ack
	}

	conn.receive(t.Seq, p.Payload, t.Flags.Has(packet.FlagFIN))
}

func (s *Server) handleUDP(p *packet.Packet, defects packet.DefectSet) {
	app, ok := s.datagramApps[p.UDP.DstPort]
	if !ok {
		return // port unreachable; nothing in the study keyed on this
	}
	data := p.Payload
	if defects.Has(packet.DefectUDPLengthShort) {
		if !s.OS.UDPShortLengthTruncates {
			return
		}
		claimed := int(p.UDP.Length) - 8
		if claimed < 0 {
			claimed = 0
		}
		if claimed < len(data) {
			data = data[:claimed]
		}
	}
	app.OnDatagram(s, p.IP.Src, p.UDP.SrcPort, p.UDP.DstPort, data)
}

// SendDatagram emits a UDP datagram from the server.
func (s *Server) SendDatagram(dst packet.Addr, srcPort, dstPort uint16, data []byte) {
	s.SendDatagramSummed(dst, srcPort, dstPort, data, nil)
}

// SendDatagramSummed is SendDatagram with optional precomputed per-MSS
// payload partial sums (trace.Message.CheckedSegSums); segSums[k] covers
// data[k*MSS:...]. A nil or short segSums falls back to summing.
// Segments with sums go on the wire aliasing data (Arena.FrameOf), so
// data must stay unmodified until the path's arena resets, as trace
// payloads do.
func (s *Server) SendDatagramSummed(dst packet.Addr, srcPort, dstPort uint16, data []byte, segSums []uint32) {
	fi := FlowInfo{Proto: packet.ProtoUDP, Src: s.Addr, Dst: dst, SrcPort: srcPort, DstPort: dstPort}
	fi.udpSegments(s.arena, &s.ids, data, segSums, func(p *packet.Packet) { s.Env.FromServerFrame(s.arena.FrameOf(p)) })
}

// ServerConn is one server-side TCP connection.
type ServerConn struct {
	srv *Server
	app StreamHandler

	Src     packet.Addr
	SrcPort uint16
	DstPort uint16

	rx            inOrder
	sndNxt        uint32
	ackedByClient uint32
	closed        bool

	// Transform, when non-nil, reshapes outgoing (server→client) packets —
	// lib·erate's server-side deployment mode, useful against classifiers
	// that match response content.
	Transform OutgoingTransform

	writeIndex      int
	dataPacketsSent int
	sendReady       time.Time
}

// Closed reports whether the connection has ended.
func (c *ServerConn) Closed() bool { return c.closed }

func (c *ServerConn) close(reason string) {
	if c.closed {
		return
	}
	c.closed = true
	if c.app != nil {
		c.app.OnClose(c, reason)
	}
}

// receive integrates one segment, delivering contiguous data. Every
// segment gets exactly one ACK, data and FIN alike.
func (c *ServerConn) receive(seq uint32, payload []byte, fin bool) {
	if len(payload) > 0 {
		c.rx.receive(seq, payload, c.deliver)
	}
	if fin && seq+uint32(len(payload)) == c.rx.next {
		c.rx.next++
		c.sendACK()
		c.close("fin")
		return
	}
	c.sendACK()
}

func (c *ServerConn) deliver(data []byte) {
	if c.app != nil {
		c.app.OnStream(c, data)
	}
}

func (c *ServerConn) sendACK() {
	ack := c.srv.arena.NewTCP(c.srv.Addr, c.Src, c.srv.ids.next(), c.DstPort, c.SrcPort, c.sndNxt, c.rx.next, packet.FlagACK, nil)
	c.srv.Env.FromServerFrame(c.srv.arena.FrameOf(ack))
}

// Send writes application data onto the connection, segmented at MSS and
// passed through the server-side Transform when one is installed.
func (c *ServerConn) Send(data []byte) { c.SendSummed(data, nil) }

// SendSummed is Send with optional precomputed per-MSS payload partial
// sums (trace.Message.CheckedSegSums); segSums[k] covers data[k*MSS:...].
// Segments with sums go on the wire aliasing data (Arena.FrameOf), so
// data must stay unmodified until the path's arena resets, as trace
// payloads do.
func (c *ServerConn) SendSummed(data []byte, segSums []uint32) {
	fi := FlowInfo{
		Proto: packet.ProtoTCP,
		Src:   c.srv.Addr, Dst: c.Src, SrcPort: c.DstPort, DstPort: c.SrcPort,
		SndNxt: c.sndNxt, RcvNxt: c.rx.next,
		WriteIndex: c.writeIndex, DataPacketsSent: c.dataPacketsSent,
	}
	pkts, seq := fi.tcpSegments(c.srv.arena, &c.srv.ids, data, segSums)
	if c.Transform == nil {
		c.sndNxt = seq
		// Put the whole burst on the wire first, then arm retransmission
		// timers: with no schedule call between sends, the netem layer
		// carries the burst as one delivery batch per link. Sending frames
		// (not raw bytes) lets each carry its payload-sum hint, and a
		// retransmission re-forwards the same immutable frame.
		frames := make([]*packet.Frame, len(pkts))
		for i, p := range pkts {
			frames[i] = c.srv.arena.FrameOf(p)
			c.srv.Env.FromServerFrame(frames[i])
		}
		for i, p := range pkts {
			c.armRetransmit(frames[i], p.TCP.Seq+uint32(len(p.Payload)), 0)
		}
		return
	}
	c.writeIndex++
	c.sndNxt = seq
	sched := c.Transform.Transform(fi, pkts)
	at := c.srv.Clock.Now()
	if c.sendReady.After(at) {
		at = c.sendReady
	}
	// Same-instant transformed segments ride one scheduled run, mirroring
	// the client emit path.
	for i := 0; i < len(sched); {
		at = at.Add(sched[i].Delay)
		j := i + 1
		for j < len(sched) && sched[j].Delay == 0 {
			j++
		}
		frames := make([]*packet.Frame, 0, j-i)
		for _, s := range sched[i:j] {
			frames = append(frames, c.srv.arena.FrameOf(s.Pkt))
			if !s.Inert && s.Pkt.TCP != nil && len(s.Pkt.Payload) > 0 {
				c.dataPacketsSent++
			}
		}
		c.srv.Clock.ScheduleAt(at, func() {
			for _, fr := range frames {
				c.srv.Env.FromServerFrame(fr)
			}
		})
		i = j
	}
	c.sendReady = at
}

// armRetransmit schedules a retransmission check for a data segment.
// Retransmission re-forwards the same immutable frame.
func (c *ServerConn) armRetransmit(fr *packet.Frame, seqEnd uint32, tries int) {
	if c.srv.RTO <= 0 {
		return
	}
	if tries >= maxRetries {
		return
	}
	c.srv.Clock.Schedule(c.srv.RTO, func() {
		if c.closed {
			return
		}
		if c.ackedByClient-seqEnd < 1<<31 {
			return // acknowledged
		}
		c.srv.Retransmissions++
		c.srv.Env.FromServerFrame(fr)
		c.armRetransmit(fr, seqEnd, tries+1)
	})
}

// Close sends a FIN.
func (c *ServerConn) Close() {
	fin := c.srv.arena.NewTCP(c.srv.Addr, c.Src, c.srv.ids.next(), c.DstPort, c.SrcPort, c.sndNxt, c.rx.next, packet.FlagACK|packet.FlagFIN, nil)
	c.sndNxt++
	c.srv.Env.FromServerFrame(c.srv.arena.FrameOf(fin))
	c.close("local-fin")
}
