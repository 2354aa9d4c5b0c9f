package stack

import (
	"time"

	"repro/internal/netem"
	"repro/internal/netem/packet"
	"repro/internal/netem/vclock"
)

// ClientHost demultiplexes arriving packets to the client-side flows that
// own them. It is the netem client Endpoint; individual TCPClient and
// UDPClient flows register with it.
type ClientHost struct {
	Env   *netem.Env
	Clock *vclock.Clock
	Addr  packet.Addr

	// flows holds each flow under its inbound orientation, the key
	// arriving packets carry.
	flows packet.FlowTable[flowSink]
	arena *packet.Arena
	ids   ipIDs
	// ICMP receives ICMP messages addressed to the host (time-exceeded
	// from TTL probes, protocol-unreachable from inert packets).
	ICMP func(p *packet.Packet)
	// Captured counts raw arrivals for diagnostics.
	Captured int
	// BytesOut and BytesIn account for every wire byte the host sends and
	// receives — the replay data-consumption metric the paper reports per
	// characterization round.
	BytesOut int64
	BytesIn  int64
}

// Send puts raw on the wire from the client end, with byte accounting.
func (h *ClientHost) Send(raw []byte) {
	h.BytesOut += int64(len(raw))
	h.Env.FromClient(raw)
}

// SendFrame puts an already-built frame on the wire from the client end,
// preserving frame-carried metadata (payload-sum hint) that the raw-bytes
// path cannot.
func (h *ClientHost) SendFrame(f *packet.Frame) {
	h.BytesOut += int64(f.Len())
	h.Env.FromClientFrame(f)
}

type flowSink interface {
	deliver(p *packet.Packet, defects packet.DefectSet)
}

// NewClientHost wires a client host to env's client end.
func NewClientHost(env *netem.Env) *ClientHost {
	h := &ClientHost{Env: env, Clock: env.Clock, Addr: env.ClientAddr, arena: env.Arena()}
	env.SetClient(h)
	return h
}

// Deliver implements netem.Endpoint. The frame's cached parse is reused
// verbatim; the packet handed to flow sinks is a read-only view.
func (h *ClientHost) Deliver(f *packet.Frame) {
	h.Captured++
	h.BytesIn += int64(f.Len())
	p, defects := f.Parse()
	if p.ICMP != nil {
		if h.ICMP != nil {
			h.ICMP(p)
		}
		return
	}
	if sink, ok := h.flows.Get(p.Flow()); ok {
		sink.deliver(p, defects)
	}
}

// TCPClient is one client-side TCP connection. Outgoing application writes
// pass through Transform, which is where lib·erate installs evasion
// techniques.
type TCPClient struct {
	host             *ClientHost
	Dst              packet.Addr
	SrcPort, DstPort uint16

	Transform OutgoingTransform

	iss, sndNxt uint32
	rx          inOrder
	established bool
	closed      bool
	closeReason string

	writeIndex      int
	dataPacketsSent int
	// sendReady is the virtual time at which the previous scheduled
	// emission completes; writes queue behind it.
	sendReady time.Time

	// OnConnected fires when the handshake completes.
	OnConnected func()
	// OnData receives in-order server stream bytes.
	OnData func(data []byte)
	// OnClosed fires once when the connection dies ("rst", "fin").
	OnClosed func(reason string)

	// AckedByServer tracks the highest cumulative ACK seen from the server,
	// which tells the replayer how much of its stream the server accepted.
	AckedByServer uint32
	// RSTsSeen counts RST segments delivered to this flow (in- or
	// out-of-window) — the censorship signal the paper keys on ("confirm
	// it is blocked by 3–5 RST packets").
	RSTsSeen int

	// RTO is the retransmission timeout for unacknowledged data; zero
	// disables retransmission. On lossless simulated paths ACKs arrive in
	// one RTT ≪ RTO, so retransmission never fires unless packets are
	// actually lost.
	RTO time.Duration
	// Retransmissions counts segments re-sent.
	Retransmissions int
}

// DefaultRTO is the client stacks' retransmission timeout.
const DefaultRTO = 250 * time.Millisecond

// maxRetries bounds retransmissions per segment on both endpoints.
const maxRetries = 3

// armRetransmit schedules a retransmission check for a data segment whose
// payload ends at seqEnd. Retransmission re-forwards the same immutable
// frame. The check after the last retry still fires, and does nothing.
func (c *TCPClient) armRetransmit(fr *packet.Frame, seqEnd uint32, tries int) {
	if c.RTO <= 0 {
		return
	}
	c.host.Clock.Schedule(c.RTO, func() {
		if c.closed {
			return
		}
		if c.AckedByServer-seqEnd < 1<<31 {
			return // acknowledged
		}
		if tries >= maxRetries {
			return
		}
		c.Retransmissions++
		c.host.SendFrame(fr)
		c.armRetransmit(fr, seqEnd, tries+1)
	})
}

const clientISS = 1000

// NewTCPClient registers a TCP flow on the host. Connect must be called to
// start the handshake.
func NewTCPClient(h *ClientHost, dst packet.Addr, srcPort, dstPort uint16) *TCPClient {
	c := &TCPClient{
		host: h, Dst: dst, SrcPort: srcPort, DstPort: dstPort,
		iss: clientISS, sndNxt: clientISS,
		Transform: Passthrough(),
		sendReady: h.Clock.Now(),
	}
	h.flows.Put(c.inboundKey(), c)
	return c
}

// inboundKey is the flow key of the server's packets to this connection.
func (c *TCPClient) inboundKey() packet.FlowKey {
	return packet.FlowKey{Proto: packet.ProtoTCP, Src: c.Dst, Dst: c.host.Addr, SrcPort: c.DstPort, DstPort: c.SrcPort}
}

// Established reports whether the handshake has completed.
func (c *TCPClient) Established() bool { return c.established }

// Closed reports whether the connection has died, and why.
func (c *TCPClient) Closed() (bool, string) { return c.closed, c.closeReason }

// SndNxt exposes the next outgoing sequence number (used by techniques that
// need to craft in-window inert packets from outside the write path).
func (c *TCPClient) SndNxt() uint32 { return c.sndNxt }

// RcvNxt exposes the next expected incoming sequence number.
func (c *TCPClient) RcvNxt() uint32 { return c.rx.next }

// Connect sends the SYN.
func (c *TCPClient) Connect() {
	syn := c.host.arena.NewTCP(c.host.Addr, c.Dst, c.host.ids.next(), c.SrcPort, c.DstPort, c.iss, 0, packet.FlagSYN, nil)
	c.sndNxt = c.iss + 1
	c.host.SendFrame(c.host.arena.FrameOf(syn))
}

func (c *TCPClient) deliver(p *packet.Packet, defects packet.DefectSet) {
	if p.TCP == nil {
		return
	}
	// The client stack validates like any endpoint OS: malformed packets
	// (e.g. bit-flipped payloads failing the TCP checksum) are dropped
	// before they can pollute the stream. Injected censor RSTs and block
	// pages are well-formed and unaffected.
	if !defects.Empty() {
		return
	}
	t := p.TCP
	if t.Flags.Has(packet.FlagRST) {
		c.RSTsSeen++
		if inWindow(t.Seq, c.rx.next, rcvWindow) || !c.established {
			c.closeWith("rst")
		}
		return
	}
	if t.Flags.Has(packet.FlagSYN) && t.Flags.Has(packet.FlagACK) && !c.established {
		c.rx.next = t.Seq + 1
		c.established = true
		ack := c.host.arena.NewTCP(c.host.Addr, c.Dst, c.host.ids.next(), c.SrcPort, c.DstPort, c.sndNxt, c.rx.next, packet.FlagACK, nil)
		c.host.SendFrame(c.host.arena.FrameOf(ack))
		if c.OnConnected != nil {
			c.OnConnected()
		}
		return
	}
	if t.Flags.Has(packet.FlagACK) {
		if t.Ack-c.AckedByServer < 1<<31 && t.Ack != c.AckedByServer {
			c.AckedByServer = t.Ack
		}
	}
	// Data gets its own ACK, and a FIN then a second one.
	if len(p.Payload) > 0 {
		c.rx.receive(t.Seq, p.Payload, c.deliverData)
		c.sendACK()
	}
	if t.Flags.Has(packet.FlagFIN) && t.Seq+uint32(len(p.Payload)) == c.rx.next {
		c.rx.next++
		c.sendACK()
		c.closeWith("fin")
	}
}

func (c *TCPClient) deliverData(data []byte) {
	if c.OnData != nil {
		c.OnData(data)
	}
}

func (c *TCPClient) sendACK() {
	ack := c.host.arena.NewTCP(c.host.Addr, c.Dst, c.host.ids.next(), c.SrcPort, c.DstPort, c.sndNxt, c.rx.next, packet.FlagACK, nil)
	c.host.SendFrame(c.host.arena.FrameOf(ack))
}

func (c *TCPClient) closeWith(reason string) {
	if c.closed {
		return
	}
	c.closed = true
	c.closeReason = reason
	if c.OnClosed != nil {
		c.OnClosed(reason)
	}
}

// Send writes application data. The data is segmented at MSS, passed
// through the Transform, and the resulting packets are scheduled onto the
// wire, honoring the transform's inter-packet delays. Writes issued while
// a previous write is still draining queue behind it.
func (c *TCPClient) Send(data []byte) { c.SendSummed(data, nil) }

// SendSummed is Send with optional precomputed per-MSS payload partial
// sums (trace.Message.CheckedSegSums); segSums[k] covers data[k*MSS:...].
// Segments with sums go on the wire aliasing data (Arena.FrameOf), so
// data must stay unmodified until the path's arena resets, as trace
// payloads do.
func (c *TCPClient) SendSummed(data []byte, segSums []uint32) {
	fi := FlowInfo{
		Proto: packet.ProtoTCP,
		Src:   c.host.Addr, Dst: c.Dst, SrcPort: c.SrcPort, DstPort: c.DstPort,
		SndNxt: c.sndNxt, RcvNxt: c.rx.next,
		WriteIndex: c.writeIndex, DataPacketsSent: c.dataPacketsSent,
	}
	pkts, seq := fi.tcpSegments(c.host.arena, &c.host.ids, data, segSums)
	c.writeIndex++
	c.sndNxt = seq
	sched := c.Transform.Transform(fi, pkts)
	c.emit(sched)
}

// SendRaw emits an arbitrary crafted packet immediately, bypassing the
// transform (used by probes and handshake-adjacent injections).
func (c *TCPClient) SendRaw(p *packet.Packet) {
	c.host.SendFrame(c.host.arena.FrameOf(p))
}

// Host returns the owning host (for IP ID allocation in techniques).
func (c *TCPClient) Host() *ClientHost { return c.host }

// emitItem is one wire emission inside a scheduled run.
type emitItem struct {
	fr              *packet.Frame
	seqEnd          uint32
	retransmittable bool
}

func (c *TCPClient) emit(sched []Scheduled) {
	at := c.host.Clock.Now()
	if c.sendReady.After(at) {
		at = c.sendReady
	}
	// Segments that share an emission instant (the common zero-delay
	// burst) are grouped into one scheduled run: one event puts the whole
	// run on the wire, and because the sends are back-to-back with no
	// intervening schedule call, the netem layer carries them as one
	// delivery batch per link. Retransmission timers are armed after the
	// run so they cannot seal the batch mid-burst.
	for i := 0; i < len(sched); {
		at = at.Add(sched[i].Delay)
		j := i + 1
		for j < len(sched) && sched[j].Delay == 0 {
			j++
		}
		items := make([]emitItem, 0, j-i)
		for _, s := range sched[i:j] {
			it := emitItem{fr: c.host.arena.FrameOf(s.Pkt)}
			if !s.Inert && s.Pkt.TCP != nil && len(s.Pkt.Payload) > 0 {
				it.retransmittable = true
				it.seqEnd = s.Pkt.TCP.Seq + uint32(len(s.Pkt.Payload))
				c.dataPacketsSent++
			}
			items = append(items, it)
		}
		c.host.Clock.ScheduleAt(at, func() {
			for _, it := range items {
				c.host.SendFrame(it.fr)
			}
			for _, it := range items {
				if it.retransmittable {
					c.armRetransmit(it.fr, it.seqEnd, 0)
				}
			}
		})
		i = j
	}
	c.sendReady = at
}

// CloseFIN sends a FIN at the current sequence position after the last
// scheduled emission has drained.
func (c *TCPClient) CloseFIN() {
	fin := c.host.arena.NewTCP(c.host.Addr, c.Dst, c.host.ids.next(), c.SrcPort, c.DstPort, c.sndNxt, c.rx.next, packet.FlagACK|packet.FlagFIN, nil)
	c.sndNxt++
	fr := c.host.arena.FrameOf(fin)
	at := c.host.Clock.Now()
	if c.sendReady.After(at) {
		at = c.sendReady
	}
	c.host.Clock.ScheduleAt(at, func() { c.host.SendFrame(fr) })
}

// UDPClient is one client-side UDP flow.
type UDPClient struct {
	host             *ClientHost
	Dst              packet.Addr
	SrcPort, DstPort uint16

	Transform OutgoingTransform

	writeIndex      int
	dataPacketsSent int
	sendReady       time.Time

	// OnData receives datagrams from the server.
	OnData func(data []byte)
}

// NewUDPClient registers a UDP flow on the host.
func NewUDPClient(h *ClientHost, dst packet.Addr, srcPort, dstPort uint16) *UDPClient {
	c := &UDPClient{host: h, Dst: dst, SrcPort: srcPort, DstPort: dstPort, Transform: Passthrough(), sendReady: h.Clock.Now()}
	h.flows.Put(c.inboundKey(), c)
	return c
}

// inboundKey is the flow key of the server's datagrams to this flow.
func (c *UDPClient) inboundKey() packet.FlowKey {
	return packet.FlowKey{Proto: packet.ProtoUDP, Src: c.Dst, Dst: c.host.Addr, SrcPort: c.DstPort, DstPort: c.SrcPort}
}

func (c *UDPClient) deliver(p *packet.Packet, defects packet.DefectSet) {
	if p.UDP == nil || !defects.Empty() {
		return
	}
	if c.OnData != nil {
		c.OnData(p.Payload)
	}
}

// Host returns the owning host.
func (c *UDPClient) Host() *ClientHost { return c.host }

// Send writes one application datagram (split at MSS if oversized) through
// the transform.
func (c *UDPClient) Send(data []byte) { c.SendSummed(data, nil) }

// SendSummed is Send with optional precomputed per-MSS payload partial
// sums (trace.Message.CheckedSegSums); segSums[k] covers data[k*MSS:...].
func (c *UDPClient) SendSummed(data []byte, segSums []uint32) {
	fi := FlowInfo{
		Proto: packet.ProtoUDP,
		Src:   c.host.Addr, Dst: c.Dst, SrcPort: c.SrcPort, DstPort: c.DstPort,
		WriteIndex: c.writeIndex, DataPacketsSent: c.dataPacketsSent,
	}
	var pkts []*packet.Packet
	fi.udpSegments(c.host.arena, &c.host.ids, data, segSums, func(p *packet.Packet) { pkts = append(pkts, p) })
	c.writeIndex++
	sched := c.Transform.Transform(fi, pkts)
	at := c.host.Clock.Now()
	if c.sendReady.After(at) {
		at = c.sendReady
	}
	// Same-instant datagrams ride one scheduled run (see TCPClient.emit).
	for i := 0; i < len(sched); {
		at = at.Add(sched[i].Delay)
		j := i + 1
		for j < len(sched) && sched[j].Delay == 0 {
			j++
		}
		raws := make([][]byte, 0, j-i)
		for _, s := range sched[i:j] {
			raws = append(raws, c.host.arena.Wire(s.Pkt))
			if !s.Inert && s.Pkt.UDP != nil {
				c.dataPacketsSent++
			}
		}
		c.host.Clock.ScheduleAt(at, func() {
			for _, raw := range raws {
				c.host.Send(raw)
			}
		})
		i = j
	}
	c.sendReady = at
}
