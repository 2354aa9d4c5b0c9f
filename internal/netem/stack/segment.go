package stack

import "repro/internal/netem/packet"

// What the client and server stacks share: IP ID allocation, in-order
// stream receive, and cutting an application write into segments. Each
// endpoint keeps its own ACK, FIN and retransmission policy.

// ipIDs draws one endpoint's IP identification numbers in send order.
type ipIDs uint16

func (i *ipIDs) next() uint16 {
	*i++
	return uint16(*i)
}

// rcvWindow is the receive window both stacks advertise and honour.
const rcvWindow = 65535

// inWindow reports whether seq lies in [rcvNxt, rcvNxt+win) mod 2^32.
func inWindow(seq, rcvNxt uint32, win uint32) bool {
	return seq-rcvNxt < win
}

// inOrder is the receive side of one TCP stream: the next expected
// sequence number and the future segments buffered until they become
// contiguous.
type inOrder struct {
	next uint32
	ooo  map[uint32][]byte // out-of-order payloads by sequence number
}

// receive integrates one payload at seq and hands every newly contiguous
// run to sink, in stream order, after advancing next past it. The first
// copy of a sequence number wins (the overlap policy endpoints in the
// study exhibited); a segment overlapping next from the left delivers its
// new tail; old duplicates and out-of-window payloads ("wrong sequence
// number" inert packets) are dropped.
func (r *inOrder) receive(seq uint32, payload []byte, sink func([]byte)) {
	end := seq + uint32(len(payload))
	switch {
	case seq == r.next:
		r.deliver(payload, sink)
	case inWindow(seq, r.next, rcvWindow):
		if _, dup := r.ooo[seq]; !dup {
			if r.ooo == nil {
				r.ooo = make(map[uint32][]byte)
			}
			r.ooo[seq] = append([]byte(nil), payload...)
		}
	case inWindow(end, r.next, rcvWindow) && end != r.next:
		r.deliver(payload[r.next-seq:], sink)
	}
	for {
		buf, ok := r.ooo[r.next]
		if !ok {
			return
		}
		delete(r.ooo, r.next)
		r.deliver(buf, sink)
	}
}

func (r *inOrder) deliver(data []byte, sink func([]byte)) {
	r.next += uint32(len(data))
	sink(data)
}

// tcpSegments cuts data into MSS-sized ACK|PSH segments of fi's flow,
// starting at fi.SndNxt and acknowledging fi.RcvNxt, with one IP ID per
// segment drawn in order. It returns the segments and the sequence number
// after the last. segSums[k], when present, is the precomputed payload
// sum of data[k*MSS:...] (trace.Message.CheckedSegSums); such segments go
// on the wire aliasing data (Arena.FrameOf), so data must stay unmodified
// until the arena resets, as trace payloads do.
func (fi FlowInfo) tcpSegments(ar *packet.Arena, ids *ipIDs, data []byte, segSums []uint32) ([]*packet.Packet, uint32) {
	var pkts []*packet.Packet
	seq := fi.SndNxt
	for off := 0; off < len(data); off += MSS {
		end := min(off+MSS, len(data))
		id := ids.next()
		var seg *packet.Packet
		if k := off / MSS; k < len(segSums) {
			seg = ar.NewTCPSummed(fi.Src, fi.Dst, id, fi.SrcPort, fi.DstPort, seq, fi.RcvNxt, packet.FlagACK|packet.FlagPSH, data[off:end], segSums[k])
		} else {
			seg = ar.NewTCP(fi.Src, fi.Dst, id, fi.SrcPort, fi.DstPort, seq, fi.RcvNxt, packet.FlagACK|packet.FlagPSH, data[off:end])
		}
		seq += uint32(end - off)
		pkts = append(pkts, seg)
	}
	return pkts, seq
}

// udpSegments cuts one application datagram of fi's flow at MSS, drawing
// one IP ID per datagram in order, and hands each to emit as soon as it is
// built. Empty data still goes out as one empty datagram. segSums is as
// for tcpSegments.
func (fi FlowInfo) udpSegments(ar *packet.Arena, ids *ipIDs, data []byte, segSums []uint32, emit func(*packet.Packet)) {
	for off := 0; off < len(data) || off == 0; off += MSS {
		end := min(off+MSS, len(data))
		id := ids.next()
		if k := off / MSS; k < len(segSums) {
			emit(ar.NewUDPSummed(fi.Src, fi.Dst, id, fi.SrcPort, fi.DstPort, data[off:end], segSums[k]))
		} else {
			emit(ar.NewUDP(fi.Src, fi.Dst, id, fi.SrcPort, fi.DstPort, data[off:end]))
		}
		if len(data) == 0 {
			return
		}
	}
}
