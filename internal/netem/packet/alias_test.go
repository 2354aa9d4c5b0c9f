package packet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// TestArenaBuildersFinalizeOnce: the arena builders take the IP ID and
// finalize once, and their wire bytes equal those of the sequence they
// replace — build with ID 0, set the ID, finalize again — over random
// fields and payloads, summed and unsummed, TCP and UDP.
func TestArenaBuildersFinalizeOnce(t *testing.T) {
	a := NewArena()
	defer a.Release()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var src, dst Addr
		rng.Read(src[:])
		rng.Read(dst[:])
		id := uint16(rng.Uint32())
		sp, dp := uint16(rng.Uint32()), uint16(rng.Uint32())
		seq, ack := rng.Uint32(), rng.Uint32()
		flags := TCPFlags(rng.Uint32())
		pay := make([]byte, rng.Intn(MSS+1))
		rng.Read(pay)
		sum := PayloadSum(pay)

		twice := func(p *Packet) []byte {
			p.IP.ID = id
			return a.Wire(p.Finalize())
		}
		wantTCP := twice(a.NewTCP(src, dst, 0, sp, dp, seq, ack, flags, pay))
		wantUDP := twice(a.NewUDP(src, dst, 0, sp, dp, pay))
		for name, got := range map[string][]byte{
			"NewTCP":       a.Wire(a.NewTCP(src, dst, id, sp, dp, seq, ack, flags, pay)),
			"NewTCPSummed": a.Wire(a.NewTCPSummed(src, dst, id, sp, dp, seq, ack, flags, pay, sum)),
			"heap NewTCP":  twice(NewTCP(src, dst, sp, dp, seq, ack, flags, pay)),
		} {
			if !bytes.Equal(got, wantTCP) {
				t.Fatalf("case %d: %s wire bytes differ from build-then-set-ID", i, name)
			}
		}
		for name, got := range map[string][]byte{
			"NewUDP":       a.Wire(a.NewUDP(src, dst, id, sp, dp, pay)),
			"NewUDPSummed": a.Wire(a.NewUDPSummed(src, dst, id, sp, dp, pay, sum)),
		} {
			if !bytes.Equal(got, wantUDP) {
				t.Fatalf("case %d: %s wire bytes differ from build-then-set-ID", i, name)
			}
		}
		if i%64 == 63 {
			a.Reset()
		}
	}
}

// TestFrameOfAliasesOnlyStablePayloads: FrameOf aliases exactly the
// payloads a summed builder was given and no other — not an unsummed
// build, not a payload rebound or cloned since, not a packet with a
// trailer.
func TestFrameOfAliasesOnlyStablePayloads(t *testing.T) {
	a := NewArena()
	defer a.Release()
	pay := []byte("0123456789abcdef-trace-bytes")
	sum := PayloadSum(pay)
	summed := func() *Packet {
		return a.NewTCPSummed(srcA, dstA, 7, 40000, 80, 1, 2, FlagACK, pay, sum)
	}
	rebound := summed()
	rebound.Payload = append([]byte(nil), pay...)
	rebound.Finalize()
	trailer := summed()
	trailer.TrailerPadding = []byte{1, 2}
	for _, c := range []struct {
		name  string
		p     *Packet
		alias bool
	}{
		{"summed TCP", summed(), true},
		{"summed UDP", a.NewUDPSummed(srcA, dstA, 7, 5000, 53, pay, sum), true},
		{"unsummed TCP", a.NewTCP(srcA, dstA, 7, 40000, 80, 1, 2, FlagACK, pay), false},
		{"rebound payload", rebound, false},
		{"clone", summed().Clone().Finalize(), false},
		{"trailer", trailer, false},
	} {
		f := a.FrameOf(c.p)
		if got := f.pay != nil; got != c.alias {
			t.Errorf("%s: aliased=%v, want %v", c.name, got, c.alias)
		}
		if !bytes.Equal(f.Raw(), c.p.Serialize()) {
			t.Errorf("%s: Raw differs from Serialize", c.name)
		}
	}
}

// TestAliasedFrameMatchesContiguous runs the aliased-frame differential
// over random inputs; FuzzAliasedFrame explores further.
func TestAliasedFrameMatchesContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		pay := make([]byte, rng.Intn(2*MSS))
		rng.Read(pay)
		hops := make([]byte, rng.Intn(8))
		rng.Read(hops)
		checkAliasedFrame(t, pay, rng.Uint64(), uint8(rng.Intn(16)), hops, uint8(rng.Uint32()))
	}
}

// FuzzAliasedFrame checks frames that alias their payload against
// contiguous frames of the same bytes over random header fields,
// payloads, header corruptions and TTL-decrement chains: Raw, Len, TTL,
// and Parse (packet and defects) must agree at every hop.
func FuzzAliasedFrame(f *testing.F) {
	f.Add([]byte("GET /video HTTP/1.1\r\nHost: example.com\r\n\r\n"), uint64(0), uint8(0), []byte{1, 2, 3}, uint8(0))
	f.Add([]byte("odd"), uint64(1), uint8(1), []byte{0, 4}, uint8(0xff))
	f.Add(bytes.Repeat([]byte{0xa5}, MSS), uint64(0xdeadbeef), uint8(3), []byte{2}, uint8(0x55))
	for c := uint8(2); c < 12; c++ {
		f.Add([]byte("payload bytes"), uint64(c)*0x9e3779b97f4a7c15, c, []byte{1, 1}, c)
	}
	f.Fuzz(func(t *testing.T, payload []byte, fields uint64, corrupt uint8, hops []byte, order uint8) {
		checkAliasedFrame(t, payload, fields, corrupt, hops, order)
	})
}

// checkAliasedFrame builds one segment with a summed builder, optionally
// edits a header field after Finalize the way evasion techniques do, and
// compares the frame FrameOf builds (aliasing the payload) with a
// contiguous frame of the packet's serialization, hop by hop along a TTL
// decrement chain. order's bits pick, per hop, whether Parse runs and
// whether Raw runs before it.
func checkAliasedFrame(t *testing.T, payload []byte, fields uint64, corrupt uint8, hops []byte, order uint8) {
	t.Helper()
	if len(payload) > 2*MSS {
		payload = payload[:2*MSS]
	}
	a := NewArena()
	defer a.Release()
	src, dst := Addr{10, 0, 0, byte(fields >> 8)}, Addr{203, 0, 113, byte(fields >> 16)}
	id, sp, dp := uint16(fields>>24), uint16(fields>>40), uint16(fields>>48)
	var p *Packet
	if fields&1 == 0 {
		p = a.NewTCPSummed(src, dst, id, sp, dp, uint32(fields>>12), uint32(fields>>30), TCPFlags(fields>>56), payload, PayloadSum(payload))
	} else {
		p = a.NewUDPSummed(src, dst, id, sp, dp, payload, PayloadSum(payload))
	}
	if fields&2 != 0 {
		// Options keep the payload and its sum: the segment stays aliasable.
		p.IP.Options = []byte{IPOptNOP, IPOptNOP, IPOptNOP, IPOptEOL}
		if p.TCP != nil {
			p.TCP.Options = []byte{1, 1, 1, 1, 2, 4, 5, 0xb4}
		}
		p.Finalize()
	}
	switch corrupt {
	case 1:
		p.IP.TotalLength -= uint16(1 + fields%7)
	case 2:
		p.IP.TotalLength += uint16(1 + fields%7)
	case 3:
		p.IP.IHL = uint8(fields % 16)
	case 4:
		if p.TCP != nil {
			p.TCP.DataOffset = uint8(fields % 16)
		} else {
			p.UDP.Length ^= uint16(fields)
		}
	case 5:
		p.IP.FragOffset = uint16(fields%3) * 8
		p.IP.Flags |= IPFlagMF
	case 6:
		p.IP.Protocol = uint8(fields >> 4)
	case 7:
		p.IP.Checksum ^= uint16(fields) | 1
	case 8:
		if p.TCP != nil {
			p.TCP.Checksum ^= 0x5a5a
		} else {
			p.UDP.Checksum ^= 0x5a5a
		}
	case 9:
		p.IP.TTL = uint8(fields % 6)
		p.FixIPChecksum()
	case 10:
		p.IP.Version = uint8(fields % 16)
	}
	alias := a.FrameOf(p)
	if len(payload) > 0 && alias.pay == nil {
		t.Fatal("summed segment was not aliased")
	}
	contig := NewFrame(p.Serialize())

	chainA, chainC := []*Frame{alias}, []*Frame{contig}
	for i := 0; ; i++ {
		fa, fc := chainA[len(chainA)-1], chainC[len(chainC)-1]
		bit := order >> uint(i%4*2)
		sameFrame(t, i, fa, fc, bit&1 != 0, bit&2 != 0)
		if i >= len(hops) || fa.Len() < 20 {
			break
		}
		n := hops[i] % 4
		if fa.TTL() <= n {
			break
		}
		chainA = append(chainA, fa.WithTTLDecrementedBy(n))
		chainC = append(chainC, fc.WithTTLDecrementedBy(n))
	}
	// Every frame of both chains, parent or child, still denotes the same
	// bytes once everything has been parsed and materialized.
	for i := range chainA {
		sameFrame(t, i, chainA[i], chainC[i], true, true)
	}
}

// sameFrame compares two frames' observable state; parse and rawFirst
// choose whether Parse runs and whether Raw runs before it.
func sameFrame(t *testing.T, hop int, a, c *Frame, parse, rawFirst bool) {
	t.Helper()
	if a.Len() != c.Len() {
		t.Fatalf("hop %d: Len %d vs %d", hop, a.Len(), c.Len())
	}
	if a.Len() >= 20 && a.TTL() != c.TTL() {
		t.Fatalf("hop %d: TTL %d vs %d", hop, a.TTL(), c.TTL())
	}
	if rawFirst && !bytes.Equal(a.Raw(), c.Raw()) {
		t.Fatalf("hop %d: Raw differs", hop)
	}
	if parse {
		pa, da := a.Parse()
		pc, dc := c.Parse()
		if da != dc {
			t.Fatalf("hop %d: defects %v vs %v", hop, da, dc)
		}
		if !samePacket(pa, pc) {
			t.Fatalf("hop %d: parse differs:\n%v\n%v", hop, pa, pc)
		}
	}
	if !bytes.Equal(a.Raw(), c.Raw()) {
		t.Fatalf("hop %d: Raw differs", hop)
	}
}

// samePacket compares two parses field by field, ignoring checksum-cache
// and flow-key memo state.
func samePacket(a, b *Packet) bool {
	return reflect.DeepEqual(a.IP, b.IP) &&
		reflect.DeepEqual(a.TCP, b.TCP) && reflect.DeepEqual(a.UDP, b.UDP) && reflect.DeepEqual(a.ICMP, b.ICMP) &&
		bytes.Equal(a.Payload, b.Payload) && bytes.Equal(a.TrailerPadding, b.TrailerPadding) &&
		(a.Payload == nil) == (b.Payload == nil)
}
