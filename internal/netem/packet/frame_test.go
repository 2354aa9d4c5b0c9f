package packet

import (
	"bytes"
	"testing"
)

// Regression: Less once ignored Proto entirely, so a TCP and a UDP flow
// sharing addresses and ports collapsed into one ordering class. Two keys
// differing only in Proto must order strictly and consistently.
func TestFlowKeyLessProto(t *testing.T) {
	tcp := FlowKey{Src: srcA, Dst: dstA, SrcPort: 4000, DstPort: 80, Proto: ProtoTCP}
	udp := tcp
	udp.Proto = ProtoUDP
	if !tcp.Less(udp) {
		t.Fatal("ProtoTCP (6) should order before ProtoUDP (17)")
	}
	if udp.Less(tcp) {
		t.Fatal("ordering must be antisymmetric")
	}
	// Canonical forms of distinct-proto flows must stay distinct.
	c1, _ := tcp.Canonical()
	c2, _ := udp.Canonical()
	if c1 == c2 {
		t.Fatal("TCP and UDP flows canonicalized to the same key")
	}
}

func TestFrameParseCached(t *testing.T) {
	raw := NewTCP(srcA, dstA, 4000, 80, 1, 2, FlagACK, []byte("hello")).Serialize()
	f := NewFrame(raw)
	if f.Parsed() {
		t.Fatal("fresh frame claims a cached parse")
	}
	p1, d1 := f.Parse()
	p2, d2 := f.Parse()
	if p1 != p2 || d1 != d2 {
		t.Fatal("Parse is not cached: second call returned a different parse")
	}
	if !f.Parsed() {
		t.Fatal("Parsed() false after Parse()")
	}
	if !bytes.Equal(f.Raw(), raw) || f.Len() != len(raw) {
		t.Fatal("Raw/Len do not reflect the wire bytes")
	}
	if p1.TCP == nil || string(p1.Payload) != "hello" {
		t.Fatalf("cached parse wrong: %+v", p1)
	}
}

func TestInspectViewAliasesRaw(t *testing.T) {
	raw := NewTCP(srcA, dstA, 4000, 80, 1, 2, FlagACK, []byte("payload-bytes")).Serialize()
	v, _ := InspectView(raw)
	c, _ := Inspect(raw)
	if &v.Payload[0] != &raw[len(raw)-len(v.Payload)] {
		t.Fatal("InspectView payload does not alias the raw buffer")
	}
	if &c.Payload[0] == &raw[len(raw)-len(c.Payload)] {
		t.Fatal("Inspect payload aliases the raw buffer (must copy)")
	}
	if !bytes.Equal(v.Payload, c.Payload) {
		t.Fatal("view and copy parses disagree on payload")
	}
	// A view parse must be cloned before mutation; Clone detaches payload.
	q := v.Clone()
	if len(q.Payload) > 0 && &q.Payload[0] == &v.Payload[0] {
		t.Fatal("Clone did not detach the payload from the raw buffer")
	}
}

func TestWithTTLDecremented(t *testing.T) {
	p := NewTCP(srcA, dstA, 4000, 80, 9, 9, FlagACK, []byte("ttl-test"))
	p.IP.TTL = 17
	p.Finalize()
	f := NewFrame(p.Serialize())
	f.Parse() // populate the cache so the patched copy is exercised too

	// n = 1 is one router; n > 1 is a run of routers owed at once, which
	// must equal the per-hop chain byte for byte.
	for _, n := range []uint8{1, 2, 7, 16} {
		g := f.WithTTLDecrementedBy(n)
		if f.Raw()[8] != 17 {
			t.Fatal("original frame mutated")
		}
		want := 17 - n
		if g.Raw()[8] != want {
			t.Fatalf("n=%d: TTL %d, want %d", n, g.Raw()[8], want)
		}
		// The RFC 1624 incremental patch must agree with a full recompute.
		q, d := Inspect(g.Raw())
		if d.Has(DefectIPChecksum) {
			t.Fatalf("n=%d: incremental checksum update produced an invalid header checksum", n)
		}
		if q.IP.TTL != want {
			t.Fatalf("n=%d: parsed TTL %d, want %d", n, q.IP.TTL, want)
		}
		// The patched cached parse must match a fresh parse of the new bytes.
		gp, _ := g.Parse()
		if gp.IP.TTL != want || gp.IP.Checksum != q.IP.Checksum {
			t.Fatalf("n=%d: cached parse out of sync: TTL=%d cs=%04x want TTL=%d cs=%04x",
				n, gp.IP.TTL, gp.IP.Checksum, want, q.IP.Checksum)
		}
		// A chain of single decrements lands on the same bytes.
		chain := f
		for i := uint8(0); i < n; i++ {
			chain = chain.WithTTLDecrementedBy(1)
		}
		if !bytes.Equal(chain.Raw(), g.Raw()) {
			t.Fatalf("n=%d: batched decrement differs from the per-hop chain", n)
		}
	}
}

// A deliberately wrong IP checksum must stay wrong (and keep its defect)
// across a TTL decrement — hops must not repair malformed packets.
func TestWithTTLDecrementedPreservesBadChecksum(t *testing.T) {
	p := NewTCP(srcA, dstA, 4000, 80, 9, 9, FlagACK, nil)
	p.IP.TTL = 44
	p.Finalize()
	p.IP.Checksum ^= 0x5555 // corrupt after finalize
	f := NewFrame(p.Serialize())
	if _, d := f.Parse(); !d.Has(DefectIPChecksum) {
		t.Fatal("setup: checksum not actually corrupt")
	}
	g := f.WithTTLDecrementedBy(1)
	if _, d := g.Parse(); !d.Has(DefectIPChecksum) {
		t.Fatal("TTL decrement repaired a deliberately wrong checksum")
	}
	if q, d := Inspect(g.Raw()); !d.Has(DefectIPChecksum) || q.IP.TTL != 43 {
		t.Fatalf("wire bytes wrong: TTL=%d defects=%v", q.IP.TTL, d)
	}
}

// TestParsePendingTTLWithoutCopy: parsing a frame with pending TTL
// decrements reads the shared bytes without copying them, yet reports the
// TTL and header checksum of the per-hop chain, fresh or inherited, and
// Raw still produces the patched bytes.
func TestParsePendingTTLWithoutCopy(t *testing.T) {
	p := NewTCP(srcA, dstA, 4000, 80, 9, 9, FlagACK, []byte("ttl-test"))
	p.IP.TTL = 30
	p.Finalize()
	raw := p.Serialize()
	chainRaw := func(n uint8) []byte {
		b := append([]byte(nil), raw...)
		for i := uint8(0); i < n; i++ {
			decrementTTL(b)
		}
		return b
	}
	for _, warm := range []bool{false, true} {
		for _, n := range []uint8{1, 3, 12} {
			parent := NewFrame(raw)
			if warm {
				parent.Parse()
			}
			g := parent.WithTTLDecrementedBy(n)
			gp, gd := g.Parse()
			if &g.raw[0] != &raw[0] || g.ttlDelta != n {
				t.Fatalf("warm=%v n=%d: Parse copied the frame's bytes", warm, n)
			}
			want, wd := Inspect(chainRaw(n))
			if gp.IP.TTL != want.IP.TTL || gp.IP.Checksum != want.IP.Checksum || gd != wd {
				t.Fatalf("warm=%v n=%d: parse TTL=%d cs=%04x defects=%v, want TTL=%d cs=%04x defects=%v",
					warm, n, gp.IP.TTL, gp.IP.Checksum, gd, want.IP.TTL, want.IP.Checksum, wd)
			}
			if !bytes.Equal(gp.Payload, want.Payload) {
				t.Fatalf("warm=%v n=%d: payload differs", warm, n)
			}
			if !bytes.Equal(g.Raw(), chainRaw(n)) {
				t.Fatalf("warm=%v n=%d: Raw differs from the per-hop chain", warm, n)
			}
			if again, _ := g.Parse(); again != gp {
				t.Fatalf("warm=%v n=%d: Raw replaced the cached parse", warm, n)
			}
			if pp, _ := parent.Parse(); pp.IP.TTL != 30 {
				t.Fatalf("warm=%v n=%d: parent parse patched to TTL %d", warm, n, pp.IP.TTL)
			}
		}
	}
}

// decrementTTL is the per-hop reference: one router's TTL decrement with
// the header checksum updated per RFC 1624 eqn. 3, HC' = ~(~HC + ~m + m'),
// on the bytes themselves.
func decrementTTL(raw []byte) {
	oldWord := uint16(raw[8])<<8 | uint16(raw[9])
	raw[8]--
	newWord := uint16(raw[8])<<8 | uint16(raw[9])
	hc := uint16(raw[10])<<8 | uint16(raw[11])
	sum := uint32(^hc) + uint32(^oldWord) + uint32(newWord)
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	hc = ^uint16(sum)
	raw[10] = byte(hc >> 8)
	raw[11] = byte(hc)
}

// TestDecrementedChecksumMatchesPerHopChain checks the batched checksum
// against a chain of per-hop RFC 1624 updates for every 16-bit checksum
// value, valid or not, and every decrement count a TTL allows.
func TestDecrementedChecksumMatchesPerHopChain(t *testing.T) {
	hdr := make([]byte, 12)
	for _, proto := range []byte{ProtoTCP, ProtoUDP} {
		for hc := 0; hc <= 0xffff; hc++ {
			hdr[8], hdr[9], hdr[10], hdr[11] = 40, proto, byte(hc>>8), byte(hc)
			for n := uint8(1); n < 40; n++ {
				decrementTTL(hdr)
				if got, want := decrementedChecksum(uint16(hc), n), uint16(hdr[10])<<8|uint16(hdr[11]); got != want {
					t.Fatalf("proto %d checksum %04x after %d decrements: %04x, per-hop chain %04x", proto, hc, n, got, want)
				}
			}
		}
	}
}
