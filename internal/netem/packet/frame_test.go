package packet

import (
	"bytes"
	"testing"
)

// Regression: less() once ignored Proto entirely, so a TCP and a UDP flow
// sharing addresses and ports collapsed into one ordering class. Two keys
// differing only in Proto must order strictly and consistently.
func TestFlowKeyLessProto(t *testing.T) {
	tcp := FlowKey{Src: srcA, Dst: dstA, SrcPort: 4000, DstPort: 80, Proto: ProtoTCP}
	udp := tcp
	udp.Proto = ProtoUDP
	if !less(tcp, udp) {
		t.Fatal("ProtoTCP (6) should order before ProtoUDP (17)")
	}
	if less(udp, tcp) {
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
