package packet

import (
	"bytes"
	"reflect"
	"testing"
)

// TestArenaWireMatchesSerialize checks that arena-built packets and wire
// buffers are byte-identical to their heap counterparts.
func TestArenaWireMatchesSerialize(t *testing.T) {
	a := NewArena()
	defer a.Release()

	pay := []byte("GET /video HTTP/1.1\r\nHost: example.com\r\n\r\n")
	heap := NewTCP(srcA, dstA, 40000, 80, 1000, 2000, FlagACK|FlagPSH, pay)
	ar := a.NewTCP(srcA, dstA, 0, 40000, 80, 1000, 2000, FlagACK|FlagPSH, pay)
	if !bytes.Equal(heap.Serialize(), a.Wire(ar)) {
		t.Fatal("arena TCP wire bytes differ from heap Serialize")
	}

	heapU := NewUDP(srcA, dstA, 5000, 3478, []byte{0, 1, 0, 8})
	arU := a.NewUDP(srcA, dstA, 0, 5000, 3478, []byte{0, 1, 0, 8})
	if !bytes.Equal(heapU.Serialize(), a.Wire(arU)) {
		t.Fatal("arena UDP wire bytes differ from heap Serialize")
	}
}

// TestArenaFrameParseRoundTrip checks that an arena frame parses to the
// fields the builder was given, including via the payload-sum hint path
// (FrameOf of a finalized packet seeds checksum verification).
func TestArenaFrameParseRoundTrip(t *testing.T) {
	a := NewArena()
	defer a.Release()

	pay := []byte("0123456789abcdef0123456789abcdef")
	p := a.NewTCP(srcA, dstA, 0, 40000, 80, 7, 9, FlagACK, pay)
	f := a.FrameOf(p)
	q, defects := f.Parse()
	if !defects.Empty() {
		t.Fatalf("stack-built frame has defects: %v", defects)
	}
	if q.TCP == nil || q.TCP.Seq != 7 || q.TCP.Ack != 9 || !bytes.Equal(q.Payload, pay) {
		t.Fatalf("parse mismatch: %+v payload=%q", q.TCP, q.Payload)
	}
}

// TestArenaHintDoesNotMaskCorruption: the payload-sum hint must not let a
// deliberately corrupted transport checksum parse clean — the hint is the
// true payload sum, so comparison against the stored checksum still fails.
func TestArenaHintDoesNotMaskCorruption(t *testing.T) {
	a := NewArena()
	defer a.Release()

	p := a.NewTCP(srcA, dstA, 0, 40000, 80, 1, 0, FlagACK, []byte("payload-bytes"))
	p.TCP.Checksum ^= 0xbeef // corrupt after Finalize, like the techniques do
	f := a.FrameOf(p)
	if _, defects := f.Parse(); !defects.Has(DefectTCPChecksum) {
		t.Fatalf("corrupted checksum parsed clean: %v", defects)
	}
}

// TestArenaResetRecycles checks index-based reuse: after Reset the arena
// hands out storage again without growing, and a full slab chunk of
// frames stays addressable.
func TestArenaResetRecycles(t *testing.T) {
	a := NewArena()
	defer a.Release()

	for round := 0; round < 3; round++ {
		for i := 0; i < arenaFrameChunk+5; i++ { // force a second frame slab
			p := a.NewTCP(srcA, dstA, 0, 40000, uint16(80+i%7), uint32(i), 0, FlagACK, []byte("x"))
			f := a.FrameOf(p)
			if f.Len() != p.wireLen() {
				t.Fatalf("round %d frame %d: len %d != %d", round, i, f.Len(), p.wireLen())
			}
		}
		if a.fi == 0 {
			t.Fatal("expected second frame slab in use")
		}
		a.Reset()
		if a.fi != 0 || a.fn != 0 || a.bi != 0 || a.bn != 0 || a.pi != 0 || a.pn != 0 {
			t.Fatalf("Reset did not rewind cursors: %+v", a)
		}
	}
}

// TestArenaBytesIsolation checks that Bytes hands out non-overlapping
// capped slices: appending past a buffer's capacity must not clobber its
// neighbour.
func TestArenaBytesIsolation(t *testing.T) {
	a := NewArena()
	defer a.Release()

	b1 := a.Bytes(8)
	for i := range b1 {
		b1[i] = 0xAA
	}
	b2 := a.Bytes(8)
	for i := range b2 {
		b2[i] = 0xBB
	}
	grown := append(b1, 0xCC, 0xCC) // must reallocate, not spill into b2
	for i, v := range b2 {
		if v != 0xBB {
			t.Fatalf("neighbour byte %d clobbered: %#x", i, v)
		}
	}
	if &grown[0] == &b1[0] {
		t.Fatal("append past cap reused the arena slab")
	}
}

// TestArenaReleaseReuse checks the pool round-trip: a released arena comes
// back (possibly to another owner) fully rewound.
func TestArenaReleaseReuse(t *testing.T) {
	a := NewArena()
	a.Bytes(100)
	a.NewFrame([]byte{1, 2, 3})
	a.Release()

	// The pool may or may not hand back the same arena; either way the
	// one we get must be rewound and usable.
	b := NewArena()
	defer b.Release()
	if b.fn != 0 || b.bn != 0 || b.pn != 0 {
		t.Fatalf("pooled arena not rewound: %+v", b)
	}
	raw := b.Bytes(4)
	copy(raw, "abcd")
	if string(raw) != "abcd" {
		t.Fatal("pooled arena buffer unusable")
	}
}

// TestArenaTCPAliasesPayload documents the aliasing contract: arena
// builders alias the payload slice rather than copying it, relying on the
// repository-wide invariant that payload bytes are never mutated in place.
func TestArenaTCPAliasesPayload(t *testing.T) {
	a := NewArena()
	defer a.Release()

	pay := []byte("aliased")
	p := a.NewTCP(srcA, dstA, 0, 1, 2, 0, 0, FlagACK, pay)
	if &p.Payload[0] != &pay[0] {
		t.Fatal("arena NewTCP copied the payload; expected aliasing")
	}
}

// TestArenaResetZeroesReusedSlots: Reset clears only the slots handed out
// since the last Reset, yet every slot handed out afterwards is zero,
// whether the previous cycle filled whole slabs or part of one.
func TestArenaResetZeroesReusedSlots(t *testing.T) {
	a := NewArena()
	defer a.Release()
	raw := NewTCP(srcA, dstA, 4000, 80, 1, 2, FlagACK, []byte("x")).Serialize()
	// Cycles of different lengths: part of one slab, more than a slab,
	// then part of one again over slots the longer cycle dirtied.
	for _, n := range []int{3, arenaFrameChunk + 7, 5, 2*arenaFrameChunk + 1, 1} {
		for i := 0; i < n; i++ {
			f := a.frame()
			if !reflect.ValueOf(f).Elem().IsZero() {
				t.Fatalf("cycle of %d: frame %d handed out dirty: %+v", n, i, *f)
			}
			pa := a.parse()
			if !reflect.ValueOf(pa).Elem().IsZero() {
				t.Fatalf("cycle of %d: parse block %d handed out dirty", n, i)
			}
			*f = Frame{raw: raw, ttlDelta: 1, ar: a, psN: 1}
			pa.pkt.IP.TTL = 9
			pa.pkt.TCP = &pa.tcp
			pa.tcp.Seq = 7
		}
		a.Reset()
	}
}
