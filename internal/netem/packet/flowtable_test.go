package packet

import (
	"math/rand"
	"testing"
)

// ftCell is a table value that knows which table (owner) it belongs to,
// so a lookup that hands out another table's record is caught even when
// the record's contents match.
type ftCell struct {
	val   int
	owner int
}

// ftSide is one table under test with its reference: a plain map of the
// values each key should hold.
type ftSide struct {
	t     FlowTable[*ftCell]
	ref   map[FlowKey]int
	owner int
}

// ftKeys is a small key space, so operations keep meeting the same keys
// (and the last hit). It includes a key and its reverse, equal addresses,
// and equal ports.
var ftKeys = []FlowKey{
	{Proto: ProtoTCP, Src: Addr{10, 0, 0, 1}, Dst: Addr{10, 0, 0, 2}, SrcPort: 40000, DstPort: 80},
	{Proto: ProtoTCP, Src: Addr{10, 0, 0, 2}, Dst: Addr{10, 0, 0, 1}, SrcPort: 80, DstPort: 40000},
	{Proto: ProtoUDP, Src: Addr{10, 0, 0, 1}, Dst: Addr{10, 0, 0, 2}, SrcPort: 40000, DstPort: 80},
	{Proto: ProtoTCP, Src: Addr{10, 0, 0, 1}, Dst: Addr{10, 0, 0, 1}, SrcPort: 40000, DstPort: 80},
	{Proto: ProtoTCP, Src: Addr{10, 0, 0, 1}, Dst: Addr{10, 0, 0, 2}, SrcPort: 80, DstPort: 80},
	{Proto: ProtoTCP, Src: Addr{10, 0, 0, 1}, Dst: Addr{10, 0, 0, 2}, SrcPort: 40001, DstPort: 80},
}

// runFlowTableOps drives two tables (an original and, after the first
// Clone, its clone) through ops, one byte per operation, and checks each
// against its reference map. The byte's low three bits pick the
// operation, the next three the key, and the top bit the table.
func runFlowTableOps(t *testing.T, ops []byte) {
	t.Helper()
	sides := [2]*ftSide{
		{ref: map[FlowKey]int{}, owner: 0},
		{ref: map[FlowKey]int{}, owner: 1},
	}
	nextVal, nextOwner := 1, 2
	for i, b := range ops {
		s := sides[b>>7]
		k := ftKeys[int(b>>3&7)%len(ftKeys)]
		switch b & 7 {
		case 0, 1: // Get, twice as often: the last hit needs repeats
			c, ok := s.t.Get(k)
			want, wantOK := s.ref[k]
			if ok != wantOK {
				t.Fatalf("op %d: Get(%v) found=%v, want %v", i, k, ok, wantOK)
			}
			if ok && (c.owner != s.owner || c.val != want) {
				t.Fatalf("op %d: Get(%v) = %+v, want val %d owner %d", i, k, *c, want, s.owner)
			}
		case 2: // Put a new record
			s.t.Put(k, &ftCell{val: nextVal, owner: s.owner})
			s.ref[k] = nextVal
			nextVal++
		case 3: // Delete
			s.t.Delete(k)
			delete(s.ref, k)
		case 4: // mutate the stored record in place
			if c, ok := s.t.Get(k); ok {
				c.val += 1000
				s.ref[k] += 1000
			}
		case 5: // Clone this table over the other one
			o := sides[1-b>>7]
			o.owner = nextOwner
			nextOwner++
			owner := o.owner
			o.t = s.t.Clone(func(c *ftCell) *ftCell { return &ftCell{val: c.val, owner: owner} })
			o.ref = make(map[FlowKey]int, len(s.ref))
			for k, v := range s.ref {
				o.ref[k] = v
			}
		case 6: // Reset
			s.t.Reset()
			clear(s.ref)
		case 7: // Len and Range
			if s.t.Len() != len(s.ref) {
				t.Fatalf("op %d: Len = %d, want %d", i, s.t.Len(), len(s.ref))
			}
			seen := 0
			s.t.Range(func(k FlowKey, c *ftCell) {
				if want, ok := s.ref[k]; !ok || c.val != want || c.owner != s.owner {
					t.Fatalf("op %d: Range yields %v = %+v, reference has %d (%v)", i, k, *c, want, ok)
				}
				seen++
			})
			if seen != len(s.ref) {
				t.Fatalf("op %d: Range yields %d entries, want %d", i, seen, len(s.ref))
			}
		}
	}
}

// ftOp encodes one operation for runFlowTableOps.
func ftOp(code, key, side int) byte { return byte(side<<7 | key<<3 | code) }

// TestFlowTableMatchesMap checks FlowTable against a plain map over
// scripted and random operation sequences: a lookup must never answer
// from a last hit that a Put, Delete, Reset or Clone made stale, and a
// clone must never hand out the original's records.
func TestFlowTableMatchesMap(t *testing.T) {
	const get, put, del, mut, clone, reset, scan = 0, 2, 3, 4, 5, 6, 7
	scripts := map[string][]byte{
		"delete the last hit":  {ftOp(put, 0, 0), ftOp(get, 0, 0), ftOp(del, 0, 0), ftOp(get, 0, 0)},
		"replace the last hit": {ftOp(put, 0, 0), ftOp(get, 0, 0), ftOp(put, 0, 0), ftOp(get, 0, 0)},
		"reset after a hit":    {ftOp(put, 1, 0), ftOp(get, 1, 0), ftOp(reset, 0, 0), ftOp(get, 1, 0)},
		"clone after a hit": {ftOp(put, 2, 0), ftOp(get, 2, 0), ftOp(clone, 0, 0),
			ftOp(get, 2, 1), ftOp(mut, 2, 1), ftOp(get, 2, 0), ftOp(get, 2, 1), ftOp(scan, 0, 0), ftOp(scan, 0, 1)},
		"clone then delete in the clone": {ftOp(put, 3, 0), ftOp(get, 3, 0), ftOp(clone, 0, 0),
			ftOp(del, 3, 1), ftOp(get, 3, 1), ftOp(get, 3, 0)},
		"reverse keys are distinct": {ftOp(put, 0, 0), ftOp(get, 1, 0), ftOp(put, 1, 0), ftOp(get, 0, 0), ftOp(get, 1, 0)},
	}
	for name, ops := range scripts {
		t.Run(name, func(t *testing.T) { runFlowTableOps(t, ops) })
	}
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 300; seq++ {
		ops := make([]byte, 200)
		rng.Read(ops)
		runFlowTableOps(t, ops)
	}
}

func FuzzFlowTable(f *testing.F) {
	f.Add([]byte{ftOp(2, 0, 0), ftOp(0, 0, 0), ftOp(3, 0, 0), ftOp(0, 0, 0)})
	f.Add([]byte{ftOp(2, 2, 0), ftOp(0, 2, 0), ftOp(5, 0, 0), ftOp(4, 2, 1), ftOp(0, 2, 0), ftOp(0, 2, 1)})
	f.Fuzz(func(t *testing.T, ops []byte) { runFlowTableOps(t, ops) })
}

// lessByBytes is the flow-key order as first written: addresses compared
// as byte strings. Less and Canonical must agree with it exactly.
func lessByBytes(a, b FlowKey) bool {
	if a.Proto != b.Proto {
		return a.Proto < b.Proto
	}
	if a.Src != b.Src {
		return string(a.Src[:]) < string(b.Src[:])
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.Dst != b.Dst {
		return string(a.Dst[:]) < string(b.Dst[:])
	}
	return a.DstPort < b.DstPort
}

// randFlowKey draws keys whose fields often coincide: addresses and ports
// come from small pools half the time, so equal addresses, equal ports
// and keys equal to their reverse all occur.
func randFlowKey(rng *rand.Rand) FlowKey {
	addr := func() Addr {
		if rng.Intn(2) == 0 {
			return Addr{10, 0, 0, byte(rng.Intn(3))}
		}
		var a Addr
		rng.Read(a[:])
		return a
	}
	port := func() uint16 {
		if rng.Intn(2) == 0 {
			return uint16(rng.Intn(3)) << 15
		}
		return uint16(rng.Uint32())
	}
	protos := []uint8{ProtoTCP, ProtoUDP, ProtoICMP}
	return FlowKey{Proto: protos[rng.Intn(len(protos))], Src: addr(), Dst: addr(), SrcPort: port(), DstPort: port()}
}

// TestCanonicalMatchesByteOrder checks the integer Canonical and Less
// against the byte-string order, and the parse's stored key against
// Flow().Canonical().
func TestCanonicalMatchesByteOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		k, o := randFlowKey(rng), randFlowKey(rng)
		if rng.Intn(4) == 0 {
			o = k.Reverse()
		}
		if k.Less(o) != lessByBytes(k, o) {
			t.Fatalf("Less(%v, %v) = %v, byte order says %v", k, o, k.Less(o), lessByBytes(k, o))
		}
		r := k.Reverse()
		want, wantFwd := r, false
		if lessByBytes(k, r) {
			want, wantFwd = k, true
		}
		if got, fwd := k.Canonical(); got != want || fwd != wantFwd {
			t.Fatalf("Canonical(%v) = %v, %v; want %v, %v", k, got, fwd, want, wantFwd)
		}
	}
	for i := 0; i < 2000; i++ {
		k := randFlowKey(rng)
		var raw []byte
		switch i % 4 {
		case 0:
			raw = NewTCP(k.Src, k.Dst, k.SrcPort, k.DstPort, 1, 2, FlagACK, []byte("x")).Serialize()
		case 1:
			raw = NewUDP(k.Src, k.Dst, k.SrcPort, k.DstPort, []byte("x")).Serialize()
		case 2:
			raw = NewICMPTimeExceeded(k.Src, k.Dst, nil).Serialize()
		case 3:
			raw = Fragment(NewTCP(k.Src, k.Dst, k.SrcPort, k.DstPort, 1, 2, FlagACK, make([]byte, 64)), 2)[1].Serialize()
		}
		p, _ := InspectView(raw)
		want, wantFwd := p.Flow().Canonical()
		if got, fwd := p.CanonicalFlow(); got != want || fwd != wantFwd {
			t.Fatalf("parse %d: CanonicalFlow = %v, %v; want %v, %v", i, got, fwd, want, wantFwd)
		}
	}
}
