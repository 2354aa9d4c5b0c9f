package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/netem/packet"
	"repro/internal/netem/stack"
)

// applyOnWrite runs a technique's transform over a synthetic first write
// and returns the scheduled emissions.
func applyOnWrite(t *testing.T, tech Technique, params BuildParams, payload []byte, proto uint8) (*Applied, []stack.Scheduled) {
	t.Helper()
	src, dst := packet.AddrFrom("10.0.0.2"), packet.AddrFrom("203.0.113.10")
	var pkts []*packet.Packet
	fi := stack.FlowInfo{Proto: proto, Src: src, Dst: dst, SrcPort: 40000, DstPort: 80, SndNxt: 5000, RcvNxt: 9000}
	if proto == packet.ProtoTCP {
		pkts = []*packet.Packet{packet.NewTCP(src, dst, 40000, 80, 5000, 9000, packet.FlagACK|packet.FlagPSH, payload)}
	} else {
		fi.DstPort = 3478
		pkts = []*packet.Packet{packet.NewUDP(src, dst, 40000, 3478, payload)}
	}
	ap := tech.Build(params)
	return ap, ap.Transform.Transform(fi, pkts)
}

func TestInertTechniquesProduceIntendedDefects(t *testing.T) {
	payload := []byte("GET /something HTTP/1.1\r\nHost: example.com\r\n\r\n")
	cases := []struct {
		id     string
		proto  uint8
		defect packet.Defect
	}{
		{"ip-invalid-version", packet.ProtoTCP, packet.DefectIPVersion},
		{"ip-invalid-ihl", packet.ProtoTCP, packet.DefectIPHeaderLength},
		{"ip-total-length-long", packet.ProtoTCP, packet.DefectIPTotalLengthLong},
		{"ip-total-length-short", packet.ProtoTCP, packet.DefectIPTotalLengthShort},
		{"ip-wrong-protocol", packet.ProtoTCP, packet.DefectIPProtocol},
		{"ip-wrong-checksum", packet.ProtoTCP, packet.DefectIPChecksum},
		{"ip-invalid-options", packet.ProtoTCP, packet.DefectIPOptionInvalid},
		{"ip-deprecated-options", packet.ProtoTCP, packet.DefectIPOptionDeprecated},
		{"tcp-wrong-checksum", packet.ProtoTCP, packet.DefectTCPChecksum},
		{"tcp-invalid-data-offset", packet.ProtoTCP, packet.DefectTCPDataOffset},
		{"tcp-no-ack", packet.ProtoTCP, packet.DefectTCPNoACK},
		{"tcp-invalid-flags", packet.ProtoTCP, packet.DefectTCPFlagCombo},
		{"udp-invalid-checksum", packet.ProtoUDP, packet.DefectUDPChecksum},
		{"udp-length-long", packet.ProtoUDP, packet.DefectUDPLengthLong},
		{"udp-length-short", packet.ProtoUDP, packet.DefectUDPLengthShort},
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			tech, ok := TechniqueByID(c.id)
			if !ok {
				t.Fatal("missing technique")
			}
			ap, sched := applyOnWrite(t, tech, BuildParams{MatchWrite: 0, Seed: 3}, payload, c.proto)
			if len(sched) != 2 {
				t.Fatalf("scheduled %d packets, want inert + original", len(sched))
			}
			if !sched[0].Inert || sched[1].Inert {
				t.Fatal("inert flag misplaced")
			}
			_, defects := packet.Inspect(sched[0].Pkt.Serialize())
			if !defects.Has(c.defect) {
				t.Fatalf("inert packet defects = %v, want %v", defects, c.defect)
			}
			// Exactly the intended defect class: no collateral corruption
			// that a different validator might catch instead. (Options
			// techniques legitimately change lengths; wrong-protocol
			// necessarily hides the transport.)
			for _, d := range defects.Defects() {
				if d == c.defect {
					continue
				}
				switch c.id {
				case "ip-wrong-protocol", "ip-invalid-ihl", "ip-total-length-short", "tcp-invalid-data-offset":
					continue // these inherently confuse deeper parsing
				}
				t.Fatalf("collateral defect %v alongside %v", d, c.defect)
			}
			// The original packet is untouched and valid.
			_, origDefects := packet.Inspect(sched[1].Pkt.Serialize())
			if !origDefects.Empty() {
				t.Fatalf("real packet corrupted: %v", origDefects)
			}
			if len(ap.InertPayloads) != 1 {
				t.Fatalf("inert payload bookkeeping: %d", len(ap.InertPayloads))
			}
			// Inert dummy payload must differ from the real payload but
			// keep its length.
			if bytes.Equal(sched[0].Pkt.Payload, payload) {
				t.Fatal("inert payload equals real payload")
			}
		})
	}
}

func TestTTLTechniqueSetsTTL(t *testing.T) {
	tech, _ := TechniqueByID("ip-ttl-limited")
	_, sched := applyOnWrite(t, tech, BuildParams{MatchWrite: 0, InertTTL: 7, Seed: 3},
		[]byte("GET / HTTP/1.1\r\n"), packet.ProtoTCP)
	if sched[0].Pkt.IP.TTL != 7 {
		t.Fatalf("TTL = %d, want 7", sched[0].Pkt.IP.TTL)
	}
	_, defects := packet.Inspect(sched[0].Pkt.Serialize())
	if !defects.Empty() {
		t.Fatalf("TTL-limited packet must be otherwise valid: %v", defects)
	}
}

func TestSplitPreservesStreamBytes(t *testing.T) {
	payload := []byte("GET /vid HTTP/1.1\r\nHost: video.cloudfront.net\r\n\r\n")
	fields := []FieldRef{{Msg: 0, Start: 25, End: 39}}
	tech, _ := TechniqueByID("tcp-segment-split")
	for variant := 0; variant < tech.Variants; variant++ {
		_, sched := applyOnWrite(t, tech,
			BuildParams{MatchWrite: 0, Fields: fields, Seed: 3, Variant: variant}, payload, packet.ProtoTCP)
		var rebuilt []byte
		expectSeq := uint32(5000)
		for _, s := range sched {
			if s.Pkt.TCP.Seq != expectSeq {
				t.Fatalf("variant %d: seq gap at %d (want %d)", variant, s.Pkt.TCP.Seq, expectSeq)
			}
			rebuilt = append(rebuilt, s.Pkt.Payload...)
			expectSeq += uint32(len(s.Pkt.Payload))
		}
		if !bytes.Equal(rebuilt, payload) {
			t.Fatalf("variant %d: stream bytes altered", variant)
		}
		if len(sched) < 2 {
			t.Fatalf("variant %d: no split happened", variant)
		}
		// The field must straddle a boundary in at least one variant mode:
		// check no single segment contains the whole field for variant 0.
		if variant == 0 {
			for _, s := range sched {
				if bytes.Contains(s.Pkt.Payload, payload[25:39]) {
					t.Fatalf("variant 0: field intact inside one segment")
				}
			}
		}
	}
}

func TestReorderIsSeqConsistentButArrivalReversed(t *testing.T) {
	payload := []byte("GET /vid HTTP/1.1\r\nHost: video.cloudfront.net\r\n\r\n")
	fields := []FieldRef{{Msg: 0, Start: 25, End: 39}}
	tech, _ := TechniqueByID("tcp-segment-reorder")
	_, sched := applyOnWrite(t, tech,
		BuildParams{MatchWrite: 0, Fields: fields, Seed: 3, Variant: 0}, payload, packet.ProtoTCP)
	if len(sched) != 2 {
		t.Fatalf("segments = %d, want 2", len(sched))
	}
	if sched[0].Pkt.TCP.Seq <= sched[1].Pkt.TCP.Seq {
		t.Fatal("segments not reversed")
	}
	total := len(sched[0].Pkt.Payload) + len(sched[1].Pkt.Payload)
	if total != len(payload) {
		t.Fatalf("bytes lost: %d of %d", total, len(payload))
	}
}

func TestFragmentTechniqueSplitsMidBody(t *testing.T) {
	payload := bytes.Repeat([]byte("p"), 200)
	tech, _ := TechniqueByID("ip-fragment")
	_, sched := applyOnWrite(t, tech, BuildParams{MatchWrite: 0, Seed: 3}, payload, packet.ProtoTCP)
	if len(sched) != 2 {
		t.Fatalf("fragments = %d, want 2 (m=2 per §5.2)", len(sched))
	}
	if !sched[0].Pkt.IP.MoreFragments() || sched[1].Pkt.IP.MoreFragments() {
		t.Fatal("MF flags wrong")
	}
	if sched[1].Pkt.IP.FragOffset == 0 {
		t.Fatal("second fragment at offset 0")
	}
}

func TestTaxonomyRowNumbersAreUniqueAndOrdered(t *testing.T) {
	tax := Taxonomy()
	if len(tax) != 26 {
		t.Fatalf("taxonomy has %d rows, want 26", len(tax))
	}
	for i, tq := range tax {
		if tq.Row != i+1 {
			t.Fatalf("row %d has Row=%d", i, tq.Row)
		}
		if tq.ID == "" || tq.Desc == "" || tq.Build == nil {
			t.Fatalf("row %d incomplete: %+v", i, tq)
		}
	}
	if _, ok := TechniqueByID("no-such"); ok {
		t.Fatal("bogus lookup succeeded")
	}
}

func TestPauseTechniquesDelayCorrectWrite(t *testing.T) {
	for _, c := range []struct {
		id         string
		delayedIdx int // which write receives the delay
		otherIdx   int
	}{
		{"pause-before-match", 0, 1},
		{"pause-after-match", 1, 0},
	} {
		tech, _ := TechniqueByID(c.id)
		ap := tech.Build(BuildParams{MatchWrite: 0, PauseFor: 42e9, Seed: 1})
		src, dst := packet.AddrFrom("10.0.0.2"), packet.AddrFrom("203.0.113.10")
		for idx, wantDelay := range map[int]bool{c.delayedIdx: true, c.otherIdx: false} {
			fi := stack.FlowInfo{Proto: packet.ProtoTCP, Src: src, Dst: dst, SrcPort: 1, DstPort: 80, WriteIndex: idx}
			pkts := []*packet.Packet{packet.NewTCP(src, dst, 1, 80, 1, 1, packet.FlagACK, []byte("x"))}
			sched := ap.Transform.Transform(fi, pkts)
			got := sched[0].Delay > 0
			if got != wantDelay {
				t.Fatalf("%s write %d: delayed=%v want %v", c.id, idx, got, wantDelay)
			}
		}
	}
}

// TestDummyBytesMemo checks that the memoized inert payloads are the
// bytes a freshly seeded source produces, and that each caller gets its
// own copy, including callers on other goroutines at once.
func TestDummyBytesMemo(t *testing.T) {
	want := func(seed int64, n int) []byte {
		b := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(b)
		for i := range b {
			b[i] |= 0x80
		}
		return b
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, seed := range []int64{1, 99, 1234, 4003} {
				for _, n := range []int{0, 1, 7, 64, 1460} {
					for round := 0; round < 2; round++ {
						got := dummyBytes(seed, n)
						if !bytes.Equal(got, want(seed, n)) {
							t.Errorf("dummyBytes(%d, %d) round %d differs from a fresh source", seed, n, round)
						}
						for i := range got {
							got[i] = 0 // a caller's edit must not reach the memo
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
