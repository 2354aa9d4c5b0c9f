package core

import (
	"slices"
	"testing"

	"repro/internal/netem/packet"
	"repro/internal/trace"
)

// TestProbesOfCallerTraces: traces a caller builds itself, not through the
// registry, get the same probes the builders make directly, memoized per
// trace. Two traces with one name but different bodies never share a
// probe.
func TestProbesOfCallerTraces(t *testing.T) {
	s := &Session{}
	a := trace.AmazonPrimeVideo(8 << 10)
	b := trace.AmazonPrimeVideo(9 << 10)
	same := func(what string, got, want *trace.Trace) {
		t.Helper()
		if trace.ContentHash(got) != trace.ContentHash(want) {
			t.Fatalf("%s: memoized probe differs from the direct build", what)
		}
	}
	for _, tr := range []*trace.Trace{a, b} {
		pad := s.paddedProbe(tr, 200<<10)
		same("padded", pad, padTrace(tr, 200<<10))
		same("inverted padded", s.inverted(pad), padTrace(tr, 200<<10).Invert())
		trim := s.trimmedProbe(tr, 4<<10)
		same("trimmed", trim, trimTrace(padTrace(tr, 4<<10), 4<<10))
		same("inverted trimmed", s.inverted(trim), trimTrace(tr, 4<<10).Invert())
		if s.paddedProbe(tr, 200<<10) != pad || s.trimmedProbe(tr, 4<<10) != trim {
			t.Fatal("a repeated probe request built a new probe")
		}
		// The trimmed message carries sums for its own bytes, so replays
		// of the probe never re-sum its payload.
		last := trim.Messages[len(trim.Messages)-1]
		if sums := last.CheckedSegSums(); sums == nil || !slices.Equal(sums, trace.SegmentSums(last.Data)) {
			t.Fatal("trimmed probe message has no valid segment sums")
		}
	}
	if trace.ContentHash(s.paddedProbe(a, 200<<10)) == trace.ContentHash(s.paddedProbe(b, 200<<10)) {
		t.Fatal("probes of different bodies coincide")
	}
	if s.trimmedProbe(a, 1<<20) != s.paddedProbe(a, 1<<20) {
		t.Fatal("a trim that removes nothing should return the padded probe itself")
	}
}

// TestSessionKeepsProbesPastEviction: a session holds every probe it
// derived for its whole lifetime, so probes the bounded memo evicts in
// the middle of an engagement are not rebuilt within it, while a new
// session does rebuild them.
func TestSessionKeepsProbesPastEviction(t *testing.T) {
	tr := trace.Spotify(8 << 10)
	s := &Session{}
	pad := s.paddedProbe(tr, 1<<20)
	inv := s.inverted(pad)
	// Several budgets' worth of other families evict tr's.
	for i := 0; i*(1<<20) < 2*trace.MemoBudget; i++ {
		other := trace.Spotify(8<<10 + 16*(i+1))
		(&Session{}).paddedProbe(other, 1<<20)
	}
	if s.paddedProbe(tr, 1<<20) != pad || s.inverted(pad) != inv {
		t.Fatal("a session rebuilt a probe it already held")
	}
	if (&Session{}).paddedProbe(tr, 1<<20) == pad {
		t.Fatal("the memo kept a family past several budgets of newer ones")
	}
}

// TestTwoPartProbeCarriesSegmentSums: the two-part probe is derived once
// per session, and every segment a replay builds from it with its
// precomputed sums carries the checksum a fresh Finalize gives.
func TestTwoPartProbeCarriesSegmentSums(t *testing.T) {
	s := &Session{}
	tr := trace.AmazonPrimeVideo(96 << 10)
	tp := s.twoPartProbe(tr)
	if s.twoPartProbe(tr) != tp {
		t.Fatal("a repeated two-part request built a new probe")
	}
	if trace.ContentHash(tp) != trace.ContentHash(twoPart(tr)) || len(tp.Messages) != len(tr.Messages)+2 {
		t.Fatal("memoized two-part probe differs from the direct build")
	}
	a := packet.NewArena()
	defer a.Release()
	src, dst := packet.AddrFrom("10.0.0.2"), packet.AddrFrom("203.0.113.10")
	for i, m := range tp.Messages {
		sums := m.CheckedSegSums()
		if len(m.Data) > 0 && sums == nil {
			t.Fatalf("message %d has no valid segment sums", i)
		}
		for k, sum := range sums {
			seg := m.Data[k*packet.MSS : min((k+1)*packet.MSS, len(m.Data))]
			got := a.NewTCPSummed(src, dst, 1, 80, 41000, 7, 9, packet.FlagACK, seg, sum)
			want := packet.NewTCP(src, dst, 80, 41000, 7, 9, packet.FlagACK, seg)
			if got.TCP.Checksum != want.TCP.Checksum {
				t.Fatalf("message %d segment %d: checksum %#04x, fresh Finalize gives %#04x", i, k, got.TCP.Checksum, want.TCP.Checksum)
			}
		}
	}
}
