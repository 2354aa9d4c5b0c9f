package replay

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// scriptFor builds the replay script of a trace whose server writes are
// s2c, each a separate message (so its stream has segment boundaries).
func scriptFor(s2c ...string) (*script, []byte) {
	tr := &trace.Trace{Name: "end-check", Messages: []trace.Message{
		{Dir: trace.ClientToServer, Data: []byte("GET / HTTP/1.1\r\n\r\n")},
	}}
	var stream []byte
	for _, m := range s2c {
		tr.Messages = append(tr.Messages, trace.Message{Dir: trace.ServerToClient, Data: []byte(m)})
		stream = append(stream, m...)
	}
	return scriptOf(tr), stream
}

// reference is what the end checks meant when they concatenated the
// expected stream.
func reference(received, expected []byte) (got403, intact bool) {
	return bytes.Contains(received, blockLine) && !bytes.Contains(expected, blockLine),
		bytes.Equal(received, expected)
}

func checkAgainstReference(t *testing.T, sc *script, expected, received []byte) (got403, intact bool) {
	t.Helper()
	got403, intact = sc.checkS2C(received)
	want403, wantIntact := reference(received, expected)
	if got403 != want403 || intact != wantIntact {
		t.Fatalf("received %q against %q: got403=%v intact=%v, want %v %v",
			received, expected, got403, intact, want403, wantIntact)
	}
	return got403, intact
}

func TestEndChecksBlockPageAcrossSegmentBoundary(t *testing.T) {
	sc, expected := scriptFor("HTTP/1.1 200 OK\r\n\r\n", "aaaaaaaaaaHTTP/1.1 40", "0 Bad\r\nzzzz")
	// Injected after the status line: the page straddles the boundary
	// between the expected stream's first and second segments.
	received := append(append([]byte(nil), expected[:15]...), "HTTP/1.1 403 Forbidden\r\n\r\n"...)
	if got403, _ := checkAgainstReference(t, sc, expected, received); !got403 {
		t.Fatal("block page after a matching prefix not seen")
	}
	// The page starts inside the matching prefix: the received bytes agree
	// with "HTTP/1.1 40" in the second segment and diverge only at "3".
	at := bytes.Index(expected, []byte("HTTP/1.1 40"))
	received = append(append([]byte(nil), expected[:at+len("HTTP/1.1 40")]...), "3 Forbidden"...)
	if got403, _ := checkAgainstReference(t, sc, expected, received); !got403 {
		t.Fatal("block page whose start matches the expected stream not seen")
	}
	// A page in place of the whole response.
	if got403, _ := checkAgainstReference(t, sc, expected, []byte("HTTP/1.1 403 Forbidden\r\n")); !got403 {
		t.Fatal("a bare block page not seen")
	}
}

func TestEndChecksTraceServingTheStatusLine(t *testing.T) {
	sc, expected := scriptFor("HTTP/1.1 403 Fo", "rbidden\r\n\r\nbody")
	if got403, intact := checkAgainstReference(t, sc, expected, expected); got403 || !intact {
		t.Fatalf("the trace's own 403 read as a block page (got403=%v intact=%v)", got403, intact)
	}
	if got403, _ := checkAgainstReference(t, sc, expected, []byte("HTTP/1.1 403 Forbidden\r\n")); got403 {
		t.Fatal("a 403 is no evidence when the trace serves one itself")
	}
}

func TestEndChecksIntegrity(t *testing.T) {
	sc, expected := scriptFor("HTTP/1.1 200 OK\r\n\r\n", "0123456789", "abcdefghij")
	if _, intact := checkAgainstReference(t, sc, expected, expected); !intact {
		t.Fatal("exact stream judged broken")
	}
	for _, n := range []int{0, 1, 19, 25, len(expected) - 1} {
		if _, intact := checkAgainstReference(t, sc, expected, expected[:n]); intact {
			t.Fatalf("stream truncated to %d bytes judged intact", n)
		}
	}
	for _, i := range []int{0, 18, 19, 29, len(expected) - 1} {
		bad := append([]byte(nil), expected...)
		bad[i] ^= 0x20
		if _, intact := checkAgainstReference(t, sc, expected, bad); intact {
			t.Fatalf("stream corrupted at byte %d judged intact", i)
		}
	}
	if _, intact := checkAgainstReference(t, sc, expected, append(append([]byte(nil), expected...), 'x')); intact {
		t.Fatal("stream with a trailing byte judged intact")
	}
}

// TestEndChecksMatchReference compares the checks with the concatenating
// reference on random streams over a tiny alphabet, where partial status
// lines, injected pages and corruptions collide with segment boundaries.
func TestEndChecksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	piece := func() string {
		parts := []string{"HTTP/1.1 ", "403 ", "Forbidden", "200", "a", "b", ""}
		var b []byte
		for n := rng.Intn(5); n >= 0; n-- {
			b = append(b, parts[rng.Intn(len(parts))]...)
		}
		return string(b)
	}
	for i := 0; i < 3000; i++ {
		segs := make([]string, 1+rng.Intn(4))
		for j := range segs {
			segs[j] = piece()
		}
		sc, expected := scriptFor(segs...)
		cut := rng.Intn(len(expected) + 1)
		received := append(append([]byte(nil), expected[:cut]...), piece()...)
		if rng.Intn(3) == 0 {
			received = append(received, expected[cut:]...)
		}
		if len(received) > 0 && rng.Intn(4) == 0 {
			received[rng.Intn(len(received))] ^= 1
		}
		checkAgainstReference(t, sc, expected, received)
	}
}
