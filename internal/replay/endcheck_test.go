package replay

import (
	"bytes"
	"math/rand"
	"strings"
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

// reference is what the checks mean: the whole received stream against
// the concatenated expected one.
func reference(received, expected []byte) (got403, intact bool) {
	return bytes.Contains(received, []byte(blockLine)) && !bytes.Contains(expected, []byte(blockLine)),
		bytes.Equal(received, expected)
}

// runCheck feeds received to a server→client check in chunks cut at cuts
// (ascending offsets into received).
func runCheck(sc *script, received []byte, cuts []int) *streamCheck {
	c := &streamCheck{steps: sc.server, total: sc.s2cLen, scan: true}
	at := 0
	for _, cut := range append(cuts, len(received)) {
		if cut > at {
			c.feed(received[at:cut])
			at = cut
		}
	}
	return c
}

// chunkings returns the ways checkAgainstReference delivers received: in
// one piece, byte by byte, cut inside every occurrence of the block line
// at each of its inner offsets, cut at every step boundary of the script,
// and in random chunks.
func chunkings(sc *script, received []byte, rng *rand.Rand) [][]int {
	bytewise := make([]int, len(received))
	for i := range bytewise {
		bytewise[i] = i
	}
	out := [][]int{nil, bytewise}
	for at := 0; ; {
		k := bytes.Index(received[at:], []byte(blockLine))
		if k < 0 {
			break
		}
		for j := 1; j < len(blockLine); j++ {
			out = append(out, []int{at + k + j})
		}
		at += k + 1
	}
	var steps []int
	n := 0
	for _, st := range sc.server {
		n += len(st.data)
		if n < len(received) {
			steps = append(steps, n)
		}
	}
	out = append(out, steps)
	for i := 0; i < 4; i++ {
		var cuts []int
		for at := rng.Intn(8); at < len(received); at += 1 + rng.Intn(12) {
			cuts = append(cuts, at)
		}
		out = append(out, cuts)
	}
	return out
}

// checkAgainstReference runs the check over every chunking of received
// and compares got403, intact and the byte count with the reference.
func checkAgainstReference(t *testing.T, sc *script, expected, received []byte) (got403, intact bool) {
	t.Helper()
	want403, wantIntact := reference(received, expected)
	rng := rand.New(rand.NewSource(int64(len(received))))
	for _, cuts := range chunkings(sc, received, rng) {
		c := runCheck(sc, received, cuts)
		if c.got403(sc) != want403 || c.intact() != wantIntact || c.n != len(received) {
			t.Fatalf("received %q against %q cut at %v: got403=%v intact=%v n=%d, want %v %v %d",
				received, expected, cuts, c.got403(sc), c.intact(), c.n, want403, wantIntact, len(received))
		}
	}
	return want403, wantIntact
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

// FuzzStreamCheck compares the running check with the reference over
// arbitrary scripts, received streams and chunkings. script holds the
// server's writes separated by '|'; each byte of chunks sets the length
// of the next delivery (1–16 bytes), the last length repeating.
func FuzzStreamCheck(f *testing.F) {
	f.Add("HTTP/1.1 200 OK\r\n\r\n|body", []byte("HTTP/1.1 200 OK\r\n\r\nbHTTP/1.1 403 Forbidden"), []byte{3, 7, 1})
	f.Add("HTTP/1.1 403 Fo|rbidden", []byte("HTTP/1.1 403 Forbidden"), []byte{15})
	f.Add("aHTTP/1.1 40|0", []byte("aHTTP/1.1 403 Forbidden\r\n"), []byte{12, 1})
	f.Add("abc||def", []byte("abcdef"), []byte{2})
	f.Add("", []byte(""), []byte{})
	f.Fuzz(func(t *testing.T, script string, received, chunks []byte) {
		sc, expected := scriptFor(strings.Split(script, "|")...)
		want403, wantIntact := reference(received, expected)
		var cuts []int
		size := 1
		for at, i := 0, 0; at < len(received); at, i = at+size, i+1 {
			if i < len(chunks) {
				size = 1 + int(chunks[i]%16)
			}
			cuts = append(cuts, at)
		}
		c := runCheck(sc, received, cuts)
		if c.got403(sc) != want403 || c.intact() != wantIntact || c.n != len(received) {
			t.Fatalf("received %q against %q cut at %v: got403=%v intact=%v n=%d, want %v %v %d",
				received, expected, cuts, c.got403(sc), c.intact(), c.n, want403, wantIntact, len(received))
		}
	})
}
