package dpi

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/netem"
	"repro/internal/netem/packet"
	"repro/internal/netem/vclock"
)

func newProxyRig() (*rig, *TransparentProxy) {
	r := &rig{clock: vclock.New()}
	r.env = netem.New(r.clock, cAddr, sAddr)
	proxy := &TransparentProxy{
		Label: "proxy",
		Ports: []uint16{80},
		Rules: []Rule{{
			Class: "video", Family: FamilyHTTP, Dir: MatchEither,
			Keywords: [][]byte{[]byte("GET "), []byte("Content-Type: video")},
			Ports:    []uint16{80},
		}},
		FirstPacketGate: true,
	}
	r.env.Append(proxy)
	r.env.SetServer(netem.EndpointFunc(func(raw []byte) {
		r.atServer = append(r.atServer, append([]byte(nil), raw...))
	}))
	r.env.SetClient(netem.EndpointFunc(func(raw []byte) {
		r.atClient = append(r.atClient, append([]byte(nil), raw...))
	}))
	return r, proxy
}

func serverPayloads(r *rig) []byte {
	var out []byte
	for _, raw := range r.atServer {
		p, _ := packet.Inspect(raw)
		out = append(out, p.Payload...)
	}
	return out
}

func TestProxyNormalizesSegments(t *testing.T) {
	r, _ := newProxyRig()
	f := r.newFlow(40000)
	// Deliberately reordered split of one request.
	f.sendAt(16, "keyword-tail\r\n\r\n")
	f.send("GET /vid HTTP/1.") // exactly 16 bytes, abutting the tail
	r.clock.Run()
	got := serverPayloads(r)
	if !bytes.Contains(got, []byte("GET /vid HTTP/1.")) {
		t.Fatalf("normalized stream missing head: %q", got)
	}
	// The proxy must deliver in order despite reordering.
	if bytes.Index(got, []byte("GET /vid")) > bytes.Index(got, []byte("keyword-tail")) {
		t.Fatalf("proxy did not reorder into stream order: %q", got)
	}
}

func TestProxyOverlapFirstCopyWins(t *testing.T) {
	r, _ := newProxyRig()
	f := r.newFlow(40000)
	// A 17-byte head overlaps a buffered tail at +16 by one byte; the
	// head's copy of the overlapping byte must win and the tail must still
	// drain.
	f.sendAt(16, "Xeyword-tail")
	f.send("GET /vid HTTP/1.Z") // 17 bytes; 'Z' overlaps the tail's 'X'
	r.clock.Run()
	got := serverPayloads(r)
	if !bytes.Contains(got, []byte("GET /vid HTTP/1.Zeyword-tail")) {
		t.Fatalf("overlap handling wrong: %q", got)
	}
}

func TestProxyDropsMalformed(t *testing.T) {
	r, _ := newProxyRig()
	f := r.newFlow(40000)
	bad := packet.NewTCP(cAddr, sAddr, f.sport, 80, f.seq, f.ack, packet.FlagACK|packet.FlagPSH, []byte("INERT"))
	bad.TCP.Checksum ^= 0xdead
	r.env.FromClient(bad.Serialize())
	r.clock.Run()
	if bytes.Contains(serverPayloads(r), []byte("INERT")) {
		t.Fatal("proxy forwarded a wrong-checksum segment")
	}
}

func TestProxyDropsMidstreamFlows(t *testing.T) {
	r, _ := newProxyRig()
	// No SYN seen: a terminating proxy cannot adopt the connection.
	p := packet.NewTCP(cAddr, sAddr, 40000, 80, 777, 1, packet.FlagACK|packet.FlagPSH, []byte("GET / HTTP/1.1\r\n"))
	r.env.FromClient(p.Serialize())
	r.clock.Run()
	if len(serverPayloads(r)) != 0 {
		t.Fatal("proxy forwarded midstream data")
	}
}

func TestProxyBypassesOtherPorts(t *testing.T) {
	r, proxy := newProxyRig()
	p := packet.NewTCP(cAddr, sAddr, 40000, 8080, 777, 1, packet.FlagACK|packet.FlagPSH, []byte("GET /vid HTTP/1.1\r\n"))
	r.env.FromClient(p.Serialize())
	r.clock.Run()
	if len(r.atServer) != 1 {
		t.Fatal("non-proxied port did not pass through")
	}
	key := packet.FlowKey{Proto: packet.ProtoTCP, Src: cAddr, Dst: sAddr, SrcPort: 40000, DstPort: 8080}
	if proxy.FlowClass(key) != "" {
		t.Fatal("proxy classified a bypassed port")
	}
}

func TestProxyClassifiesOnResponse(t *testing.T) {
	r, proxy := newProxyRig()
	f := r.newFlow(40000)
	f.send("GET /vid HTTP/1.1\r\nHost: x\r\n\r\n")
	if proxy.FlowClass(f.key()) != "" {
		t.Fatal("classified before the response revealed Content-Type")
	}
	resp := packet.NewTCP(sAddr, cAddr, 80, f.sport, f.serverSeq, f.seq, packet.FlagACK|packet.FlagPSH,
		[]byte("HTTP/1.1 200 OK\r\nContent-Type: video/mp4\r\n\r\n"))
	r.env.FromServer(resp.Serialize())
	r.clock.Run()
	if proxy.FlowClass(f.key()) != "video" {
		t.Fatalf("response-side rule did not fire: %q", proxy.FlowClass(f.key()))
	}
}

func TestStatefulFirewallDropsOutOfWindow(t *testing.T) {
	clock := vclock.New()
	env := netem.New(clock, cAddr, sAddr)
	fw := &StatefulFirewall{Label: "fw", DropOutOfWindow: true}
	env.Append(fw)
	var atServer []*packet.Packet
	env.SetServer(netem.EndpointFunc(func(raw []byte) {
		p, _ := packet.Inspect(raw)
		atServer = append(atServer, p)
	}))
	env.SetClient(netem.EndpointFunc(func([]byte) {}))

	syn := packet.NewTCP(cAddr, sAddr, 40000, 80, 1000, 0, packet.FlagSYN, nil)
	env.FromClient(syn.Serialize())
	ok := packet.NewTCP(cAddr, sAddr, 40000, 80, 1001, 1, packet.FlagACK|packet.FlagPSH, []byte("in-window"))
	env.FromClient(ok.Serialize())
	bad := packet.NewTCP(cAddr, sAddr, 40000, 80, 1001+2_000_000, 1, packet.FlagACK|packet.FlagPSH, []byte("wild-seq"))
	env.FromClient(bad.Serialize())
	clock.Run()
	if len(atServer) != 2 { // SYN + in-window data
		t.Fatalf("server got %d packets, want 2", len(atServer))
	}
	for _, p := range atServer {
		if bytes.Contains(p.Payload, []byte("wild-seq")) {
			t.Fatal("out-of-window segment leaked")
		}
	}
}

func TestStatefulFirewallDropsFragments(t *testing.T) {
	clock := vclock.New()
	env := netem.New(clock, cAddr, sAddr)
	fw := &StatefulFirewall{Label: "fw", DropFragments: true}
	env.Append(fw)
	n := 0
	env.SetServer(netem.EndpointFunc(func([]byte) { n++ }))
	p := packet.NewTCP(cAddr, sAddr, 40000, 80, 1, 0, packet.FlagACK, make([]byte, 600))
	p.IP.ID = 5
	p.Finalize()
	for _, f := range packet.Fragment(p, 2) {
		env.FromClient(f.Serialize())
	}
	clock.Run()
	if n != 0 {
		t.Fatalf("fragments leaked: %d", n)
	}
}

func TestRuleMatching(t *testing.T) {
	r := NewRule("c", FamilyHTTP, MatchC2S, "alpha", "beta")
	if !r.MatchBytes([]byte("xx alpha yy beta zz")) {
		t.Fatal("conjunction failed")
	}
	if r.MatchBytes([]byte("only alpha here")) {
		t.Fatal("partial conjunction matched")
	}
	r.Ports = []uint16{80, 443}
	if !r.AppliesToPort(443) || r.AppliesToPort(8080) {
		t.Fatal("port filter wrong")
	}
}

func TestFamilyRecognition(t *testing.T) {
	cases := []struct {
		fam    Family
		data   string
		full   bool
		viable bool
	}{
		{FamilyHTTP, "GET / HTTP/1.1", true, true},
		{FamilyHTTP, "G", false, true},
		{FamilyHTTP, "XET /", false, false},
		{FamilyTLS, "\x16\x03\x01", true, true},
		{FamilyTLS, "\x16", false, true},
		{FamilyTLS, "\x17\x03", false, false},
		{FamilyAny, "anything", true, true},
	}
	for _, c := range cases {
		if got := RecognizeFamily(c.fam, []byte(c.data)); got != c.full {
			t.Errorf("RecognizeFamily(%s, %q) = %v", c.fam, c.data, got)
		}
		if got := FamilyViable(c.fam, []byte(c.data)); got != c.viable {
			t.Errorf("FamilyViable(%s, %q) = %v", c.fam, c.data, got)
		}
	}
	stun := []byte{0, 1, 0, 0, 0x21, 0x12, 0xa4, 0x42}
	if !RecognizeFamily(FamilySTUN, stun) {
		t.Error("STUN cookie not recognized")
	}
	if RecognizeFamily(FamilySTUN, stun[:6]) {
		t.Error("truncated STUN recognized")
	}
}

func TestProfilesConstruct(t *testing.T) {
	for _, n := range AllNetworks() {
		if n.Env == nil || n.Clock == nil {
			t.Fatalf("%s: incomplete network", n.Name)
		}
		if n.Name != "sprint" && n.Name != "att" && n.MB == nil {
			t.Fatalf("%s: no middlebox", n.Name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
	for _, name := range []string{"testbed", "tmobile", "gfc", "iran", "att", "sprint"} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestProxySegmentsCarryFreshChecksums: every segment the proxy re-emits
// carries the checksums a fresh Finalize gives, whether drain reused the
// inbound segment's payload sum (an in-order segment re-emitted whole,
// from raw bytes or from a frame carrying its sender's sum) or summed a
// chunk of reassembled stream (reordered, overlapping and coalesced
// bytes).
func TestProxySegmentsCarryFreshChecksums(t *testing.T) {
	r, _ := newProxyRig()
	f := r.newFlow(40000)
	f.send("GET /video HTTP/1.1\r\n")
	f.send("Host: example.com\r\n\r\n!") // odd length
	f.sendAt(5, "tail-after-gap")
	f.send("gap!!") // fills the gap: the drained chunk spans two segments
	f.sendAt(-3, "overlap")
	a := r.env.Arena()
	pay := []byte("summed-by-its-sender")
	r.env.FromClientFrame(a.FrameOf(a.NewTCPSummed(cAddr, sAddr, 9, f.sport, 80, f.seq, f.ack,
		packet.FlagACK|packet.FlagPSH, pay, packet.PayloadSum(pay))))
	f.seq += uint32(len(pay))
	body := bytes.Repeat([]byte("Content-Type: video/mp4 0123456789"), 200)
	for off := 0; off < len(body); {
		n := min(len(body)-off, 1+(off*7)%packet.MSS)
		resp := packet.NewTCP(sAddr, cAddr, 80, f.sport, f.serverSeq, f.seq, packet.FlagACK|packet.FlagPSH, body[off:off+n])
		r.env.FromServer(resp.Serialize())
		f.serverSeq += uint32(n)
		off += n
	}
	r.clock.Run()

	segs := 0
	for _, raw := range append(append([][]byte(nil), r.atServer...), r.atClient...) {
		p, defects := packet.Inspect(raw)
		if p.TCP == nil || len(p.Payload) == 0 {
			continue
		}
		segs++
		fresh := p.Clone().Finalize()
		if !defects.Empty() || p.TCP.Checksum != fresh.TCP.Checksum || p.IP.Checksum != fresh.IP.Checksum {
			t.Fatalf("proxy segment %v: checksums %#04x/%#04x, fresh Finalize gives %#04x/%#04x (defects %v)",
				p, p.TCP.Checksum, p.IP.Checksum, fresh.TCP.Checksum, fresh.IP.Checksum, defects)
		}
	}
	if segs < 10 {
		t.Fatalf("only %d data segments crossed the proxy", segs)
	}
}

// TestProxyIncrementalMatchMatchesRescan: ruleMatches, which searches
// each stream's new bytes once, gives MatchBytes' verdict over the whole
// stream (or both streams concatenated, for MatchEither) after every
// append, for random rules over a small alphabet — keywords straddling
// the two streams, empty keywords and rule sets with more keywords than
// one bitset word holds included — across compactions.
func TestProxyIncrementalMatchMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	word := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ab"[rng.Intn(2)]
		}
		return b
	}
	for trial := 0; trial < 300; trial++ {
		x := &TransparentProxy{}
		nr := 1 + rng.Intn(4)
		if trial%5 == 0 {
			nr = 30 + rng.Intn(30) // more keywords than one bitset word holds
		}
		for i := 0; i < nr; i++ {
			r := Rule{Dir: MatchDir(rng.Intn(3))}
			for j := 0; j < 1+rng.Intn(3); j++ {
				r.Keywords = append(r.Keywords, word(rng.Intn(6)))
			}
			x.Rules = append(x.Rules, r)
		}
		f := &proxyFlow{}
		for step := 0; step < 40; step++ {
			if rng.Intn(25) == 0 {
				x.compactFlow(f)
			}
			di := rng.Intn(2)
			f.stream[di] = append(f.stream[di], word(rng.Intn(4))...)
			x.searchKeywords(f)
			k0 := 0
			for i := range x.Rules {
				r := &x.Rules[i]
				buf := [][]byte{f.stream[0], f.stream[1], append(append([]byte(nil), f.stream[0]...), f.stream[1]...)}[r.Dir]
				if got, want := x.ruleMatches(f, r, k0), r.MatchBytes(buf); got != want {
					t.Fatalf("trial %d step %d rule %d %q over %q|%q: incremental %v, rescan %v",
						trial, step, i, r.Keywords, f.stream[0], f.stream[1], got, want)
				}
				k0 += len(r.Keywords)
			}
		}
	}
}
