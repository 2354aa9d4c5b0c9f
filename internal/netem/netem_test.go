package netem

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netem/packet"
	"repro/internal/netem/vclock"
)

var (
	cAddr = packet.AddrFrom("10.0.0.1")
	sAddr = packet.AddrFrom("93.184.216.34")
)

// buildPath creates a client—hops—server path with n hops.
func buildPath(n int) (*vclock.Clock, *Env, *[][]byte, *[][]byte) {
	clock := vclock.New()
	env := New(clock, cAddr, sAddr)
	for i := 0; i < n; i++ {
		env.Append(&Hop{Label: "hop", Addr: packet.AddrFrom("10.1.0.1"), EmitICMP: true})
	}
	var atServer, atClient [][]byte
	env.SetServer(EndpointFunc(func(raw []byte) { atServer = append(atServer, append([]byte(nil), raw...)) }))
	env.SetClient(EndpointFunc(func(raw []byte) { atClient = append(atClient, append([]byte(nil), raw...)) }))
	return clock, env, &atServer, &atClient
}

func TestDeliveryAndTTLDecrement(t *testing.T) {
	clock, env, atServer, _ := buildPath(3)
	p := packet.NewTCP(cAddr, sAddr, 40000, 80, 1, 0, packet.FlagSYN, nil)
	env.FromClient(p.Serialize())
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*atServer) != 1 {
		t.Fatalf("server got %d packets, want 1", len(*atServer))
	}
	q, defects := packet.Inspect((*atServer)[0])
	if !defects.Empty() {
		t.Fatalf("defects after transit: %v", defects)
	}
	if q.IP.TTL != packet.DefaultTTL-3 {
		t.Fatalf("TTL = %d, want %d", q.IP.TTL, packet.DefaultTTL-3)
	}
}

func TestTTLExpiryEmitsICMP(t *testing.T) {
	clock, env, atServer, atClient := buildPath(3)
	p := packet.NewTCP(cAddr, sAddr, 40000, 80, 1, 0, packet.FlagACK, []byte("probe"))
	p.IP.TTL = 2
	p.Finalize()
	env.FromClient(p.Serialize())
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*atServer) != 0 {
		t.Fatal("TTL-2 packet crossed 3 hops")
	}
	if len(*atClient) != 1 {
		t.Fatalf("client got %d packets, want 1 ICMP", len(*atClient))
	}
	q, _ := packet.Inspect((*atClient)[0])
	if q.ICMP == nil || q.ICMP.Type != packet.ICMPTimeExceeded {
		t.Fatalf("expected time-exceeded, got %v", q)
	}
}

func TestTTLJustEnough(t *testing.T) {
	clock, env, atServer, _ := buildPath(3)
	p := packet.NewTCP(cAddr, sAddr, 40000, 80, 1, 0, packet.FlagACK, []byte("x"))
	p.IP.TTL = 4
	p.Finalize()
	env.FromClient(p.Serialize())
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*atServer) != 1 {
		t.Fatalf("TTL-4 packet should cross 3 hops; server got %d", len(*atServer))
	}
}

func TestChecksumWrongnessPreservedAcrossHops(t *testing.T) {
	clock, env, atServer, _ := buildPath(3)
	p := packet.NewTCP(cAddr, sAddr, 40000, 80, 1, 0, packet.FlagACK, []byte("x"))
	p.IP.Checksum ^= 0x5555
	env.FromClient(p.Serialize())
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*atServer) != 1 {
		t.Fatal("packet lost")
	}
	_, defects := packet.Inspect((*atServer)[0])
	if !defects.Has(packet.DefectIPChecksum) {
		t.Fatal("IP checksum wrongness not preserved through TTL updates")
	}
}

func TestChecksumCorrectnessPreservedAcrossHops(t *testing.T) {
	clock, env, atServer, _ := buildPath(5)
	p := packet.NewTCP(cAddr, sAddr, 40000, 80, 1, 0, packet.FlagACK, []byte("hello"))
	env.FromClient(p.Serialize())
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	_, defects := packet.Inspect((*atServer)[0])
	if defects.Has(packet.DefectIPChecksum) {
		t.Fatal("valid checksum broken by incremental TTL update")
	}
}

func TestFilterDropsDefects(t *testing.T) {
	clock := vclock.New()
	env := New(clock, cAddr, sAddr)
	env.Append(&Filter{Label: "strict", DropDefects: packet.SetOf(packet.DefectTCPChecksum)})
	var got int
	env.SetServer(EndpointFunc(func([]byte) { got++ }))

	good := packet.NewTCP(cAddr, sAddr, 1, 2, 3, 0, packet.FlagACK, []byte("ok"))
	bad := good.Clone()
	bad.TCP.Checksum ^= 1
	env.FromClient(good.Serialize())
	env.FromClient(bad.Serialize())
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("server got %d packets, want 1", got)
	}
}

func TestPipeShapesThroughput(t *testing.T) {
	clock := vclock.New()
	env := New(clock, cAddr, sAddr)
	env.LinkDelay = 0
	env.Append(&Pipe{Label: "link", RateBps: 8_000_000}) // 1 MB/s
	var lastArrival time.Time
	var total int
	env.SetServer(EndpointFunc(func(raw []byte) {
		total += len(raw)
		lastArrival = clock.Now()
	}))
	// 100 KB in 100 packets of 1000 B.
	pay := bytes.Repeat([]byte("a"), 980)
	for i := 0; i < 100; i++ {
		p := packet.NewUDP(cAddr, sAddr, 5000, 6000, pay)
		env.FromClient(p.Serialize())
	}
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	elapsed := lastArrival.Sub(vclock.Epoch).Seconds()
	gotRate := float64(total) * 8 / elapsed
	if gotRate < 7_000_000 || gotRate > 9_000_000 {
		t.Fatalf("shaped rate = %.0f bps, want ≈8e6", gotRate)
	}
}

func TestTCPChecksumFixer(t *testing.T) {
	clock := vclock.New()
	env := New(clock, cAddr, sAddr)
	env.Append(&TCPChecksumFixer{Label: "nat"})
	var atServer [][]byte
	env.SetServer(EndpointFunc(func(raw []byte) { atServer = append(atServer, raw) }))
	p := packet.NewTCP(cAddr, sAddr, 40000, 80, 9, 0, packet.FlagACK, []byte("inert"))
	p.TCP.Checksum ^= 0xbeef
	env.FromClient(p.Serialize())
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(atServer) != 1 {
		t.Fatal("packet lost")
	}
	q, defects := packet.Inspect(atServer[0])
	if defects.Has(packet.DefectTCPChecksum) {
		t.Fatal("checksum not fixed")
	}
	if !bytes.Equal(q.Payload, []byte("inert")) {
		t.Fatal("payload altered")
	}
}

func TestPathReassembler(t *testing.T) {
	clock := vclock.New()
	env := New(clock, cAddr, sAddr)
	env.Append(&PathReassembler{Label: "normalizer"})
	var atServer [][]byte
	env.SetServer(EndpointFunc(func(raw []byte) { atServer = append(atServer, append([]byte(nil), raw...)) }))
	payload := bytes.Repeat([]byte("0123456789abcdef"), 60)
	p := packet.NewTCP(cAddr, sAddr, 40000, 80, 77, 0, packet.FlagACK, payload)
	p.IP.ID = 99
	p.Finalize()
	want := p.Serialize()
	for _, f := range packet.Fragment(p, 3) {
		env.FromClient(f.Serialize())
	}
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(atServer) != 1 {
		t.Fatalf("server got %d packets, want 1 reassembled", len(atServer))
	}
	if !bytes.Equal(atServer[0], want) {
		t.Fatal("reassembled datagram differs from original")
	}
}

func TestPathReassemblerOutOfOrder(t *testing.T) {
	clock := vclock.New()
	env := New(clock, cAddr, sAddr)
	env.Append(&PathReassembler{Label: "normalizer"})
	var atServer [][]byte
	env.SetServer(EndpointFunc(func(raw []byte) { atServer = append(atServer, append([]byte(nil), raw...)) }))
	payload := bytes.Repeat([]byte("z"), 500)
	p := packet.NewTCP(cAddr, sAddr, 40000, 80, 5, 0, packet.FlagACK, payload)
	p.IP.ID = 7
	p.Finalize()
	want := p.Serialize()
	frags := packet.Fragment(p, 2)
	env.FromClient(frags[1].Serialize())
	env.FromClient(frags[0].Serialize())
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(atServer) != 1 || !bytes.Equal(atServer[0], want) {
		t.Fatalf("out-of-order reassembly failed (%d delivered)", len(atServer))
	}
}

func TestTapRecords(t *testing.T) {
	clock := vclock.New()
	env := New(clock, cAddr, sAddr)
	tap := &Tap{Label: "tap"}
	env.Append(tap)
	env.SetServer(EndpointFunc(func([]byte) {}))
	env.SetClient(EndpointFunc(func([]byte) {}))
	env.FromClient(packet.NewUDP(cAddr, sAddr, 1, 2, []byte("a")).Serialize())
	env.FromServer(packet.NewUDP(sAddr, cAddr, 2, 1, []byte("b")).Serialize())
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tap.Seen) != 2 {
		t.Fatalf("tap saw %d, want 2", len(tap.Seen))
	}
	if tap.Seen[0].Dir != ToServer || tap.Seen[1].Dir != ToClient {
		t.Fatal("directions wrong")
	}
}

func TestBidirectionalDelivery(t *testing.T) {
	clock, env, atServer, atClient := buildPath(2)
	env.FromClient(packet.NewUDP(cAddr, sAddr, 10, 20, []byte("ping")).Serialize())
	env.FromServer(packet.NewUDP(sAddr, cAddr, 20, 10, []byte("pong")).Serialize())
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*atServer) != 1 || len(*atClient) != 1 {
		t.Fatalf("server=%d client=%d, want 1/1", len(*atServer), len(*atClient))
	}
}

func TestRTT(t *testing.T) {
	_, env, _, _ := buildPath(3)
	if got := env.RTT(); got != 8*time.Millisecond {
		t.Fatalf("RTT = %v, want 8ms", got)
	}
}

// TestPlainHopForwardMatchesProcess: Env forwards frames across plain hops
// from the delivery record, but while Env.Trace is set every hop runs
// Process instead. Both paths must deliver the same bytes at the same
// instants in both directions — including expiry mid-path, the ICMP it
// quotes, and a DropDefects hop among plain ones.
func TestPlainHopForwardMatchesProcess(t *testing.T) {
	run := func(traced bool) string {
		clock, env, _, _ := buildPath(5)
		env.Elements()[2] = &Hop{Label: "strict", Addr: packet.AddrFrom("10.1.0.3"), EmitICMP: true,
			DropDefects: packet.SetOf(packet.DefectIPChecksum)}
		var log bytes.Buffer
		ep := func(who string) Endpoint {
			return EndpointFunc(func(raw []byte) { log.WriteString(who + clock.Now().Format(time.StampNano) + string(raw) + "|") })
		}
		env.SetServer(ep("S"))
		env.SetClient(ep("C"))
		if traced {
			env.Trace = func(string, Direction, []byte) {}
		}
		for ttl := uint8(0); ttl <= 7; ttl++ {
			p := packet.NewTCP(cAddr, sAddr, 40000, 80, uint32(ttl), 0, packet.FlagACK, []byte("payload"))
			p.IP.TTL = ttl
			p.Finalize()
			if ttl%2 == 1 {
				p.IP.Checksum ^= 0x5555 // the strict hop drops these
			}
			env.FromClient(p.Serialize())
			q := packet.NewTCP(sAddr, cAddr, 80, 40000, uint32(ttl), 0, packet.FlagACK, []byte("reply"))
			q.IP.TTL = ttl
			q.Finalize()
			env.FromServer(q.Serialize())
			clock.Sleep(time.Millisecond / 3)
		}
		if err := clock.Run(); err != nil {
			t.Fatal(err)
		}
		return log.String()
	}
	if got, want := run(false), run(true); got != want {
		t.Fatalf("forwarding from the delivery record diverges from Hop.Process:\n got %q\nwant %q", got, want)
	}
}
