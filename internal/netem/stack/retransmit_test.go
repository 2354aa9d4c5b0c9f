package stack

import (
	"bytes"
	"testing"

	"repro/internal/netem"
	"repro/internal/netem/packet"
	"repro/internal/netem/vclock"
)

// dropNth drops the nth client→server data packet it sees, once.
type dropNth struct {
	n       int
	seen    int
	dropped bool
}

func (d *dropNth) Name() string { return "drop-nth" }

func (d *dropNth) Process(ctx netem.Context, dir netem.Direction, f *packet.Frame) {
	if dir == netem.ToServer && !d.dropped {
		p, _ := f.Parse()
		if p.TCP != nil && len(p.Payload) > 0 {
			d.seen++
			if d.seen == d.n {
				d.dropped = true
				return
			}
		}
	}
	ctx.Forward(f)
}

func TestClientRetransmitsLostSegment(t *testing.T) {
	clock := vclock.New()
	env := netem.New(clock, cAddr, sAddr)
	dropper := &dropNth{n: 2}
	env.Append(dropper)
	srv := NewServer(env, Linux)
	app := &echoApp{want: 1 << 30}
	srv.ListenStream(80, app)
	host := NewClientHost(env)
	cli := NewTCPClient(host, sAddr, 40000, 80)
	cli.RTO = DefaultRTO

	msg := bytes.Repeat([]byte("0123456789"), 500) // 5000 B → 4 segments
	cli.OnConnected = func() { cli.Send(msg) }
	cli.Connect()
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if !dropper.dropped {
		t.Fatal("nothing was dropped")
	}
	if cli.Retransmissions == 0 {
		t.Fatal("no retransmission occurred")
	}
	if !bytes.Equal(app.got, msg) {
		t.Fatalf("server stream incomplete: %d of %d bytes", len(app.got), len(msg))
	}
}

// dropServerNth drops the nth server→client data packet once.
type dropServerNth struct {
	n       int
	seen    int
	dropped bool
}

func (d *dropServerNth) Name() string { return "drop-s2c" }

func (d *dropServerNth) Process(ctx netem.Context, dir netem.Direction, f *packet.Frame) {
	if dir == netem.ToClient && !d.dropped {
		p, _ := f.Parse()
		if p.TCP != nil && len(p.Payload) > 0 {
			d.seen++
			if d.seen == d.n {
				d.dropped = true
				return
			}
		}
	}
	ctx.Forward(f)
}

func TestServerRetransmitsLostSegment(t *testing.T) {
	clock := vclock.New()
	env := netem.New(clock, cAddr, sAddr)
	dropper := &dropServerNth{n: 3}
	env.Append(dropper)
	srv := NewServer(env, Linux)
	srv.RTO = DefaultRTO
	reply := bytes.Repeat([]byte("abcdefgh"), 800) // 6400 B
	app := &echoApp{want: 1, reply: reply}
	srv.ListenStream(80, app)
	host := NewClientHost(env)
	cli := NewTCPClient(host, sAddr, 40000, 80)
	got := collect(cli)
	cli.OnConnected = func() { cli.Send([]byte("go")) }
	cli.Connect()
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if !dropper.dropped {
		t.Fatal("nothing was dropped")
	}
	if srv.Retransmissions == 0 {
		t.Fatal("server did not retransmit")
	}
	if !bytes.Equal(*got, reply) {
		t.Fatalf("client stream incomplete: %d of %d bytes", len(*got), len(reply))
	}
}

func TestNoSpuriousRetransmissionsOnCleanPath(t *testing.T) {
	clock := vclock.New()
	env := netem.New(clock, cAddr, sAddr)
	srv := NewServer(env, Linux)
	srv.RTO = DefaultRTO
	app := &echoApp{want: 1, reply: bytes.Repeat([]byte("r"), 4000)}
	srv.ListenStream(80, app)
	host := NewClientHost(env)
	cli := NewTCPClient(host, sAddr, 40000, 80)
	cli.RTO = DefaultRTO
	cli.OnConnected = func() { cli.Send(bytes.Repeat([]byte("q"), 4000)) }
	cli.Connect()
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if cli.Retransmissions != 0 || srv.Retransmissions != 0 {
		t.Fatalf("spurious retransmissions: client=%d server=%d", cli.Retransmissions, srv.Retransmissions)
	}
}

func TestRetransmissionGivesUpAfterThreeRetries(t *testing.T) {
	clock := vclock.New()
	env := netem.New(clock, cAddr, sAddr)
	// Black-hole all data after the handshake.
	env.Append(&netem.Filter{Label: "blackhole", Drop: func(p *packet.Packet, _ packet.DefectSet) bool {
		return p.TCP != nil && len(p.Payload) > 0
	}})
	srv := NewServer(env, Linux)
	srv.ListenStream(80, &echoApp{})
	host := NewClientHost(env)
	cli := NewTCPClient(host, sAddr, 40000, 80)
	cli.RTO = DefaultRTO
	cli.OnConnected = func() { cli.Send([]byte("doomed")) }
	cli.Connect()
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if cli.Retransmissions != 3 {
		t.Fatalf("retransmissions = %d, want exactly 3", cli.Retransmissions)
	}
}

func TestRetransmissionStopsOnClose(t *testing.T) {
	clock := vclock.New()
	env := netem.New(clock, cAddr, sAddr)
	// Black-hole data so the segment stays unacked, then RST the client.
	env.Append(&netem.Filter{Label: "blackhole", Drop: func(p *packet.Packet, _ packet.DefectSet) bool {
		return p.TCP != nil && len(p.Payload) > 0
	}})
	srv := NewServer(env, Linux)
	srv.ListenStream(80, &echoApp{})
	host := NewClientHost(env)
	cli := NewTCPClient(host, sAddr, 40000, 80)
	cli.RTO = DefaultRTO
	cli.OnConnected = func() {
		cli.Send([]byte("doomed"))
		// Simulate a censor RST arriving right away.
		rst := packet.NewTCP(sAddr, cAddr, 80, 40000, cli.RcvNxt(), cli.SndNxt(), packet.FlagRST|packet.FlagACK, nil)
		env.FromServer(rst.Serialize())
	}
	cli.Connect()
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if closed, reason := cli.Closed(); !closed || reason != "rst" {
		t.Fatalf("close state: %v %q", closed, reason)
	}
	if cli.Retransmissions != 0 {
		t.Fatalf("retransmitted %d times on a dead connection", cli.Retransmissions)
	}
}
