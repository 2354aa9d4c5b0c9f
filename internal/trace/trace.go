// Package trace models recorded application traffic: the ordered
// client/server message exchange that lib·erate replays against a network
// to detect, characterize, and evade DPI classification (Figure 3, step 1).
//
// Traces here are synthetic but protocol-correct: HTTP requests carry real
// Host headers, TLS ClientHellos carry real SNI extensions, and STUN
// messages carry the attribute bytes the paper's classifiers matched on.
// The package also implements the paper's bit-inversion control transform
// (§4.1): inverting every payload bit systematically removes every bit
// pattern a DPI rule could match while preserving sizes and timing.
package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"

	"repro/internal/appproto"
	"repro/internal/netem/packet"
)

// Dir is a message direction.
type Dir int

const (
	// ClientToServer messages are sent by the replay client.
	ClientToServer Dir = iota
	// ServerToClient messages are sent by the replay server.
	ServerToClient
)

func (d Dir) String() string {
	if d == ClientToServer {
		return "c→s"
	}
	return "s→c"
}

// Message is one application write in a recorded flow.
type Message struct {
	Dir  Dir    `json:"dir"`
	Data []byte `json:"data"`

	// SegSums holds precomputed unfolded RFC 1071 partial sums of Data
	// segmented at packet.MSS — SegSums[k] covers
	// Data[k*MSS : min((k+1)*MSS, len(Data))] — so replaying the message
	// never re-sums payload bytes (the stacks seed each built segment's
	// checksum cache from it). sumBase/sumLen record the slice identity
	// the sums were computed for; CheckedSegSums refuses to hand them out
	// once Data has been re-sliced (trimmed, split), which keeps stale
	// sums from ever reaching a checksum.
	SegSums []uint32 `json:"-"`
	sumBase *byte
	sumLen  int
}

// Precompute fills SegSums for the message's current Data. Call it after
// construction or after any in-place payload mutation; messages without
// sums are still valid — the stacks just compute checksums the slow way.
func (m *Message) Precompute() {
	m.SegSums = SegmentSums(m.Data)
	m.sumBase, m.sumLen = nil, len(m.Data)
	if len(m.Data) > 0 {
		m.sumBase = &m.Data[0]
	}
}

// CheckedSegSums returns the precomputed segment sums, or nil when none
// were computed or Data no longer is the exact slice they describe.
func (m *Message) CheckedSegSums() []uint32 {
	if m.SegSums == nil || m.sumLen != len(m.Data) {
		return nil
	}
	if len(m.Data) > 0 && m.sumBase != &m.Data[0] {
		return nil
	}
	return m.SegSums
}

// SegmentSums computes the per-segment unfolded checksum partial sums of
// data segmented at packet.MSS (see Message.SegSums).
func SegmentSums(data []byte) []uint32 {
	if len(data) == 0 {
		return nil
	}
	sums := make([]uint32, 0, (len(data)+packet.MSS-1)/packet.MSS)
	for off := 0; off < len(data); off += packet.MSS {
		end := off + packet.MSS
		if end > len(data) {
			end = len(data)
		}
		sums = append(sums, packet.PayloadSum(data[off:end]))
	}
	return sums
}

// PrecomputeSums fills SegSums for every message and returns t. Trace
// constructors call it so replays of built-in traces start with warm
// checksum state.
func (t *Trace) PrecomputeSums() *Trace {
	for i := range t.Messages {
		t.Messages[i].Precompute()
	}
	return t
}

// precompute is PrecomputeSums for constructor return expressions.
func precompute(t *Trace) *Trace { return t.PrecomputeSums() }

// Trace is one recorded application flow. A trace is immutable once
// anything has derived from it (Derive, Memo); edit a copy instead.
type Trace struct {
	Name       string    `json:"name"`
	App        string    `json:"app"`
	Proto      uint8     `json:"proto"` // packet.ProtoTCP or ProtoUDP
	ServerPort uint16    `json:"server_port"`
	Messages   []Message `json:"messages"`

	// memo holds the value Memo stored for this trace. Copies are built
	// field by field (see header), never by copying *t.
	memo atomic.Pointer[memoSlot]
}

// memoSlot is a trace's one memoized value and the key it was stored
// under.
type memoSlot struct {
	key, val any
}

// Memo returns the value build computes from t for key, computing it once
// per trace: concurrent first callers may each run build, and all of them
// get the one value stored first. A trace has a single slot, owned by the
// first key stored in it; a caller with another key gets build's value
// afresh each time, never the owner's. Package replay keeps each trace's
// replay script here, so the script lives exactly as long as the trace
// and needs no bound of its own. key must be comparable; an unexported
// type of the calling package keeps it private. Like every memo of a trace
// it assumes t is no longer modified; copies made with Clone or
// ShallowClone start empty.
func (t *Trace) Memo(key any, build func(*Trace) any) any {
	s := t.memo.Load()
	if s == nil {
		t.memo.CompareAndSwap(nil, &memoSlot{key, build(t)})
		s = t.memo.Load()
	}
	if s.key != key {
		return build(t)
	}
	return s.val
}

// header returns a trace with t's identity fields and no messages. Copies
// go through it rather than copying *t, whose memo another goroutine may
// be storing.
func (t *Trace) header() *Trace {
	return &Trace{Name: t.Name, App: t.App, Proto: t.Proto, ServerPort: t.ServerPort}
}

// Clone deep-copies the trace.
func (t *Trace) Clone() *Trace {
	c := t.header()
	c.Messages = make([]Message, len(t.Messages))
	for i, m := range t.Messages {
		c.Messages[i] = Message{Dir: m.Dir, Data: append([]byte(nil), m.Data...)}
	}
	return c
}

// ShallowClone returns a copy sharing every message payload with the
// original. The copy's Messages slice is private — callers may insert,
// drop, or re-slice messages freely — but payload bytes are shared and
// must be treated as immutable; copy a message's Data before mutating
// it. Probe builders that reshape a multi-megabyte trace dozens of times
// per engagement use this instead of Clone to avoid copying payloads
// they never touch.
func (t *Trace) ShallowClone() *Trace {
	c := t.header()
	c.Messages = append([]Message(nil), t.Messages...)
	return c
}

// Invert returns a copy with every payload bit inverted — the paper's
// control traffic. Bit inversion is an involution (Invert∘Invert = id) and
// deterministically removes every byte pattern from the payload.
func (t *Trace) Invert() *Trace {
	c := t.Clone()
	c.Name = t.Name + "+inverted"
	for i := range c.Messages {
		InvertBytes(c.Messages[i].Data)
	}
	return c.PrecomputeSums()
}

// InvertBytes inverts every bit of b in place.
func InvertBytes(b []byte) {
	for i := range b {
		b[i] = ^b[i]
	}
}

// Randomize returns a copy with every payload replaced by seeded random
// bytes of the same length — the older control strategy that §4.1 reports
// can be accidentally classified.
func (t *Trace) Randomize(seed int64) *Trace {
	c := t.Clone()
	c.Name = t.Name + "+random"
	rng := rand.New(rand.NewSource(seed))
	for i := range c.Messages {
		rng.Read(c.Messages[i].Data)
	}
	return c.PrecomputeSums()
}

// ContentHash digests everything that affects how a trace replays:
// identity, protocol, server port, and every message's direction, length,
// and payload. Two traces with equal hashes drive the network through the
// same packet sequence, which makes the digest a sound component of a
// content-addressed engagement cache key.
func ContentHash(t *Trace) string {
	h := sha256.New()
	fmt.Fprintf(h, "trace=%s app=%s proto=%d port=%d msgs=%d\n",
		t.Name, t.App, t.Proto, t.ServerPort, len(t.Messages))
	for i, m := range t.Messages {
		fmt.Fprintf(h, "[%d] %d %d\n", i, m.Dir, len(m.Data))
		h.Write(m.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TotalBytes sums payload sizes, optionally filtered by direction.
func (t *Trace) TotalBytes(dirs ...Dir) int {
	n := 0
	for _, m := range t.Messages {
		if len(dirs) == 0 {
			n += len(m.Data)
			continue
		}
		for _, d := range dirs {
			if m.Dir == d {
				n += len(m.Data)
			}
		}
	}
	return n
}

// FirstClientMessage returns the index of the first client write, or -1.
func (t *Trace) FirstClientMessage() int {
	for i, m := range t.Messages {
		if m.Dir == ClientToServer {
			return i
		}
	}
	return -1
}

// Save writes the trace as JSON.
func (t *Trace) Save(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: marshal %s: %w", t.Name, err)
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a JSON trace.
func Load(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("trace: parse %s: %w", path, err)
	}
	return t.PrecomputeSums(), nil
}

// opaque produces deterministic pseudo-random application bytes with no
// accidental ASCII keywords (high bit forced on every 2nd byte).
func opaque(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	for i := 1; i < n; i += 2 {
		b[i] |= 0x80
	}
	return b
}

// AmazonPrimeVideo builds an HTTP video-streaming trace in the style the
// paper replayed against T-Mobile and the testbed: a GET with a CloudFront
// Host header answered by a video/mp4 body of bodyBytes.
func AmazonPrimeVideo(bodyBytes int) *Trace {
	req := appproto.HTTPRequest{
		Method: "GET",
		Path:   "/dm/2$abcdefg/video/seg-1.mp4",
		Host:   "dtvn-live-plus.akamaized.cloudfront.net",
		Headers: [][2]string{
			{"User-Agent", "AmazonVideo/3.0 (Android)"},
			{"Accept", "video/mp4"},
		},
	}.Bytes()
	resp := appproto.HTTPResponse{Status: 200, ContentType: "video/mp4", ContentLength: bodyBytes}.Bytes()
	return precompute(&Trace{
		Name: "amazon-prime-video", App: "AmazonPrimeVideo",
		Proto: packet.ProtoTCP, ServerPort: 80,
		Messages: []Message{
			{Dir: ClientToServer, Data: req},
			{Dir: ServerToClient, Data: append(resp, opaque(101, bodyBytes)...)},
		},
	})
}

// Spotify builds an HTTP audio-streaming trace.
func Spotify(bodyBytes int) *Trace {
	req := appproto.HTTPRequest{
		Method: "GET",
		Path:   "/audio/track-9f2.ogg",
		Host:   "audio-fa.spotify.com.edgesuite.net",
		Headers: [][2]string{
			{"User-Agent", "Spotify/8.4 Android/28"},
		},
	}.Bytes()
	resp := appproto.HTTPResponse{Status: 200, ContentType: "audio/ogg", ContentLength: bodyBytes}.Bytes()
	return precompute(&Trace{
		Name: "spotify", App: "Spotify",
		Proto: packet.ProtoTCP, ServerPort: 80,
		Messages: []Message{
			{Dir: ClientToServer, Data: req},
			{Dir: ServerToClient, Data: append(resp, opaque(202, bodyBytes)...)},
		},
	})
}

// YouTubeTLS builds an HTTPS video trace whose only cleartext matching
// surface is the SNI extension (.googlevideo.com), as in §6.2.
func YouTubeTLS(bodyBytes int) *Trace {
	hello := appproto.ClientHello("r4---sn-p5qlsnz6.googlevideo.com")
	return precompute(&Trace{
		Name: "youtube-tls", App: "YouTube",
		Proto: packet.ProtoTCP, ServerPort: 443,
		Messages: []Message{
			{Dir: ClientToServer, Data: hello},
			{Dir: ServerToClient, Data: appproto.ServerHelloStub(1200)},
			{Dir: ClientToServer, Data: opaque(303, 320)}, // opaque key exchange
			{Dir: ServerToClient, Data: opaque(304, bodyBytes)},
		},
	})
}

// YouTubeQUIC builds a QUIC-style UDP video trace. None of the paper's
// operational networks classified UDP traffic, so "YouTube flows using
// QUIC are not classified or zero rated by T-Mobile" (§6.2) and "users can
// view otherwise censored content on YouTube simply by using the QUIC
// protocol" (§6.5) — the cheapest evasion in the study. The initial packet
// mimics a QUIC long-header Initial enough for any version-field parser.
func YouTubeQUIC(bodyBytes int) *Trace {
	initial := make([]byte, 0, 1200)
	initial = append(initial, 0xc3)                   // long header, Initial
	initial = append(initial, 0x00, 0x00, 0x00, 0x01) // version 1
	initial = append(initial, 8)                      // DCID len
	initial = append(initial, 0xde, 0xad, 0xbe, 0xef, 0x00, 0x11, 0x22, 0x33)
	initial = append(initial, 0) // SCID len
	initial = append(initial, opaque(401, 1200-len(initial))...)
	msgs := []Message{
		{Dir: ClientToServer, Data: initial},
		{Dir: ServerToClient, Data: opaque(402, 1200)},
		{Dir: ClientToServer, Data: opaque(403, 64)},
		{Dir: ServerToClient, Data: opaque(404, bodyBytes)},
	}
	return precompute(&Trace{
		Name: "youtube-quic", App: "YouTube",
		Proto: packet.ProtoUDP, ServerPort: 443,
		Messages: msgs,
	})
}

// EconomistWeb builds the censored-web-page trace used against the GFC in
// §6.5 (http://www.economist.com).
func EconomistWeb(bodyBytes int) *Trace {
	req := appproto.HTTPRequest{
		Method: "GET",
		Path:   "/news/briefing/21711035",
		Host:   "www.economist.com",
		Headers: [][2]string{
			{"User-Agent", "Mozilla/5.0"},
			{"Accept", "text/html"},
		},
	}.Bytes()
	resp := appproto.HTTPResponse{Status: 200, ContentType: "text/html", ContentLength: bodyBytes}.Bytes()
	return precompute(&Trace{
		Name: "economist-web", App: "EconomistWeb",
		Proto: packet.ProtoTCP, ServerPort: 80,
		Messages: []Message{
			{Dir: ClientToServer, Data: req},
			{Dir: ServerToClient, Data: append(resp, opaque(505, bodyBytes)...)},
		},
	})
}

// FacebookWeb builds the blocked-site trace used against Iran's censor in
// §6.6 (facebook.com keyword in the Host header).
func FacebookWeb(bodyBytes int) *Trace {
	req := appproto.HTTPRequest{
		Method: "GET",
		Path:   "/home.php",
		Host:   "www.facebook.com",
		Headers: [][2]string{
			{"User-Agent", "Mozilla/5.0"},
		},
	}.Bytes()
	resp := appproto.HTTPResponse{Status: 200, ContentType: "text/html", ContentLength: bodyBytes}.Bytes()
	return precompute(&Trace{
		Name: "facebook-web", App: "FacebookWeb",
		Proto: packet.ProtoTCP, ServerPort: 80,
		Messages: []Message{
			{Dir: ClientToServer, Data: req},
			{Dir: ServerToClient, Data: append(resp, opaque(606, bodyBytes)...)},
		},
	})
}

// NBCSportsVideo builds the HTTP video trace used against AT&T Stream
// Saver in §6.3 — its classifier also matches the *response* header
// Content-Type: video.
func NBCSportsVideo(bodyBytes int) *Trace {
	req := appproto.HTTPRequest{
		Method: "GET",
		Path:   "/live/chunk-03.ts",
		Host:   "stream.nbcsports.com",
		Headers: [][2]string{
			{"User-Agent", "NBCSports/5.1"},
		},
	}.Bytes()
	resp := appproto.HTTPResponse{Status: 200, ContentType: "video/mp2t", ContentLength: bodyBytes}.Bytes()
	return precompute(&Trace{
		Name: "nbcsports-video", App: "NBCSports",
		Proto: packet.ProtoTCP, ServerPort: 80,
		Messages: []Message{
			{Dir: ClientToServer, Data: req},
			{Dir: ServerToClient, Data: append(resp, opaque(707, bodyBytes)...)},
		},
	})
}

// SkypeCall builds the UDP trace used in §6.1: a STUN binding request
// carrying MS-SERVICE-QUALITY as the first client packet, an answer, and a
// few opaque media datagrams.
func SkypeCall(mediaDatagrams, datagramBytes int) *Trace {
	msgs := []Message{
		{Dir: ClientToServer, Data: appproto.SkypeBindingRequest(7)},
		{Dir: ServerToClient, Data: appproto.SkypeBindingResponse(7)},
	}
	for i := 0; i < mediaDatagrams; i++ {
		d := ClientToServer
		if i%2 == 1 {
			d = ServerToClient
		}
		msgs = append(msgs, Message{Dir: d, Data: opaque(int64(900+i), datagramBytes)})
	}
	return precompute(&Trace{
		Name: "skype-call", App: "Skype",
		Proto: packet.ProtoUDP, ServerPort: 3478,
		Messages: msgs,
	})
}

// ESPNStream builds another HTTP streaming trace (listed among the
// testbed's classified apps in §6.1).
func ESPNStream(bodyBytes int) *Trace {
	req := appproto.HTTPRequest{
		Method: "GET",
		Path:   "/watch/segment-9.ts",
		Host:   "espn-live.cdn.espn.com",
		Headers: [][2]string{
			{"User-Agent", "ESPN/6.2"},
		},
	}.Bytes()
	resp := appproto.HTTPResponse{Status: 200, ContentType: "video/mp2t", ContentLength: bodyBytes}.Bytes()
	return precompute(&Trace{
		Name: "espn-stream", App: "ESPN",
		Proto: packet.ProtoTCP, ServerPort: 80,
		Messages: []Message{
			{Dir: ClientToServer, Data: req},
			{Dir: ServerToClient, Data: append(resp, opaque(808, bodyBytes)...)},
		},
	})
}

// Builtin returns the standard trace set at modest body sizes, used by the
// CLI and tests.
func Builtin() []*Trace {
	return []*Trace{
		AmazonPrimeVideo(64 << 10),
		Spotify(64 << 10),
		YouTubeTLS(64 << 10),
		EconomistWeb(16 << 10),
		FacebookWeb(16 << 10),
		NBCSportsVideo(64 << 10),
		SkypeCall(6, 400),
		ESPNStream(64 << 10),
	}
}
