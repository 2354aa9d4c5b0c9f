package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// TestReadMsgGarbageHeaderAllocatesLittle: a header claiming a frame just
// under the limit, followed by a few bytes and a dead stream, must fail
// without reserving the claimed size.
func TestReadMsgGarbageHeaderAllocatesLittle(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame)
	wire := append(hdr[:], `{"type":"he`...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readMsg(bytes.NewReader(wire))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "cluster: read frame body: unexpected EOF") {
		t.Fatalf("truncated frame: got %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("reading an 11-byte body allocated %d bytes", grew)
	}
}

// FuzzReadMsg feeds the frame decoder arbitrary bytes. It must never
// panic, and a frame it accepts must survive a write/read round trip:
// re-encoding the decoded message and decoding it again is stable.
func FuzzReadMsg(f *testing.F) {
	for _, m := range []*Msg{
		{Type: msgHello, Hello: &Hello{Version: ProtocolVersion, RegistryHash: "abc", PID: 42}},
		{Type: msgAck, Ack: &Ack{OK: true, Config: &WorkerConfig{Count: 48, Parallel: 2, StoreDir: "/s"}}},
		{Type: msgAck, Ack: &Ack{OK: false, Reason: "version skew"}},
		{Type: msgDispatch, Dispatch: &Dispatch{Shard: 3, Start: 9, End: 12}},
		{Type: msgResult, Result: &ShardResult{Shard: 1, Results: []WireResult{
			{Index: 0, Status: "ok", Attempts: 1, Counters: map[string]int64{"deliveries": 9}, Report: json.RawMessage(`{"network":"testbed"}`)},
			{Index: 1, Status: "failed", Err: "timeout", Attempts: 2, Evidence: []string{"link.drop"}},
		}}},
		{Type: msgHeartbeat},
		{Type: msgShutdown},
	} {
		var buf bytes.Buffer
		if err := writeMsg(&buf, m); err != nil {
			f.Fatal(err)
		}
		wire := buf.Bytes()
		f.Add(wire)
		f.Add(wire[:len(wire)/2]) // truncated body
		f.Add(wire[:2])           // truncated header
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})      // beyond the limit
	f.Add([]byte{0x04, 0x00, 0x00, 0x00, '{'}) // exactly the limit, one byte sent
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, '{', '}'})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readMsg(bytes.NewReader(data))
		if err != nil {
			return
		}
		var w1, w2 bytes.Buffer
		if err := writeMsg(&w1, m); err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		m2, err := readMsg(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if err := writeMsg(&w2, m2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("round trip unstable:\n%s\n%s", w1.Bytes(), w2.Bytes())
		}
	})
}
