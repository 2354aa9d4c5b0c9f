package dpi

import (
	"bytes"
	"testing"

	"repro/internal/netem"
	"repro/internal/netem/packet"
)

// BenchmarkInspectStateless feeds Iran's per-packet matcher the server
// half of a download: 1400-byte payloads travelling to the client. Its
// only rule is client-to-server on port 80, so no rule applies and the
// payload should never reach the automaton.
func BenchmarkInspectStateless(b *testing.B) {
	mb := NewIran().MB
	payload := bytes.Repeat([]byte("HTTP/1.1 200 OK video chunk "), 50)[:1400]
	p := packet.NewTCP(sAddr, cAddr, 80, 40000, 1, 1, packet.FlagACK, payload)
	p.Finalize()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb.inspectStateless(netem.Context{}, netem.ToClient, p, 80)
	}
}
