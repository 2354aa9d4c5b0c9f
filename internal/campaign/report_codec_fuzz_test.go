package campaign

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/netem/stack"
	"repro/internal/registry"
)

// encodedEngagement returns the EncodeReport form of one real engagement.
func encodedEngagement(tb testing.TB, network string, armed bool) []byte {
	tb.Helper()
	net, err := registry.NewNetwork(network)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := registry.NewTrace("amazon", 8<<10)
	if err != nil {
		tb.Fatal(err)
	}
	rep := (&core.Liberate{Net: net, Trace: tr, ServerOS: &stack.Linux, Fingerprint: armed}).Run()
	data, err := EncodeReport(rep)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzDecodeReport feeds the store/wire report decoder arbitrary bytes,
// seeded from a differentiated, an undifferentiated and a
// fingerprint-armed engagement. Decoding must never panic; a report it
// accepts must survive every post-engagement consumer (summary,
// aggregation, deployment), and encoding it must reach a fixed point
// after one round trip.
func FuzzDecodeReport(f *testing.F) {
	f.Add(encodedEngagement(f, "testbed", false))
	f.Add(encodedEngagement(f, "sprint", false))
	f.Add(encodedEngagement(f, "tmobile", true))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReport(data)
		if err != nil {
			return
		}
		rep.WriteSummary(io.Discard)
		rep.DeployTransform(1)
		e := Engagement{Network: rep.Network, Trace: rep.TraceName}
		Aggregate(Spec{}, []Result{{Engagement: e, Report: rep, Status: StatusOK, Attempts: 1}})

		enc, err := EncodeReport(rep)
		if err != nil {
			t.Fatalf("accepted report does not re-encode: %v", err)
		}
		back, err := DecodeReport(enc)
		if err != nil {
			t.Fatalf("re-encoded report does not decode: %v\n%s", err, enc)
		}
		enc2, err := EncodeReport(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode(decode(·)) is not a fixed point:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
