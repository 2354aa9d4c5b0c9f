package obs_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/dpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// tracedEngagement returns the liberate-trace/v1 document of one full
// testbed engagement on a small body.
func tracedEngagement(tb testing.TB) []byte {
	net := dpi.NewTestbed()
	buf := obs.NewBuffer()
	net.Env.SetRecorder(buf)
	rep := (&core.Liberate{Net: net, Trace: trace.AmazonPrimeVideo(4 << 10)}).Run()
	var out bytes.Buffer
	if err := buf.WriteJSON(&out, obs.TraceMeta{Network: rep.Network, Trace: rep.TraceName}); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// FuzzValidateTrace feeds the trace validator arbitrary documents, seeded
// from a real engagement's trace. It must never panic, must accept the
// real trace, and must judge every input the same way twice.
func FuzzValidateTrace(f *testing.F) {
	real := tracedEngagement(f)
	if err := obs.ValidateTrace(real); err != nil {
		f.Fatalf("a real engagement's trace fails validation: %v", err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add([]byte(`{"schema":"liberate-trace/v1","events":[{"vns":0,"kind":"span.start","actor":"a"},{"vns":1,"kind":"span.end","actor":"b"}]}`))
	f.Add([]byte(`{"schema":"liberate-trace/v1","dropped_events":-1}`))
	f.Add([]byte(`{"schema":"liberate-trace/v1","counters":{"nope":1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		err1 := obs.ValidateTrace(data)
		err2 := obs.ValidateTrace(data)
		if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("validator is not deterministic: %v vs %v", err1, err2)
		}
	})
}
