package dpi

import (
	"encoding/json"
	"testing"
	"time"
)

// FuzzParseScenarioPack feeds the scenario-pack parser arbitrary bytes,
// seeded with a two-world pack like the scenario gate's. Parsing must
// never panic. An accepted pack must validate, keep its scenario hashes
// across a marshal/parse round trip, and schedule its phases at
// nonnegative, strictly increasing virtual-time offsets, since that is
// how Apply reads them. Its fault overlay, if any, must hold rates in
// [0, 1] and nonnegative knobs that convert to durations without wrapping.
func FuzzParseScenarioPack(f *testing.F) {
	f.Add([]byte(packJSON))
	f.Add([]byte(`{"schema": "scenario-pack/v1", "scenarios": [{"name": "clean"}]}`))
	f.Add([]byte(`{"schema": "scenario-pack/v1", "scenarios": [
	  {"name": "a", "phases": [{"start_s": 0}, {"start_s": 1e-10}, {"start_s": 1e10}]}]}`))
	f.Add([]byte(`{"schema": "scenario-pack/v1", "scenarios": [{"name": "a", "faults":
	  {"miss_rate": 1, "rst_delay_ms": 9223372036854, "flow_table_cap": 4, "outage_every_s": 9223372036, "outage_for_s": 2}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseScenarioPack(data)
		if err != nil {
			return
		}
		hashes := make([]string, len(p.Scenarios))
		for i := range p.Scenarios {
			sc := &p.Scenarios[i]
			if err := sc.Validate(); err != nil {
				t.Fatalf("accepted scenario %q does not validate: %v", sc.Name, err)
			}
			if h := sc.Hash(); h != sc.Hash() {
				t.Fatalf("scenario %q hash is not stable", sc.Name)
			}
			hashes[i] = sc.Hash()
			if fs := sc.Faults; fs != nil {
				checkFaultsInRange(t, sc.Name, fs)
			}
			var prev time.Duration
			for j, ph := range sc.Phases {
				at := phaseStart(ph.StartS)
				if at < 0 || (j > 0 && at <= prev) {
					t.Fatalf("scenario %q phase %d (start_s %v) starts at %v, after %v", sc.Name, j, ph.StartS, at, prev)
				}
				prev = at
			}
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseScenarioPack(enc)
		if err != nil {
			t.Fatalf("re-marshalled pack rejected: %v\n%s", err, enc)
		}
		for i := range back.Scenarios {
			if h := back.Scenarios[i].Hash(); h != hashes[i] {
				t.Fatalf("scenario %d hash moved across a round trip: %s vs %s", i, h, hashes[i])
			}
		}
	})
}

// checkFaultsInRange asserts the middlebox reads an accepted fault overlay
// as written: rates are probabilities, and every knob is nonnegative and
// survives its conversion to time.Duration.
func checkFaultsInRange(t *testing.T, name string, fs *FaultsSpec) {
	t.Helper()
	fl := fs.faults()
	for _, r := range []float64{fl.MissRate, fl.RSTDropRate, fl.RSTDelayRate} {
		if !(r >= 0 && r <= 1) {
			t.Fatalf("scenario %q accepted fault rate %v", name, r)
		}
	}
	if fl.FlowTableCap < 0 {
		t.Fatalf("scenario %q accepted flow_table_cap %d", name, fl.FlowTableCap)
	}
	for _, d := range []struct {
		got  time.Duration
		n    int
		unit time.Duration
	}{
		{fl.RSTDelay, fs.RSTDelayMs, time.Millisecond},
		{fl.OutageEvery, fs.OutageEveryS, time.Second},
		{fl.OutageFor, fs.OutageForS, time.Second},
	} {
		if d.got < 0 || int64(d.got/d.unit) != int64(d.n) {
			t.Fatalf("scenario %q: %d x %v became %v", name, d.n, d.unit, d.got)
		}
	}
}
