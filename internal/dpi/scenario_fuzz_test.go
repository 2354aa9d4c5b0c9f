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
// how Apply reads them.
func FuzzParseScenarioPack(f *testing.F) {
	f.Add([]byte(packJSON))
	f.Add([]byte(`{"schema": "scenario-pack/v1", "scenarios": [{"name": "clean"}]}`))
	f.Add([]byte(`{"schema": "scenario-pack/v1", "scenarios": [
	  {"name": "a", "phases": [{"start_s": 0}, {"start_s": 1e-10}, {"start_s": 1e10}]}]}`))
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
