package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// FuzzStoreEntry feeds Store.get arbitrary entry-file bytes, seeded from a
// real Put of an engagement and from that entry truncated, version-skewed,
// re-keyed and with a payload that no longer matches its sum. The lookup
// must never panic. A miss must evict the file. A hit is allowed only
// when the envelope's version, key and payload sum all match, and the
// report it returns must re-encode.
func FuzzStoreEntry(f *testing.F) {
	st, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	e := Engagement{Network: "testbed", Trace: "amazon", Body: 8 << 10, Seed: 1}
	key, err := contentKey(e, "linux")
	if err != nil {
		f.Fatal(err)
	}
	if err := st.put(key, runReport(f)); err != nil {
		f.Fatal(err)
	}
	path := st.path(key)
	entry, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entry)
	f.Add(entry[:len(entry)/2])
	f.Add(bytes.Replace(entry, []byte(`"v":1`), []byte(`"v":2`), 1))
	f.Add(bytes.Replace(entry, []byte(`"key":"`), []byte(`"key":"x`), 1))
	f.Add(bytes.Replace(entry, []byte(`"report":{`), []byte(`"report":{"extra":0,`), 1))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := st.Stats()
		rep, ok := st.get(key)
		after := st.Stats()
		if !ok {
			if rep != nil {
				t.Fatal("miss returned a report")
			}
			if after.Misses != before.Misses+1 || after.Evictions != before.Evictions+1 {
				t.Fatalf("corrupt entry not counted as an evicted miss: %+v -> %+v", before, after)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry left on disk (stat err %v)", err)
			}
			return
		}
		if after.Hits != before.Hits+1 || after.Evictions != before.Evictions {
			t.Fatalf("hit miscounted: %+v -> %+v", before, after)
		}
		var env storeEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("hit on an entry that is not an envelope: %v", err)
		}
		if env.V != storeVersion || env.Key != key || env.Sum != payloadSum(env.Report) {
			t.Fatalf("hit on a mismatched envelope: v=%d key=%q sum ok=%v",
				env.V, env.Key, env.Sum == payloadSum(env.Report))
		}
		if _, err := EncodeReport(rep); err != nil {
			t.Fatalf("hit returned a report that does not re-encode: %v", err)
		}
	})
}
