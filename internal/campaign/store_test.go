package campaign

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dpi"
	"repro/internal/netem/stack"
	"repro/internal/registry"
)

// storeSpec is small but exercises both a differentiated network and a
// multi-key sweep: 4 engagements over 2 distinct content keys.
func storeSpec() Spec {
	return Spec{
		Name:     "store-test",
		Networks: []string{"testbed"},
		Traces:   []string{"amazon"},
		Hours:    []int{0, 12},
		Bodies:   []int{8 << 10},
		Seeds:    []int64{1, 2},
	}
}

// runReport produces one real engagement report for codec tests.
func runReport(t testing.TB) *core.Report {
	t.Helper()
	net, err := registry.NewNetwork("testbed")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := registry.NewTrace("amazon", 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	return (&core.Liberate{Net: net, Trace: tr, ServerOS: &stack.Linux}).Run()
}

// TestReportCodecAggregationExact is the codec's contract: aggregating a
// decoded report must produce byte-identical summary JSON to aggregating
// the original, and the deployment transform must still build.
func TestReportCodecAggregationExact(t *testing.T) {
	rep := runReport(t)
	data, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}

	e := Engagement{Network: "testbed", Trace: "amazon", Body: 8 << 10, Seed: 1}
	spec := storeSpec()
	orig := Aggregate(spec, []Result{{Engagement: e, Report: rep, Status: StatusOK, Attempts: 1}})
	dec := Aggregate(spec, []Result{{Engagement: e, Report: back, Status: StatusOK, Attempts: 1}})
	oj, err := orig.JSON()
	if err != nil {
		t.Fatal(err)
	}
	dj, err := dec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(oj) != string(dj) {
		t.Errorf("aggregation over decoded report diverged:\n%s\nvs\n%s", dj, oj)
	}

	if rep.Deployed != nil {
		if back.Deployed == nil {
			t.Fatal("decode dropped the deployed verdict")
		}
		if back.DeployTransform(7) == nil {
			t.Error("decoded report cannot build its deployment transform (technique rehydration failed)")
		}
	}
	// Re-encoding the decoded report must be a fixed point.
	data2, err := EncodeReport(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("encode(decode(encode(r))) is not a fixed point")
	}
}

func TestDecodeReportRejectsUnknownTechnique(t *testing.T) {
	rep := runReport(t)
	data, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	mangled := strings.Replace(string(data), rep.Deployed.Technique.ID, "no-such-technique", 1)
	if _, err := DecodeReport([]byte(mangled)); err == nil {
		t.Error("decoding a report with an unknown technique ID should fail")
	}
}

// TestDecodeReportRejectsPartial: a payload missing what every consumer
// dereferences (the detection, and a differentiated report's
// characterization and evaluation) is refused rather than handed on to
// panic in WriteSummary, Aggregate or DeployTransform.
func TestDecodeReportRejectsPartial(t *testing.T) {
	for _, doc := range []string{
		`{}`,
		`null`,
		`{"detection": {"differentiated": true}, "evaluation": {"verdicts": []}}`,
		`{"detection": {"differentiated": true}, "characterization": {}}`,
		`{"detection": {}, "deployed": {"technique": "ip-fragment"}}`,
	} {
		if _, err := DecodeReport([]byte(doc)); err == nil {
			t.Errorf("DecodeReport(%s) accepted a partial report", doc)
		}
	}
}

// TestStoreWarmRunByteIdentical is the restart-durability contract: a
// second run against a fresh Store handle on the same directory must be
// served warm (zero misses) and emit byte-identical summary output,
// modulo the store stats block itself.
func TestStoreWarmRunByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := storeSpec()

	run := func() *Summary {
		st, err := OpenStore(dir) // fresh handle each run = process restart
		if err != nil {
			t.Fatal(err)
		}
		sum, err := (&Runner{Spec: spec, Workers: 2, Cache: NewCache(), Store: st}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}

	cold := run()
	if cold.Failed != 0 {
		t.Fatalf("%d cold engagements failed", cold.Failed)
	}
	if cold.Store == nil || cold.Store.Hits != 0 || cold.Store.Misses != 2 || cold.Store.Writes != 2 {
		t.Fatalf("cold store stats = %+v, want 0 hits / 2 misses / 2 writes", cold.Store)
	}

	warm := run()
	if warm.Store == nil || warm.Store.Misses != 0 || warm.Store.Hits != 2 {
		t.Fatalf("warm store stats = %+v, want 2 hits / 0 misses", warm.Store)
	}

	// Everything outside the store block must match byte-for-byte.
	cold.Store, warm.Store = nil, nil
	cj, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	wj, err := warm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(cj) != string(wj) {
		t.Errorf("warm-store summary diverged from cold run:\n%s\nvs\n%s", wj, cj)
	}
}

// TestStoreWithoutCacheAlsoServes covers the store layered directly
// under Engage (no in-memory cache): per-seed transform verification
// must still run on hits.
func TestStoreWithoutCacheAlsoServes(t *testing.T) {
	dir := t.TempDir()
	spec := storeSpec()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{Spec: spec, Workers: 1, Store: st}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var engaged int
	countingEngage := func(ctx context.Context, e Engagement, osp *stack.OSProfile) (*core.Report, error) {
		engaged++
		return DefaultEngage(ctx, e, osp)
	}
	sum, err := (&Runner{Spec: spec, Workers: 1, Store: st2, Engage: countingEngage}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if engaged != 0 {
		t.Errorf("warm store still ran %d engagements", engaged)
	}
	// Without the memory cache every engagement consults the store: all
	// 4 are hits (2 keys × 2 seeds).
	if sum.Store == nil || sum.Store.Hits != 4 || sum.Store.Misses != 0 {
		t.Errorf("store stats = %+v, want 4 hits / 0 misses", sum.Store)
	}
}

// storeEntryFiles lists the non-temporary entry files under the store.
func storeEntryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(path, ".json") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestStoreCorruptEntryIsMiss: truncated and garbage entries must read
// as misses, be evicted, and be transparently recomputed.
func TestStoreCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := Engagement{Network: "testbed", Trace: "amazon", Body: 8 << 10, Seed: 1}
	rep := runReport(t)
	if err := st.Put(e, "linux", rep); err != nil {
		t.Fatal(err)
	}
	files := storeEntryFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("expected 1 entry file, found %d", len(files))
	}

	for name, corrupt := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"garbage":   func([]byte) []byte { return []byte("not json at all") },
		"bit-flip":  func(b []byte) []byte { b = append([]byte(nil), b...); b[len(b)/2] ^= 0xff; return b },
	} {
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(files[0], corrupt(data), 0o644); err != nil {
			t.Fatal(err)
		}
		before := st.Stats().Evictions
		if _, ok, err := st.Get(e, "linux"); err != nil || ok {
			t.Errorf("%s: corrupt entry returned ok=%v err=%v, want miss", name, ok, err)
		}
		if got := st.Stats().Evictions; got != before+1 {
			t.Errorf("%s: evictions = %d, want %d", name, got, before+1)
		}
		if remaining := storeEntryFiles(t, dir); len(remaining) != 0 {
			t.Errorf("%s: corrupt entry not removed: %v", name, remaining)
		}
		// Rewrite for the next corruption mode.
		if err := st.Put(e, "linux", rep); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreWrongKeyEntryIsMiss: an entry whose embedded key disagrees
// with its filename (cross-key corruption, collision) is evicted.
func TestStoreWrongKeyEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := Engagement{Network: "testbed", Trace: "amazon", Body: 8 << 10, Seed: 1}
	if err := st.Put(e, "linux", runReport(t)); err != nil {
		t.Fatal(err)
	}
	files := storeEntryFiles(t, dir)
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Re-home the entry under a different engagement's key path.
	other := Engagement{Network: "testbed", Trace: "amazon", Hour: 12, Body: 8 << 10, Seed: 1}
	okey, err := contentKey(other, "linux")
	if err != nil {
		t.Fatal(err)
	}
	opath := st.path(okey)
	if err := os.MkdirAll(filepath.Dir(opath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(opath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(other, "linux"); err != nil || ok {
		t.Errorf("wrong-key entry returned ok=%v err=%v, want miss", ok, err)
	}
	if _, err := os.Stat(opath); !os.IsNotExist(err) {
		t.Error("wrong-key entry was not evicted")
	}
}

// TestStoreConcurrentWritersOneFile: many goroutines persisting the same
// key concurrently must leave exactly one entry file, no temp litter,
// and a readable entry — the atomic-rename contract.
func TestStoreConcurrentWritersOneFile(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := Engagement{Network: "testbed", Trace: "amazon", Body: 8 << 10, Seed: 1}
	rep := runReport(t)

	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := st.Put(e, "linux", rep); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	var all []string
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			all = append(all, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("expected exactly one file after %d concurrent writers, found %d: %v", writers, len(all), all)
	}
	if got, ok, err := st.Get(e, "linux"); err != nil || !ok || got == nil {
		t.Fatalf("entry unreadable after concurrent writes: ok=%v err=%v", ok, err)
	}
	if st.Stats().Writes != int64(writers) {
		t.Errorf("writes = %d, want %d", st.Stats().Writes, writers)
	}
}

// TestContentKeyPinsStorePaths pins contentKey's canonical strings and
// the store paths derived from them, as written by every earlier build.
// A store directory warmed by an older build must stay all hits, so any
// change here is a store format change, not a refactor.
func TestContentKeyPinsStorePaths(t *testing.T) {
	sc := Spec{Networks: []string{"testbed"}, Traces: []string{"amazon"}, Bodies: []int{8 << 10},
		Scenarios: []dpi.ScenarioSpec{{Name: "lossy", Faults: &dpi.FaultsSpec{MissRate: 0.05},
			Phases: []dpi.ScenarioPhase{{StartS: 0, Egress: []dpi.ImpairmentSpec{{Kind: "loss", Rate: 0.02, Seed: 3}}}}}}}
	scEngs, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		e            Engagement
		os, key, rel string
	}{
		{
			e:   Engagement{Network: "gfc", Trace: "youtube", Hour: 12, Body: 8 << 10, Seed: 3},
			os:  "linux",
			key: "8ac02aa8e9beab4617f5e4ebb512a81229c50cb87dbed41f3768102ab7465cdd|59b3e0f0821f2cf17632c7956419d053e225a14ecc7729fbc46c644fb9cddb20|12|linux|engagement",
			rel: "30/5cc4de142f1b6c528c978b2306623a07e50b401810900406fae4edee76fafe.json",
		},
		{
			e:   Engagement{Network: "tmobile", Trace: "amazon", Body: 8 << 10, Seed: 1, Fingerprint: true},
			os:  "linux",
			key: "d558aba5185fea5eb71559c0f62cb33762057686efee35b3cb2b056e2e328e07|54b111cb0a14c367a24d5cded80dcea0dfd3f26a81501eb9e3364e904ac4b18d|0|linux|engagement|fp:1",
			rel: "8c/76dfe6b87d06a2758fcdb98813db6ebff5d0f04274415c7806779af769aebd.json",
		},
		{
			e:   scEngs[0],
			os:  "macos",
			key: "f5d7fdb8dc5b719b3d98c61042b729d832a215aa24a3ea18fc290586d1f4e16c|54b111cb0a14c367a24d5cded80dcea0dfd3f26a81501eb9e3364e904ac4b18d|0|macos|engagement|sc:bc5b1ee3d9c0",
			rel: "46/feb1c3c43494348bc04fbe927a97954559995ec4d62a67abdb068aed09665a.json",
		},
	} {
		key, err := contentKey(c.e, c.os)
		if err != nil {
			t.Fatal(err)
		}
		if key != c.key {
			t.Errorf("%s/%s: key\n got %s\nwant %s", c.e.Key(), c.os, key, c.key)
		}
		if want := filepath.Join(st.Dir(), filepath.FromSlash(c.rel)); st.path(key) != want {
			t.Errorf("%s/%s: path %s, want %s", c.e.Key(), c.os, st.path(key), want)
		}
	}
}

// TestReportCodecFingerprintRoundTrip pins the armed-report wire format:
// the full probe evidence must survive encode/decode (the daemon and
// cluster workers ship armed reports through this codec), aggregation
// over the decoded report must be byte-identical, and re-encoding must
// be a fixed point.
func TestReportCodecFingerprintRoundTrip(t *testing.T) {
	net, err := registry.NewNetwork("tmobile")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := registry.NewTrace("amazon", 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	rep := (&core.Liberate{Net: net, Trace: tr, ServerOS: &stack.Linux, Fingerprint: true}).Run()
	if rep.Fingerprint == nil || rep.Fingerprint.Profile != "tmobile" {
		t.Fatalf("armed engagement did not identify tmobile: %+v", rep.Fingerprint)
	}

	data, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	fp := back.Fingerprint
	if fp == nil {
		t.Fatal("decode dropped the fingerprint")
	}
	if fp.Profile != rep.Fingerprint.Profile || fp.Confidence != rep.Fingerprint.Confidence {
		t.Errorf("identification changed: got %s/%v want %s/%v",
			fp.Profile, fp.Confidence, rep.Fingerprint.Profile, rep.Fingerprint.Confidence)
	}
	if len(fp.Probes) != len(rep.Fingerprint.Probes) {
		t.Fatalf("probe evidence truncated: %d != %d", len(fp.Probes), len(rep.Fingerprint.Probes))
	}
	for i, ob := range rep.Fingerprint.Probes {
		if fp.Probes[i] != ob {
			t.Errorf("probe %d changed: got %+v want %+v", i, fp.Probes[i], ob)
		}
	}
	if len(fp.RuledOut) != len(rep.Fingerprint.RuledOut) {
		t.Errorf("ruled-out set changed: %d != %d", len(fp.RuledOut), len(rep.Fingerprint.RuledOut))
	}
	if fp.Rounds != rep.Fingerprint.Rounds || fp.Bytes != rep.Fingerprint.Bytes || fp.Time != rep.Fingerprint.Time {
		t.Errorf("probe accounting changed: %d/%d/%s vs %d/%d/%s",
			fp.Rounds, fp.Bytes, fp.Time, rep.Fingerprint.Rounds, rep.Fingerprint.Bytes, rep.Fingerprint.Time)
	}

	e := Engagement{Network: "tmobile", Trace: "amazon", Body: 8 << 10, Seed: 1, Fingerprint: true}
	spec := storeSpec()
	spec.Networks, spec.Fingerprint = []string{"tmobile"}, true
	orig := Aggregate(spec, []Result{{Engagement: e, Report: rep, Status: StatusOK, Attempts: 1}})
	dec := Aggregate(spec, []Result{{Engagement: e, Report: back, Status: StatusOK, Attempts: 1}})
	oj, err := orig.JSON()
	if err != nil {
		t.Fatal(err)
	}
	dj, err := dec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(oj) != string(dj) {
		t.Errorf("aggregation over decoded armed report diverged:\n%s\nvs\n%s", dj, oj)
	}

	data2, err := EncodeReport(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("encode(decode(encode(r))) is not a fixed point for armed reports")
	}
}
