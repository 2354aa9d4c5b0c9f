package trace

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

// padTo is a stand-in probe builder: it appends n zero bytes to a private
// copy of the last message, as the engagement's padded probes do.
func padTo(t *Trace, n int) *Trace {
	c := t.ShallowClone()
	last := &c.Messages[len(c.Messages)-1]
	last.Data = append(append([]byte(nil), last.Data...), make([]byte, n)...)
	return c
}

// retained reports the memo's byte count and checks it against its
// families: every retained trace charged once, no family left empty.
func retained(t *testing.T) int {
	t.Helper()
	memo.mu.Lock()
	defer memo.mu.Unlock()
	sum := 0
	seen := map[*family]bool{}
	for _, f := range memo.families {
		if seen[f] {
			continue
		}
		seen[f] = true
		n := 0
		for _, m := range f.members {
			n += m.TotalBytes()
		}
		if n != f.bytes {
			t.Fatalf("family charged %d bytes, its members hold %d", f.bytes, n)
		}
		sum += n
	}
	if sum != memo.bytes {
		t.Fatalf("memo charged %d bytes, its families hold %d", memo.bytes, sum)
	}
	return sum
}

// TestMemoStaysWithinBudget feeds 100 distinct bodies through the memo,
// each with a padded probe and inverted controls, as a daemon answering
// never-seen keys does: several budgets' worth in all, yet the
// retained bytes never exceed MemoBudget.
func TestMemoStaysWithinBudget(t *testing.T) {
	for i := 0; i < 100; i++ {
		body := 8<<10 + 16*i
		src := Named("amazon", body, func() *Trace { return AmazonPrimeVideo(body) })
		p := Derive(src, "pad", 200<<10, func() *Trace { return padTo(src, 200<<10) })
		Derive(p, "invert", 0, p.Invert)
		Derive(src, "invert", 0, src.Invert)
		if got := retained(t); got > MemoBudget {
			t.Fatalf("after %d bodies the memo retains %d bytes, budget %d", i+1, got, MemoBudget)
		}
	}
	// The most recent body is still memoized: a repeat is a hit.
	body := 8<<10 + 16*99
	a := Named("amazon", body, func() *Trace { t.Fatal("rebuilt a retained trace"); return nil })
	if a.TotalBytes() < body {
		t.Fatalf("memoized trace holds %d bytes, want at least %d", a.TotalBytes(), body)
	}
}

// TestMemoDropsOversizedFamily: a family larger than the whole budget is
// served but not kept.
func TestMemoDropsOversizedFamily(t *testing.T) {
	src := AmazonPrimeVideo(MemoBudget)
	inv := Derive(src, "invert", 0, src.Invert)
	if !bytes.Equal(inv.Messages[0].Data, src.Invert().Messages[0].Data) {
		t.Fatal("oversized derivation returned the wrong trace")
	}
	if got := retained(t); got > MemoBudget {
		t.Fatalf("memo retains %d bytes after an oversized family, budget %d", got, MemoBudget)
	}
	memo.mu.Lock()
	_, kept := memo.families[src]
	memo.mu.Unlock()
	if kept {
		t.Fatal("a family larger than the budget was retained")
	}
}

// TestMemoConcurrentCallersShare: goroutines asking for the same keys at
// once all get one trace per key, and the right one.
func TestMemoConcurrentCallersShare(t *testing.T) {
	const workers = 8
	bodies := []int{3 << 10, 5 << 10}
	type got struct{ src, inv, pad *Trace }
	out := make([][]got, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, body := range bodies {
				src := Named("spotify-concurrent", body, func() *Trace { return Spotify(body) })
				pad := Derive(src, "pad", 64<<10, func() *Trace { return padTo(src, 64<<10) })
				inv := Derive(pad, "invert", 0, pad.Invert)
				out[w] = append(out[w], got{src, inv, pad})
			}
		}(w)
	}
	wg.Wait()
	for i, body := range bodies {
		first := out[0][i]
		if want := ContentHash(Spotify(body)); ContentHash(first.src) != want {
			t.Fatalf("body %d: shared source has the wrong content", body)
		}
		if want := ContentHash(padTo(Spotify(body), 64<<10).Invert()); ContentHash(first.inv) != want {
			t.Fatalf("body %d: shared inverted probe has the wrong content", body)
		}
		for w := 1; w < workers; w++ {
			if out[w][i] != first {
				t.Fatalf("body %d: worker %d got different traces than worker 0", body, w)
			}
		}
	}
}

// TestClonesKeepEveryExportedField: Clone and ShallowClone build their
// copies field by field, so a field added to Trace must be added to them
// too; this fails until it is.
func TestClonesKeepEveryExportedField(t *testing.T) {
	src := &Trace{}
	v := reflect.ValueOf(src).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !v.Type().Field(i).IsExported() {
			continue
		}
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(7)
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Slice:
			f.Set(reflect.ValueOf([]Message{{Dir: ServerToClient, Data: []byte("y")}}))
		default:
			t.Fatalf("field %s: kind %s has no test value", v.Type().Field(i).Name, f.Kind())
		}
	}
	for name, c := range map[string]*Trace{"Clone": src.Clone(), "ShallowClone": src.ShallowClone()} {
		cv := reflect.ValueOf(c).Elem()
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue
			}
			if !reflect.DeepEqual(cv.Field(i).Interface(), v.Field(i).Interface()) {
				t.Errorf("%s dropped field %s", name, v.Type().Field(i).Name)
			}
		}
	}
}

// TestMemoSlotBelongsToItsKey: a second key never receives the value
// stored under the first; it gets its own build's value, unmemoized.
func TestMemoSlotBelongsToItsKey(t *testing.T) {
	type keyA struct{}
	type keyB struct{}
	tr := Spotify(1 << 10)
	builds := 0
	a := tr.Memo(keyA{}, func(*Trace) any { builds++; return "a" })
	if again := tr.Memo(keyA{}, func(*Trace) any { builds++; return "other" }); a != "a" || again != "a" || builds != 1 {
		t.Fatalf("owner key: got %v then %v after %d builds, want a, a, 1", a, again, builds)
	}
	if b := tr.Memo(keyB{}, func(*Trace) any { return 42 }); b != 42 {
		t.Fatalf("second key got %v, want its own value 42", b)
	}
}
