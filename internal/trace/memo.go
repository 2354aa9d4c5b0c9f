package trace

import "sync"

// MemoBudget is the most payload bytes the process-wide derived-trace memo
// retains. It holds the golden sweep's two trace cells (amazon and youtube
// at 8 KiB bodies) with every probe the engagement phases derive from
// them, about 5.4 MB. A workload that keeps asking for new cells cycles
// through it, least recently used family first, and keeps that much more
// memory live than one that rebuilds its probes.
const MemoBudget = 6 << 20

// memo is the process-wide derived-trace memo. It hands out one shared,
// immutable trace per built-in (name, body) and one per derivation
// (source trace, op, n), so every engagement, evaluation fork and campaign
// worker replays the same probes instead of rebuilding them.
//
// Its traces form families: a root (a built-in from Named, or a caller's
// own trace first passed to Derive) and every trace derived from it,
// directly or through other derived traces. A derived entry's key holds
// its source pointer, which keeps the source alive, so a family is
// charged, retained and evicted as a whole: nothing the memo keeps alive
// goes uncounted, and a derived trace never outlives the key that finds
// it.
var memo traceMemo

type traceMemo struct {
	mu       sync.Mutex
	named    map[namedKey]*Trace
	derived  map[deriveKey]*Trace
	families map[*Trace]*family // every trace the memo retains → its family
	bytes    int                // payload bytes of every retained trace
	tick     uint64
}

type namedKey struct {
	name string
	body int
}

type deriveKey struct {
	src *Trace
	op  string
	n   int
}

type family struct {
	named   *namedKey // the root's key when Named built it
	members []*Trace  // the root first
	keys    []deriveKey
	bytes   int
	used    uint64 // tick of the last hit or insert
}

// Named returns the shared trace for the built-in (name, body), calling
// build on the first request. The trace is shared by every caller and
// must be treated as immutable.
func Named(name string, body int, build func() *Trace) *Trace {
	k := namedKey{name, body}
	memo.mu.Lock()
	t, ok := memo.named[k]
	if ok {
		memo.touch(t)
	}
	memo.mu.Unlock()
	if ok {
		return t
	}

	t = build()
	memo.mu.Lock()
	defer memo.mu.Unlock()
	if prior, ok := memo.named[k]; ok {
		// Another goroutine built it meanwhile; share its copy.
		memo.touch(prior)
		return prior
	}
	if memo.named == nil {
		memo.named = make(map[namedKey]*Trace)
	}
	memo.named[k] = t
	memo.root(t).named = &k
	memo.evict()
	return t
}

// Derive returns the shared trace derived from src by op with parameter n,
// calling build on the first request for (src, op, n). build must be a
// pure function of src's content; src and the result are treated as
// immutable from then on. src need not come from Named: a caller's own
// trace becomes the root of a family of its own.
func Derive(src *Trace, op string, n int, build func() *Trace) *Trace {
	k := deriveKey{src, op, n}
	memo.mu.Lock()
	t, ok := memo.derived[k]
	if ok {
		memo.touch(src)
	}
	memo.mu.Unlock()
	if ok {
		return t
	}

	t = build()
	memo.mu.Lock()
	defer memo.mu.Unlock()
	if prior, ok := memo.derived[k]; ok {
		memo.touch(src)
		return prior
	}
	f := memo.families[src]
	if f == nil {
		// A caller's own trace, or a member of a family evicted meanwhile.
		f = memo.root(src)
	}
	if memo.derived == nil {
		memo.derived = make(map[deriveKey]*Trace)
	}
	memo.derived[k] = t
	f.keys = append(f.keys, k)
	if memo.families[t] == nil {
		// A derivation that changes nothing returns src, already charged.
		memo.adopt(f, t)
	}
	memo.evict()
	return t
}

// root starts a family for t. Callers hold m.mu.
func (m *traceMemo) root(t *Trace) *family {
	if m.families == nil {
		m.families = make(map[*Trace]*family)
	}
	f := &family{}
	m.adopt(f, t)
	return f
}

// adopt makes t a member of f, charges its payload bytes and marks f used.
// Callers hold m.mu.
func (m *traceMemo) adopt(f *family, t *Trace) {
	n := t.TotalBytes()
	m.families[t] = f
	f.members = append(f.members, t)
	f.bytes += n
	m.bytes += n
	m.tick++
	f.used = m.tick
}

// touch marks the family of the retained trace t used. Callers hold m.mu.
func (m *traceMemo) touch(t *Trace) {
	m.tick++
	m.families[t].used = m.tick
}

// evict drops least recently used families until the memo fits
// MemoBudget. A family larger than the whole budget is dropped too, right
// after insertion: its caller still gets the trace, just not a memoized
// one. Callers hold m.mu.
func (m *traceMemo) evict() {
	for m.bytes > MemoBudget {
		var lru *family
		for _, f := range m.families {
			if lru == nil || f.used < lru.used {
				lru = f
			}
		}
		m.drop(lru)
	}
}

// drop forgets every key and member of f. Callers hold m.mu.
func (m *traceMemo) drop(f *family) {
	if f.named != nil {
		delete(m.named, *f.named)
	}
	for _, k := range f.keys {
		delete(m.derived, k)
	}
	for _, t := range f.members {
		delete(m.families, t)
	}
	m.bytes -= f.bytes
}
