package packet

// FlowTable maps flow keys to per-flow state. It is the one flow table
// of the path: the classifier, the transparent proxy, the stateful
// firewall and both endpoint stacks each key their flows with it.
//
// Consecutive lookups almost always ask for the flow the previous one
// found, because a replay drives one flow at a time through the path. So
// the table keeps its last hit and compares a key with it by value
// before hashing. Every write drops the last hit — Put, Delete, Reset and
// Clone (whose copy starts without one) — so a lookup can never return a
// replaced, deleted or recycled entry from it.
//
// The zero value is an empty table. Like the element or stack that owns
// it, a table is single-goroutine, and Get counts as a write.
type FlowTable[V any] struct {
	m    map[FlowKey]V
	hitK FlowKey
	hitV V
	hit  bool
}

// Get returns the value stored under k.
func (t *FlowTable[V]) Get(k FlowKey) (V, bool) {
	if t.hit && t.hitK == k {
		return t.hitV, true
	}
	v, ok := t.m[k]
	if ok {
		t.hitK, t.hitV, t.hit = k, v, true
	}
	return v, ok
}

// Put stores v under k.
func (t *FlowTable[V]) Put(k FlowKey, v V) {
	if t.m == nil {
		t.m = make(map[FlowKey]V)
	}
	t.m[k] = v
	t.dropHit()
}

// Delete removes k.
func (t *FlowTable[V]) Delete(k FlowKey) {
	delete(t.m, k)
	t.dropHit()
}

// Reset removes every entry, keeping the table's capacity.
func (t *FlowTable[V]) Reset() {
	clear(t.m)
	t.dropHit()
}

// Len returns the number of entries.
func (t *FlowTable[V]) Len() int { return len(t.m) }

// Range calls fn for every entry, in no particular order. fn must not
// write the table.
func (t *FlowTable[V]) Range(fn func(FlowKey, V)) {
	for k, v := range t.m {
		fn(k, v)
	}
}

// Clone returns an independent table holding cp(v) under each key, for
// forks: cp deep-copies one value. The copy starts without a last hit,
// so it can never hand out a value of the original.
func (t *FlowTable[V]) Clone(cp func(V) V) FlowTable[V] {
	var c FlowTable[V]
	if len(t.m) > 0 {
		c.m = make(map[FlowKey]V, len(t.m))
		for k, v := range t.m {
			c.m[k] = cp(v)
		}
	}
	return c
}

// dropHit forgets the last hit, zeroing its value so the table pins no
// record it no longer holds.
func (t *FlowTable[V]) dropHit() {
	var zero V
	t.hitV, t.hit = zero, false
}
