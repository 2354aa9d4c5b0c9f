package dpi

// Compiled rule program: an Aho-Corasick automaton over every distinct
// keyword pattern in a rule set, so inspection makes ONE pass over the
// payload (or over newly arrived stream bytes) instead of a per-rule
// bytes.Contains scan per frame.
//
// Each distinct non-empty pattern owns one bit in a uint64; a rule's
// compiled form is the mask of its patterns' bits, so "all keywords
// present" (Rule.MatchBytes semantics) becomes hits&mask == mask. Streams
// are append-only, so for reassembling classifiers the automaton state and
// hit mask persist per flow direction and each stream byte is fed exactly
// once per engagement — hit bits are sticky, which is equivalent to the
// naive full-stream rescan because bytes.Contains over a growing buffer is
// monotone.
//
// Programs are built once per Middlebox construction and shared read-only
// across ForkElement copies. They are deliberately NOT part of Config:
// Network.Fingerprint hashes Config with %+v, and a pointer field would
// hash its address. Rule sets with more than 64 distinct patterns fall
// back to the naive scan (prog == nil), keeping the automaton an
// optimization rather than a constraint.

// acNode is one automaton state with dense next-state transitions
// (fail links are resolved into next during compilation).
type acNode struct {
	next [256]int32
	out  uint64 // pattern bits whose match ends in this state
}

// ruleProgram is the compiled form of a []Rule.
type ruleProgram struct {
	nodes []acNode
	// ruleMask[i] is the bit-mask of rule i's distinct non-empty keyword
	// patterns; hits&ruleMask[i] == ruleMask[i] ⇔ Rules[i].MatchBytes.
	ruleMask []uint64
	allMask  uint64
}

// maxProgramPatterns bounds the distinct patterns a program can track.
const maxProgramPatterns = 64

// compileRules builds the automaton, or returns nil when the rule set
// exceeds the pattern budget (callers then keep the naive scan).
func compileRules(rules []Rule) *ruleProgram {
	if len(rules) == 0 {
		return nil
	}
	// Assign one bit per distinct non-empty pattern.
	bit := make(map[string]uint64)
	var patterns [][]byte
	pg := &ruleProgram{ruleMask: make([]uint64, len(rules))}
	for i := range rules {
		for _, kw := range rules[i].Keywords {
			if len(kw) == 0 {
				continue // empty pattern matches everything; contributes no bit
			}
			b, ok := bit[string(kw)]
			if !ok {
				if len(patterns) >= maxProgramPatterns {
					return nil
				}
				b = 1 << uint(len(patterns))
				bit[string(kw)] = b
				patterns = append(patterns, kw)
			}
			pg.ruleMask[i] |= b
			pg.allMask |= b
		}
	}

	// Trie construction. next == -1 marks "no edge" until densification.
	pg.nodes = make([]acNode, 1, 16)
	for c := range pg.nodes[0].next {
		pg.nodes[0].next[c] = -1
	}
	for pi, pat := range patterns {
		s := int32(0)
		for _, c := range pat {
			t := pg.nodes[s].next[c]
			if t < 0 {
				t = int32(len(pg.nodes))
				var n acNode
				for i := range n.next {
					n.next[i] = -1
				}
				pg.nodes = append(pg.nodes, n)
				pg.nodes[s].next[c] = t
			}
			s = t
		}
		pg.nodes[s].out |= 1 << uint(pi)
	}

	// BFS: compute fail links, fold fail outputs in, and densify the
	// transition table so feed never chases fail chains.
	fail := make([]int32, len(pg.nodes))
	queue := make([]int32, 0, len(pg.nodes))
	for c := range pg.nodes[0].next {
		t := pg.nodes[0].next[c]
		if t < 0 {
			pg.nodes[0].next[c] = 0
			continue
		}
		fail[t] = 0
		queue = append(queue, t)
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		pg.nodes[s].out |= pg.nodes[fail[s]].out
		for c := range pg.nodes[s].next {
			t := pg.nodes[s].next[c]
			if t < 0 {
				pg.nodes[s].next[c] = pg.nodes[fail[s]].next[c]
				continue
			}
			fail[t] = pg.nodes[fail[s]].next[c]
			queue = append(queue, t)
		}
	}
	return pg
}

// feed advances the automaton over data, or-ing pattern hits into hits.
// Both the state and the accumulated hits are returned so stream-mode
// callers can persist them per flow direction.
func (pg *ruleProgram) feed(state int32, data []byte, hits uint64) (int32, uint64) {
	nodes := pg.nodes
	for _, c := range data {
		state = nodes[state].next[c]
		hits |= nodes[state].out
	}
	return state, hits
}

// matchOnce scans one isolated payload from the root state, early-exiting
// once every pattern has been seen.
func (pg *ruleProgram) matchOnce(data []byte) uint64 {
	nodes := pg.nodes
	all := pg.allMask
	var hits uint64
	state := int32(0)
	for _, c := range data {
		state = nodes[state].next[c]
		if o := nodes[state].out; o != 0 {
			hits |= o
			if hits == all {
				break
			}
		}
	}
	return hits
}

// gateFamilies is the fixed set of protocol families first-packet gates
// recognize, hoisted so gate evaluation allocates nothing per flow.
var gateFamilies = [...]Family{FamilyHTTP, FamilyTLS, FamilySTUN}

// famBit maps a gate family to its bit in mbFlow.famBits. Families outside
// the gate set map to 0 (never recognized — same as the map-based gate,
// which only ever inserted the three gate families).
func famBit(f Family) uint8 {
	switch f {
	case FamilyHTTP:
		return 1
	case FamilyTLS:
		return 2
	case FamilySTUN:
		return 4
	}
	return 0
}
