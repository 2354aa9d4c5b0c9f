// Package core implements lib·erate itself: the four automated phases of
// the paper — differentiation detection, classifier characterization,
// evasion evaluation, and evasion deployment — over the replay subsystem
// and the evasion-technique taxonomy of §4.3 / Table 3.
package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/netem/packet"
	"repro/internal/netem/stack"
	"repro/internal/trace"
)

// Group is the high-level technique category of Table 2.
type Group string

// The four technique groups.
const (
	GroupInert     Group = "inert-packet-insertion"
	GroupSplitting Group = "payload-splitting"
	GroupReorder   Group = "payload-reordering"
	GroupFlushing  Group = "classification-flushing"
)

// Proto says which transport a technique applies to.
type Proto string

// Technique transports.
const (
	ProtoIP  Proto = "IP"
	ProtoTCP Proto = "TCP"
	ProtoUDP Proto = "UDP"
)

// FieldRef is one matching-field byte range inside a trace message.
type FieldRef struct {
	Msg        int // trace message index
	Start, End int // byte range [Start, End)
}

func (f FieldRef) String() string { return fmt.Sprintf("msg%d[%d:%d]", f.Msg, f.Start, f.End) }

// BuildParams parameterizes technique construction for a concrete flow.
type BuildParams struct {
	// Fields are the classifier's matching fields (characterization
	// output), with offsets into the matching client write.
	Fields []FieldRef
	// MatchWrite is the client write index carrying the first matching
	// field.
	MatchWrite int
	// InertTTL is the TTL that reaches the middlebox but not the server
	// (localization output); 0 if unknown.
	InertTTL int
	// PauseFor is the idle interval used by flushing techniques.
	PauseFor time.Duration
	// Seed drives deterministic dummy-payload generation.
	Seed int64
	// Variant selects among parameterized strategies (split counts etc.).
	Variant int
}

// Applied is a constructed technique instance: the transform to install
// plus bookkeeping the evaluator uses to judge "Reaches Server?" and
// overhead.
type Applied struct {
	Transform stack.OutgoingTransform
	// InertPayloads are the payloads of injected inert packets; arrivals
	// carrying them indicate the inert packet reached the server.
	InertPayloads [][]byte
	// ExtraPackets and ExtraBytes estimate wire overhead added.
	ExtraPackets int
	ExtraBytes   int
	// AddedDelay is deliberate pausing introduced.
	AddedDelay time.Duration
	// Rewrite, when non-nil, rewrites the trace before replay (used by
	// datagram reordering, which must swap whole application writes).
	Rewrite func(tr *trace.Trace) *trace.Trace
}

// Technique is one row of the Table 3 taxonomy.
type Technique struct {
	// Row is the Table 3 row number (1-based, in paper order).
	Row   int
	ID    string
	Proto Proto
	Group Group
	Desc  string
	// Variants is how many parameterizations Build understands (tried in
	// order by the evaluator); at least 1.
	Variants int
	// NeedsTTL marks techniques requiring middlebox localization.
	NeedsTTL bool
	Build    func(p BuildParams) *Applied
}

// dummyBytes produces deterministic dummy payload that cannot be mistaken
// for a protocol signature or keyword (all bytes have the high bit set).
// The bytes depend only on (seed, n), and seeding a math/rand source is a
// 607-word pass, so each payload is built once per process and callers
// get copies, free to edit.
func dummyBytes(seed int64, n int) []byte {
	k := dummyKey{seed, n}
	dummyMemo.Lock()
	defer dummyMemo.Unlock()
	b, ok := dummyMemo.m[k]
	if !ok {
		b = newDummyBytes(seed, n)
		if dummyMemo.size+n <= dummyMemoBudget {
			if dummyMemo.m == nil {
				dummyMemo.m = make(map[dummyKey][]byte)
			}
			dummyMemo.m[k] = b
			dummyMemo.size += n
		}
	}
	return slices.Clone(b)
}

// dummyMemo holds the payloads dummyBytes has built, for every goroutine
// of the process, up to dummyMemoBudget bytes; past that it builds
// without keeping. Techniques draw from a small set of seeds and payloads
// of at most one segment: the golden 48-engagement sweep leaves 32
// payloads, 5 KB in all.
var dummyMemo struct {
	sync.Mutex
	m    map[dummyKey][]byte
	size int
}

type dummyKey struct {
	seed int64
	n    int
}

const dummyMemoBudget = 1 << 20

func newDummyBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	for i := range b {
		b[i] |= 0x80
	}
	return b
}

// inertInsertion builds the shared scaffolding of all inert-packet
// techniques: on the matching write, emit a corrupted copy of the first
// packet (dummy payload, same length, same sequence position) immediately
// before the real packets. corrupt receives a finalized packet and applies
// exactly one defect.
func inertInsertion(p BuildParams, corrupt func(pkt *packet.Packet)) *Applied {
	ap := &Applied{}
	ap.Transform = stack.TransformFunc(func(fi stack.FlowInfo, pkts []*packet.Packet) []stack.Scheduled {
		out := make([]stack.Scheduled, 0, len(pkts)+1)
		if fi.WriteIndex == p.MatchWrite && len(pkts) > 0 {
			inert := pkts[0].Clone()
			n := len(inert.Payload)
			if n == 0 {
				n = 1
			}
			inert.Payload = dummyBytes(p.Seed, n)
			inert.Finalize()
			corrupt(inert)
			ap.InertPayloads = append(ap.InertPayloads, append([]byte(nil), inert.Payload...))
			ap.ExtraPackets++
			ap.ExtraBytes += len(inert.Serialize())
			out = append(out, stack.Scheduled{Pkt: inert, Inert: true})
		}
		for _, pk := range pkts {
			out = append(out, stack.Scheduled{Pkt: pk})
		}
		return out
	})
	return ap
}

// fixIP recomputes only the IP header checksum (after corrupting a header
// field whose defect should be isolated from the checksum).
func fixIP(pkt *packet.Packet) {
	pkt.FixIPChecksum()
}

// fixTCP recomputes the TCP checksum for the current field values.
func fixTCP(pkt *packet.Packet) {
	if pkt.TCP != nil {
		pkt.FixTransportChecksum()
	}
}

// fixUDP recomputes the UDP checksum honoring the (possibly corrupted)
// Length field.
func fixUDP(pkt *packet.Packet) {
	if pkt.UDP != nil {
		pkt.FixTransportChecksum()
	}
}

// taxonomy is the full Table 3 technique suite, in paper row order, built
// once: every Build closure is a pure function of its BuildParams, so the
// entries are safe to share.
var taxonomy = buildTaxonomy()

// techniqueIndex maps a technique ID to its position in taxonomy.
var techniqueIndex = func() map[string]int {
	idx := make(map[string]int, len(taxonomy))
	for i, t := range taxonomy {
		idx[t.ID] = i
	}
	return idx
}()

// Taxonomy returns the full Table 3 technique suite, in paper row order.
// The slice is a fresh copy, so callers may filter or reorder it.
func Taxonomy() []Technique { return slices.Clone(taxonomy) }

func buildTaxonomy() []Technique {
	return []Technique{
		{Row: 1, ID: "ip-ttl-limited", Proto: ProtoIP, Group: GroupInert, NeedsTTL: true,
			Desc: "Lower TTL to only reach classifier",
			Build: func(p BuildParams) *Applied {
				ttl := p.InertTTL
				if ttl <= 0 {
					ttl = 4
				}
				return inertInsertion(p, func(pkt *packet.Packet) {
					pkt.IP.TTL = uint8(ttl)
					fixIP(pkt)
				})
			}},
		{Row: 2, ID: "ip-invalid-version", Proto: ProtoIP, Group: GroupInert,
			Desc: "Invalid Version",
			Build: func(p BuildParams) *Applied {
				return inertInsertion(p, func(pkt *packet.Packet) {
					pkt.IP.Version = 6
					fixIP(pkt)
				})
			}},
		{Row: 3, ID: "ip-invalid-ihl", Proto: ProtoIP, Group: GroupInert,
			Desc: "Invalid Header Length",
			Build: func(p BuildParams) *Applied {
				return inertInsertion(p, func(pkt *packet.Packet) {
					pkt.IP.IHL = 3
					fixIP(pkt)
				})
			}},
		{Row: 4, ID: "ip-total-length-long", Proto: ProtoIP, Group: GroupInert,
			Desc: "Total Length longer than payload",
			Build: func(p BuildParams) *Applied {
				return inertInsertion(p, func(pkt *packet.Packet) {
					pkt.IP.TotalLength += 32
					fixIP(pkt)
				})
			}},
		{Row: 5, ID: "ip-total-length-short", Proto: ProtoIP, Group: GroupInert,
			Desc: "Total Length shorter than payload",
			Build: func(p BuildParams) *Applied {
				return inertInsertion(p, func(pkt *packet.Packet) {
					if pkt.IP.TotalLength > 48 {
						pkt.IP.TotalLength -= 8
					}
					fixIP(pkt)
				})
			}},
		{Row: 6, ID: "ip-wrong-protocol", Proto: ProtoIP, Group: GroupInert,
			Desc: "Wrong Protocol",
			Build: func(p BuildParams) *Applied {
				return inertInsertion(p, func(pkt *packet.Packet) {
					pkt.IP.Protocol = 143
					fixIP(pkt)
				})
			}},
		{Row: 7, ID: "ip-wrong-checksum", Proto: ProtoIP, Group: GroupInert,
			Desc: "Wrong Checksum",
			Build: func(p BuildParams) *Applied {
				return inertInsertion(p, func(pkt *packet.Packet) {
					pkt.IP.Checksum ^= 0x5a5a
				})
			}},
		{Row: 8, ID: "ip-invalid-options", Proto: ProtoIP, Group: GroupInert,
			Desc: "Invalid Options",
			Build: func(p BuildParams) *Applied {
				return inertInsertion(p, func(pkt *packet.Packet) {
					pkt.IP.Options = []byte{0x99, 4, 0, 0}
					pkt.Finalize()
				})
			}},
		{Row: 9, ID: "ip-deprecated-options", Proto: ProtoIP, Group: GroupInert,
			Desc: "Deprecated Options",
			Build: func(p BuildParams) *Applied {
				return inertInsertion(p, func(pkt *packet.Packet) {
					pkt.IP.Options = []byte{packet.IPOptStreamID, 4, 0, 1}
					pkt.Finalize()
				})
			}},
		{Row: 10, ID: "tcp-wrong-seq", Proto: ProtoTCP, Group: GroupInert,
			Desc: "Wrong Sequence Number",
			Build: func(p BuildParams) *Applied {
				return inertInsertion(p, func(pkt *packet.Packet) {
					if pkt.TCP == nil {
						return
					}
					pkt.TCP.Seq += 1_000_000
					fixTCP(pkt)
					fixIP(pkt)
				})
			}},
		{Row: 11, ID: "tcp-wrong-checksum", Proto: ProtoTCP, Group: GroupInert,
			Desc: "Wrong Checksum",
			Build: func(p BuildParams) *Applied {
				return inertInsertion(p, func(pkt *packet.Packet) {
					if pkt.TCP == nil {
						return
					}
					pkt.TCP.Checksum ^= 0x2222
				})
			}},
		{Row: 12, ID: "tcp-no-ack", Proto: ProtoTCP, Group: GroupInert,
			Desc: "ACK flag not set",
			Build: func(p BuildParams) *Applied {
				return inertInsertion(p, func(pkt *packet.Packet) {
					if pkt.TCP == nil {
						return
					}
					pkt.TCP.Flags = packet.FlagPSH
					fixTCP(pkt)
				})
			}},
		{Row: 13, ID: "tcp-invalid-data-offset", Proto: ProtoTCP, Group: GroupInert,
			Desc: "Invalid Data Offset",
			Build: func(p BuildParams) *Applied {
				return inertInsertion(p, func(pkt *packet.Packet) {
					if pkt.TCP == nil {
						return
					}
					// 3 < 5 is invalid for any segment; a too-large offset
					// would be indistinguishable from long TCP options on
					// big segments (the field is only 4 bits).
					pkt.TCP.DataOffset = 3
					fixTCP(pkt)
				})
			}},
		{Row: 14, ID: "tcp-invalid-flags", Proto: ProtoTCP, Group: GroupInert,
			Desc: "Invalid flag combination",
			Build: func(p BuildParams) *Applied {
				return inertInsertion(p, func(pkt *packet.Packet) {
					if pkt.TCP == nil {
						return
					}
					pkt.TCP.Flags = packet.FlagSYN | packet.FlagFIN | packet.FlagACK
					fixTCP(pkt)
				})
			}},
		{Row: 15, ID: "udp-invalid-checksum", Proto: ProtoUDP, Group: GroupInert,
			Desc: "Invalid Checksum",
			Build: func(p BuildParams) *Applied {
				return inertInsertion(p, func(pkt *packet.Packet) {
					if pkt.UDP == nil {
						return
					}
					pkt.UDP.Checksum ^= 0x3333
				})
			}},
		{Row: 16, ID: "udp-length-long", Proto: ProtoUDP, Group: GroupInert,
			Desc: "Length longer than payload",
			Build: func(p BuildParams) *Applied {
				return inertInsertion(p, func(pkt *packet.Packet) {
					if pkt.UDP == nil {
						return
					}
					pkt.UDP.Length += 24
					fixUDP(pkt)
				})
			}},
		{Row: 17, ID: "udp-length-short", Proto: ProtoUDP, Group: GroupInert,
			Desc: "Length shorter than payload",
			Build: func(p BuildParams) *Applied {
				return inertInsertion(p, func(pkt *packet.Packet) {
					if pkt.UDP == nil {
						return
					}
					pkt.UDP.Length = 8 // claim an empty datagram
					fixUDP(pkt)
				})
			}},

		{Row: 18, ID: "ip-fragment", Proto: ProtoIP, Group: GroupSplitting,
			Desc:  "Break packet into fragments",
			Build: buildFragment(false)},
		{Row: 19, ID: "tcp-segment-split", Proto: ProtoTCP, Group: GroupSplitting, Variants: 4,
			Desc:  "Break packet into segments",
			Build: buildSegmentSplit(false)},

		{Row: 20, ID: "ip-fragment-reorder", Proto: ProtoIP, Group: GroupReorder,
			Desc:  "Fragmented packet, out-of-order",
			Build: buildFragment(true)},
		{Row: 21, ID: "tcp-segment-reorder", Proto: ProtoTCP, Group: GroupReorder, Variants: 2,
			Desc:  "Segmented packet, out-of-order",
			Build: buildSegmentSplit(true)},
		{Row: 22, ID: "udp-reorder", Proto: ProtoUDP, Group: GroupReorder,
			Desc:  "UDP packets out-of-order",
			Build: buildUDPReorder},

		{Row: 23, ID: "pause-after-match", Proto: ProtoIP, Group: GroupFlushing,
			Desc:  "Pause for t sec. (after match)",
			Build: buildPause(false)},
		{Row: 24, ID: "pause-before-match", Proto: ProtoIP, Group: GroupFlushing,
			Desc:  "Pause for t sec. (before match)",
			Build: buildPause(true)},
		{Row: 25, ID: "ttl-rst-after", Proto: ProtoTCP, Group: GroupFlushing, NeedsTTL: true,
			Desc:  "TTL-limited RST packet (a): after match",
			Build: buildRSTFlush(false)},
		{Row: 26, ID: "ttl-rst-before", Proto: ProtoTCP, Group: GroupFlushing, NeedsTTL: true,
			Desc:  "TTL-limited RST packet (b): before match",
			Build: buildRSTFlush(true)},
	}
}

// TechniqueByID finds a taxonomy entry.
func TechniqueByID(id string) (Technique, bool) {
	i, ok := techniqueIndex[id]
	if !ok {
		return Technique{}, false
	}
	return taxonomy[i], true
}
