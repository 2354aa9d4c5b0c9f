package dpi

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/netem/packet"
)

func blockingCfg(fl Faults) Config {
	cfg := windowCfg()
	cfg.Faults = fl
	cfg.Policies = map[string]Policy{"hit": {Block: true, BlockRSTs: 1}}
	return cfg
}

func TestFaultMissRateSkipsFlows(t *testing.T) {
	r := newRig(blockingCfg(Faults{MissRate: 1}))
	f := r.newFlow(40000)
	f.send("GET /a secret-keyword HTTP/1.1\r\n")
	if got := r.mb.FlowClass(f.key()); got != "" {
		t.Fatalf("missed flow classified: %q", got)
	}
	if r.mb.FaultStats.FlowsMissed == 0 {
		t.Fatal("FlowsMissed not counted")
	}
}

func TestZeroFaultConfigConsumesNoFaultDraws(t *testing.T) {
	r := newRig(blockingCfg(Faults{}))
	f := r.newFlow(40000)
	f.send("GET /a secret-keyword HTTP/1.1\r\n")
	if got := r.mb.FlowClass(f.key()); got != "hit" {
		t.Fatalf("clean classify broken: %q", got)
	}
	// The guarantee behind zero-fault golden equivalence: no fault stream
	// is even created unless a fault rate is nonzero.
	if r.mb.faultRNG != nil {
		t.Fatal("fault RNG created on a zero-fault config")
	}
}

// countRSTs counts RST-flagged TCP packets among captured frames.
func countRSTs(frames [][]byte) int {
	n := 0
	for _, raw := range frames {
		if p, _ := packet.Inspect(raw); p != nil && p.TCP != nil && p.TCP.Flags.Has(packet.FlagRST) {
			n++
		}
	}
	return n
}

func TestFaultRSTDropSuppressesTeardown(t *testing.T) {
	r := newRig(blockingCfg(Faults{RSTDropRate: 1}))
	f := r.newFlow(40000)
	f.send("GET /a secret-keyword HTTP/1.1\r\n")
	if got := r.mb.FlowClass(f.key()); got != "hit" {
		t.Fatalf("classification itself must still fire: %q", got)
	}
	if n := countRSTs(r.atClient); n != 0 {
		t.Fatalf("client saw %d RSTs despite RSTDropRate=1", n)
	}
	if r.mb.FaultStats.RSTsDropped == 0 {
		t.Fatal("RSTsDropped not counted")
	}
}

func TestFaultRSTDelayStillDelivers(t *testing.T) {
	r := newRig(blockingCfg(Faults{RSTDelayRate: 1, RSTDelay: 300 * time.Millisecond}))
	f := r.newFlow(40000)
	f.send("GET /a secret-keyword HTTP/1.1\r\n")
	if n := countRSTs(r.atClient); n == 0 {
		t.Fatal("delayed RSTs never arrived")
	}
	if r.mb.FaultStats.RSTsDelayed == 0 {
		t.Fatal("RSTsDelayed not counted")
	}
}

func TestFlowTableCapEvictsLRU(t *testing.T) {
	r := newRig(blockingCfg(Faults{FlowTableCap: 2}))
	f1 := r.newFlow(40000)
	f1.send("GET /a secret-keyword HTTP/1.1\r\n")
	if got := r.mb.FlowClass(f1.key()); got != "hit" {
		t.Fatalf("flow 1 not classified: %q", got)
	}
	r.newFlow(40001)
	r.newFlow(40002) // exceeds the cap: flow 1 is the LRU victim
	if got := r.mb.FlowClass(f1.key()); got != "" {
		t.Fatalf("LRU flow retained class %q after eviction", got)
	}
	if r.mb.FaultStats.LRUEvictions != 1 {
		t.Fatalf("LRUEvictions = %d, want 1", r.mb.FaultStats.LRUEvictions)
	}
}

func TestOutageWindowSuppressesClassification(t *testing.T) {
	// OutageFor == OutageEvery keeps the classifier permanently offline.
	r := newRig(blockingCfg(Faults{OutageEvery: 10 * time.Second, OutageFor: 10 * time.Second}))
	f := r.newFlow(40000)
	f.send("GET /a secret-keyword HTTP/1.1\r\n")
	if got := r.mb.FlowClass(f.key()); got != "" {
		t.Fatalf("classified during outage: %q", got)
	}
	if r.mb.FaultStats.OutageSkips == 0 {
		t.Fatal("OutageSkips not counted")
	}
}

func TestOutageWindowEnds(t *testing.T) {
	// Classifier is offline for the first 5 s of every hour. The clock
	// starts at a whole hour (vclock.Epoch is midnight), so the first
	// flow lands inside the outage and one 6 s later lands outside it.
	r := newRig(blockingCfg(Faults{OutageEvery: time.Hour, OutageFor: 5 * time.Second}))
	f := r.newFlow(40000)
	f.send("GET /a secret-keyword HTTP/1.1\r\n")
	if got := r.mb.FlowClass(f.key()); got != "" {
		t.Fatalf("classified during outage: %q", got)
	}
	r.clock.Schedule(6*time.Second, func() {})
	r.clock.Run()
	f2 := r.newFlow(40001)
	f2.send("GET /a secret-keyword HTTP/1.1\r\n")
	if got := r.mb.FlowClass(f2.key()); got != "hit" {
		t.Fatalf("not classified after outage ended: %q", got)
	}
}

func TestFaultStreamForksInLockstep(t *testing.T) {
	m := NewMiddlebox(blockingCfg(Faults{MissRate: 0.5}))
	var now int64
	key := func(i int) packet.FlowKey {
		return packet.FlowKey{Proto: packet.ProtoTCP, Src: cAddr, Dst: sAddr, SrcPort: uint16(40000 + i), DstPort: 80}
	}
	// A zero Context is valid here: it is never traced, and newFlowRecord
	// only touches it behind the Traced() gate.
	var ctx netem.Context
	for i := 0; i < 10; i++ {
		m.newFlowRecord(ctx, key(i), true, now)
	}
	c := m.ForkElement().(*Middlebox)
	for i := 10; i < 40; i++ {
		a := m.newFlowRecord(ctx, key(i), true, now)
		b := c.newFlowRecord(ctx, key(i), true, now)
		if a.missed != b.missed {
			t.Fatalf("fault stream diverged at flow %d: %v vs %v", i, a.missed, b.missed)
		}
	}
	if m.FaultStats.FlowsMissed != c.FaultStats.FlowsMissed {
		t.Fatalf("missed counts diverged: %d vs %d", m.FaultStats.FlowsMissed, c.FaultStats.FlowsMissed)
	}
}

// TestFaultedFingerprintDiffers guards the campaign cache: a faulted
// profile must never share a cache key with its clean twin.
func TestFaultedFingerprintDiffers(t *testing.T) {
	clean := NewGFC()
	faulted := NewGFC()
	faulted.MB.Cfg.Faults = Faults{MissRate: 0.1, RSTDropRate: 0.2}
	if clean.ConfigDigest() == faulted.ConfigDigest() {
		t.Fatal("faulted and clean GFC share a fingerprint")
	}
	impaired := NewGFC()
	if err := impaired.AddImpairments([]ImpairmentSpec{{Kind: "loss", Rate: 0.05}}); err != nil {
		t.Fatal(err)
	}
	if clean.ConfigDigest() == impaired.ConfigDigest() {
		t.Fatal("impaired and clean GFC share a fingerprint")
	}
	if !faulted.Noisy() || !impaired.Noisy() || clean.Noisy() {
		t.Fatalf("Noisy() wrong: faulted=%v impaired=%v clean=%v",
			faulted.Noisy(), impaired.Noisy(), clean.Noisy())
	}
}
