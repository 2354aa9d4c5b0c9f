package dpi

import (
	"strings"
	"testing"

	"repro/internal/netem"
)

const packJSON = `{
  "schema": "scenario-pack/v1",
  "name": "flaky-access",
  "scenarios": [
    {"name": "clean"},
    {"name": "bursty-up", "faults": {"miss_rate": 0.05},
     "phases": [
       {"start_s": 0, "egress": [{"kind": "ge", "rate": 0.2, "seed": 7}]},
       {"start_s": 2, "ingress": [{"kind": "delay", "delay_ms": 3, "jitter_ms": 1}],
        "impair": [{"kind": "nth", "every": 29, "offset": 3}]},
       {"start_s": 5, "impair": [{"kind": "rate", "kbps": 512}]}
     ]}
  ]
}`

func TestParseScenarioPack(t *testing.T) {
	p, err := ParseScenarioPack([]byte(packJSON))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "flaky-access" || len(p.Scenarios) != 2 {
		t.Fatalf("pack = %q with %d scenarios", p.Name, len(p.Scenarios))
	}
	if p.Find("bursty-up") == nil || p.Find("absent") != nil {
		t.Fatal("Find broken")
	}
	if sc := p.Find("bursty-up"); len(sc.Phases) != 3 || sc.Faults == nil {
		t.Fatalf("bursty-up = %+v", sc)
	}
}

func TestParseScenarioPackRejections(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"wrong schema",
			`{"schema": "scenario-pack/v2", "scenarios": [{"name": "a"}]}`,
			"schema"},
		{"no scenarios",
			`{"schema": "scenario-pack/v1", "name": "empty"}`,
			"no scenarios"},
		{"duplicate names",
			`{"schema": "scenario-pack/v1", "scenarios": [{"name": "a"}, {"name": "a"}]}`,
			"duplicate"},
		{"unnamed scenario",
			`{"schema": "scenario-pack/v1", "scenarios": [{"phases": [{"start_s": 0}]}]}`,
			"needs a name"},
		{"non-increasing phases",
			`{"schema": "scenario-pack/v1", "scenarios": [
			  {"name": "a", "phases": [{"start_s": 2}, {"start_s": 2}]}]}`,
			"not after"},
		{"negative phase start",
			`{"schema": "scenario-pack/v1", "scenarios": [
			  {"name": "a", "phases": [{"start_s": -1}]}]}`,
			"negative start"},
		{"unbuildable impairment",
			`{"schema": "scenario-pack/v1", "scenarios": [
			  {"name": "a", "phases": [{"start_s": 0, "impair": [{"kind": "warp", "rate": 0.5}]}]}]}`,
			"unknown impairment"},
		{"start beyond virtual time",
			`{"schema": "scenario-pack/v1", "scenarios": [
			  {"name": "a", "phases": [{"start_s": 0}, {"start_s": 1e10}]}]}`,
			"beyond virtual time"},
		{"starts within a nanosecond",
			`{"schema": "scenario-pack/v1", "scenarios": [
			  {"name": "a", "phases": [{"start_s": 0}, {"start_s": 1e-10}]}]}`,
			"not after"},
		{"rate out of range",
			`{"schema": "scenario-pack/v1", "scenarios": [
			  {"name": "a", "phases": [{"start_s": 0, "egress": [{"kind": "loss", "rate": 1.5}]}]}]}`,
			"outside [0,1)"},
	}
	for _, c := range cases {
		if _, err := ParseScenarioPack([]byte(c.doc)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestScenarioHashStableAndDistinct(t *testing.T) {
	p, err := ParseScenarioPack([]byte(packJSON))
	if err != nil {
		t.Fatal(err)
	}
	clean, bursty := p.Find("clean"), p.Find("bursty-up")
	if h := clean.Hash(); len(h) != 12 || h != clean.Hash() {
		t.Fatalf("hash unstable or wrong width: %q", h)
	}
	if clean.Hash() == bursty.Hash() {
		t.Fatal("distinct scenarios share a hash")
	}
	// The hash keys caches across processes: it must depend only on the
	// spec's content, so a re-parsed copy agrees.
	p2, _ := ParseScenarioPack([]byte(packJSON))
	if p2.Find("bursty-up").Hash() != bursty.Hash() {
		t.Fatal("hash differs across parses of the same document")
	}
}

func TestScenarioApplyArmsNetwork(t *testing.T) {
	p, err := ParseScenarioPack([]byte(packJSON))
	if err != nil {
		t.Fatal(err)
	}
	n := NewTestbed()
	before := len(n.Env.Elements())
	if err := p.Find("bursty-up").Apply(n); err != nil {
		t.Fatal(err)
	}
	els := n.Env.Elements()
	// 4 (phase, impairment) pairs, each its own PhaseLink prepended at the
	// client end ahead of the original chain.
	if len(els) != before+4 {
		t.Fatalf("elements = %d, want %d", len(els), before+4)
	}
	for i := 0; i < 4; i++ {
		pl, ok := els[i].(*netem.PhaseLink)
		if !ok {
			t.Fatalf("element %d is %T, want *netem.PhaseLink", i, els[i])
		}
		if !strings.Contains(pl.Label, "-sc-bursty-up-p") {
			t.Fatalf("element %d label %q missing scenario tag", i, pl.Label)
		}
	}
	// The egress impairment is direction-gated under its phase wrapper.
	if _, ok := els[0].(*netem.PhaseLink).Inner.(*netem.AsymLink); !ok {
		t.Fatalf("egress impairment not wrapped in AsymLink: %T", els[0].(*netem.PhaseLink).Inner)
	}
	// The fault overlay replaced the middlebox profile, and the armed
	// network reads as noisy so robust probing engages.
	if n.MB.Cfg.Faults.MissRate != 0.05 {
		t.Fatalf("fault overlay not applied: %+v", n.MB.Cfg.Faults)
	}
	if !n.Noisy() {
		t.Fatal("scenario-armed network not Noisy()")
	}
}

func TestScenarioApplyCleanIsNoOp(t *testing.T) {
	p, _ := ParseScenarioPack([]byte(packJSON))
	n := NewTestbed()
	before := len(n.Env.Elements())
	faults := n.MB.Cfg.Faults
	if err := p.Find("clean").Apply(n); err != nil {
		t.Fatal(err)
	}
	if len(n.Env.Elements()) != before || n.MB.Cfg.Faults != faults {
		t.Fatal("clean scenario mutated the network")
	}
	if n.Noisy() {
		t.Fatal("clean network reads as noisy")
	}
}
