package dpi

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/netem/packet"
)

const sampleSpec = `{
  "name": "my-isp",
  "hops_before": 3, "hops_after": 2, "link_mbps": 20,
  "downstream_drop_defects": ["ip-checksum", "tcp-checksum"],
  "reassemble_fragments_in_path": true,
  "classifier": {
    "rules": [
      {"class": "video", "family": "http", "dir": "c2s", "keywords": ["cdn.example.com"]},
      {"class": "voip", "family": "stun", "dir": "c2s", "keywords_hex": ["8055"], "anchor_packet": 0}
    ],
    "mode": "window", "window_packets": 4, "reassembly": "arrival",
    "first_packet_gate": true, "require_syn": true, "track_seq": true,
    "validated_defects": ["ip-version", "ip-header-length"],
    "match_and_forget": true, "flow_timeout_s": 90,
    "rst": "kills-flow",
    "policies": {"video": {"throttle_mbps": 2, "burst_kb": 32, "zero_rate": true}}
  }
}`

func TestParseNetworkSpec(t *testing.T) {
	net, err := ParseNetworkSpec([]byte(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	if net.Name != "my-isp" || net.MB == nil {
		t.Fatalf("network: %+v", net)
	}
	cfg := net.MB.Cfg
	if cfg.Mode != InspectWindow || cfg.WindowPackets != 4 || cfg.Reassembly != ReassembleArrival {
		t.Fatalf("inspection config: %+v", cfg)
	}
	if len(cfg.Rules) != 2 {
		t.Fatalf("rules: %d", len(cfg.Rules))
	}
	if cfg.Rules[1].AnchorPacket != 0 || cfg.Rules[1].Keywords[0][0] != 0x80 || cfg.Rules[1].Keywords[0][1] != 0x55 {
		t.Fatalf("hex rule: %+v", cfg.Rules[1])
	}
	if cfg.RST != RSTKillsFlow || cfg.FlowTimeout.Seconds() != 90 {
		t.Fatalf("state config: %+v", cfg)
	}
	pol := cfg.Policies["video"]
	if pol.ThrottleBps != 2e6 || !pol.ZeroRate {
		t.Fatalf("policy: %+v", pol)
	}
	if net.MiddleboxHops != 3 || net.TotalHops != 5 {
		t.Fatalf("topology: %d/%d", net.MiddleboxHops, net.TotalHops)
	}
}

func TestSpecNetworkClassifies(t *testing.T) {
	net, err := ParseNetworkSpec([]byte(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{clock: net.Clock, env: net.Env, mb: net.MB}
	net.Env.SetServer(netemSink(&r.atServer))
	net.Env.SetClient(netemSink(&r.atClient))
	f := r.newFlow(40000)
	f.send("GET /seg.mp4 HTTP/1.1\r\nHost: cdn.example.com\r\n\r\n")
	if got := net.MB.FlowClass(f.key()); got != "video" {
		t.Fatalf("spec classifier did not fire: %q", got)
	}
}

func TestSpecErrors(t *testing.T) {
	cases := []string{
		`{"classifier": {"rules": []}}`, // no name
		`{"name": "x", "classifier": {"mode": "bogus", "rules": [{"class":"c","keywords":["k"]}]}}`, // bad mode
		`{"name": "x", "classifier": {"rules": [{"class":"c"}]}}`,                                   // no keywords
		`{"name": "x", "classifier": {"rules": [{"class":"c","keywords":["k"],"family":"??"}]}}`,
		`{"name": "x", "classifier": {"validated_defects": ["nope"], "rules": [{"class":"c","keywords":["k"]}]}}`,
		`{"name": "x", "classifier": {"rules": [{"class":"c","keywords_hex":["zz"]}]}}`,
		`not json`,
		`{"name": "x", "classifier": {"faults": {"rst_drop_rate": 1.5}, "rules": [{"class":"c","keywords":["k"]}]}}`,
	}
	for i, c := range cases {
		if _, err := ParseNetworkSpec([]byte(c)); err == nil {
			t.Errorf("case %d: bad spec accepted", i)
		}
	}
}

func TestLoadNetworkSpecFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.json")
	if err := os.WriteFile(path, []byte(sampleSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	net, err := LoadNetworkSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if net.Name != "my-isp" {
		t.Fatalf("loaded: %q", net.Name)
	}
	if _, err := LoadNetworkSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// netemSink adapts a [][]byte accumulator.
func netemSink(dst *[][]byte) endpointFunc {
	return func(raw []byte) { *dst = append(*dst, append([]byte(nil), raw...)) }
}

type endpointFunc func(raw []byte)

func (f endpointFunc) Deliver(fr *packet.Frame) { f(fr.Raw()) }
