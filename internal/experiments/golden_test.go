package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/campaign"
	"repro/internal/dpi"
)

// Golden hashes captured from the pre-fast-path pipeline (PR 2 baseline).
// The parse-once frame fast path must reproduce every experiment artifact
// byte-for-byte: an aliasing or cache-invalidation bug in the packet layer
// would skew classification outcomes silently, and these hashes make such
// a bug fail loudly instead.
const (
	// goldenTable3 is the SHA-256 of the rendered Table 3 report (the
	// full CC?/RS?/OS evasion grid over every evaluated environment).
	goldenTable3 = "ee5d104a8171470ed89bdd5ed97c016c3303c8350221e389336354164cca26bf"
	// goldenCampaign is the SHA-256 of the aggregated JSON of a
	// 48-engagement campaign (6 networks x 2 traces x 2 hours x 2 seeds).
	goldenCampaign = "0a4d97298b7beddf3dc15335bf2e1a71495bdfa414ff395258356b422d58ba80"
	// goldenCampaignArmed is the same campaign with the ambiguity
	// fingerprint armed on every engagement.
	goldenCampaignArmed = "fb21bae078d3baea21a974ebfb1a6ea5c87a47a65db5950d007449c5aae42beb"
	// goldenCampaignNoisy pins robust mode: nine engagements on faulted
	// middleboxes that reach every one-sided re-verification site.
	goldenCampaignNoisy = "52eecd5fd60f7e86d8fb86dc5e4075292ad23200e5357192ae7f4aaa0f9ac59e"
)

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func TestGoldenTable3Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 3 regeneration in -short mode")
	}
	got := sha256Hex([]byte(RunTable3().Render()))
	if got != goldenTable3 {
		t.Fatalf("Table 3 report diverged from the golden pre-optimization output:\n got %s\nwant %s", got, goldenTable3)
	}
}

func TestGoldenCampaignDeterministic(t *testing.T) {
	checkGoldenCampaign(t, goldenSweep(false), 48, goldenCampaign)
}

func TestGoldenCampaignArmedDeterministic(t *testing.T) {
	checkGoldenCampaign(t, goldenSweep(true), 48, goldenCampaignArmed)
}

// TestGoldenCampaignNoisyDeterministic pins robust mode, which no clean
// golden reaches. On these cells iran+facebook re-verifies port
// specificity, gfc walks the blocking TTL and re-confirms residual
// blocking, testbed sweeps the shaper TTL, and all three networks re-trial
// evaluation and the robust characterization oracle.
func TestGoldenCampaignNoisyDeterministic(t *testing.T) {
	spec := campaign.Spec{
		Name:     "golden-noisy",
		Networks: []string{"testbed", "gfc", "iran"},
		Traces:   []string{"amazon", "economist", "facebook"},
		Hours:    []int{0},
		Bodies:   []int{8 << 10},
		Seeds:    []int64{1},
		Scenarios: []dpi.ScenarioSpec{{
			Name:   "faulty",
			Faults: &dpi.FaultsSpec{MissRate: 0.1, RSTDropRate: 0.2},
		}},
	}
	checkGoldenCampaign(t, spec, 9, goldenCampaignNoisy)
}

// goldenSweep is the 48-engagement golden campaign (6 networks x 2 traces
// x 2 hours x 2 seeds), optionally with the fingerprint armed.
func goldenSweep(fingerprint bool) campaign.Spec {
	return campaign.Spec{
		Name:        "golden",
		Traces:      []string{"amazon", "youtube"},
		Hours:       []int{0, 12},
		Bodies:      []int{8 << 10},
		Seeds:       []int64{1, 2},
		Fingerprint: fingerprint,
	}
}

func checkGoldenCampaign(t *testing.T, spec campaign.Spec, engagements int, want string) {
	if testing.Short() {
		t.Skip("golden campaign in -short mode")
	}
	sum, js := runSpec(spec, 4)
	if sum.Engagements != engagements {
		t.Fatalf("expected %d engagements, got %d", engagements, sum.Engagements)
	}
	if sum.Failed != 0 {
		t.Fatalf("%d engagements failed", sum.Failed)
	}
	if got := sha256Hex(js); got != want {
		t.Fatalf("campaign %q (fingerprint=%v) aggregate diverged from the golden output:\n got %s\nwant %s",
			spec.Name, spec.Fingerprint, got, want)
	}
}
