package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/campaign"
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
	checkGoldenCampaign(t, false, goldenCampaign)
}

func TestGoldenCampaignArmedDeterministic(t *testing.T) {
	checkGoldenCampaign(t, true, goldenCampaignArmed)
}

func checkGoldenCampaign(t *testing.T, fingerprint bool, want string) {
	if testing.Short() {
		t.Skip("48-engagement campaign in -short mode")
	}
	spec := campaign.Spec{
		Name:        "golden",
		Traces:      []string{"amazon", "youtube"},
		Hours:       []int{0, 12},
		Bodies:      []int{8 << 10},
		Seeds:       []int64{1, 2},
		Fingerprint: fingerprint,
	}
	sum, err := (&campaign.Runner{Spec: spec, Workers: 4}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Engagements != 48 {
		t.Fatalf("expected 48 engagements, got %d", sum.Engagements)
	}
	if sum.Failed != 0 {
		t.Fatalf("%d engagements failed", sum.Failed)
	}
	js, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(js); got != want {
		t.Fatalf("campaign aggregate (fingerprint=%v) diverged from the golden output:\n got %s\nwant %s", fingerprint, got, want)
	}
}
