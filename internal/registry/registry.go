// Package registry is the single source of truth for the built-in
// simulated network profiles and application traces. Both CLIs
// (cmd/liberate, cmd/liberate-campaign) and the campaign orchestrator
// resolve names through it, so adding a profile or trace in one place
// makes it available everywhere — flag parsing, -list output, and
// campaign spec expansion.
package registry

import (
	"fmt"
	"os"

	"repro/internal/dpi"
	"repro/internal/trace"
)

// DefaultBody is the response body size used for generated traces when a
// caller does not specify one (matches the historical cmd/liberate
// default).
const DefaultBody = 96 << 10

// NetworkEntry describes one built-in simulated network profile.
type NetworkEntry struct {
	Name string              `json:"name"`
	Desc string              `json:"desc"`
	New  func() *dpi.Network `json:"-"`
}

// TraceEntry describes one built-in application trace generator.
type TraceEntry struct {
	Name string `json:"name"`
	App  string `json:"app"`
	Desc string `json:"desc"`
	// New builds the trace at the requested nominal body size (bytes).
	// Generators scale it to fit the workload (web traces use body/8,
	// Skype ignores it — a call has a fixed frame schedule).
	New func(body int) *trace.Trace `json:"-"`
}

var networks = []NetworkEntry{
	{Name: "testbed", Desc: "§6.1 carrier-grade DPI testbed", New: dpi.NewTestbed},
	{Name: "tmobile", Desc: "§6.2 T-Mobile Binge On / Music Freedom", New: dpi.NewTMobile},
	{Name: "gfc", Desc: "§6.5 Great Firewall of China", New: dpi.NewGFC},
	{Name: "iran", Desc: "§6.6 Iranian national censor", New: dpi.NewIran},
	{Name: "att", Desc: "§6.3 AT&T Stream Saver transparent proxy", New: dpi.NewATT},
	{Name: "sprint", Desc: "§6.4 null result (no DPI)", New: dpi.NewSprint},
}

var traces = []TraceEntry{
	{Name: "amazon", App: "Amazon Prime Video", Desc: "HTTP video streaming (CloudFront Host)",
		New: func(body int) *trace.Trace { return trace.AmazonPrimeVideo(body) }},
	{Name: "spotify", App: "Spotify", Desc: "HTTP audio streaming",
		New: func(body int) *trace.Trace { return trace.Spotify(body) }},
	{Name: "youtube", App: "YouTube", Desc: "TLS ClientHello with googlevideo SNI",
		New: func(body int) *trace.Trace { return trace.YouTubeTLS(body) }},
	{Name: "economist", App: "economist.com", Desc: "HTTP web page fetch",
		New: func(body int) *trace.Trace { return trace.EconomistWeb(body / 8) }},
	{Name: "facebook", App: "facebook.com", Desc: "HTTP web page fetch",
		New: func(body int) *trace.Trace { return trace.FacebookWeb(body / 8) }},
	{Name: "nbcsports", App: "NBC Sports", Desc: "HTTP live video",
		New: func(body int) *trace.Trace { return trace.NBCSportsVideo(body) }},
	{Name: "skype", App: "Skype", Desc: "STUN/UDP call (fixed frame schedule)",
		New: func(body int) *trace.Trace { return trace.SkypeCall(6, 400) }},
	{Name: "espn", App: "ESPN", Desc: "HTTP live video",
		New: func(body int) *trace.Trace { return trace.ESPNStream(body) }},
}

// Networks returns the built-in network profiles in paper order. The
// returned slice is a copy; mutating it does not affect the registry.
func Networks() []NetworkEntry { return append([]NetworkEntry(nil), networks...) }

// Traces returns the built-in trace generators in paper order. The
// returned slice is a copy.
func Traces() []TraceEntry { return append([]TraceEntry(nil), traces...) }

// NetworkNames returns the registered network names in registry order.
func NetworkNames() []string {
	out := make([]string, len(networks))
	for i, n := range networks {
		out[i] = n.Name
	}
	return out
}

// TraceNames returns the registered trace names in registry order.
func TraceNames() []string {
	out := make([]string, len(traces))
	for i, t := range traces {
		out[i] = t.Name
	}
	return out
}

// LookupNetwork returns the named profile's entry without building it,
// with the error NewNetwork gives for an unknown name.
func LookupNetwork(name string) (NetworkEntry, error) {
	for _, n := range networks {
		if n.Name == name {
			return n, nil
		}
	}
	return NetworkEntry{}, fmt.Errorf("registry: unknown network profile %q (have %v)", name, NetworkNames())
}

// LookupTrace returns the named trace's entry without building it, with
// the error NewTrace gives for an unknown name.
func LookupTrace(name string) (TraceEntry, error) {
	for _, t := range traces {
		if t.Name == name {
			return t, nil
		}
	}
	return TraceEntry{}, fmt.Errorf("registry: unknown trace %q (have %v)", name, TraceNames())
}

// NewNetwork builds a fresh instance of the named profile. Every call
// returns an independent network with its own virtual clock, so instances
// are safe to use concurrently with each other.
func NewNetwork(name string) (*dpi.Network, error) {
	n, err := LookupNetwork(name)
	if err != nil {
		return nil, err
	}
	return n.New(), nil
}

// NewTrace returns the named built-in trace at the given nominal body
// size; body <= 0 selects DefaultBody. Every call for one (name, body)
// returns the same trace from the process-wide derived-trace memo
// (trace.Named), so the probes derived from it are shared as well. The
// trace is shared and must be treated as immutable.
func NewTrace(name string, body int) (*trace.Trace, error) {
	t, err := LookupTrace(name)
	if err != nil {
		return nil, err
	}
	if body <= 0 {
		body = DefaultBody
	}
	return trace.Named(name, body, func() *trace.Trace { return t.New(body) }), nil
}

// ResolveTrace builds a built-in trace by name, falling back to loading
// nameOrPath as a JSON trace file when no built-in matches and the path
// exists — the resolution order both CLIs use.
func ResolveTrace(nameOrPath string, body int) (*trace.Trace, error) {
	tr, err := NewTrace(nameOrPath, body)
	if err == nil {
		return tr, nil
	}
	if _, statErr := os.Stat(nameOrPath); statErr == nil {
		return trace.Load(nameOrPath)
	}
	return nil, fmt.Errorf("unknown trace %q (and no such file)", nameOrPath)
}
