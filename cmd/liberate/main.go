// Command liberate runs a full lib·erate engagement against a simulated
// network profile:
//
//	liberate -network tmobile -trace amazon
//	liberate -network gfc -trace economist -hour 21
//	liberate -network testbed -trace skype -json
//	liberate -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	liberate "repro"
	"repro/internal/campaign"
	"repro/internal/netem/stack"
	"repro/internal/registry"
)

func main() {
	var (
		network   = flag.String("network", "testbed", "network profile: "+strings.Join(registry.NetworkNames(), "|"))
		netFile   = flag.String("network-file", "", "JSON network spec file describing a custom middlebox (overrides -network)")
		trName    = flag.String("trace", "amazon", "trace: "+strings.Join(registry.TraceNames(), "|")+" or a JSON trace file")
		body      = flag.Int("body", 96<<10, "response body size in bytes for generated traces")
		hour      = flag.Int("hour", 0, "advance the virtual clock to this hour of day before engaging")
		serverOS  = flag.String("os", "linux", "replay server OS profile: linux|macos|windows")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON")
		list      = flag.Bool("list", false, "list techniques, networks, and traces (machine-readable with -json)")
		exportTr  = flag.String("export-trace", "", "write the selected trace as JSON to this path and exit")
		doTracert = flag.Bool("traceroute", false, "print the path's hops and exit")
		doFinger  = flag.Bool("fingerprint", false, "run only the phase-0 ambiguity probes, print the identified DPI profile and probe evidence as JSON, and exit")
		impair    = flag.String("impair", "", "client-side link impairments, e.g. loss:0.02,ge:0.05/0.3/0.8,delay:5/2@ingress (kinds: loss|dup|ge|corrupt|payload|delay|reorder|nth|rate; optional @egress/@ingress); enables noise-robust phase logic")
		scenario  = flag.String("scenario", "", "scenario pack to arm: pack.json[:name] (scenario-pack/v1; name optional when the pack has exactly one scenario)")
		cachePath = flag.String("cache", "", "shared rule-cache file: deploy from it when possible, update it after engagements")
		traceOut  = flag.String("trace-out", "", "record the engagement's evidence stream and write it as JSON to this path ('-' = stdout)")
		storeDir  = flag.String("store", "", "persistent engagement store directory: serve the report from it when present, write it back after (named networks/traces only)")
	)
	flag.Parse()

	if *list {
		if *jsonOut {
			if err := writeListJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		fmt.Println("networks:", strings.Join(registry.NetworkNames(), " "))
		fmt.Println("traces:  ", strings.Join(registry.TraceNames(), " "))
		fmt.Println("techniques:")
		for _, t := range liberate.Taxonomy() {
			fmt.Printf("  %2d %-24s %-4s %-26s %s\n", t.Row, t.ID, t.Proto, t.Group, t.Desc)
		}
		return
	}

	tr, err := registry.ResolveTrace(*trName, *body)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *exportTr != "" {
		if err := tr.Save(*exportTr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *exportTr)
		return
	}

	var net *liberate.Network
	if *netFile != "" {
		net, err = liberate.LoadNetworkSpec(*netFile)
	} else {
		net, err = liberate.NetworkByName(*network)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *impair != "" {
		specs, err := liberate.ParseImpairments(*impair)
		if err == nil {
			err = net.AddImpairments(specs)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *scenario != "" {
		sc, err := resolveScenario(*scenario)
		if err == nil {
			err = sc.Apply(net)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *hour > 0 {
		net.Clock.RunFor(time.Duration(*hour) * time.Hour)
	}
	if *doTracert {
		for _, h := range liberate.Traceroute(net, 24) {
			if h.Responded {
				fmt.Printf("%2d  %s\n", h.TTL, h.Addr)
			} else {
				fmt.Printf("%2d  *\n", h.TTL)
			}
		}
		return
	}

	osName := *serverOS
	if osName == "" {
		osName = "linux"
	}
	osp := stack.OSByName(osName)
	if osp == nil {
		fmt.Fprintf(os.Stderr, "unknown OS profile %q\n", *serverOS)
		os.Exit(1)
	}

	// Fingerprint-only mode: ambiguity-probe the path, identify the DPI
	// profile, and print the evidence — no detection or evaluation.
	if *doFinger {
		fp := liberate.FingerprintNetwork(net, osp)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fp); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// Persistent-store fast path: serve a previously computed report for
	// this exact engagement cell (network × trace × hour × body × OS)
	// without running anything — the same store liberate-campaign -store
	// and liberate-d share. Custom network files, impairments, and trace
	// files are not content-addressable, so the store stays out of the way.
	var store *campaign.Store
	var storeEng campaign.Engagement
	if *storeDir != "" {
		if *netFile != "" || *impair != "" || *scenario != "" || !isRegistryTrace(*trName) {
			fmt.Fprintln(os.Stderr, "-store ignored: only named networks and traces are content-addressable")
		} else {
			store, err = campaign.OpenStore(*storeDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			storeEng = campaign.Engagement{Network: *network, Trace: *trName, Hour: *hour, Body: *body, Seed: 1}
			rep, ok, err := store.Get(storeEng, osName)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if ok {
				fmt.Fprintf(os.Stderr, "report served from store %s\n", store.Dir())
				emitReport(rep, *jsonOut)
				return
			}
		}
	}

	// Shared-cache fast path (§4.2): verify a cached technique with one
	// replay instead of a full engagement.
	var cache *liberate.RuleCache
	if *cachePath != "" {
		cache, err = liberate.LoadRuleCache(*cachePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		netName := *network
		if *netFile != "" {
			netName = net.Name
		}
		if entry, ok := cache.Lookup(netName, tr.Name); ok {
			if transform, rounds := liberate.DeployFromCache(net, tr, entry, 1); transform != nil {
				fmt.Printf("deployed %s from shared cache (%d verification replay(s))\n", entry.Technique, rounds)
				return
			}
			fmt.Println("cached technique no longer works; running a full engagement")
		}
	}

	var traceBuf *liberate.TraceBuffer
	if *traceOut != "" {
		traceBuf = liberate.NewTraceBuffer()
		net.Env.SetRecorder(traceBuf)
	}

	report := (&liberate.Liberate{Net: net, Trace: tr, ServerOS: osp}).Run()
	if traceBuf != nil {
		if err := writeTraceOut(*traceOut, traceBuf, report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if cache != nil && report.Deployed != nil {
		cache.Store(report)
		if err := cache.Save(*cachePath); err != nil {
			fmt.Fprintln(os.Stderr, "cache save:", err)
		}
	}
	if store != nil {
		if err := store.Put(storeEng, osName, report); err != nil {
			fmt.Fprintln(os.Stderr, "store put:", err)
		}
	}
	emitReport(report, *jsonOut)
}

// emitReport renders the engagement outcome, shared by the fresh and
// store-served paths.
func emitReport(report *liberate.Report, jsonOut bool) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summarize(report)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	report.WriteSummary(os.Stdout)
}

// resolveScenario loads the -scenario argument: a scenario-pack file,
// optionally suffixed ":name" to pick one world. A path that exists
// verbatim wins over the split (file names may contain colons).
func resolveScenario(arg string) (*liberate.ScenarioSpec, error) {
	path, name := arg, ""
	if _, err := os.Stat(arg); err != nil {
		if i := strings.LastIndexByte(arg, ':'); i > 0 {
			path, name = arg[:i], arg[i+1:]
		}
	}
	pack, err := liberate.LoadScenarioPack(path)
	if err != nil {
		return nil, err
	}
	if name == "" {
		if len(pack.Scenarios) != 1 {
			return nil, fmt.Errorf("scenario pack %s has %d scenarios; pick one with %s:<name>",
				path, len(pack.Scenarios), path)
		}
		return &pack.Scenarios[0], nil
	}
	sc := pack.Find(name)
	if sc == nil {
		return nil, fmt.Errorf("scenario pack %s has no scenario %q", path, name)
	}
	return sc, nil
}

// isRegistryTrace reports whether name is a built-in trace (as opposed
// to a trace file path, which the store cannot key).
func isRegistryTrace(name string) bool {
	for _, n := range registry.TraceNames() {
		if n == name {
			return true
		}
	}
	return false
}

// writeTraceOut serializes the engagement's evidence stream (-trace-out).
func writeTraceOut(path string, buf *liberate.TraceBuffer, report *liberate.Report) error {
	meta := liberate.TraceMeta{Network: report.Network, Trace: report.TraceName}
	if path == "-" {
		return buf.WriteJSON(os.Stdout, meta)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := buf.WriteJSON(f, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeListJSON emits the machine-readable registry listing (-list
// -json), the format campaign spec generators consume.
func writeListJSON(w *os.File) error {
	type techniqueInfo struct {
		Row   int    `json:"row"`
		ID    string `json:"id"`
		Proto string `json:"proto"`
		Group string `json:"group"`
		Desc  string `json:"desc"`
	}
	listing := struct {
		Networks   []registry.NetworkEntry `json:"networks"`
		Traces     []registry.TraceEntry   `json:"traces"`
		Techniques []techniqueInfo         `json:"techniques"`
	}{
		Networks: registry.Networks(),
		Traces:   registry.Traces(),
	}
	for _, t := range liberate.Taxonomy() {
		listing.Techniques = append(listing.Techniques, techniqueInfo{
			Row: t.Row, ID: t.ID, Proto: string(t.Proto), Group: string(t.Group), Desc: t.Desc,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(listing)
}

// summary is the JSON-friendly view of a report.
type summary struct {
	Network          string        `json:"network"`
	Trace            string        `json:"trace"`
	Differentiated   bool          `json:"differentiated"`
	Kinds            []string      `json:"kinds,omitempty"`
	Fields           []string      `json:"matching_fields,omitempty"`
	WindowLimited    bool          `json:"window_limited"`
	AllPackets       bool          `json:"inspects_all_packets"`
	PortSpecific     bool          `json:"port_specific"`
	ResidualBlocking bool          `json:"residual_blocking"`
	MiddleboxTTL     int           `json:"middlebox_ttl"`
	Working          []string      `json:"working_techniques"`
	Deployed         string        `json:"deployed,omitempty"`
	Rounds           int           `json:"rounds"`
	Bytes            int64         `json:"bytes"`
	VirtualTime      time.Duration `json:"virtual_time_ns"`

	// Robust-mode accounting; zero (and omitted) on clean engagements.
	DetectTrials  int     `json:"detect_trials,omitempty"`
	MinConfidence float64 `json:"min_confidence,omitempty"`
}

func summarize(r *liberate.Report) summary {
	s := summary{
		Network: r.Network, Trace: r.TraceName,
		Differentiated: r.Detection.Differentiated,
		Rounds:         r.TotalRounds, Bytes: r.TotalBytes, VirtualTime: r.TotalTime,
	}
	for _, k := range r.Detection.Kinds {
		s.Kinds = append(s.Kinds, string(k))
	}
	if c := r.Characterization; c != nil {
		for _, f := range c.Fields {
			s.Fields = append(s.Fields, f.String())
		}
		s.WindowLimited = c.WindowLimited
		s.AllPackets = c.InspectsAllPackets
		s.PortSpecific = c.PortSpecific
		s.ResidualBlocking = c.ResidualBlocking
		s.MiddleboxTTL = c.MiddleboxTTL
	}
	s.DetectTrials = r.Detection.Trials
	s.MinConfidence = r.Detection.Confidence
	if r.Evaluation != nil {
		for _, v := range r.Evaluation.Working() {
			s.Working = append(s.Working, v.Technique.ID)
		}
		if mc := r.Evaluation.MinConfidence(); mc > 0 && (s.MinConfidence == 0 || mc < s.MinConfidence) {
			s.MinConfidence = mc
		}
	}
	if r.Deployed != nil {
		s.Deployed = r.Deployed.Technique.ID
	}
	return s
}
