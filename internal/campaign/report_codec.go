package campaign

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dpi"
)

// Report codec: the serializable form of a core.Report, used by the
// persistent Store and by the cluster wire protocol. A core.Report is
// not directly JSON-round-trippable — Technique carries a Build func and
// Detection carries classifier closures — so the codec stores techniques
// by taxonomy ID and rehydrates them via core.TechniqueByID on decode.
//
// The contract is aggregation-exact: Aggregate over decoded reports must
// produce byte-identical output to Aggregate over the originals, and
// DeployTransform must still build (Technique.Build comes back from the
// taxonomy). The Detection classifier closures are deliberately dropped:
// they exist only while the engagement's Session is alive, and no
// post-engagement consumer calls them.
//
// Fields are value-for-value mirrors with explicit JSON tags, so the
// on-disk/wire schema is stable even if core reorders struct fields.

type storedField struct {
	Msg   int `json:"msg"`
	Start int `json:"start"`
	End   int `json:"end"`
}

type storedDetection struct {
	Differentiated     bool     `json:"differentiated"`
	Kinds              []string `json:"kinds,omitempty"`
	ProbeBytes         int      `json:"probe_bytes,omitempty"`
	ResidualBlocking   bool     `json:"residual_blocking,omitempty"`
	ClassifiedAvgBps   float64  `json:"classified_avg_bps,omitempty"`
	UnclassifiedAvgBps float64  `json:"unclassified_avg_bps,omitempty"`
	Rounds             int      `json:"rounds"`
	BytesUsed          int64    `json:"bytes_used"`
	Trials             int      `json:"trials,omitempty"`
	Confidence         float64  `json:"confidence,omitempty"`
}

type storedCharacterization struct {
	Fields             []storedField `json:"fields,omitempty"`
	MatchWrite         int           `json:"match_write"`
	WindowLimited      bool          `json:"window_limited"`
	WindowUpperBound   int           `json:"window_upper_bound,omitempty"`
	PacketCountBased   bool          `json:"packet_count_based,omitempty"`
	InspectsAllPackets bool          `json:"inspects_all_packets,omitempty"`
	PortSpecific       bool          `json:"port_specific,omitempty"`
	ResidualBlocking   bool          `json:"residual_blocking,omitempty"`
	MiddleboxTTL       int           `json:"middlebox_ttl,omitempty"`
	Rounds             int           `json:"rounds"`
	BytesUsed          int64         `json:"bytes_used"`
	TimeUsedNS         int64         `json:"time_used_ns"`
}

type storedVerdict struct {
	Technique     string  `json:"technique"`
	Variant       int     `json:"variant"`
	Tried         bool    `json:"tried"`
	Evades        bool    `json:"evades"`
	ReachedServer string  `json:"reached_server,omitempty"`
	IntegrityOK   bool    `json:"integrity_ok"`
	Served        bool    `json:"served"`
	ExtraPackets  int     `json:"extra_packets,omitempty"`
	ExtraBytes    int     `json:"extra_bytes,omitempty"`
	AddedDelayNS  int64   `json:"added_delay_ns,omitempty"`
	Rounds        int     `json:"rounds"`
	Trials        int     `json:"trials,omitempty"`
	Confidence    float64 `json:"confidence,omitempty"`
}

type storedEvaluation struct {
	Verdicts         []storedVerdict `json:"verdicts"`
	Rounds           int             `json:"rounds"`
	Bytes            int64           `json:"bytes"`
	SkippedByPruning int             `json:"skipped_by_pruning,omitempty"`
}

type storedFingerprint struct {
	Profile    string              `json:"profile,omitempty"`
	Confidence float64             `json:"confidence"`
	Candidates []string            `json:"candidates,omitempty"`
	Probes     []storedObservation `json:"probes,omitempty"`
	RuledOut   []string            `json:"ruled_out,omitempty"`
	Rounds     int                 `json:"rounds"`
	Bytes      int64               `json:"bytes"`
	TimeNS     int64               `json:"time_ns"`
}

type storedObservation struct {
	Probe      string `json:"probe"`
	Resolution string `json:"resolution"`
}

type storedReport struct {
	Network          string                  `json:"network"`
	TraceName        string                  `json:"trace"`
	Fingerprint      *storedFingerprint      `json:"fingerprint,omitempty"`
	Detection        *storedDetection        `json:"detection,omitempty"`
	Characterization *storedCharacterization `json:"characterization,omitempty"`
	Evaluation       *storedEvaluation       `json:"evaluation,omitempty"`
	Deployed         *storedVerdict          `json:"deployed,omitempty"`
	TotalRounds      int                     `json:"total_rounds"`
	TotalBytes       int64                   `json:"total_bytes"`
	TotalTimeNS      int64                   `json:"total_time_ns"`
}

func packVerdict(v *core.Verdict) *storedVerdict {
	return &storedVerdict{
		Technique:     v.Technique.ID,
		Variant:       v.Variant,
		Tried:         v.Tried,
		Evades:        v.Evades,
		ReachedServer: string(v.ReachedServer),
		IntegrityOK:   v.IntegrityOK,
		Served:        v.Served,
		ExtraPackets:  v.ExtraPackets,
		ExtraBytes:    v.ExtraBytes,
		AddedDelayNS:  int64(v.AddedDelay),
		Rounds:        v.Rounds,
		Trials:        v.Trials,
		Confidence:    v.Confidence,
	}
}

func unpackVerdict(s *storedVerdict) (core.Verdict, error) {
	tech, ok := core.TechniqueByID(s.Technique)
	if !ok {
		return core.Verdict{}, fmt.Errorf("campaign: stored report references unknown technique %q (taxonomy mismatch)", s.Technique)
	}
	return core.Verdict{
		Technique:     tech,
		Variant:       s.Variant,
		Tried:         s.Tried,
		Evades:        s.Evades,
		ReachedServer: core.ReachState(s.ReachedServer),
		IntegrityOK:   s.IntegrityOK,
		Served:        s.Served,
		ExtraPackets:  s.ExtraPackets,
		ExtraBytes:    s.ExtraBytes,
		AddedDelay:    time.Duration(s.AddedDelayNS),
		Rounds:        s.Rounds,
		Trials:        s.Trials,
		Confidence:    s.Confidence,
	}, nil
}

// EncodeReport serializes a report into the stable store/wire JSON form.
func EncodeReport(r *core.Report) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("campaign: cannot encode nil report")
	}
	s := storedReport{
		Network:     r.Network,
		TraceName:   r.TraceName,
		TotalRounds: r.TotalRounds,
		TotalBytes:  r.TotalBytes,
		TotalTimeNS: int64(r.TotalTime),
	}
	if fp := r.Fingerprint; fp != nil {
		sf := &storedFingerprint{
			Profile:    fp.Profile,
			Confidence: fp.Confidence,
			Candidates: fp.Candidates,
			RuledOut:   fp.RuledOut,
			Rounds:     fp.Rounds,
			Bytes:      fp.Bytes,
			TimeNS:     int64(fp.Time),
		}
		for _, o := range fp.Probes {
			sf.Probes = append(sf.Probes, storedObservation{Probe: string(o.Probe), Resolution: string(o.Resolution)})
		}
		s.Fingerprint = sf
	}
	if d := r.Detection; d != nil {
		sd := &storedDetection{
			Differentiated:     d.Differentiated,
			ProbeBytes:         d.ProbeBytes,
			ResidualBlocking:   d.ResidualBlocking,
			ClassifiedAvgBps:   d.ClassifiedAvgBps,
			UnclassifiedAvgBps: d.UnclassifiedAvgBps,
			Rounds:             d.Rounds,
			BytesUsed:          d.BytesUsed,
			Trials:             d.Trials,
			Confidence:         d.Confidence,
		}
		for _, k := range d.Kinds {
			sd.Kinds = append(sd.Kinds, string(k))
		}
		s.Detection = sd
	}
	if c := r.Characterization; c != nil {
		sc := &storedCharacterization{
			MatchWrite:         c.MatchWrite,
			WindowLimited:      c.WindowLimited,
			WindowUpperBound:   c.WindowUpperBound,
			PacketCountBased:   c.PacketCountBased,
			InspectsAllPackets: c.InspectsAllPackets,
			PortSpecific:       c.PortSpecific,
			ResidualBlocking:   c.ResidualBlocking,
			MiddleboxTTL:       c.MiddleboxTTL,
			Rounds:             c.Rounds,
			BytesUsed:          c.BytesUsed,
			TimeUsedNS:         int64(c.TimeUsed),
		}
		for _, f := range c.Fields {
			sc.Fields = append(sc.Fields, storedField{Msg: f.Msg, Start: f.Start, End: f.End})
		}
		s.Characterization = sc
	}
	if e := r.Evaluation; e != nil {
		se := &storedEvaluation{
			Verdicts:         make([]storedVerdict, 0, len(e.Verdicts)),
			Rounds:           e.Rounds,
			Bytes:            e.Bytes,
			SkippedByPruning: e.SkippedByPruning,
		}
		for i := range e.Verdicts {
			se.Verdicts = append(se.Verdicts, *packVerdict(&e.Verdicts[i]))
		}
		s.Evaluation = se
	}
	if r.Deployed != nil {
		s.Deployed = packVerdict(r.Deployed)
	}
	return json.Marshal(&s)
}

// DecodeReport rebuilds a report from its EncodeReport form. Technique
// values come back from the live taxonomy (so DeployTransform works);
// the Detection classifier closures stay nil — they are session-scoped
// and never consulted after an engagement completes.
func DecodeReport(data []byte) (*core.Report, error) {
	var s storedReport
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("campaign: decode report: %w", err)
	}
	r := &core.Report{
		Network:     s.Network,
		TraceName:   s.TraceName,
		TotalRounds: s.TotalRounds,
		TotalBytes:  s.TotalBytes,
		TotalTime:   time.Duration(s.TotalTimeNS),
	}
	if sf := s.Fingerprint; sf != nil {
		fp := &core.FingerprintResult{
			Profile:    sf.Profile,
			Confidence: sf.Confidence,
			Candidates: sf.Candidates,
			RuledOut:   sf.RuledOut,
			Rounds:     sf.Rounds,
			Bytes:      sf.Bytes,
			Time:       time.Duration(sf.TimeNS),
		}
		for _, o := range sf.Probes {
			fp.Probes = append(fp.Probes, dpi.Observation{Probe: dpi.ProbeID(o.Probe), Resolution: dpi.Resolution(o.Resolution)})
		}
		r.Fingerprint = fp
	}
	if sd := s.Detection; sd != nil {
		d := &core.Detection{
			Differentiated:     sd.Differentiated,
			ProbeBytes:         sd.ProbeBytes,
			ResidualBlocking:   sd.ResidualBlocking,
			ClassifiedAvgBps:   sd.ClassifiedAvgBps,
			UnclassifiedAvgBps: sd.UnclassifiedAvgBps,
			Rounds:             sd.Rounds,
			BytesUsed:          sd.BytesUsed,
			Trials:             sd.Trials,
			Confidence:         sd.Confidence,
		}
		for _, k := range sd.Kinds {
			d.Kinds = append(d.Kinds, core.DiffKind(k))
		}
		r.Detection = d
	}
	if sc := s.Characterization; sc != nil {
		c := &core.Characterization{
			MatchWrite:         sc.MatchWrite,
			WindowLimited:      sc.WindowLimited,
			WindowUpperBound:   sc.WindowUpperBound,
			PacketCountBased:   sc.PacketCountBased,
			InspectsAllPackets: sc.InspectsAllPackets,
			PortSpecific:       sc.PortSpecific,
			ResidualBlocking:   sc.ResidualBlocking,
			MiddleboxTTL:       sc.MiddleboxTTL,
			Rounds:             sc.Rounds,
			BytesUsed:          sc.BytesUsed,
			TimeUsed:           time.Duration(sc.TimeUsedNS),
		}
		for _, f := range sc.Fields {
			c.Fields = append(c.Fields, core.FieldRef{Msg: f.Msg, Start: f.Start, End: f.End})
		}
		r.Characterization = c
	}
	if se := s.Evaluation; se != nil {
		e := &core.Evaluation{
			Rounds:           se.Rounds,
			Bytes:            se.Bytes,
			SkippedByPruning: se.SkippedByPruning,
		}
		for i := range se.Verdicts {
			v, err := unpackVerdict(&se.Verdicts[i])
			if err != nil {
				return nil, err
			}
			e.Verdicts = append(e.Verdicts, v)
		}
		r.Evaluation = e
	}
	if s.Deployed != nil {
		v, err := unpackVerdict(s.Deployed)
		if err != nil {
			return nil, err
		}
		r.Deployed = &v
	}
	// Every consumer reads Detection, and a differentiated or deployed
	// report's Characterization and Evaluation; an engagement always
	// records them, so a payload without them is not a report.
	if r.Detection == nil {
		return nil, fmt.Errorf("campaign: stored report has no detection")
	}
	if (r.Detection.Differentiated || r.Deployed != nil) && (r.Characterization == nil || r.Evaluation == nil) {
		return nil, fmt.Errorf("campaign: stored report is missing its characterization or evaluation")
	}
	return r, nil
}
