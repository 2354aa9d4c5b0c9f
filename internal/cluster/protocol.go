// Package cluster is the distributed campaign plane: a coordinator that
// partitions an expanded engagement matrix into deterministic shards and
// dispatches them to worker processes over a length-prefixed JSON
// protocol, plus the liberate-d daemon that serves "cheapest working
// technique" queries from the persistent campaign store.
//
// Determinism across process boundaries is the same contract the
// single-process campaign runner keeps across goroutines: engagement
// results are pure functions of the spec cell, shard completion order
// never reaches the summary (the streaming campaign.Aggregator is
// commutative and sorts at Finish), and the report codec is
// aggregation-exact. The handshake pins the two inputs that could break
// the contract silently — the protocol version and a registry hash
// covering network fingerprints, trace names, and the technique
// taxonomy — so a skewed worker binary is rejected instead of quietly
// computing different rows.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/registry"
)

// ProtocolVersion is bumped on any wire-incompatible change; the
// handshake rejects mismatches.
const ProtocolVersion = 1

// maxFrame bounds a single protocol frame. A shard result for hundreds
// of engagements with flight-recorder evidence stays well under this; a
// frame this large indicates a corrupted stream, not a big payload.
const maxFrame = 64 << 20

// Message types.
const (
	msgHello     = "hello"
	msgAck       = "ack"
	msgDispatch  = "dispatch"
	msgResult    = "result"
	msgHeartbeat = "heartbeat"
	msgShutdown  = "shutdown"
)

// Hello is the worker's opening message.
type Hello struct {
	Version      int    `json:"version"`
	RegistryHash string `json:"registry_hash"`
	PID          int    `json:"pid,omitempty"`
}

// WorkerConfig is everything a worker needs to run shards of a campaign,
// carried in the coordinator's ack so spawn argv stays trivial.
type WorkerConfig struct {
	Spec campaign.Spec `json:"spec"`
	// Count is the expected expansion size — a cheap cross-check that
	// both processes expand the spec identically.
	Count int `json:"count"`
	// StoreDir, when non-empty, points every worker at one shared
	// persistent store (atomic-rename writes make concurrent processes
	// safe).
	StoreDir string `json:"store_dir,omitempty"`
	// TraceDir/Flight mirror the campaign.Runner recording options;
	// workers write trace files directly (names are engagement-keyed, so
	// writers never collide).
	TraceDir string `json:"trace_dir,omitempty"`
	Flight   int    `json:"flight,omitempty"`
	// Cache arms the worker's in-process memo cache.
	Cache bool `json:"cache,omitempty"`
	// Parallel is the worker's internal pool size (the coordinator
	// divides host parallelism across the fleet).
	Parallel int `json:"parallel,omitempty"`
}

// Ack accepts or rejects a worker's hello.
type Ack struct {
	OK     bool          `json:"ok"`
	Reason string        `json:"reason,omitempty"`
	Config *WorkerConfig `json:"config,omitempty"`
}

// Dispatch assigns one shard: the half-open range [Start, End) of the
// spec's canonical expansion order.
type Dispatch struct {
	Shard int `json:"shard"`
	Start int `json:"start"`
	End   int `json:"end"`
}

// WireResult is one engagement's outcome in transit. Index addresses the
// spec expansion; Report is the campaign report codec's JSON (absent for
// failed engagements).
type WireResult struct {
	Index    int              `json:"index"`
	Status   string           `json:"status"`
	Err      string           `json:"err,omitempty"`
	Attempts int              `json:"attempts"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Evidence []string         `json:"evidence,omitempty"`
	Report   json.RawMessage  `json:"report,omitempty"`
}

// ShardResult returns a completed shard.
type ShardResult struct {
	Shard   int          `json:"shard"`
	Results []WireResult `json:"results"`
}

// Msg is the protocol envelope; exactly one payload field matches Type.
type Msg struct {
	Type     string       `json:"type"`
	Hello    *Hello       `json:"hello,omitempty"`
	Ack      *Ack         `json:"ack,omitempty"`
	Dispatch *Dispatch    `json:"dispatch,omitempty"`
	Result   *ShardResult `json:"result,omitempty"`
}

// writeMsg frames m as 4-byte big-endian length + JSON. Callers
// serialize access per stream (the worker wraps this in a mutex so
// heartbeats and results interleave safely).
func writeMsg(w io.Writer, m *Msg) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if len(data) > maxFrame {
		return fmt.Errorf("cluster: frame too large (%d bytes)", len(data))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// readMsg reads one frame. io.EOF (clean close between frames) passes
// through unwrapped so callers can distinguish shutdown from corruption.
func readMsg(r io.Reader) (*Msg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("cluster: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("cluster: frame length %d exceeds limit", n)
	}
	data, err := readBody(r, n)
	if err != nil {
		return nil, fmt.Errorf("cluster: read frame body: %w", err)
	}
	var m Msg
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("cluster: decode frame: %w", err)
	}
	return &m, nil
}

// readBody reads an n-byte frame body. The buffer grows with the bytes
// actually received, so a garbage header claiming up to maxFrame costs
// nothing until a body that large arrives. Errors are io.ReadFull's:
// io.EOF when no byte came, io.ErrUnexpectedEOF when the body was cut
// short.
func readBody(r io.Reader, n uint32) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && len(data) < int(n) {
		err = io.ErrUnexpectedEOF
		if len(data) == 0 {
			err = io.EOF
		}
	}
	return data, err
}

// RegistryHash digests everything that must agree between coordinator
// and worker for results to be interchangeable: the protocol version,
// each built-in network's content fingerprint, the trace registry, and
// the technique taxonomy. Two binaries with the same hash produce
// byte-identical rows for the same engagement cell.
func RegistryHash() (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "liberate-cluster/v%d\n", ProtocolVersion)
	for _, name := range registry.NetworkNames() {
		net, err := registry.NewNetwork(name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "net %s %s\n", name, net.ConfigDigest())
	}
	for _, name := range registry.TraceNames() {
		fmt.Fprintf(h, "trace %s\n", name)
	}
	for _, t := range core.Taxonomy() {
		fmt.Fprintf(h, "tech %d %s %d\n", t.Row, t.ID, t.Variants)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// toWire converts a campaign result for transport. A report that fails
// to encode becomes a failed result — it cannot happen for taxonomy
// techniques, but a silent drop would desynchronize the aggregation.
func toWire(res campaign.Result) WireResult {
	wr := WireResult{
		Index:    res.Engagement.Index,
		Status:   string(res.Status),
		Err:      res.Err,
		Attempts: res.Attempts,
		Counters: res.Counters,
		Evidence: res.Evidence,
	}
	if res.Report != nil {
		data, err := campaign.EncodeReport(res.Report)
		if err != nil {
			wr.Status = string(campaign.StatusFailed)
			wr.Err = "cluster: encode report: " + err.Error()
		} else {
			wr.Report = data
		}
	}
	return wr
}

// fromWire rebuilds a campaign result against the coordinator's own
// expansion. An undecodable report (registry skew that slipped past the
// handshake) degrades to a failed result rather than poisoning the run.
func fromWire(wr WireResult, engs []campaign.Engagement) (campaign.Result, error) {
	if wr.Index < 0 || wr.Index >= len(engs) {
		return campaign.Result{}, fmt.Errorf("cluster: result index %d outside expansion (%d engagements)", wr.Index, len(engs))
	}
	res := campaign.Result{
		Engagement: engs[wr.Index],
		Status:     campaign.Status(wr.Status),
		Err:        wr.Err,
		Attempts:   wr.Attempts,
		Counters:   wr.Counters,
		Evidence:   wr.Evidence,
	}
	if len(wr.Report) > 0 {
		rep, err := campaign.DecodeReport(wr.Report)
		if err != nil {
			res.Status = campaign.StatusFailed
			res.Err = "cluster: decode report: " + err.Error()
			res.Report = nil
			return res, nil
		}
		res.Report = rep
	}
	return res, nil
}
