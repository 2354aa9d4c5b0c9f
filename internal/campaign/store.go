package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/netem/stack"
	"repro/internal/obs"
)

// storeVersion is the on-disk envelope schema version. Entries written
// under a different version are treated as misses and evicted, so a
// format change never poisons a long-lived store directory.
const storeVersion = 1

// StoreStats is the persistent store's lookup accounting. For a
// single-process run layered under the in-memory Cache the counts are
// deterministic given the store's starting state (the cache's
// memo sends exactly one lookup per distinct key: misses =
// distinct keys absent at start, hits = the rest). Across worker
// *processes* the hit/miss split depends on completion timing — which is
// why cluster coordinators report store stats through observers and obs
// counters, never through the deterministic Summary.
type StoreStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Writes    int64 `json:"writes"`
	Evictions int64 `json:"evictions,omitempty"`
}

// storeEnvelope is the on-disk entry format: a version, the canonical
// key string (guards hash collisions and cross-key corruption), a
// payload checksum, and the encoded report.
type storeEnvelope struct {
	V      int             `json:"v"`
	Key    string          `json:"key"`
	Sum    string          `json:"sha256"`
	Report json.RawMessage `json:"report"`
}

// Store is the persistent, disk-backed layer of the campaign's
// content-addressed memoization: one file per cache key (network
// fingerprint × trace content hash × hour × server OS), shared across
// runs, across worker processes, and with the liberate-d daemon.
//
// Concurrency and durability rules:
//
//   - Writes are atomic: an entry is serialized to a unique temp file in
//     the store directory and renamed into place. Readers therefore see
//     either no entry or a complete one, and concurrent writers of the
//     same key — e.g. two worker processes racing on a shared key —
//     converge on one file whose content is identical by determinism.
//   - Reads are paranoid: a missing file is a miss; a truncated,
//     corrupt, version-skewed, checksum-failing, or wrong-key entry is
//     evicted (deleted) and counted, then treated as a miss. The store
//     never returns partial data and never fails an engagement over a
//     bad entry.
//   - Only successful reports are persisted. Failures stay in the
//     in-memory Cache's error slots: a persisted failure could outlive
//     the transient condition (or the bug) that caused it.
type Store struct {
	dir string
	rec obs.Recorder

	hits      atomic.Int64
	misses    atomic.Int64
	writes    atomic.Int64
	evictions atomic.Int64
}

// OpenStore opens (creating if needed) a persistent store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("campaign: store directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: open store: %w", err)
	}
	return &Store{dir: dir, rec: obs.Nop}, nil
}

// SetRecorder directs the store's cluster.store-hit/miss events and
// store_* counters at r (obs.Nop by default). Must be set before use.
func (s *Store) SetRecorder(r obs.Recorder) {
	if r == nil {
		r = obs.Nop
	}
	s.rec = r
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the lookup counters accumulated by this process's
// handle. Safe to call concurrently with lookups (atomic loads).
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Writes:    s.writes.Load(),
		Evictions: s.evictions.Load(),
	}
}

// path maps a key to its entry file: two-level fan-out on the SHA-256 of
// the canonical key string, so a million-entry store doesn't put a
// million names in one directory.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, name[:2], name[2:]+".json")
}

// Get looks up the engagement's report by content key. ok is false on a
// miss (including evicted corrupt entries). The error return is reserved
// for key construction failures (unknown network/trace names); I/O and
// corruption problems degrade to misses by design.
func (s *Store) Get(e Engagement, osName string) (*core.Report, bool, error) {
	key, err := contentKey(e, osName)
	if err != nil {
		return nil, false, err
	}
	rep, ok := s.get(key)
	return rep, ok, nil
}

// Put persists the engagement's report under its content key.
func (s *Store) Put(e Engagement, osName string, rep *core.Report) error {
	key, err := contentKey(e, osName)
	if err != nil {
		return err
	}
	return s.put(key, rep)
}

func (s *Store) get(key string) (*core.Report, bool) {
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			// Unreadable ≠ absent, but the store's contract is the same:
			// recompute rather than fail.
			s.evict(path)
		}
		return s.miss(key)
	}
	var env storeEnvelope
	if err := json.Unmarshal(data, &env); err != nil ||
		env.V != storeVersion || env.Key != key || env.Sum != payloadSum(env.Report) {
		s.evict(path)
		return s.miss(key)
	}
	rep, err := DecodeReport(env.Report)
	if err != nil {
		s.evict(path)
		return s.miss(key)
	}
	s.hits.Add(1)
	s.rec.Add(obs.CtrStoreHits, 1)
	if s.rec.Enabled() {
		s.rec.Record(obs.Event{Kind: obs.KindStoreHit, Actor: "store", Label: shortKey(key), Value: int64(len(data))})
	}
	return rep, true
}

func (s *Store) miss(key string) (*core.Report, bool) {
	s.misses.Add(1)
	s.rec.Add(obs.CtrStoreMisses, 1)
	if s.rec.Enabled() {
		s.rec.Record(obs.Event{Kind: obs.KindStoreMiss, Actor: "store", Label: shortKey(key)})
	}
	return nil, false
}

// evict removes an unusable entry so the next lookup is a clean miss
// rather than a repeated parse failure. Removal errors are ignored: a
// lingering corrupt file only costs another eviction attempt later.
func (s *Store) evict(path string) {
	os.Remove(path)
	s.evictions.Add(1)
	s.rec.Add(obs.CtrStoreEvictions, 1)
}

func (s *Store) put(key string, rep *core.Report) error {
	payload, err := EncodeReport(rep)
	if err != nil {
		return err
	}
	env := storeEnvelope{V: storeVersion, Key: key, Sum: payloadSum(payload), Report: payload}
	data, err := json.Marshal(&env)
	if err != nil {
		return err
	}
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	// Unique temp name + rename: concurrent writers never interleave
	// bytes, and a crash mid-write leaves only a temp file the next
	// reader ignores entirely (it has a temp name, not the key's name).
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	s.writes.Add(1)
	s.rec.Add(obs.CtrStoreWrites, 1)
	return nil
}

// wrap layers the persistent store under an EngageFunc: lookup before
// computing, persist after. A store write failure never fails the
// engagement — the store is an accelerator, not a system of record; the
// computed report is returned regardless. Like the in-memory cache, the
// per-seed transform check re-runs on every hit because the seed is
// outside the content key.
func (s *Store) wrap(inner EngageFunc) EngageFunc {
	return func(ctx context.Context, e Engagement, osp *stack.OSProfile) (*core.Report, error) {
		key, err := contentKey(e, osName(osp))
		if err != nil {
			return nil, err
		}
		if rep, ok := s.get(key); ok {
			if err := verifySeedTransform(rep, e); err != nil {
				return nil, err
			}
			return rep, nil
		}
		rep, err := inner(ctx, e, osp)
		if err != nil {
			return nil, err
		}
		s.put(key, rep) // best-effort; see doc comment
		return rep, nil
	}
}

func payloadSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// shortKey is the event label form of a key: the first 12 hex chars of
// its content hash, enough to correlate events without dumping the key.
func shortKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:6])
}
