package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detrand"
	"repro/internal/obs"
)

// FrameChaos injects transport faults into the cluster frame protocol —
// the pumba-style chaos arm of the distributed plane. The wrapper
// understands the 4-byte length prefix, so faults land on whole frames,
// never mid-byte: a frame is dropped, delayed, truncated (modelling a
// torn connection), or duplicated. Fates are drawn from a detrand stream
// seeded per (worker, incarnation): each Wrap of the same worker slot —
// a respawn after an injected death — gets a fresh stream, so a retried
// handshake or shard doesn't deterministically replay the exact fault
// that killed the previous attempt and livelock the fleet.
//
// The zero value injects nothing; rates are independent probabilities
// evaluated cumulatively per frame (drop first, then delay, truncate,
// duplicate).
type FrameChaos struct {
	// Seed salts the per-worker fate streams (worker id is mixed in).
	Seed int64
	// DropRate silently discards the frame.
	DropRate float64
	// DelayRate stalls the frame by Delay of wall time before delivery —
	// long enough delays trip the coordinator's heartbeat timeout.
	DelayRate float64
	Delay     time.Duration
	// TruncRate delivers only half the frame and then tears the stream —
	// the receiver sees a short read, like a connection cut mid-frame.
	TruncRate float64
	// DupRate delivers the frame twice.
	DupRate float64
	// Recorder receives chaos.* events and counters (wrap shared
	// recorders in obs.Locked). Nil means unrecorded.
	Recorder obs.Recorder

	// wraps counts Wrap calls: the incarnation number mixed into each
	// connection's fate-stream seed.
	wraps atomic.Int64
}

// Enabled reports whether any fault can fire.
func (c *FrameChaos) Enabled() bool {
	return c != nil && (c.DropRate > 0 || c.DelayRate > 0 || c.TruncRate > 0 || c.DupRate > 0)
}

// Wrap decorates a worker connection with frame-level fault injection on
// both directions. Each direction draws from its own stream, so the
// reader goroutine and the dispatching goroutine never race over RNG
// state and each side's fate sequence is a pure function of its own
// frame count.
func (c *FrameChaos) Wrap(workerID int, conn io.ReadWriteCloser) io.ReadWriteCloser {
	if !c.Enabled() {
		return conn
	}
	mix := c.Seed ^ (int64(workerID)+1)*0x1e3779b97f4a7c15 ^ c.wraps.Add(1)<<32
	return &chaosConn{
		conn:  conn,
		chaos: c,
		rd:    frameFater{chaos: c, rng: detrand.New(mix ^ 0x4ead), dir: "read", worker: workerID},
		wr:    frameFater{chaos: c, rng: detrand.New(mix ^ 0x3417e), dir: "write", worker: workerID},
	}
}

type chaosFate int

const (
	fatePass chaosFate = iota
	fateDrop
	fateDelay
	fateTrunc
	fateDup
)

// frameFater draws one fate per frame and records it.
type frameFater struct {
	chaos  *FrameChaos
	rng    *detrand.Rand
	dir    string
	worker int
}

func (f *frameFater) fate(frameLen int) chaosFate {
	c := f.chaos
	r := f.rng.Float64()
	var fate chaosFate
	var kind obs.Kind
	switch {
	case r < c.DropRate:
		fate, kind = fateDrop, obs.KindChaosFrameDrop
	case r < c.DropRate+c.DelayRate:
		fate, kind = fateDelay, obs.KindChaosFrameDelay
	case r < c.DropRate+c.DelayRate+c.TruncRate:
		fate, kind = fateTrunc, obs.KindChaosFrameTrunc
	case r < c.DropRate+c.DelayRate+c.TruncRate+c.DupRate:
		fate, kind = fateDup, obs.KindChaosFrameDup
	default:
		return fatePass
	}
	if rec := c.Recorder; rec != nil && rec.Enabled() {
		rec.Record(obs.Event{Kind: kind, Actor: "chaos",
			Label: fmt.Sprintf("worker=%d dir=%s", f.worker, f.dir),
			Value: int64(frameLen), Aux: int64(f.rng.Steps())})
		rec.Add(obs.CtrChaosFrameFaults, 1)
	}
	return fate
}

// chaosConn applies frame fates. Reads reassemble frames from the
// underlying stream and serve surviving bytes; writes buffer the
// header+body write pairs writeMsg issues until a frame is complete,
// then forward (or mutilate) it whole.
type chaosConn struct {
	conn  io.ReadWriteCloser
	chaos *FrameChaos

	rmu  sync.Mutex
	rd   frameFater
	rbuf bytes.Buffer
	rerr error

	wmu  sync.Mutex
	wr   frameFater
	wbuf bytes.Buffer
	werr error
}

func (cc *chaosConn) Read(p []byte) (int, error) {
	cc.rmu.Lock()
	defer cc.rmu.Unlock()
	for cc.rbuf.Len() == 0 {
		if cc.rerr != nil {
			return 0, cc.rerr
		}
		if err := cc.pumpFrame(); err != nil {
			cc.rerr = err
			return 0, err
		}
	}
	return cc.rbuf.Read(p)
}

// pumpFrame reads one whole frame from the underlying stream, draws its
// fate, and appends the surviving bytes to rbuf.
func (cc *chaosConn) pumpFrame() error {
	var hdr [4]byte
	if _, err := io.ReadFull(cc.conn, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return fmt.Errorf("cluster: chaos reader: frame of %d bytes exceeds limit", n)
	}
	body, err := readBody(cc.conn, n)
	if err != nil {
		return err
	}
	switch cc.rd.fate(int(n)) {
	case fateDrop:
		return nil // swallowed; caller pumps the next frame
	case fateDelay:
		time.Sleep(cc.chaos.Delay)
	case fateTrunc:
		// Half a frame and then the wire goes dead.
		cc.rbuf.Write(hdr[:])
		cc.rbuf.Write(body[:len(body)/2])
		cc.rerr = io.ErrUnexpectedEOF
		return nil
	case fateDup:
		cc.rbuf.Write(hdr[:])
		cc.rbuf.Write(body)
	}
	cc.rbuf.Write(hdr[:])
	cc.rbuf.Write(body)
	return nil
}

func (cc *chaosConn) Write(p []byte) (int, error) {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	if cc.werr != nil {
		return 0, cc.werr
	}
	cc.wbuf.Write(p)
	// Forward every complete frame buffered so far; a partial tail stays
	// buffered until writeMsg's next call completes it.
	for {
		buffered := cc.wbuf.Bytes()
		if len(buffered) < 4 {
			return len(p), nil
		}
		n := binary.BigEndian.Uint32(buffered[:4])
		if uint64(len(buffered)) < 4+uint64(n) {
			return len(p), nil
		}
		frame := make([]byte, 4+n)
		io.ReadFull(&cc.wbuf, frame)
		switch cc.wr.fate(int(n)) {
		case fateDrop:
			continue
		case fateDelay:
			time.Sleep(cc.chaos.Delay)
		case fateTrunc:
			cc.conn.Write(frame[:4+n/2])
			cc.werr = io.ErrClosedPipe
			return 0, cc.werr
		case fateDup:
			if _, err := cc.conn.Write(frame); err != nil {
				cc.werr = err
				return 0, err
			}
		}
		if _, err := cc.conn.Write(frame); err != nil {
			cc.werr = err
			return 0, err
		}
	}
}

func (cc *chaosConn) Close() error { return cc.conn.Close() }

// ParseFrameChaos parses the CLI chaos form: comma-separated fault:rate
// entries, with "delay" taking rate/duration and "seed" an integer, e.g.
//
//	drop:0.02,delay:0.05/750ms,trunc:0.01,dup:0.02,seed:7
func ParseFrameChaos(s string) (*FrameChaos, error) {
	c := &FrameChaos{Delay: 750 * time.Millisecond}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("cluster: chaos %q: want fault:rate", part)
		}
		if kind == "seed" {
			seed, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cluster: chaos %q: bad seed: %w", part, err)
			}
			c.Seed = seed
			continue
		}
		rateStr, extra, _ := strings.Cut(rest, "/")
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: chaos %q: bad rate: %w", part, err)
		}
		if rate < 0 || rate >= 1 {
			return nil, fmt.Errorf("cluster: chaos %q: rate outside [0,1)", part)
		}
		switch kind {
		case "drop":
			c.DropRate = rate
		case "delay":
			c.DelayRate = rate
			if extra != "" {
				d, err := time.ParseDuration(extra)
				if err != nil {
					return nil, fmt.Errorf("cluster: chaos %q: bad delay: %w", part, err)
				}
				c.Delay = d
			}
		case "trunc":
			c.TruncRate = rate
		case "dup":
			c.DupRate = rate
		default:
			return nil, fmt.Errorf("cluster: chaos %q: unknown fault (drop|delay|trunc|dup|seed)", part)
		}
	}
	return c, nil
}
