package dpi

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netem/vclock"
)

// gfcEvictProbReference is GFCLoad's EvictProb as written before it
// skipped idles under 35 s, the reference for the shortcut.
func gfcEvictProbReference(hour float64, idle time.Duration) float64 {
	l := 0.51 + 0.46*math.Sin((hour-21.0)/24.0*2*math.Pi+math.Pi/2)
	mi := time.Duration((35 + 420*math.Pow(1-l, 1.6)) * float64(time.Second))
	if idle < mi {
		return 0
	}
	p := 0.55 + float64(idle-mi)/float64(2*mi)
	if p > 1 {
		p = 1
	}
	return p
}

// TestGFCEvictProbShortcutExact: EvictProb equals the reference bit for
// bit over a fine grid of hours and idles up to 40 s (past every hour's
// threshold), including the nanoseconds around the 35 s shortcut, and
// MinIdle never drops to 35 s.
func TestGFCEvictProbShortcutExact(t *testing.T) {
	lm := GFCLoad()
	idles := []time.Duration{0, 35*time.Second - 1, 35 * time.Second, 35*time.Second + 1}
	for idle := time.Duration(0); idle <= 40*time.Second; idle += 20 * time.Millisecond {
		idles = append(idles, idle)
	}
	for h := 0; h <= 24*30; h++ {
		hour := float64(h) / 30
		if mi := lm.MinIdle(hour); mi <= 35*time.Second {
			t.Fatalf("MinIdle(%v) = %v, not above 35 s", hour, mi)
		}
		for _, idle := range idles {
			got, want := lm.EvictProb(hour, idle), gfcEvictProbReference(hour, idle)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("EvictProb(%v, %v) = %v, reference %v", hour, idle, got, want)
			}
		}
	}
}

// timeShaper is the token bucket as it was written over time.Time, the
// reference for shaper's int64 arithmetic.
type timeShaper struct {
	rate, burst, tokens float64
	last, nextFree      time.Time
}

func (s *timeShaper) delay(now time.Time, n int) time.Duration {
	if s.last.IsZero() {
		s.last = now
	}
	s.tokens += now.Sub(s.last).Seconds() * s.rate
	if s.tokens > s.burst {
		s.tokens = s.burst
	}
	s.last = now
	s.tokens -= float64(n)
	var d time.Duration
	if s.tokens < 0 {
		d = time.Duration(-s.tokens / s.rate * float64(time.Second))
	}
	at := now.Add(d)
	if at.Before(s.nextFree) {
		at = s.nextFree
		d = at.Sub(now)
	}
	s.nextFree = at
	return d
}

// TestShaperMatchesTimeArithmetic: for random rates, bursts, packet
// lengths and start times (the epoch itself included), the int64 shaper
// returns the time.Time reference's delays to the nanosecond and keeps
// bit-identical token counts.
func TestShaperMatchesTimeArithmetic(t *testing.T) {
	epoch := vclock.Epoch
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		bps := math.Pow(10, 4+5*rng.Float64())
		burst := 0
		if trial%3 != 0 {
			burst = rng.Intn(1 << 17)
		}
		s := newShaper(bps, burst)
		ref := &timeShaper{rate: s.rate, burst: s.burst, tokens: s.tokens}
		now := int64(0)
		if trial%2 == 1 {
			now = rng.Int63n(int64(48 * time.Hour))
		}
		for i := 0; i < 200; i++ {
			switch rng.Intn(3) {
			case 0: // same instant
			case 1:
				now += rng.Int63n(int64(time.Millisecond))
			default:
				now += rng.Int63n(int64(5 * time.Second))
			}
			n := 40 + rng.Intn(1461)
			got, want := s.delay(now, n), ref.delay(epoch.Add(time.Duration(now)), n)
			if got != want || math.Float64bits(s.tokens) != math.Float64bits(ref.tokens) {
				t.Fatalf("trial %d packet %d: delay %v tokens %v, reference %v tokens %v", trial, i, got, s.tokens, want, ref.tokens)
			}
		}
		if int64(ref.nextFree.Sub(epoch)) != s.nextFree {
			t.Fatalf("trial %d: nextFree %d, reference %v", trial, s.nextFree, ref.nextFree)
		}
	}
}
