package netem

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netem/packet"
	"repro/internal/netem/vclock"
)

// timePipe is Pipe's transmission schedule as it was computed over
// time.Time, the reference for Pipe's int64 arithmetic.
type timePipe struct {
	rate     float64
	nextFree time.Time
}

func (p *timePipe) done(now time.Time, n int) time.Time {
	tx := time.Duration(float64(n*8) / p.rate * float64(time.Second))
	start := now
	if p.nextFree.After(start) {
		start = p.nextFree
	}
	d := start.Add(tx)
	p.nextFree = d
	return d
}

// TestPipeScheduleMatchesTimeArithmetic: for random rates, frame lengths
// and send times, Pipe delivers every frame at the instant the time.Time
// schedule gives, to the nanosecond.
func TestPipeScheduleMatchesTimeArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		rate := math.Pow(10, 3+6*rng.Float64())
		clock, env, at := timedRig(&Pipe{Label: "pipe", RateBps: rate})
		ref := &timePipe{rate: rate}
		link := int64(env.LinkDelay)
		send := int64(0)
		if trial%2 == 1 {
			send = rng.Int63n(int64(48 * time.Hour))
		}
		var want []int64
		for i := 0; i < 60; i++ {
			switch rng.Intn(3) {
			case 0: // same instant
			case 1:
				send += rng.Int63n(int64(time.Millisecond))
			default:
				send += rng.Int63n(int64(2 * time.Second))
			}
			raw := packet.NewUDP(env.ClientAddr, env.ServerAddr, 1, 2, make([]byte, rng.Intn(1473))).Serialize()
			clock.ScheduleAt(vclock.Epoch.Add(time.Duration(send)), func() { env.FromClient(raw) })
			done := ref.done(vclock.Epoch.Add(time.Duration(send+link)), len(raw))
			want = append(want, int64(done.Sub(vclock.Epoch))+link)
		}
		clock.Run()
		if !sameTimes(*at, want) {
			t.Fatalf("trial %d (rate %.0f bps): deliveries %v, time.Time schedule %v", trial, rate, *at, want)
		}
	}
}
