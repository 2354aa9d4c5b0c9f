package campaign

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Observer receives campaign progress events. Implementations must be
// safe for concurrent use: engagement events fire from worker
// goroutines. Everything an observer sees (ordering, wall-clock rates)
// is scheduling-dependent; deterministic data lives in the Summary.
type Observer interface {
	// CampaignStarted fires once, before any engagement.
	CampaignStarted(total, workers int)
	// EngagementStarted fires at the beginning of every attempt
	// (attempt is 1-based; retries re-fire it).
	EngagementStarted(e Engagement, attempt int)
	// EngagementFinished fires once per engagement, after its last
	// attempt.
	EngagementFinished(res Result)
	// CampaignFinished fires once, after aggregation.
	CampaignFinished(s *Summary)
}

// NopObserver ignores every event.
type NopObserver struct{}

func (NopObserver) CampaignStarted(int, int)          {}
func (NopObserver) EngagementStarted(Engagement, int) {}
func (NopObserver) EngagementFinished(Result)         {}
func (NopObserver) CampaignFinished(*Summary)         {}

// Progress is a terminal progress reporter: one line per finished
// engagement with running counters, throughput, and ETA, plus a final
// campaign line. Safe for concurrent use.
type Progress struct {
	W io.Writer
	// Every reports only each Nth finished engagement (default 1 = all).
	Every int

	mu       sync.Mutex
	total    int
	finished int
	failed   int
	retries  int
	started  time.Time
	now      func() time.Time // test hook; nil = time.Now
}

// NewProgress returns a progress observer writing to w.
func NewProgress(w io.Writer) *Progress { return &Progress{W: w} }

func (p *Progress) clock() time.Time {
	if p.now != nil {
		return p.now()
	}
	return time.Now()
}

// CampaignStarted implements Observer.
func (p *Progress) CampaignStarted(total, workers int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total = total
	p.finished = 0
	p.failed = 0
	p.retries = 0
	p.started = p.clock()
	fmt.Fprintf(p.W, "campaign: %d engagements on %d workers\n", total, workers)
}

// EngagementStarted implements Observer.
func (p *Progress) EngagementStarted(e Engagement, attempt int) {
	if attempt <= 1 {
		return
	}
	p.mu.Lock()
	p.retries++
	retries := p.retries
	p.mu.Unlock()
	fmt.Fprintf(p.W, "  retry %s (attempt %d, %d retries so far)\n", e.Key(), attempt, retries)
}

// EngagementFinished implements Observer.
func (p *Progress) EngagementFinished(res Result) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.finished++
	if res.Status != StatusOK {
		p.failed++
	}
	every := p.Every
	if every <= 0 {
		every = 1
	}
	if p.finished%every != 0 && p.finished != p.total {
		return
	}
	elapsed := p.clock().Sub(p.started)
	rate := 0.0
	if elapsed > 0 {
		rate = float64(p.finished) / elapsed.Seconds()
	}
	eta := time.Duration(0)
	if rate > 0 {
		eta = time.Duration(float64(p.total-p.finished)/rate) * time.Second
	}
	fmt.Fprintf(p.W, "  [%d/%d] %-40s %-7s %.1f eng/s eta %s\n",
		p.finished, p.total, res.Engagement.Key(), res.Status, rate, eta.Round(time.Second))
}

// CampaignFinished implements Observer.
func (p *Progress) CampaignFinished(s *Summary) {
	p.mu.Lock()
	defer p.mu.Unlock()
	elapsed := p.clock().Sub(p.started)
	rate := 0.0
	if elapsed > 0 {
		rate = float64(p.finished) / elapsed.Seconds()
	}
	fmt.Fprintf(p.W, "campaign: done — %d ok, %d failed, %d retries, %.1f eng/s, %s wall\n",
		s.Succeeded, s.Failed, s.Retries, rate, elapsed.Round(time.Millisecond))
}
