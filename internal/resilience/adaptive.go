package resilience

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Priority classifies a request for admission control. Under overload
// the limiter sheds lower-priority traffic first, so the control plane
// (probes, metrics, admin) stays reachable on a saturated replica and
// single-pair queries outlive bulk batches.
type Priority int

const (
	// PriorityCritical requests (health probes, metrics, admin) are
	// never shed: an orchestrator must be able to see and operate a
	// saturated replica, and ejecting a merely-busy backend because its
	// /readyz was shed would turn overload into an outage.
	PriorityCritical Priority = iota
	// PriorityNormal is interactive query traffic (/distance, /knn, ...).
	PriorityNormal
	// PriorityBatch is bulk traffic (/batch): it admits only below a
	// reserved headroom fraction of the limit, so batches shed before
	// single-pair queries as the limiter tightens.
	PriorityBatch
)

func (p Priority) String() string {
	switch p {
	case PriorityCritical:
		return "critical"
	case PriorityBatch:
		return "batch"
	default:
		return "normal"
	}
}

// PriorityForPath maps a request path onto its admission priority.
func PriorityForPath(path string) Priority {
	switch {
	case path == "/healthz" || path == "/readyz" || path == "/metrics" ||
		strings.HasPrefix(path, "/admin/"):
		return PriorityCritical
	case path == "/batch":
		return PriorityBatch
	default:
		return PriorityNormal
	}
}

// AdmissionConfig tunes the adaptive AIMD concurrency limiter. The
// limiter replaces a static in-flight cap with one that tracks what the
// replica can actually sustain: each Interval it compares the window's
// observed p99 latency against TargetP99, backing off multiplicatively
// when the target is blown and probing up additively when the window
// ran at the limit without blowing it.
type AdmissionConfig struct {
	// TargetP99 is the latency the limiter defends; required (> 0).
	TargetP99 time.Duration
	// Initial is the starting concurrency limit (default 64).
	Initial int
	// Min / Max bound the adapted limit (defaults 4 and 4096).
	Min, Max int
	// Interval is the adjustment window (default 500ms).
	Interval time.Duration
	// Step is the additive increase applied after a window that ran at
	// the limit while keeping p99 under target (default 4).
	Step int
	// Backoff is the multiplicative decrease applied after a window
	// whose p99 exceeded the target (default 0.75).
	Backoff float64
	// BatchReserve is the fraction of the limit reserved for non-batch
	// traffic: PriorityBatch requests admit only while in-flight count
	// is below limit*(1-BatchReserve), so /batch sheds first (default
	// 0.125; negative disables the reserve).
	BatchReserve float64
}

func (c AdmissionConfig) withDefaults() (AdmissionConfig, error) {
	if c.TargetP99 <= 0 {
		return c, fmt.Errorf("resilience: admission TargetP99 must be positive")
	}
	if c.Initial <= 0 {
		c.Initial = 64
	}
	if c.Min <= 0 {
		c.Min = 4
	}
	if c.Max <= 0 {
		c.Max = 4096
	}
	if c.Min > c.Max {
		return c, fmt.Errorf("resilience: admission Min %d > Max %d", c.Min, c.Max)
	}
	if c.Initial < c.Min {
		c.Initial = c.Min
	}
	if c.Initial > c.Max {
		c.Initial = c.Max
	}
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Step <= 0 {
		c.Step = 4
	}
	if c.Backoff <= 0 || c.Backoff >= 1 {
		c.Backoff = 0.75
	}
	if c.BatchReserve == 0 {
		c.BatchReserve = 0.125
	}
	if c.BatchReserve < 0 {
		c.BatchReserve = 0
	}
	if c.BatchReserve > 0.9 {
		c.BatchReserve = 0.9
	}
	return c, nil
}

// AdaptiveLimiter is an AIMD concurrency limiter keyed on observed p99
// latency. Admission is a lock-free in-flight CAS; adaptation runs
// opportunistically on request completion (no background goroutine to
// manage), at most once per Interval.
type AdaptiveLimiter struct {
	cfg AdmissionConfig

	limit    atomic.Int64
	inFlight atomic.Int64
	// winMax tracks the highest in-flight count seen this window: the
	// limit only grows after a window that actually pushed against it,
	// so idle periods cannot ratchet it to Max.
	winMax atomic.Int64

	// window is the cumulative latency histogram; each adjustment
	// diffs it against prev to get the window's own observations.
	window *telemetry.Histogram
	adjMu  sync.Mutex
	prev   telemetry.HistSnapshot
	lastNS atomic.Int64 // unix nanos of the last adjustment

	shedByPriority [3]*telemetry.Counter
	increases      *telemetry.Counter
	decreases      *telemetry.Counter
}

// NewAdaptiveLimiter validates cfg and registers the limiter's
// telemetry (rne_admit_limit gauge, shed-by-priority counters, adapt
// counters) on reg; a nil reg keeps the limiter metric-free.
func NewAdaptiveLimiter(cfg AdmissionConfig, reg *telemetry.Registry) (*AdaptiveLimiter, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	l := &AdaptiveLimiter{
		cfg:    cfg,
		window: telemetry.NewHistogram(telemetry.LatencyBuckets),
	}
	l.limit.Store(int64(cfg.Initial))
	l.lastNS.Store(time.Now().UnixNano())
	if reg != nil {
		reg.GaugeFunc("rne_admit_limit",
			"Current adaptive admission limit (concurrent requests).",
			func() float64 { return float64(l.limit.Load()) })
		for _, p := range []Priority{PriorityCritical, PriorityNormal, PriorityBatch} {
			l.shedByPriority[p] = reg.Counter("rne_admit_shed_total",
				"Requests shed by the adaptive admission limiter, by priority.",
				"priority", p.String())
		}
		l.increases = reg.Counter("rne_admit_increases_total",
			"Additive admission-limit increases (window at limit, p99 under target).")
		l.decreases = reg.Counter("rne_admit_decreases_total",
			"Multiplicative admission-limit decreases (window p99 over target).")
	}
	return l, nil
}

// Limit reports the current admission limit.
func (l *AdaptiveLimiter) Limit() int { return int(l.limit.Load()) }

// InFlight reports the number of currently admitted requests.
func (l *AdaptiveLimiter) InFlight() int { return int(l.inFlight.Load()) }

// Acquire admits or sheds one request of the given priority. Critical
// requests always admit. On true, the caller must call Release with the
// request's latency when it finishes.
func (l *AdaptiveLimiter) Acquire(p Priority) bool {
	if p == PriorityCritical {
		l.inFlight.Add(1)
		return true
	}
	limit := l.limit.Load()
	threshold := limit
	if p == PriorityBatch && l.cfg.BatchReserve > 0 {
		threshold = limit - int64(float64(limit)*l.cfg.BatchReserve)
		if threshold < 1 {
			threshold = 1
		}
	}
	for {
		cur := l.inFlight.Load()
		if cur >= threshold {
			if c := l.shedByPriority[p]; c != nil {
				c.Inc()
			}
			return false
		}
		if l.inFlight.CompareAndSwap(cur, cur+1) {
			l.noteInFlight(cur + 1)
			return true
		}
	}
}

func (l *AdaptiveLimiter) noteInFlight(n int64) {
	for {
		m := l.winMax.Load()
		if n <= m || l.winMax.CompareAndSwap(m, n) {
			return
		}
	}
}

// Release records one finished request's latency and returns its
// admission slot, then adapts the limit if an interval has elapsed.
func (l *AdaptiveLimiter) Release(latency time.Duration) {
	l.window.ObserveDuration(latency)
	l.inFlight.Add(-1)
	l.maybeAdjust()
}

func (l *AdaptiveLimiter) maybeAdjust() {
	now := time.Now().UnixNano()
	last := l.lastNS.Load()
	if now-last < l.cfg.Interval.Nanoseconds() {
		return
	}
	if !l.adjMu.TryLock() {
		return
	}
	defer l.adjMu.Unlock()
	if now-l.lastNS.Load() < l.cfg.Interval.Nanoseconds() {
		return
	}
	cur := l.window.Snapshot()
	win := cur.Sub(l.prev)
	l.prev = cur
	winMax := l.winMax.Swap(l.inFlight.Load())
	l.lastNS.Store(now)
	if win.Count == 0 {
		return
	}
	limit := l.limit.Load()
	p99 := win.Quantile(0.99)
	switch {
	case p99 > l.cfg.TargetP99.Seconds():
		next := int64(float64(limit) * l.cfg.Backoff)
		if next < int64(l.cfg.Min) {
			next = int64(l.cfg.Min)
		}
		if next != limit {
			l.limit.Store(next)
			if l.decreases != nil {
				l.decreases.Inc()
			}
		}
	case winMax >= limit-1:
		// Under target while pushing against the limit: probe upward.
		next := limit + int64(l.cfg.Step)
		if next > int64(l.cfg.Max) {
			next = int64(l.cfg.Max)
		}
		if next != limit {
			l.limit.Store(next)
			if l.increases != nil {
				l.increases.Inc()
			}
		}
	}
}
