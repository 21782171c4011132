package telemetry

import (
	"fmt"
	"math"
	"sync"
)

// Drift-monitor defaults: 31 distance bands mirror the paper's
// fine-tuning grid resolution (R = 2K-1 with K = 16); the baseline is
// frozen after the first 500 observations.
const (
	DefaultDriftBands  = 31
	DefaultDriftWarmup = 500
)

// DriftMonitor watches serving accuracy online, without ground truth.
// In guard mode every query carries a certified interval [lo, hi]
// containing the true distance; the raw model estimate's relative
// deviation from the interval midpoint is a label-free error proxy
// (when the model clamps, it is the clamp delta). Each observation is
// filed into one of the equal-width distance bands the paper buckets
// fine-tuning by, giving operators per-distance-band error histograms
// — the Figure 17 view, continuously, from live traffic.
//
// Drift is summarized as rne_drift_score: the exponentially-weighted
// recent mean error divided by a baseline frozen after warmup. A score
// near 1 means accuracy matches the post-deploy baseline; a sustained
// rise means the model is decaying on current traffic (e.g. the graph
// changed) and wants re-training or fine-tuning.
type DriftMonitor struct {
	maxDist float64
	bands   []*Histogram
	total   *Counter

	scoreG    *Gauge
	recentG   *Gauge
	baselineG *Gauge

	mu       sync.Mutex
	warmup   int
	alpha    float64
	seen     int
	baseSum  float64
	baseline float64
	ewma     float64
	// tally is ObserveAll's scratch, one entry per band, zero between
	// calls; touched lists the bands a call has filed into.
	tally   []bandTally
	touched []int
}

// bandTally is what one ObserveAll call files into one band: bucket
// counts, their total and the deviations' sum.
type bandTally struct {
	counts []int64
	n      int64
	sum    float64
}

// DefaultDriftAlpha is the EWMA smoothing factor: a half-life of ~350
// observations, responsive within minutes at production QPS while
// smoothing per-query noise.
const DefaultDriftAlpha = 0.002

// NewDriftMonitor registers the drift metric family on reg. maxDist
// scales the distance bands (use the model's diameter estimate);
// bands and warmup fall back to the defaults when <= 0.
func NewDriftMonitor(reg *Registry, maxDist float64, bands, warmup int) (*DriftMonitor, error) {
	return NewDriftMonitorNamed(reg, "rne_drift", maxDist, bands, warmup)
}

// NewDriftMonitorNamed registers the drift metric family under the
// given metric-name prefix (NewDriftMonitor uses "rne_drift"). The
// telemetry registry hands the same series back for the same
// name+labels, so two monitors on one registry would silently share
// gauges; a distinct prefix gives each watcher — e.g. the serving
// monitor vs the autoheal controller's truth-probing monitor — its own
// independent family.
func NewDriftMonitorNamed(reg *Registry, prefix string, maxDist float64, bands, warmup int) (*DriftMonitor, error) {
	if reg == nil {
		return nil, fmt.Errorf("telemetry: drift monitor needs a registry")
	}
	if prefix == "" {
		return nil, fmt.Errorf("telemetry: drift monitor needs a metric prefix")
	}
	if !(maxDist > 0) || math.IsInf(maxDist, 0) {
		return nil, fmt.Errorf("telemetry: drift monitor needs a positive finite max distance, got %v", maxDist)
	}
	if bands <= 0 {
		bands = DefaultDriftBands
	}
	if warmup <= 0 {
		warmup = DefaultDriftWarmup
	}
	d := &DriftMonitor{
		maxDist: maxDist,
		bands:   make([]*Histogram, bands),
		warmup:  warmup,
		alpha:   DefaultDriftAlpha,
		total: reg.Counter(prefix+"_observations_total",
			"Guarded queries observed by the accuracy-drift monitor."),
		scoreG: reg.Gauge(prefix+"_score",
			"Recent mean deviation over the frozen baseline (1 = no drift)."),
		recentG: reg.Gauge(prefix+"_recent_error",
			"Exponentially-weighted recent mean relative deviation."),
		baselineG: reg.Gauge(prefix+"_baseline_error",
			"Baseline mean relative deviation frozen after warmup."),
	}
	d.scoreG.Set(1)
	for i := range d.bands {
		d.bands[i] = reg.Histogram(prefix+"_band_error",
			"Relative deviation of raw estimates from certified-bound midpoints, by distance band.",
			RelErrorBuckets, "band", fmt.Sprintf("%02d", i))
	}
	// The bands are one family's series, so they share its bounds.
	nb := len(d.bands[0].counts)
	counts := make([]int64, bands*nb)
	d.tally = make([]bandTally, bands)
	for i := range d.tally {
		d.tally[i].counts = counts[i*nb : (i+1)*nb]
	}
	d.touched = make([]int, 0, bands)
	return d, nil
}

// DriftSnapshot is a point-in-time view of the monitor's summary state,
// for controllers that poll drift instead of scraping /metrics.
type DriftSnapshot struct {
	// Seen is the number of non-degenerate observations filed so far.
	Seen int
	// Warm reports whether the baseline has frozen (Seen > warmup).
	Warm bool
	// Baseline is the mean deviation over the warmup window (running
	// mean until frozen).
	Baseline float64
	// Recent is the exponentially-weighted recent mean deviation.
	Recent float64
	// Score is Recent/Baseline, the headline drift signal; 1 while the
	// baseline is still too small to divide by.
	Score float64
}

// Snapshot returns the monitor's current summary state. It reads the
// same fields Observe maintains, so a controller polling Snapshot sees
// exactly what the rne_*_score gauge exports.
func (d *DriftMonitor) Snapshot() DriftSnapshot {
	if d == nil {
		return DriftSnapshot{Score: 1}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := DriftSnapshot{
		Seen:     d.seen,
		Warm:     d.seen > d.warmup,
		Baseline: d.baseline,
		Recent:   d.ewma,
		Score:    1,
	}
	if d.baseline > 1e-12 {
		s.Score = d.ewma / d.baseline
	}
	return s
}

// DriftDeviation is the label-free error proxy the drift monitor
// files: the raw estimate's relative deviation from the certified
// interval midpoint. It returns ok=false for degenerate intervals
// (s == t, or non-finite values), which observers must skip. Exported
// so the offline replay harness scores queries with the exact formula
// the live monitor uses — a replayed log then reproduces the serving
// drift numbers instead of approximating them.
func DriftDeviation(raw, lo, hi float64) (errv float64, ok bool) {
	mid := (lo + hi) / 2
	if !(mid > 0) || math.IsInf(mid, 0) || math.IsNaN(raw) || math.IsInf(raw, 0) {
		return 0, false
	}
	return math.Abs(raw-mid) / mid, true
}

// DriftBand maps an interval midpoint to its distance band under the
// monitor's equal-width bucketing over [0, maxDist], clamping out-of-
// range midpoints to the edge bands. Shared with the replay harness so
// offline per-band aggregates line up with the live rne_drift_band_error
// histograms.
func DriftBand(mid, maxDist float64, bands int) int {
	band := int(float64(bands) * mid / maxDist)
	if band < 0 {
		band = 0
	}
	if band >= bands {
		band = bands - 1
	}
	return band
}

// Observe files one guarded query: raw is the unclamped model
// estimate, [lo, hi] the certified interval. Degenerate intervals
// (s == t, or non-finite bounds) are skipped.
func (d *DriftMonitor) Observe(raw, lo, hi float64) {
	d.ObserveAll([]float64{raw}, []float64{lo}, []float64{hi})
}

// ObserveAll files the guarded queries raw[i] against [lo[i], hi[i]]
// as that many Observe calls in order would, under one lock
// acquisition: the baseline and EWMA take the same steps, bit for bit,
// and the gauges are set once, to the final state. Each band histogram
// gets its bucket counts and one addition to its sum, the sum of the
// call's deviations in that band; that regrouping can move the
// exported _sum in its last bits against Observe's running sum (within
// 1e-12 relative). lo and hi must be as long as raw.
func (d *DriftMonitor) ObserveAll(raw, lo, hi []float64) {
	if d == nil {
		return
	}
	lo, hi = lo[:len(raw)], hi[:len(raw)]
	buckets := d.bands[0] // every band's buckets are band 0's
	d.mu.Lock()
	var filed int64
	for i, r := range raw {
		errv, ok := DriftDeviation(r, lo[i], hi[i])
		if !ok {
			continue
		}
		band := DriftBand((lo[i]+hi[i])/2, d.maxDist, len(d.bands))
		t := &d.tally[band]
		if t.n == 0 {
			d.touched = append(d.touched, band)
		}
		t.counts[buckets.bucket(errv)]++
		t.n++
		t.sum += errv
		filed++
		d.seen++
		if d.seen <= d.warmup {
			d.baseSum += errv
			d.baseline = d.baseSum / float64(d.seen)
			d.ewma = d.baseline
		} else {
			d.ewma += d.alpha * (errv - d.ewma)
		}
	}
	if filed == 0 {
		d.mu.Unlock()
		return
	}
	for _, band := range d.touched {
		t := &d.tally[band]
		d.bands[band].add(t.counts, t.n, t.sum)
		clear(t.counts)
		t.n, t.sum = 0, 0
	}
	d.touched = d.touched[:0]
	baseline, ewma := d.baseline, d.ewma
	d.mu.Unlock()

	d.total.Add(filed)
	d.baselineG.Set(baseline)
	d.recentG.Set(ewma)
	if baseline > 1e-12 {
		d.scoreG.Set(ewma / baseline)
	} else {
		d.scoreG.Set(1)
	}
}

// SetAlpha overrides the EWMA smoothing factor (DefaultDriftAlpha).
// Low-volume watchers — e.g. an autoheal controller feeding tens of
// probes per tick instead of thousands of queries per second — need a
// larger alpha so the recent-error estimate tracks a regime shift
// within a few ticks. Values outside (0, 1] are ignored. Call before
// observing; changing alpha mid-stream only affects later updates.
func (d *DriftMonitor) SetAlpha(alpha float64) {
	if !(alpha > 0) || alpha > 1 {
		return
	}
	d.mu.Lock()
	d.alpha = alpha
	d.mu.Unlock()
}

// Bands returns the number of distance bands.
func (d *DriftMonitor) Bands() int { return len(d.bands) }

// MaxDist returns the distance scale the bands were built over. After a
// model hot-swap the serving layer must rebuild its monitor so this
// tracks the new model's scale; exposing it lets swap tests assert that.
func (d *DriftMonitor) MaxDist() float64 { return d.maxDist }
