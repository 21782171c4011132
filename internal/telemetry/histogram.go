package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// LatencyBuckets spans 1µs to 2.5s in a 1-2.5-5 progression — wide
// enough for both the nanosecond-scale query kernel (rounded up into
// the first bucket) and slow, contended HTTP requests.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
}

// LogBuckets returns log-spaced bucket bounds from min to at least max
// with perDecade buckets per factor of ten — the HDR-style layout a
// load generator wants: constant *relative* quantile resolution
// (within one bucket ratio) across six or more decades of latency.
// Bounds are snapped to one decimal digit of mantissa so the rendered
// exposition stays readable. Panics on invalid arguments, like the
// histogram constructors it feeds.
func LogBuckets(min, max float64, perDecade int) []float64 {
	if !(min > 0) || !(max > min) || perDecade < 1 {
		panic(fmt.Sprintf("telemetry: invalid LogBuckets(%v, %v, %d)", min, max, perDecade))
	}
	ratio := math.Pow(10, 1/float64(perDecade))
	var out []float64
	for v := min; ; v *= ratio {
		// Snap to two significant decimal digits so neighboring bounds
		// stay distinct and human-readable (1, 1.6, 2.5, 4, 6.3, ...).
		b, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 2, 64), 64)
		if len(out) > 0 && b <= out[len(out)-1] {
			continue
		}
		out = append(out, b)
		if b >= max {
			return out
		}
	}
}

// RelErrorBuckets spans 0.1% to 250% relative error, matching the
// sub-percent mean errors the paper reports while keeping room for the
// heavy tails the drift monitor exists to catch.
var RelErrorBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Histogram counts observations into fixed buckets with lock-free
// atomics, cheap enough for the per-request serving path. Bucket
// bounds are inclusive upper limits (Prometheus le semantics); values
// above the last bound land in an implicit +Inf overflow bucket.
type Histogram struct {
	bounds []float64      // strictly increasing, finite
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	// start[k-startMin], for positive bounds, is the first bucket whose
	// bound is at least the smallest positive float64 whose bits shifted
	// right by sliceShift are k: where bucket begins its search for a
	// value in that slice, one eighth of a binary octave.
	start    []uint8
	startMin uint64
	count    atomic.Int64
	sumBits  atomic.Uint64

	// exemplars, when enabled, holds one slot per bucket (last-write
	// wins) linking the bucket to a stored trace.
	exemplars atomic.Pointer[[]atomic.Pointer[Exemplar]]
}

// Exemplar links one histogram bucket to a concrete traced request:
// the observation that landed there, when, and which trace shows why
// it took that long. Rendered in the exposition as an OpenMetrics-style
// `# {trace_id="..."} value timestamp` suffix on _bucket lines.
type Exemplar struct {
	TraceID      string
	Value        float64
	TimeUnixNano int64
}

// EnableExemplars arms per-bucket exemplar capture. Call at setup,
// before the histogram is observed concurrently. Idempotent.
func (h *Histogram) EnableExemplars() {
	if h.exemplars.Load() != nil {
		return
	}
	slots := make([]atomic.Pointer[Exemplar], len(h.counts))
	h.exemplars.CompareAndSwap(nil, &slots)
}

// ObserveExemplar is Observe plus, when exemplars are enabled and
// traceID is non-empty, an exemplar stamped onto the bucket the value
// landed in (last write wins — under load the freshest trace is the
// most useful one). Cost over Observe: one atomic pointer store and
// one small allocation, only for sampled (traceID != "") requests.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if math.IsNaN(v) {
		return
	}
	h.Observe(v)
	if traceID == "" {
		return
	}
	slots := h.exemplars.Load()
	if slots == nil {
		return
	}
	(*slots)[h.bucket(v)].Store(&Exemplar{
		TraceID:      traceID,
		Value:        v,
		TimeUnixNano: time.Now().UnixNano(),
	})
}

// bucketExemplar returns bucket i's exemplar (nil when absent or
// exemplars are disabled). Index len(bounds) is the +Inf bucket.
func (h *Histogram) bucketExemplar(i int) *Exemplar {
	slots := h.exemplars.Load()
	if slots == nil || i < 0 || i >= len(*slots) {
		return nil
	}
	return (*slots)[i].Load()
}

// NewHistogram returns a standalone histogram over the given bucket
// upper bounds (strictly increasing, finite; +Inf implicit), not
// registered on any Registry — for client-side measurements such as
// rneload's per-route latencies, which must not appear on /metrics.
func NewHistogram(bounds []float64) *Histogram { return newHistogram(bounds) }

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("telemetry: non-finite histogram bound %v", b))
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not strictly increasing at %v", b))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	lo := math.Float64bits(bounds[0]) >> sliceShift
	if hi := math.Float64bits(bounds[len(bounds)-1]) >> sliceShift; bounds[0] > 0 && hi-lo < maxSlices && len(bounds) <= math.MaxUint8 {
		h.startMin = lo
		h.start = make([]uint8, hi-lo+1)
		for i := range h.start {
			h.start[i] = uint8(sort.SearchFloat64s(h.bounds, math.Float64frombits((lo+uint64(i))<<sliceShift)))
		}
	}
	return h
}

// Observe records one value. NaN observations are dropped — a NaN sum
// would poison every later mean.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// The bits of positive float64s order them as their values do, so the
// bits shifted right by sliceShift cut the positive numbers into
// slices of an eighth of a binary octave; a histogram of up to 255
// bounds spanning fewer than maxSlices of them keeps a start table.
const (
	sliceShift = 52 - 3
	maxSlices  = 1 << 10
)

// bucket returns the index of the bucket v counts in: the first bound
// at or above v, or len(bounds), the overflow bucket, for a v above
// every bound or NaN. With a start table it begins at the first bound
// in or above v's slice, so it seldom compares v with a bound at all.
func (h *Histogram) bucket(v float64) int {
	i := 0
	if h.start != nil && v > 0 {
		switch k := math.Float64bits(v) >> sliceShift; {
		case k < h.startMin: // below the first bound's slice
			return 0
		case k-h.startMin >= uint64(len(h.start)): // above the last bound's
			return len(h.bounds)
		default:
			i = int(h.start[k-h.startMin])
		}
	}
	for i < len(h.bounds) && !(h.bounds[i] >= v) {
		i++
	}
	return i
}

// add files n observations at once: counts[i] of them in bucket i,
// with sum their total.
func (h *Histogram) add(counts []int64, n int64, sum float64) {
	for i, c := range counts {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(n)
	h.addSum(sum)
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records d in seconds, the Prometheus base unit.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// HistSnapshot is a point-in-time copy of a histogram. Each field is
// read atomically but the fields are not mutually synchronized: under
// concurrent writes the totals may disagree by in-flight observations,
// which is the usual (and harmless) Prometheus client behavior.
type HistSnapshot struct {
	Bounds []float64 // upper bounds, +Inf implicit
	Counts []int64   // per-bucket counts (not cumulative), len(Bounds)+1
	Count  int64
	Sum    float64
}

// Snapshot copies the current bucket counts, total and sum.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Merge returns the bucket-wise sum of two snapshots taken from
// histograms with identical bounds — the reduction step that folds
// per-client (or per-shard) histograms into one fleet view. Merging is
// commutative and associative, so quantiles computed from the result
// do not depend on the order clients are folded in.
func (s HistSnapshot) Merge(o HistSnapshot) (HistSnapshot, error) {
	if len(s.Bounds) != len(o.Bounds) {
		return HistSnapshot{}, fmt.Errorf("telemetry: merging histograms with %d vs %d bounds",
			len(s.Bounds), len(o.Bounds))
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return HistSnapshot{}, fmt.Errorf("telemetry: merging histograms with different bounds at %d: %v vs %v",
				i, s.Bounds[i], o.Bounds[i])
		}
	}
	m := HistSnapshot{
		Bounds: s.Bounds,
		Counts: make([]int64, len(s.Counts)),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
	}
	for i := range s.Counts {
		m.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	return m, nil
}

// Sub returns the observations recorded between prev and s — the
// windowed view a periodic controller needs from a cumulative
// histogram. Both snapshots must come from the same histogram; counts
// are clamped at zero so a mismatched pair degrades to an empty window
// instead of negative buckets.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	d := HistSnapshot{
		Bounds: s.Bounds,
		Counts: make([]int64, len(s.Counts)),
		Count:  s.Count - prev.Count,
		Sum:    s.Sum - prev.Sum,
	}
	if d.Count < 0 {
		d.Count = 0
	}
	for i := range s.Counts {
		if i < len(prev.Counts) {
			d.Counts[i] = s.Counts[i] - prev.Counts[i]
		} else {
			d.Counts[i] = s.Counts[i]
		}
		if d.Counts[i] < 0 {
			d.Counts[i] = 0
		}
	}
	return d
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation within the containing bucket, the same estimate
// Prometheus's histogram_quantile computes. The first bucket
// interpolates from zero (observations are assumed non-negative);
// quantiles landing in the overflow bucket return the last finite
// bound. A rank that lands exactly on a bucket boundary resolves to
// that boundary (the upper edge of the populated bucket below it) —
// never the upper bound of the empty bucket above, which would
// overstate the quantile by a full bucket width. Returns NaN on an
// empty histogram or out-of-range q.
func (s HistSnapshot) Quantile(q float64) float64 {
	total := int64(0)
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			// The rank sits on this empty bucket's boundary (only
			// reachable at rank 0): walk on to the first populated
			// bucket, whose lower edge is the quantile — returning
			// this bucket's upper bound would overstate it by a full
			// bucket width.
			continue
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Quantile is Snapshot().Quantile(q).
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }
