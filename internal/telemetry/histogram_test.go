package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestHistogramObserveAndSnapshot(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, math.NaN()} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5 (NaN dropped)", got)
	}
	if got := h.Sum(); got != 556.5 {
		t.Fatalf("sum = %v, want 556.5", got)
	}
	s := h.Snapshot()
	// le semantics: 1 is inclusive in the first bucket.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	h.ObserveDuration(5 * time.Second)
	if got := h.Snapshot().Counts[1]; got != 2 {
		t.Fatalf("ObserveDuration(5s) not in the le=10 bucket: %d", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile not NaN")
	}
	// 10 observations uniform in (0,1]: the median interpolates inside
	// the first bucket, from zero.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	if got := h.Quantile(0.5); got != 0.5 {
		t.Fatalf("p50 = %v, want 0.5 (linear within first bucket)", got)
	}
	if got := h.Quantile(1); got != 1.0 {
		t.Fatalf("p100 = %v, want upper bound 1", got)
	}
	h.Observe(100) // overflow
	if got := h.Quantile(1); got != 4 {
		t.Fatalf("overflow quantile = %v, want last finite bound 4", got)
	}
	if !math.IsNaN(h.Quantile(-0.1)) || !math.IsNaN(h.Quantile(1.1)) {
		t.Fatal("out-of-range q not NaN")
	}
}

// TestQuantileInterpolationError pins the quantile estimator's error
// on a known distribution: 10k observations uniform on (0, 1e-3],
// spanning ten latency buckets. Linear interpolation within the
// containing bucket must land within 2% of the exact order statistic;
// an estimator that returns the bucket upper bound instead would be
// off by 11% at p90 (returning 1e-3 where the truth is 9e-4), which
// the tolerance rejects.
func TestQuantileInterpolationError(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i) / n * 1e-3)
	}
	for _, tc := range []struct{ q, exact float64 }{
		{0.50, 0.5e-3},
		{0.90, 0.9e-3},
		{0.99, 0.99e-3},
		{0.999, 0.999e-3},
	} {
		got := h.Quantile(tc.q)
		if relErr := math.Abs(got-tc.exact) / tc.exact; relErr > 0.02 {
			t.Errorf("q=%v: got %v want %v (rel err %.3f > 0.02)", tc.q, got, tc.exact, relErr)
		}
	}
	// The p90 bucket is (5e-4, 1e-3]: the upper bound is 11% high, so
	// interpolation must not degenerate to it.
	if got := h.Quantile(0.90); got >= 1e-3 {
		t.Fatalf("p90 = %v: estimator returned the bucket upper bound instead of interpolating", got)
	}
}

// A rank landing exactly on the boundary below an empty bucket must
// resolve to the boundary, not the empty bucket's upper bound.
func TestQuantileEmptyBucketBoundary(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	if got := h.Quantile(0); !math.IsNaN(got) {
		t.Fatalf("q=0 on empty histogram = %v, want NaN", got)
	}
	h.Observe(3) // only the (2,4] bucket is populated
	if got := h.Quantile(0); got != 2 {
		t.Fatalf("q=0 = %v, want lower boundary 2 of the populated bucket (not an empty bucket's upper bound)", got)
	}
}

// Merging per-client snapshots is associative and commutative: the
// fleet quantiles cannot depend on which order clients are folded in.
func TestSnapshotMergeAssociative(t *testing.T) {
	mk := func(seed int64, n int) HistSnapshot {
		h := newHistogram(LatencyBuckets)
		v := uint64(seed)*2862933555777941757 + 3037000493
		for i := 0; i < n; i++ {
			v = v*2862933555777941757 + 3037000493
			h.Observe(float64(v%1000000) * 1e-9)
		}
		return h.Snapshot()
	}
	a, b, c := mk(1, 500), mk(2, 900), mk(3, 50)
	merge := func(x, y HistSnapshot) HistSnapshot {
		m, err := x.Merge(y)
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		return m
	}
	left := merge(merge(a, b), c)
	right := merge(a, merge(b, c))
	swapped := merge(merge(c, a), b)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		l, r, s := left.Quantile(q), right.Quantile(q), swapped.Quantile(q)
		if l != r || l != s {
			t.Errorf("q=%v: merge order changed the quantile: %v vs %v vs %v", q, l, r, s)
		}
	}
	if left.Count != a.Count+b.Count+c.Count {
		t.Errorf("merged count %d, want %d", left.Count, a.Count+b.Count+c.Count)
	}
	if _, err := a.Merge(HistSnapshot{Bounds: []float64{1}, Counts: make([]int64, 2)}); err == nil {
		t.Error("merging mismatched bounds did not error")
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1e-5, 10, 5)
	if b[0] != 1e-5 {
		t.Fatalf("first bound %v, want 1e-5", b[0])
	}
	if last := b[len(b)-1]; last < 10 {
		t.Fatalf("last bound %v does not reach 10", last)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v <= %v", i, b[i], b[i-1])
		}
		if ratio := b[i] / b[i-1]; ratio > 2.0 {
			t.Fatalf("bucket ratio %v at %d too coarse for 5/decade", ratio, i)
		}
	}
	// The bounds must be valid histogram input.
	newHistogram(b)
}

// Concurrent Observe and Snapshot keep totals consistent: run under
// -race, and the final counts must equal the observations made.
func TestHistogramConcurrentObserveSnapshot(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		// Concurrent readers: snapshots must never tear (no negative
		// or wildly inconsistent totals) while writes are in flight.
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var sum int64
			for _, c := range s.Counts {
				sum += c
			}
			if sum > workers*per || s.Count > workers*per {
				t.Errorf("snapshot overshoot: buckets %d count %d", sum, s.Count)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per+i) * 1e-6)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	s := h.Snapshot()
	var sum int64
	for _, c := range s.Counts {
		sum += c
	}
	if s.Count != workers*per || sum != workers*per {
		t.Fatalf("count = %d bucket sum = %d, want %d", s.Count, sum, workers*per)
	}
}

// bucket, which starts its search from the value's binary octave, finds
// the bucket sort.SearchFloat64s does, for bounds with and without a
// non-positive one, at and next to every bound and across the double
// range.
func TestBucketMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, bounds := range [][]float64{
		RelErrorBuckets, LatencyBuckets, LogBuckets(1e-6, 30, 10),
		{-5, 0, 0.5, 3}, {0, 1}, {5e-324, 1e-300, 1, 1e300}, {math.MaxFloat64}, {1},
	} {
		h := newHistogram(bounds)
		vals := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
			5e-324, 0x1p-1022, math.MaxFloat64, -1}
		for _, b := range bounds {
			vals = append(vals, b, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1)), b/2, b*2)
		}
		for range 20000 {
			vals = append(vals, math.Float64frombits(rng.Uint64()), rng.ExpFloat64()*bounds[len(bounds)-1])
		}
		for _, v := range vals {
			if got, want := h.bucket(v), sort.SearchFloat64s(bounds, v); got != want {
				t.Fatalf("bounds %v: bucket(%v) = %d, want %d", bounds, v, got, want)
			}
		}
	}
}
