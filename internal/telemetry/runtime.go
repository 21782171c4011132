package telemetry

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// Runtime metric names exported by RegisterRuntimeMetrics. A load
// harness joins these against client-observed latency to attribute a
// p99 knee to GC pressure or goroutine pileup rather than guessing.
const (
	MetricGoroutines = "rne_go_goroutines"
	MetricHeapBytes  = "rne_go_heap_bytes"
	MetricGCCycles   = "rne_go_gc_cycles_total"
	MetricGCPauses   = "rne_go_gc_pause_seconds"
)

// runtime/metrics keys backing the exported gauges.
const (
	keyGoroutines = "/sched/goroutines:goroutines"
	keyHeapBytes  = "/memory/classes/heap/objects:bytes"
	keyGCCycles   = "/gc/cycles/total:gc-cycles"
	keyGCPauses   = "/gc/pauses:seconds"
)

// GCPauseBuckets are the stable bounds the runtime's GC pause
// distribution is re-bucketed onto for exposition: 1µs to 100ms,
// five buckets per decade. The runtime's own bucket layout is an
// implementation detail that varies across Go releases; a fixed
// layout keeps scrapes comparable across binaries and versions.
var GCPauseBuckets = LogBuckets(1e-6, 0.1, 5)

// runtimeSampler reads the runtime/metrics samples behind the exported
// series, at most once per refresh interval so one /metrics scrape
// (which evaluates each metric's func in turn) sees a single coherent
// read instead of four.
type runtimeSampler struct {
	mu      sync.Mutex
	last    time.Time
	samples []metrics.Sample
	idx     map[string]int
}

const runtimeRefresh = 100 * time.Millisecond

func newRuntimeSampler() *runtimeSampler {
	keys := []string{keyGoroutines, keyHeapBytes, keyGCCycles, keyGCPauses}
	s := &runtimeSampler{
		samples: make([]metrics.Sample, len(keys)),
		idx:     make(map[string]int, len(keys)),
	}
	for i, k := range keys {
		s.samples[i].Name = k
		s.idx[k] = i
	}
	return s
}

func (s *runtimeSampler) refreshLocked() {
	if time.Since(s.last) < runtimeRefresh {
		return
	}
	metrics.Read(s.samples)
	s.last = time.Now()
}

// value returns the named sample as a float64 (uint64 kinds widened;
// unsupported kinds read 0, so a future runtime dropping a metric
// degrades to a zero series instead of panicking the scrape).
func (s *runtimeSampler) value(key string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	sm := s.samples[s.idx[key]]
	switch sm.Value.Kind() {
	case metrics.KindUint64:
		return float64(sm.Value.Uint64())
	case metrics.KindFloat64:
		return sm.Value.Float64()
	default:
		return 0
	}
}

// pauses re-buckets the runtime's cumulative GC pause histogram onto
// GCPauseBuckets. Each runtime bucket's count lands in the fixed
// bucket containing its midpoint (geometric, matching the log bucket
// layout); Sum is approximated from the same midpoints, since the
// runtime histogram does not carry an exact sum.
func (s *runtimeSampler) pauses() HistSnapshot {
	out := HistSnapshot{
		Bounds: GCPauseBuckets,
		Counts: make([]int64, len(GCPauseBuckets)+1),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	sm := s.samples[s.idx[keyGCPauses]]
	if sm.Value.Kind() != metrics.KindFloat64Histogram {
		return out
	}
	h := sm.Value.Float64Histogram()
	if h == nil {
		return out
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := bucketMidpoint(lo, hi)
		// Find the first fixed bound >= mid; beyond the last bound the
		// count lands in the overflow bucket.
		j := 0
		for j < len(out.Bounds) && out.Bounds[j] < mid {
			j++
		}
		out.Counts[j] += int64(c)
		out.Count += int64(c)
		out.Sum += float64(c) * mid
	}
	return out
}

// bucketMidpoint picks a representative point of one runtime bucket
// [lo, hi): the geometric mean for finite positive edges, else
// whichever edge is finite.
func bucketMidpoint(lo, hi float64) float64 {
	loOK := !math.IsInf(lo, 0) && lo > 0
	hiOK := !math.IsInf(hi, 0) && hi > 0
	switch {
	case loOK && hiOK:
		return math.Sqrt(lo * hi)
	case hiOK:
		return hi
	case loOK:
		return lo
	default:
		return 0
	}
}

// RegisterRuntimeMetrics exports Go runtime telemetry on reg via
// runtime/metrics: goroutine count and live heap bytes as gauges, the
// GC cycle counter, and the cumulative GC pause distribution as a
// histogram on stable bounds. Idempotent per registry (re-registration
// keeps the first sampler); called by resilience.NewStats so every
// serving binary's /metrics carries the runtime block without
// per-binary wiring.
func RegisterRuntimeMetrics(reg *Registry) {
	s := newRuntimeSampler()
	reg.GaugeFunc(MetricGoroutines,
		"Live goroutines in the serving process.",
		func() float64 { return s.value(keyGoroutines) })
	reg.GaugeFunc(MetricHeapBytes,
		"Bytes of live heap objects (runtime/metrics /memory/classes/heap/objects).",
		func() float64 { return s.value(keyHeapBytes) })
	reg.CounterFunc(MetricGCCycles,
		"Completed GC cycles since process start.",
		func() float64 { return s.value(keyGCCycles) })
	reg.HistogramFunc(MetricGCPauses,
		"Stop-the-world GC pause durations, re-bucketed onto stable bounds.",
		s.pauses)
}
