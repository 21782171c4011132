package telemetry

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestNewDriftMonitorValidation(t *testing.T) {
	if _, err := NewDriftMonitor(nil, 100, 0, 0); err == nil {
		t.Fatal("nil registry accepted")
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewDriftMonitor(NewRegistry(), bad, 0, 0); err == nil {
			t.Fatalf("max distance %v accepted", bad)
		}
	}
	d, err := NewDriftMonitor(NewRegistry(), 100, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Bands() != DefaultDriftBands {
		t.Fatalf("bands = %d, want default %d", d.Bands(), DefaultDriftBands)
	}
}

// A nil monitor ignores observations — guard-disabled servers need no
// checks on the query path.
func TestNilDriftMonitorObserve(t *testing.T) {
	var d *DriftMonitor
	d.Observe(1, 0.5, 1.5)
	d.ObserveAll([]float64{1}, []float64{0.5}, []float64{1.5})
}

func TestDriftScoreRisesOnDecay(t *testing.T) {
	reg := NewRegistry()
	d, err := NewDriftMonitor(reg, 1000, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Warmup traffic: raw estimates within 1% of the certified midpoint.
	for i := 0; i < 100; i++ {
		d.Observe(101, 90, 110) // mid = 100, err = 1%
	}
	if got := d.scoreG.Value(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("score after clean warmup = %v, want 1", got)
	}
	base := d.baselineG.Value()
	if math.Abs(base-0.01) > 1e-9 {
		t.Fatalf("baseline = %v, want 0.01", base)
	}
	// The model decays: 50% deviation. The EWMA is slow by design, but
	// the score must move up and the baseline stay frozen.
	for i := 0; i < 2000; i++ {
		d.Observe(150, 90, 110)
	}
	if got := d.baselineG.Value(); got != base {
		t.Fatalf("baseline moved after warmup: %v -> %v", base, got)
	}
	if got := d.scoreG.Value(); got < 2 {
		t.Fatalf("drift score = %v after sustained decay, want substantially > 1", got)
	}

	// Degenerate observations are skipped entirely.
	n := d.total.Value()
	d.Observe(1, 0, 0)                     // zero midpoint
	d.Observe(math.NaN(), 90, 110)         // NaN raw
	d.Observe(5, math.Inf(1), math.Inf(1)) // infinite bounds
	if got := d.total.Value(); got != n {
		t.Fatalf("degenerate observations counted: %d -> %d", n, got)
	}
}

// Observations land in the distance band of their certified midpoint,
// and the band histograms export cleanly.
func TestDriftBandsPartitionByDistance(t *testing.T) {
	reg := NewRegistry()
	d, err := NewDriftMonitor(reg, 100, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	d.Observe(10, 9, 11)     // mid 10  -> band 0
	d.Observe(60, 55, 65)    // mid 60  -> band 2
	d.Observe(990, 980, 1e3) // mid 990 beyond maxDist -> clamped to last band
	for band, want := range map[int]int64{0: 1, 1: 0, 2: 1, 3: 1} {
		if got := d.bands[band].Count(); got != want {
			t.Fatalf("band %d count = %d, want %d", band, got, want)
		}
	}
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if err := CheckExposition(strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `rne_drift_band_error_bucket{band="02",`) {
		t.Fatalf("band label missing:\n%s", sb.String())
	}
}

// driftPairs returns n guarded pairs over distances up to 1,200: raw
// estimates inside and outside their intervals, with an s == t pair
// (all zero) and a NaN estimate among every 17.
func driftPairs(n int) (raw, lo, hi []float64) {
	rng := rand.New(rand.NewSource(5))
	raw, lo, hi = make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range raw {
		lo[i] = rng.Float64() * 1200
		hi[i] = lo[i] + rng.Float64()*300
		raw[i] = lo[i] + (rng.Float64()*1.6-0.3)*(hi[i]-lo[i])
		switch i % 17 {
		case 0:
			raw[i], lo[i], hi[i] = 0, 0, 0
		case 5:
			raw[i] = math.NaN()
		}
	}
	return raw, lo, hi
}

// TestObserveAllMatchesObserve files the same pairs through one
// Observe call each, one ObserveAll call, and ObserveAll calls of 256
// pairs, on three monitors whose warmup ends mid-stream. Their state
// and gauges must agree bit for bit and their bands' bucket counts
// exactly; band sums, regrouped per call, within 1e-12 relative.
func TestObserveAllMatchesObserve(t *testing.T) {
	raw, lo, hi := driftPairs(3000)
	monitor := func() *DriftMonitor {
		d, err := NewDriftMonitor(NewRegistry(), 1000, 8, 700)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	one, all, chunked := monitor(), monitor(), monitor()
	for i := range raw {
		one.Observe(raw[i], lo[i], hi[i])
	}
	all.ObserveAll(raw, lo, hi)
	for i := 0; i < len(raw); i += 256 {
		end := min(i+256, len(raw))
		chunked.ObserveAll(raw[i:end], lo[i:end], hi[i:end])
	}
	want := one.Snapshot()
	if !want.Warm || want.Seen < 2500 {
		t.Fatalf("reference monitor saw %d pairs (warm %v): the stream should pass warmup", want.Seen, want.Warm)
	}
	bits := math.Float64bits
	for name, d := range map[string]*DriftMonitor{"one call": all, "256-pair calls": chunked} {
		got := d.Snapshot()
		if got.Seen != want.Seen || got.Warm != want.Warm || bits(got.Baseline) != bits(want.Baseline) ||
			bits(got.Recent) != bits(want.Recent) || bits(got.Score) != bits(want.Score) {
			t.Errorf("%s: snapshot %+v, Observe gives %+v", name, got, want)
		}
		for _, g := range []struct {
			metric    string
			got, want *Gauge
		}{{"score", d.scoreG, one.scoreG}, {"recent", d.recentG, one.recentG}, {"baseline", d.baselineG, one.baselineG}} {
			if bits(g.got.Value()) != bits(g.want.Value()) {
				t.Errorf("%s: %s gauge %v, Observe gives %v", name, g.metric, g.got.Value(), g.want.Value())
			}
		}
		if got, want := d.total.Value(), one.total.Value(); got != want {
			t.Errorf("%s: %d observations counted, Observe counts %d", name, got, want)
		}
		for band := range d.bands {
			got, want := d.bands[band].Snapshot(), one.bands[band].Snapshot()
			if got.Count != want.Count || !slices.Equal(got.Counts, want.Counts) {
				t.Errorf("%s: band %d counts %v (%d), Observe gives %v (%d)", name, band, got.Counts, got.Count, want.Counts, want.Count)
			}
			if math.Abs(got.Sum-want.Sum) > 1e-12*math.Abs(want.Sum) {
				t.Errorf("%s: band %d sum %v, Observe gives %v", name, band, got.Sum, want.Sum)
			}
		}
	}
}

// ObserveAll is safe from many goroutines at once: every pair is filed
// once, in the count, the running state and the band histograms.
func TestObserveAllConcurrent(t *testing.T) {
	raw, lo, hi := driftPairs(1024)
	d, err := NewDriftMonitor(NewRegistry(), 1000, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * 16; i < len(raw); i += 256 {
				end := min(i+256, len(raw))
				d.ObserveAll(raw[i:end], lo[i:end], hi[i:end])
				d.Observe(raw[1], lo[1], hi[1])
			}
		}()
	}
	wg.Wait()
	want := 0
	for w := range workers {
		for i := w * 16; i < len(raw); i += 256 {
			want++ // the Observe call
			for j := i; j < min(i+256, len(raw)); j++ {
				if _, ok := DriftDeviation(raw[j], lo[j], hi[j]); ok {
					want++
				}
			}
		}
	}
	var banded int64
	for _, b := range d.bands {
		banded += b.Count()
	}
	if got := d.Snapshot().Seen; got != want || d.total.Value() != int64(want) || banded != int64(want) {
		t.Fatalf("filed %d pairs: seen %d, counted %d, in bands %d", want, got, d.total.Value(), banded)
	}
}

// BenchmarkDriftObserveAll files 256 guarded pairs, a replica's chunk,
// per op: one Observe call each, or one ObserveAll call.
func BenchmarkDriftObserveAll(b *testing.B) {
	raw, lo, hi := driftPairs(256)
	monitor := func(b *testing.B) *DriftMonitor {
		d, err := NewDriftMonitor(NewRegistry(), 1000, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		return d
	}
	b.Run("observe", func(b *testing.B) {
		d := monitor(b)
		for range b.N {
			for i := range raw {
				d.Observe(raw[i], lo[i], hi[i])
			}
		}
	})
	b.Run("observe_all", func(b *testing.B) {
		d := monitor(b)
		for range b.N {
			d.ObserveAll(raw, lo, hi)
		}
	})
}
