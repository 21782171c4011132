package resilience

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func newTestLimiter(t *testing.T, cfg AdmissionConfig, reg *telemetry.Registry) *AdaptiveLimiter {
	t.Helper()
	l, err := NewAdaptiveLimiter(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// forceAdjust runs one adaptation pass over whatever the window holds,
// bypassing the wall-clock interval gate.
func forceAdjust(l *AdaptiveLimiter) {
	l.lastNS.Store(time.Now().Add(-2 * l.cfg.Interval).UnixNano())
	l.maybeAdjust()
}

func TestAdmissionConfigValidation(t *testing.T) {
	if _, err := NewAdaptiveLimiter(AdmissionConfig{}, nil); err == nil {
		t.Fatal("zero TargetP99 accepted")
	}
	if _, err := NewAdaptiveLimiter(AdmissionConfig{TargetP99: time.Second, Min: 10, Max: 5}, nil); err == nil {
		t.Fatal("Min > Max accepted")
	}
	l := newTestLimiter(t, AdmissionConfig{TargetP99: time.Second, Initial: 1, Min: 8}, nil)
	if l.Limit() != 8 {
		t.Fatalf("Initial below Min not clamped: %d", l.Limit())
	}
}

// AIMD: a window whose p99 blows the target shrinks the limit
// multiplicatively; a window that runs at the limit under target grows
// it additively; an idle window leaves it alone.
func TestAdaptiveLimiterAIMD(t *testing.T) {
	l := newTestLimiter(t, AdmissionConfig{
		TargetP99: 10 * time.Millisecond,
		Initial:   100, Min: 4, Max: 200,
		Step: 4, Backoff: 0.5,
	}, telemetry.NewRegistry())

	// Slow window: p99 ~ 100ms >> 10ms target.
	for i := 0; i < 50; i++ {
		if !l.Acquire(PriorityNormal) {
			t.Fatal("under-limit acquire refused")
		}
		l.Release(100 * time.Millisecond)
	}
	forceAdjust(l)
	if got := l.Limit(); got != 50 {
		t.Fatalf("limit after over-target window = %d, want 50 (100 * 0.5)", got)
	}

	// Fast windows at the limit: additive growth.
	for win := 0; win < 3; win++ {
		limit := l.Limit()
		// Push in-flight to the limit so winMax records saturation.
		var release []func()
		for i := 0; i < limit; i++ {
			if !l.Acquire(PriorityNormal) {
				t.Fatalf("acquire %d/%d refused", i, limit)
			}
			release = append(release, func() { l.Release(time.Millisecond) })
		}
		for _, f := range release {
			f()
		}
		forceAdjust(l)
		if got := l.Limit(); got != limit+4 {
			t.Fatalf("limit after at-limit fast window = %d, want %d", got, limit+4)
		}
	}

	// Fast window far below the limit: no growth (idle must not ratchet).
	limit := l.Limit()
	l.Acquire(PriorityNormal)
	l.Release(time.Millisecond)
	forceAdjust(l)
	if got := l.Limit(); got != limit {
		t.Fatalf("limit grew to %d on an idle window (was %d)", got, limit)
	}

	// The floor holds under sustained overload.
	for win := 0; win < 20; win++ {
		l.Acquire(PriorityNormal)
		l.Release(time.Second)
		forceAdjust(l)
	}
	if got := l.Limit(); got != 4 {
		t.Fatalf("limit under sustained overload = %d, want floor 4", got)
	}
}

// Priority shedding: critical always admits, batch sheds before normal.
func TestAdaptivePrioritySheds(t *testing.T) {
	reg := telemetry.NewRegistry()
	l := newTestLimiter(t, AdmissionConfig{
		TargetP99: time.Second,
		Initial:   8, Min: 8, Max: 8,
		BatchReserve: 0.25, // batch admits only below 6 in-flight
	}, reg)

	// Fill to the batch threshold: 6 of 8 slots.
	for i := 0; i < 6; i++ {
		if !l.Acquire(PriorityNormal) {
			t.Fatalf("normal acquire %d refused below limit", i)
		}
	}
	if l.Acquire(PriorityBatch) {
		t.Fatal("batch admitted into the reserved headroom")
	}
	if !l.Acquire(PriorityNormal) {
		t.Fatal("normal refused while headroom remains")
	}
	if !l.Acquire(PriorityNormal) {
		t.Fatal("normal refused at limit-1")
	}
	if l.Acquire(PriorityNormal) {
		t.Fatal("normal admitted past the limit")
	}
	if !l.Acquire(PriorityCritical) {
		t.Fatal("critical shed at saturation")
	}
	if l.shedByPriority[PriorityBatch].Value() != 1 || l.shedByPriority[PriorityNormal].Value() != 1 {
		t.Fatalf("shed counters: batch=%d normal=%d, want 1 and 1",
			l.shedByPriority[PriorityBatch].Value(), l.shedByPriority[PriorityNormal].Value())
	}
}

func TestPriorityForPath(t *testing.T) {
	cases := map[string]Priority{
		"/healthz":      PriorityCritical,
		"/readyz":       PriorityCritical,
		"/metrics":      PriorityCritical,
		"/admin/reload": PriorityCritical,
		"/batch":        PriorityBatch,
		"/distance":     PriorityNormal,
		"/knn":          PriorityNormal,
		"/explain":      PriorityNormal,
	}
	for path, want := range cases {
		if got := PriorityForPath(path); got != want {
			t.Errorf("PriorityForPath(%q) = %v, want %v", path, got, want)
		}
	}
}

// End-to-end through Wrap: a saturated adaptive server sheds /batch
// with 429 while /healthz keeps answering, the admit-limit gauge and
// shed-by-priority counters appear on /metrics, and concurrent load
// leaves the accounting consistent (run with -race).
func TestAdaptiveWrapEndToEnd(t *testing.T) {
	st := NewStats()
	release := make(chan struct{})
	entered := make(chan struct{}, 64)
	mux := http.NewServeMux()
	slow := func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		fmt.Fprint(w, "ok")
	}
	mux.HandleFunc("/distance", slow)
	mux.HandleFunc("/batch", slow)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "alive") })
	h := Wrap(mux, Options{
		Admission: &AdmissionConfig{TargetP99: time.Second, Initial: 4, Min: 4, Max: 4, BatchReserve: 0.25},
		Timeout:   -1,
		Stats:     st,
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Occupy 3 of 4 slots (the batch threshold) with /distance.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/distance")
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 3; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("handlers did not start")
		}
	}
	// Batch is shed at the reserve threshold while a normal request and
	// the health probe still pass.
	resp, body := get(t, ts.URL+"/batch")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch at threshold: %d %q", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed batch missing Retry-After")
	}
	resp, _ = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health probe shed at saturation: %d", resp.StatusCode)
	}
	close(release)
	wg.Wait()

	_, metrics := get(t, ts.URL+"/healthz")
	_ = metrics
	var buf strings.Builder
	if _, err := st.Registry().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"rne_admit_limit 4",
		`rne_admit_shed_total{priority="batch"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
	if st.Snapshot().Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Snapshot().Shed)
	}
}
