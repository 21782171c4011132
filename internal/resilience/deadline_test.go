package resilience

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func stuckHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	})
}

// A forwarded budget tighter than the local timeout produces 504 (the
// client's budget ran out), not 503 (the replica's own limit).
func TestDeadlineBudgetExhaustionIs504(t *testing.T) {
	st := NewStats()
	h := Wrap(stuckHandler(), Options{Timeout: 10 * time.Second, Stats: st})
	ts := httptest.NewServer(h)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	req.Header.Set(BudgetHeader, "30") // 30ms budget
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("budget exhaustion = %d, want 504", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if _, err := strconv.ParseFloat(ra, 64); err != nil {
		t.Fatalf("504 missing numeric Retry-After: %q", ra)
	}

	var buf strings.Builder
	st.Registry().WriteTo(&buf)
	if !strings.Contains(buf.String(), `rne_deadline_exhausted_total{source="budget"} 1`) {
		t.Fatalf("budget exhaustion not counted:\n%s", buf.String())
	}
}

// A budget already spent on arrival is answered 504 without invoking
// the handler at all.
func TestDeadlineZeroBudgetRejectedImmediately(t *testing.T) {
	invoked := false
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		invoked = true
	}), Options{Timeout: time.Second, RetryAfterJitter: -1})
	ts := httptest.NewServer(h)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	req.Header.Set(BudgetHeader, "0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("zero budget = %d, want 504", resp.StatusCode)
	}
	if invoked {
		t.Fatal("handler ran for a request with no budget left")
	}
}

// The local timeout (no budget header) stays a 503, now with a
// Retry-After hint.
func TestDeadlineLocalTimeoutIs503(t *testing.T) {
	st := NewStats()
	h := Wrap(stuckHandler(), Options{Timeout: 30 * time.Millisecond, Stats: st})
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, body := get(t, ts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("local timeout = %d body %q, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("timeout 503 missing Retry-After")
	}
	var buf strings.Builder
	st.Registry().WriteTo(&buf)
	if !strings.Contains(buf.String(), `rne_deadline_exhausted_total{source="local"} 1`) {
		t.Fatalf("local exhaustion not counted:\n%s", buf.String())
	}
}

// A generous budget wider than the local timeout leaves the local
// timeout in charge (budgets can only tighten, never extend).
func TestDeadlineBudgetCannotExtendLocalTimeout(t *testing.T) {
	h := Wrap(stuckHandler(), Options{Timeout: 30 * time.Millisecond})
	ts := httptest.NewServer(h)
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	req.Header.Set(BudgetHeader, "60000")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 from the local timeout", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("budget extended the local timeout: took %v", elapsed)
	}
}

// A handler finishing in time passes its response through unchanged,
// headers included.
func TestDeadlinePassThrough(t *testing.T) {
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Custom", "yes")
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte("done"))
	}), Options{Timeout: time.Second, RetryAfterJitter: -1})
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, body := get(t, ts.URL)
	if resp.StatusCode != http.StatusCreated || body != "done" || resp.Header.Get("X-Custom") != "yes" {
		t.Fatalf("pass-through mangled: %d %q %q", resp.StatusCode, body, resp.Header.Get("X-Custom"))
	}
}

// The handler's context is canceled at the deadline so cooperative
// handlers abandon their work.
func TestDeadlineCancelsHandlerContext(t *testing.T) {
	gotCancel := make(chan error, 1)
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		gotCancel <- r.Context().Err()
	}), Options{Timeout: 20 * time.Millisecond, RetryAfterJitter: -1})
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, _ := get(t, ts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d", resp.StatusCode)
	}
	select {
	case err := <-gotCancel:
		if err != context.DeadlineExceeded {
			t.Fatalf("handler saw %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler context never canceled")
	}
}

// ParseBudget/SetBudget round-trip with sub-millisecond precision.
func TestBudgetRoundTrip(t *testing.T) {
	hdr := make(http.Header)
	SetBudget(hdr, 1234567*time.Microsecond)
	r := &http.Request{Header: hdr}
	got, ok := ParseBudget(r)
	if !ok {
		t.Fatal("budget header not parsed")
	}
	if got != 1234567*time.Microsecond {
		t.Fatalf("round trip %v, want 1.234567s", got)
	}
	if _, ok := ParseBudget(&http.Request{Header: make(http.Header)}); ok {
		t.Fatal("missing header parsed as present")
	}
	bad := make(http.Header)
	bad.Set(BudgetHeader, "not-a-number")
	if _, ok := ParseBudget(&http.Request{Header: bad}); ok {
		t.Fatal("garbage header parsed as present")
	}
}

func TestRetryAfterHintJitterBounds(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		hint := retryAfterHint(time.Second, 0.2)
		secs, err := strconv.ParseFloat(hint, 64)
		if err != nil {
			t.Fatalf("hint %q not numeric", hint)
		}
		if secs < 0.8-1e-9 || secs > 1.2+1e-9 {
			t.Fatalf("hint %v outside ±20%% of 1s", secs)
		}
		seen[hint] = true
	}
	if len(seen) < 2 {
		t.Fatal("jitter produced a constant hint")
	}
	if hint := retryAfterHint(time.Second, 0); hint != "1.00" {
		t.Fatalf("unjittered hint = %q, want 1.00", hint)
	}
	if hint := retryAfterHint(30*time.Second, 0); hint != "30" {
		t.Fatalf("long hint = %q, want whole seconds", hint)
	}
}

// A NaN budget is no budget, a huge or infinite one saturates so the
// local timeout stays in charge, and a negative one is spent: each is
// answered accordingly before any work is done.
func TestParseBudgetEdgeCases(t *testing.T) {
	const maxDur = time.Duration(math.MaxInt64)
	for _, tc := range []struct {
		raw    string
		want   time.Duration
		ok     bool
		status int
	}{
		{"5", 5 * time.Millisecond, true, http.StatusOK},
		{"Inf", maxDur, true, http.StatusOK},
		{"+Inf", maxDur, true, http.StatusOK},
		{"NaN", 0, false, http.StatusOK},
		{"1e13", maxDur, true, http.StatusOK},
		{"9300000000000", maxDur, true, http.StatusOK},
		{"1e300", maxDur, true, http.StatusOK},
		{"1e400", maxDur, true, http.StatusOK},
		{"garbage", 0, false, http.StatusOK},
		{"0", 0, true, http.StatusGatewayTimeout},
		{"-5", -5 * time.Millisecond, true, http.StatusGatewayTimeout},
		{"-Inf", math.MinInt64, true, http.StatusGatewayTimeout},
		{"-1e300", math.MinInt64, true, http.StatusGatewayTimeout},
		{"-1e400", math.MinInt64, true, http.StatusGatewayTimeout},
	} {
		hdr := http.Header{BudgetHeader: {tc.raw}}
		got, ok := ParseBudget(&http.Request{Header: hdr})
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseBudget(%q) = %v, %v; want %v, %v", tc.raw, got, ok, tc.want, tc.ok)
		}
		h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}), Options{Timeout: time.Second})
		req := httptest.NewRequest(http.MethodGet, "/distance", nil)
		req.Header = hdr
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.status {
			t.Errorf("budget %q answered %d %q, want %d", tc.raw, rec.Code, rec.Body, tc.status)
		}
	}
}

// ParseBudget never panics, never turns a non-negative budget negative,
// and reads back what SetBudget wrote to within a microsecond, for every
// budget up to 2^50 ns (about 13 days) either way.
func FuzzParseBudget(f *testing.F) {
	for _, raw := range []string{"5", "0", "-5", "0.001", "Inf", "+Inf", "-Inf", "NaN",
		"1e13", "9300000000000", "1e300", "1e400", "-1e400", "0x1p-2", "1_000", ""} {
		f.Add(raw, int64(1234567890))
	}
	f.Fuzz(func(t *testing.T, raw string, ns int64) {
		got, ok := ParseBudget(&http.Request{Header: http.Header{BudgetHeader: {raw}}})
		ms, err := strconv.ParseFloat(raw, 64)
		if ok && (err == nil || errors.Is(err, strconv.ErrRange)) && ms >= 0 && got < 0 {
			t.Fatalf("ParseBudget(%q) = %v, negative for a non-negative budget", raw, got)
		}
		d := time.Duration(ns % (1 << 50))
		hdr := make(http.Header)
		SetBudget(hdr, d)
		back, ok := ParseBudget(&http.Request{Header: hdr})
		if diff := back - d; !ok || diff > time.Microsecond || diff < -time.Microsecond {
			t.Fatalf("SetBudget(%v) read back as %v (%q, ok=%v)", d, back, hdr.Get(BudgetHeader), ok)
		}
	})
}

// At most the cap's worth of handlers run at once, also when their
// deadline has passed and they keep working: a handler holds its
// admission slot until it returns, and the adaptive limiter learns the
// handler's whole latency, not the deadline's.
func TestInFlightCapHoldsPastDeadline(t *testing.T) {
	const timeout = 20 * time.Millisecond
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"static", Options{MaxInFlight: 1, Timeout: timeout}},
		{"adaptive", Options{Admission: &AdmissionConfig{TargetP99: time.Hour, Initial: 1, Min: 1, Max: 1}, Timeout: timeout}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var running, peak atomic.Int64
			entered := make(chan time.Time, 1)
			release := make(chan struct{})
			h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				n := running.Add(1)
				defer running.Add(-1)
				for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
				}
				start := time.Now()
				<-r.Context().Done() // the deadline passes; the work goes on
				entered <- start
				<-release
			}), tc.o)
			ts := httptest.NewServer(h)
			defer ts.Close()

			first := make(chan int, 1)
			go func() {
				resp, err := http.Get(ts.URL + "/distance")
				if err != nil {
					first <- 0
					return
				}
				resp.Body.Close()
				first <- resp.StatusCode
			}()
			var handlerStart time.Time
			select {
			case handlerStart = <-entered:
			case <-time.After(5 * time.Second):
				t.Fatal("handler never saw its deadline")
			}
			for i := 0; i < 3; i++ {
				resp, body := get(t, ts.URL+"/distance")
				if resp.StatusCode != http.StatusTooManyRequests {
					t.Fatalf("request %d past the cap: %d %q, want 429", i+2, resp.StatusCode, body)
				}
			}
			time.Sleep(2 * timeout) // hold the slot well past the deadline
			held := time.Since(handlerStart)
			close(release)
			if code := <-first; code != http.StatusServiceUnavailable {
				t.Fatalf("expired request answered %d, want 503", code)
			}
			if p := peak.Load(); p != 1 {
				t.Fatalf("%d handlers ran at once under a cap of 1", p)
			}
			if tc.o.Admission == nil {
				return
			}
			win := h.(*pass).adaptive.window.Snapshot()
			if win.Count != 1 || win.Sum < held.Seconds() {
				t.Fatalf("limiter saw %d latencies summing %.3fs, want one of at least %.3fs", win.Count, win.Sum, held.Seconds())
			}
		})
	}
}
