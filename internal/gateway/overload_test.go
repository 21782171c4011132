package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
)

// jsonBackend is a synthetic replica answering every request with the
// given handler; used where tests need exact control over status codes
// and timing rather than a real model.
func jsonBackend(t *testing.T, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// ownerOf finds a source vertex currently routed to the backend with
// the given base URL, so tests can aim requests at a specific replica.
func ownerOf(t *testing.T, gw *Gateway, base string) int32 {
	t.Helper()
	for src := int32(0); src < 4096; src++ {
		if b := gw.route(src, nil); b != nil && b.base == strings.TrimRight(base, "/") {
			return src
		}
	}
	t.Fatalf("no vertex routed to %s", base)
	return 0
}

// A backend answering 429 is saturated, not dead: the gateway retries
// the request elsewhere, never counts the shed toward ejection, and
// the shedding replica keeps its sources.
func TestBackpressureNotCountedAgainstHealth(t *testing.T) {
	_, m := buildModel(t)
	shedding := jsonBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0.5")
		http.Error(w, `{"error":"saturated"}`, http.StatusTooManyRequests)
	})
	real := newBackend(t, m, nil, "v1")
	gw := newGateway(t, Config{
		Backends:       []string{shedding.URL, real.URL},
		HealthInterval: time.Hour,
		EjectAfter:     1, // any miscounted failure would eject immediately
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	src := ownerOf(t, gw, shedding.URL)
	resp, err := http.Get(fmt.Sprintf("%s/distance?s=%d&t=1", ts.URL, src))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry around backpressure = %d, want 200", resp.StatusCode)
	}
	var shed *backend
	for _, b := range gw.backends {
		if b.base == strings.TrimRight(shedding.URL, "/") {
			shed = b
		}
	}
	if shed.failures.Value() != 0 {
		t.Fatalf("backpressure counted as %d failures", shed.failures.Value())
	}
	if shed.backpressure.Value() == 0 {
		t.Fatal("backpressure not counted on its own meter")
	}
	if gw.HealthyBackends() != 2 {
		t.Fatal("a shedding backend was ejected")
	}
	if gw.retries.Value() == 0 {
		t.Fatal("request was not retried off the shedding backend")
	}
}

// When the whole reachable fleet sheds and the retry budget is dry,
// the gateway relays the backend's own 429 (keeping its Retry-After)
// instead of inventing a 502 for replicas that are alive.
func TestDrainedRetryBudgetRelaysBackpressure(t *testing.T) {
	shed := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0.7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"saturated"}`))
	}
	b1 := jsonBackend(t, shed)
	b2 := jsonBackend(t, shed)
	gw := newGateway(t, Config{
		Backends:       []string{b1.URL, b2.URL},
		HealthInterval: time.Hour,
		RetryBudget:    -1, // retries disabled: first shed is final
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/distance?s=1&t=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("relayed backpressure = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "0.7" {
		t.Fatalf("backend Retry-After lost in relay: %q", resp.Header.Get("Retry-After"))
	}
	if gw.retriesDenied.Value() == 0 {
		t.Fatal("denied retry not counted")
	}
	if gw.retries.Value() != 0 {
		t.Fatal("a retry ran with a disabled budget")
	}
	if gw.HealthyBackends() != 2 {
		t.Fatal("shedding fleet was ejected")
	}
}

// A failed primary whose retry an enabled, drained retry budget denies
// sheds with 429 and Retry-After, hedged or not: the next-ranked
// replica is healthy, so the region is not degraded (503).
func TestDeniedRetryShedsWith429(t *testing.T) {
	for _, hedge := range []bool{false, true} {
		t.Run(fmt.Sprintf("hedge=%v", hedge), func(t *testing.T) {
			broken := jsonBackend(t, func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "boom", http.StatusInternalServerError)
			})
			healthy := jsonBackend(t, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Write([]byte(`{"distance":1}`))
			})
			gw := newGateway(t, Config{
				Backends:       []string{broken.URL, healthy.URL},
				HealthInterval: time.Hour,
				Hedge:          hedge,
				HedgeMaxDelay:  time.Minute, // only the primary's failure fires the hedge
			})
			for gw.retryTokens.take() {
			}
			ts := httptest.NewServer(gw.Handler())
			defer ts.Close()

			src := ownerOf(t, gw, broken.URL)
			resp, err := http.Get(fmt.Sprintf("%s/distance?s=%d&t=1", ts.URL, src))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
				t.Fatalf("denied retry = %d (Retry-After %q), want 429 with Retry-After",
					resp.StatusCode, resp.Header.Get("Retry-After"))
			}
			if n := gw.retriesDenied.Value(); n != 1 {
				t.Fatalf("retriesDenied = %d, want 1", n)
			}
		})
	}
}

// A client disconnecting while the gateway is mid-retry (first backend
// dead, second attempt in flight) must neither leak the retry attempt
// nor count the abandoned sub-request against the retry target's
// health.
func TestClientCancelMidRetry(t *testing.T) {
	dead := jsonBackend(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	retryEntered := make(chan struct{}, 4)
	stuck := jsonBackend(t, func(w http.ResponseWriter, r *http.Request) {
		retryEntered <- struct{}{}
		<-r.Context().Done()
	})
	gw := newGateway(t, Config{
		Backends:       []string{dead.URL, stuck.URL},
		HealthInterval: time.Hour,
		EjectAfter:     1,
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	src := ownerOf(t, gw, dead.URL)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/distance?s=%d&t=1", ts.URL, src), nil)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	// Wait until the retry attempt has landed on the stuck backend, then
	// hang up mid-retry.
	select {
	case <-retryEntered:
	case <-time.After(5 * time.Second):
		t.Fatal("retry never reached the second backend")
	}
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("expected the canceled request to fail")
	}

	var stuckB *backend
	for _, b := range gw.backends {
		if b.base == strings.TrimRight(stuck.URL, "/") {
			stuckB = b
		}
	}
	waitFor(t, "cancel accounting on the retry target", func() bool {
		return stuckB.cancels.Value() >= 1
	})
	if stuckB.failures.Value() != 0 {
		t.Fatalf("abandoned retry counted as %d failures on its target", stuckB.failures.Value())
	}
	if !stuckB.healthy.Load() {
		t.Fatal("client disconnect mid-retry ejected the retry target")
	}
	if gw.retries.Value() == 0 {
		t.Fatal("the retry was never attempted")
	}
}

// Partial degradation: with one backend dead and retries disabled, a
// batch spanning both shards comes back 206 with partial: true, the
// dead shard's pairs as indexed error entries, and every surviving
// distance bit-exact against the model.
func TestBatchPartial206(t *testing.T) {
	_, m := buildModel(t)
	alive := newBackend(t, m, nil, "v1")
	doomed := newBackend(t, m, nil, "v1")
	gw := newGateway(t, Config{
		Backends:       []string{alive.URL, doomed.URL},
		HealthInterval: time.Hour,
		RetryBudget:    -1, // no failover: the dead shard must degrade
		EjectAfter:     100,
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	pairs := make([][2]int32, 32)
	for i := range pairs {
		pairs[i] = [2]int32{int32(i * 2 % 64), int32((i*5 + 7) % 64)}
	}
	// Record routing before the kill: passive-only health means the
	// grouping still targets the dead replica afterwards.
	doomedOwned := make(map[int]bool)
	for i, p := range pairs {
		if gw.route(p[0], nil).base == strings.TrimRight(doomed.URL, "/") {
			doomedOwned[i] = true
		}
	}
	if len(doomedOwned) == 0 || len(doomedOwned) == len(pairs) {
		t.Fatalf("degenerate split: %d of %d pairs on the doomed backend", len(doomedOwned), len(pairs))
	}
	doomed.Close()

	resp, out := postBatch(t, ts, batchBody(pairs))
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("degraded batch = %d %v, want 206", resp.StatusCode, out)
	}
	if out["partial"] != true {
		t.Fatalf("206 response not marked partial: %v", out)
	}
	dists := out["distances"].([]any)
	errsAny := out["errors"].([]any)
	if len(dists) != len(pairs) {
		t.Fatalf("partial merge has %d slots for %d pairs", len(dists), len(pairs))
	}
	erred := make(map[int]bool)
	lastIdx := -1
	for _, e := range errsAny {
		entry := e.(map[string]any)
		idx := int(entry["index"].(float64))
		if entry["error"].(string) == "" {
			t.Fatalf("error entry %d has no message", idx)
		}
		if idx <= lastIdx {
			t.Fatalf("error entries not sorted by index: %v after %v", idx, lastIdx)
		}
		lastIdx = idx
		erred[idx] = true
	}
	for i, p := range pairs {
		if doomedOwned[i] != erred[i] {
			t.Fatalf("pair %d: owned-by-dead=%v but error-entry=%v", i, doomedOwned[i], erred[i])
		}
		if erred[i] {
			if dists[i] != nil {
				t.Fatalf("failed pair %d has a non-null distance %v", i, dists[i])
			}
			continue
		}
		// Surviving pairs must be bit-exact: partial degradation may drop
		// answers but never corrupt them.
		if dists[i].(float64) != m.Estimate(p[0], p[1]) {
			t.Fatalf("surviving pair %d: got %v want %v", i, dists[i], m.Estimate(p[0], p[1]))
		}
	}
	if _, ok := out["lo"]; ok {
		t.Fatal("partial response kept guard bounds it cannot certify")
	}
	if gw.batchPartial.Value() != 1 {
		t.Fatalf("rne_batch_partial_total = %d, want 1", gw.batchPartial.Value())
	}
	if gw.pairErrors.Value() != int64(len(errsAny)) {
		t.Fatalf("rne_batch_pair_errors_total = %d, want %d", gw.pairErrors.Value(), len(errsAny))
	}

	// A batch aimed entirely at the dead shard fails whole: partial
	// responses require at least one served pair.
	var deadPairs [][2]int32
	for i, p := range pairs {
		if doomedOwned[i] {
			deadPairs = append(deadPairs, p)
		}
	}
	resp, _ = postBatch(t, ts, batchBody(deadPairs))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-shards-failed batch = %d, want 502", resp.StatusCode)
	}
}

// Opt-in hedging: a slow primary is raced against the next-ranked
// replica after the hedge delay, the first answer wins, and the win is
// recorded under rne_hedges_total{won="hedge"}.
func TestHedgedDistanceFirstAnswerWins(t *testing.T) {
	slow := jsonBackend(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(2 * time.Second):
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"distance":1,"who":"slow"}`))
	})
	fast := jsonBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"distance":2,"who":"fast"}`))
	})
	gw := newGateway(t, Config{
		Backends:       []string{slow.URL, fast.URL},
		HealthInterval: time.Hour,
		Hedge:          true,
		HedgeMinDelay:  time.Millisecond,
		HedgeMaxDelay:  20 * time.Millisecond, // cold histogram -> hedge at 20ms
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	src := ownerOf(t, gw, slow.URL)
	start := time.Now()
	resp, err := http.Get(fmt.Sprintf("%s/distance?s=%d&t=1", ts.URL, src))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request = %d %v", resp.StatusCode, out)
	}
	if out["who"] != "fast" {
		t.Fatalf("hedge did not win against a 2s primary: %v", out)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedged answer took %v; the slow primary was awaited", elapsed)
	}
	if gw.hedgeWins["hedge"].Value() != 1 {
		t.Fatalf(`rne_hedges_total{won="hedge"} = %d, want 1`, gw.hedgeWins["hedge"].Value())
	}
}

// The gateway forwards its remaining deadline budget to backends, and
// answers 504 itself when the inbound budget is already too small to
// attempt a call.
func TestBudgetForwardedAndExhausted(t *testing.T) {
	var gotBudget atomic.Value
	echo := jsonBackend(t, func(w http.ResponseWriter, r *http.Request) {
		gotBudget.Store(r.Header.Get(resilience.BudgetHeader))
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"distance":1}`))
	})
	gw := newGateway(t, Config{
		Backends:       []string{echo.URL},
		HealthInterval: time.Hour,
		RequestTimeout: time.Second,
		BudgetMargin:   5 * time.Millisecond,
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/distance?s=1&t=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	raw, _ := gotBudget.Load().(string)
	if raw == "" {
		t.Fatal("no budget header forwarded to the backend")
	}
	var ms float64
	if _, err := fmt.Sscanf(raw, "%f", &ms); err != nil || ms <= 0 || ms > 1000 {
		t.Fatalf("forwarded budget %q not within (0, 1000ms]", raw)
	}

	// An inbound budget smaller than the margin cannot buy a backend
	// call: the gateway answers 504 without touching the fleet.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/distance?s=1&t=2", nil)
	req.Header.Set(resilience.BudgetHeader, "300") // 300ms < 400ms margin below
	gw2 := newGateway(t, Config{
		Backends:       []string{echo.URL},
		HealthInterval: time.Hour,
		BudgetMargin:   400 * time.Millisecond,
	})
	ts2 := httptest.NewServer(gw2.Handler())
	defer ts2.Close()
	req.URL, _ = req.URL.Parse(ts2.URL + "/distance?s=1&t=2")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("exhausted budget = %d, want 504", resp.StatusCode)
	}
}

// A replica shedding its own /readyz probe with 429 stays routed: shed
// probes mean saturation, and ejecting the saturated would shrink the
// fleet exactly when capacity is scarcest.
func TestProbe429KeepsBackendRouted(t *testing.T) {
	busy := jsonBackend(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"saturated"}`, http.StatusTooManyRequests)
	})
	gw := newGateway(t, Config{
		Backends:       []string{busy.URL},
		HealthInterval: 2 * time.Millisecond,
		EjectAfter:     1,
	})
	time.Sleep(30 * time.Millisecond) // several probe rounds
	if gw.HealthyBackends() != 1 {
		t.Fatal("429 probes ejected a saturated-but-alive backend")
	}
	b := gw.backends[0]
	if b.failures.Value() != 0 {
		t.Fatalf("shed probes counted as %d failures", b.failures.Value())
	}
}
