package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// chaosReplica is a capacity-bounded synthetic rneserver: it answers
// /distance and /batch with real model estimates behind a hard
// concurrency cap (sheds 429 past it, like the real admission layer),
// and can be "killed" — after which every connection is aborted
// mid-flight, exactly what a crashed process looks like to the
// gateway.
type chaosReplica struct {
	ts    *httptest.Server
	m     *core.Model
	dead  atomic.Bool
	sem   chan struct{}
	delay time.Duration
}

func newChaosReplica(t *testing.T, m *core.Model, capacity int, delay time.Duration) *chaosReplica {
	t.Helper()
	r := &chaosReplica{m: m, sem: make(chan struct{}, capacity), delay: delay}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, req *http.Request) {
		if r.dead.Load() {
			panic(http.ErrAbortHandler)
		}
		w.WriteHeader(http.StatusOK)
	})
	serve := func(w http.ResponseWriter, req *http.Request, fn func() any) {
		if r.dead.Load() {
			panic(http.ErrAbortHandler)
		}
		select {
		case r.sem <- struct{}{}:
			defer func() { <-r.sem }()
		default:
			w.Header().Set("Retry-After", "0.1")
			http.Error(w, `{"error":"replica saturated"}`, http.StatusTooManyRequests)
			return
		}
		time.Sleep(r.delay)
		if r.dead.Load() {
			panic(http.ErrAbortHandler)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(fn())
	}
	mux.HandleFunc("GET /distance", func(w http.ResponseWriter, req *http.Request) {
		serve(w, req, func() any {
			var s, d int32
			fmt.Sscanf(req.URL.Query().Get("s"), "%d", &s)
			fmt.Sscanf(req.URL.Query().Get("t"), "%d", &d)
			return map[string]any{"distance": r.m.Estimate(s, d)}
		})
	})
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, req *http.Request) {
		ss, ts, err := decodeBatch(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		serve(w, req, func() any {
			out := make([]float64, len(ss))
			for i := range ss {
				out[i] = r.m.Estimate(ss[i], ts[i])
			}
			return map[string]any{"distances": out}
		})
	})
	r.ts = httptest.NewServer(mux)
	t.Cleanup(r.ts.Close)
	return r
}

// kill aborts all in-flight and future connections, simulating a
// crashed replica (not a graceful drain).
func (r *chaosReplica) kill() {
	r.dead.Store(true)
	r.ts.CloseClientConnections()
}

// chaosOutcome is one client request's fate.
type chaosOutcome struct {
	status  int
	latency time.Duration
	// partialBody holds the decoded /batch body for 206 responses so the
	// merge can be re-verified bit-exactly after the run.
	partialBody map[string]any
}

// TestChaosSaturationWithReplicaKill is the overload drill end to end:
// three capacity-bounded replicas behind the gateway, client load at
// roughly twice fleet capacity, and one replica killed mid-run. The
// invariants:
//
//   - every response is 200, 206, 429 or 504 — overload and a crashed
//     replica degrade service, they never produce 5xx chaos or a crash;
//   - goodput after the kill stays above 90% of one replica's share of
//     the pre-kill goodput (the survivors keep serving);
//   - client-observed p99 stays bounded (shedding is O(1), not a queue);
//   - the killed replica is ejected while both survivors stay routed;
//   - every partial (206) batch merge is bit-exact: degraded responses
//     may drop answers but never corrupt them.
//
// Run with -race; the fan-out, hedging and admission paths are all
// concurrent here.
func TestChaosSaturationWithReplicaKill(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill takes ~2s of wall clock")
	}
	_, m := buildModel(t)
	const (
		perReplicaCap = 3
		serviceDelay  = 2 * time.Millisecond
		workers       = 18 // ~2x the fleet's 9 concurrent slots
		phase         = 600 * time.Millisecond
	)
	replicas := make([]*chaosReplica, 3)
	urls := make([]string, 3)
	for i := range replicas {
		replicas[i] = newChaosReplica(t, m, perReplicaCap, serviceDelay)
		urls[i] = replicas[i].ts.URL
	}
	gw := newGateway(t, Config{
		Backends:       urls,
		HealthInterval: 20 * time.Millisecond,
		EjectAfter:     3,
		BackoffBase:    50 * time.Millisecond,
		BackoffMax:     time.Second,
		BackendTimeout: 2 * time.Second,
		RequestTimeout: 5 * time.Second,
		RetryBudget:    0.2,
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	// The fixed batch spans many sources, so its groups always cover
	// more than one replica and a single crash can only degrade it.
	batchPairs := make([][2]int32, 16)
	for i := range batchPairs {
		batchPairs[i] = [2]int32{int32(i * 4 % 64), int32((i*9 + 5) % 64)}
	}
	batchJSON := batchBody(batchPairs)

	var mu sync.Mutex
	var outcomes []chaosOutcome
	var phaseB atomic.Bool
	var goodA, goodB atomic.Int64
	record := func(o chaosOutcome) {
		if o.status == http.StatusOK || o.status == http.StatusPartialContent {
			if phaseB.Load() {
				goodB.Add(1)
			} else {
				goodA.Add(1)
			}
		}
		mu.Lock()
		outcomes = append(outcomes, o)
		mu.Unlock()
	}

	client := &http.Client{Timeout: 10 * time.Second}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				var o chaosOutcome
				if (w+i)%3 == 0 {
					resp, err := client.Post(ts.URL+"/batch", "application/json",
						strings.NewReader(batchJSON))
					if err != nil {
						continue // connection-level noise, not a served status
					}
					o.status = resp.StatusCode
					if resp.StatusCode == http.StatusPartialContent {
						var body map[string]any
						if err := json.NewDecoder(resp.Body).Decode(&body); err == nil {
							o.partialBody = body
						}
					} else if resp.StatusCode >= 500 {
						var body map[string]any
						json.NewDecoder(resp.Body).Decode(&body)
						t.Logf("batch 5xx: %d %v", resp.StatusCode, body)
					}
					resp.Body.Close()
				} else {
					s := int32((w*17 + i*5) % 64)
					d := int32((w*11 + i*13) % 64)
					resp, err := client.Get(fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, s, d))
					if err != nil {
						continue
					}
					o.status = resp.StatusCode
					if resp.StatusCode >= 500 {
						var body map[string]any
						json.NewDecoder(resp.Body).Decode(&body)
						t.Logf("distance 5xx: %d %v", resp.StatusCode, body)
					}
					resp.Body.Close()
				}
				o.latency = time.Since(start)
				record(o)
			}
		}(w)
	}

	time.Sleep(phase) // phase A: all replicas alive, fleet saturated
	replicas[0].kill()
	phaseB.Store(true)
	time.Sleep(phase) // phase B: two survivors under the same load
	close(stop)
	wg.Wait()

	// Invariant: only the sanctioned status set, under 2x overload and a
	// mid-run crash.
	counts := map[int]int{}
	var latencies []time.Duration
	for _, o := range outcomes {
		counts[o.status]++
		latencies = append(latencies, o.latency)
	}
	for status := range counts {
		switch status {
		case http.StatusOK, http.StatusPartialContent,
			http.StatusTooManyRequests, http.StatusGatewayTimeout:
		default:
			t.Errorf("forbidden status %d appeared %d times (distribution: %v)",
				status, counts[status], counts)
		}
	}
	if len(outcomes) == 0 {
		t.Fatal("no requests completed")
	}

	// Invariant: goodput survives the crash. Phase B must beat 90% of a
	// single replica's share of phase A (the two survivors together are
	// expected near 2x that; this bound is deliberately conservative so
	// scheduler noise cannot flake the run).
	a, b := goodA.Load(), goodB.Load()
	if a == 0 {
		t.Fatal("no goodput in phase A: the drill never saturated")
	}
	if min := float64(a) / 3 * 0.9; float64(b) < min {
		t.Errorf("phase-B goodput %d below %.0f (phase A was %d): survivors did not keep serving", b, min, a)
	}

	// Invariant: bounded tail latency — shedding answers fast instead of
	// queueing into the timeout.
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if p99 := latencies[len(latencies)*99/100]; p99 > time.Second {
		t.Errorf("client p99 %v exceeds 1s under overload", p99)
	}

	// Invariant: the crash was detected and contained.
	waitFor(t, "crashed replica ejection", func() bool { return gw.HealthyBackends() == 2 })
	for i, r := range replicas[1:] {
		if r.dead.Load() {
			t.Fatalf("survivor %d unexpectedly dead", i+1)
		}
	}

	// Invariant: every partial merge is bit-exact against the model.
	partials := 0
	for _, o := range outcomes {
		if o.partialBody == nil {
			continue
		}
		partials++
		if o.partialBody["partial"] != true {
			t.Fatalf("206 response without partial flag: %v", o.partialBody)
		}
		dists, ok := o.partialBody["distances"].([]any)
		if !ok || len(dists) != len(batchPairs) {
			t.Fatalf("partial merge wrong shape: %v", o.partialBody)
		}
		erred := map[int]bool{}
		for _, e := range o.partialBody["errors"].([]any) {
			erred[int(e.(map[string]any)["index"].(float64))] = true
		}
		for i, p := range batchPairs {
			if erred[i] {
				if dists[i] != nil {
					t.Fatalf("partial merge: failed pair %d carries a value %v", i, dists[i])
				}
				continue
			}
			if dists[i] == nil {
				t.Fatalf("partial merge: pair %d neither served nor reported failed", i)
			}
			if got := dists[i].(float64); got != m.Estimate(p[0], p[1]) {
				t.Fatalf("partial merge corrupted pair %d: got %v want %v", i, got, m.Estimate(p[0], p[1]))
			}
		}
	}
	t.Logf("chaos drill: %d requests, statuses %v, goodput A=%d B=%d, partial batches verified=%d",
		len(outcomes), counts, a, b, partials)
}
