// Package gateway is the scale-out tier in front of rneserver
// replicas: one stdlib-only HTTP process that fans a /batch request
// out across N backends and merges the answers in order, and proxies
// the single-source routes (/distance, /knn, /range) to their owner.
// Two routing modes:
//
//   - Hash mode (default): pairs are routed by consistent hashing on
//     the source vertex over replicas that each hold the whole model,
//     so each backend repeatedly sees the same slice of the vertex
//     space (its embedding rows stay cache-hot) and adding or ejecting
//     a replica reassigns one slice instead of reshuffling all keys.
//   - Region mode (Config.ShardMap): replicas hold geo-shards of one
//     split model (internal/shard), and the gateway routes each source
//     vertex to a replica of its owning shard via the compact
//     vertex→shard map, round-robining across same-shard replicas.
//     Shard identity is discovered from each replica's /readyz; a
//     replica answering 421 (stale map, misrouted vertex) is counted
//     on rne_gateway_stale_routes_total and relayed with its redirect
//     hint. A shard with no healthy replica degrades only its own
//     region — other regions keep serving.
//
// Backends are health-checked actively (periodic /readyz probes) and
// passively (proxy failures count); a backend that fails repeatedly is
// ejected from routing and re-probed on an exponential backoff until
// it recovers, mirroring the ejection/backoff discipline of the
// internal/resilience serving stack. The gateway exposes the same
// operational surface as the replicas it fronts: /healthz, /readyz,
// /statz (JSON counters) and /metrics (Prometheus text).
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batchwire"
	"repro/internal/resilience"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// Config configures the fan-out tier. Zero values select the
// documented defaults.
type Config struct {
	// Backends are the rneserver base URLs to fan out across
	// (e.g. "http://10.0.0.1:8080"). At least one is required.
	Backends []string
	// VirtualNodes per backend on the consistent-hash ring (default 64).
	// Unused in region mode.
	VirtualNodes int
	// ShardMap switches the gateway into region-routing mode: each
	// source vertex goes to a replica of its owning geo-shard (loaded
	// from the sharded registry version's shards/shardmap.rnemap).
	// Backends then must be shard replicas; their shard identity is
	// discovered from /readyz probes, and a backend reporting a
	// mismatched topology (wrong shard count) is treated as failing.
	ShardMap *shard.Map
	// HealthInterval is the active /readyz probe period (default 2s).
	HealthInterval time.Duration
	// EjectAfter ejects a backend from routing after this many
	// consecutive failures, active or passive (default 3).
	EjectAfter int
	// BackoffBase/BackoffMax bound the re-probe backoff for an ejected
	// backend (defaults 500ms and 15s; each failed probe doubles it).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BackoffJitter spreads each re-probe time by a uniform random
	// fraction of the backoff, ±BackoffJitter (default 0.2), so a fleet
	// of backends ejected by one event does not re-probe — and
	// potentially thundering-herd a recovering replica — in lockstep.
	// Negative disables jitter.
	BackoffJitter float64
	// BackendTimeout bounds each proxied backend call (default 10s).
	BackendTimeout time.Duration
	// RetryBudget bounds retries and hedges to this fraction of primary
	// traffic (default 0.1): each primary request earns RetryBudget
	// tokens and each retry or hedge spends one, so under a broad outage
	// the gateway degrades instead of doubling the offered load on the
	// survivors. Negative disables retries and hedges entirely.
	RetryBudget float64
	// Hedge enables hedged /distance requests: once the primary backend
	// call has been outstanding longer than the observed p95 backend
	// latency (clamped into [HedgeMinDelay, HedgeMaxDelay]), a second
	// attempt is sent to the next ring owner and the first answer wins.
	// Hedges spend retry-budget tokens like retries do.
	Hedge bool
	// HedgeMinDelay/HedgeMaxDelay clamp the p95-derived hedge delay
	// (defaults 1ms and 250ms). Until enough latency samples accumulate
	// the delay stays at HedgeMaxDelay.
	HedgeMinDelay time.Duration
	HedgeMaxDelay time.Duration
	// BudgetMargin is subtracted from the remaining request deadline
	// before it is forwarded to a backend as a BudgetHeader budget
	// (default 5ms), covering the proxy hop so the backend gives up
	// slightly before the gateway's own deadline fires. Negative
	// disables the margin.
	BudgetMargin time.Duration
	// MaxInFlight / RequestTimeout configure the gateway's own
	// resilience.Wrap stack, with the same semantics as the server's.
	MaxInFlight    int
	RequestTimeout time.Duration
	// Admission, when non-nil, replaces the gateway's static MaxInFlight
	// cap with the adaptive AIMD limiter (see resilience.AdmissionConfig).
	Admission *resilience.AdmissionConfig
	// MaxBatchBytes bounds an inbound /batch body (default 8 MiB).
	MaxBatchBytes int64
	// Logger receives health transitions and access logs (nil disables).
	Logger *slog.Logger
	// Transport overrides the backend HTTP transport (tests use the
	// httptest client transport); nil uses http.DefaultTransport.
	Transport http.RoundTripper
	// Trace, when its Path is non-empty, turns on request-scoped
	// distributed tracing: every request gets a handler span, every
	// backend attempt (primary, retry, hedge, per-shard batch leg) a
	// child span whose context is injected into the outbound call as a
	// W3C traceparent — so replica-side spans parent under the exact
	// attempt that caused them. Sampled spans persist as JSONL (see
	// telemetry.RequestTracer); drop/write counters export as
	// rne_trace_dropped_total / rne_trace_written_total.
	Trace telemetry.TraceConfig
}

func (c Config) withDefaults() Config {
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = 64
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 500 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 15 * time.Second
	}
	if c.BackoffJitter == 0 {
		c.BackoffJitter = 0.2
	}
	if c.BackoffJitter < 0 {
		c.BackoffJitter = 0
	}
	if c.BackoffJitter > 1 {
		c.BackoffJitter = 1
	}
	if c.BackendTimeout <= 0 {
		c.BackendTimeout = 10 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 0.1
	}
	if c.HedgeMinDelay <= 0 {
		c.HedgeMinDelay = time.Millisecond
	}
	if c.HedgeMaxDelay <= 0 {
		c.HedgeMaxDelay = 250 * time.Millisecond
	}
	if c.HedgeMaxDelay < c.HedgeMinDelay {
		c.HedgeMaxDelay = c.HedgeMinDelay
	}
	if c.BudgetMargin == 0 {
		c.BudgetMargin = 5 * time.Millisecond
	}
	if c.BudgetMargin < 0 {
		c.BudgetMargin = 0
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 8 << 20
	}
	return c
}

// backend is one replica's routing state. healthy is read on every
// routed pair; the mutable ejection bookkeeping sits behind mu and is
// only touched on failures, recoveries and probes.
type backend struct {
	id   string // host:port, used in logs and metric labels
	base string // normalized base URL, no trailing slash

	healthy atomic.Bool

	// shardID is the geo-shard this backend reported on its last
	// successful probe (-1 until discovered). Only used in region mode.
	shardID atomic.Int32

	mu        sync.Mutex
	fails     int           // consecutive failures (active or passive)
	backoff   time.Duration // current re-probe backoff once ejected
	nextProbe time.Time     // ejected backends are probed at this time

	requests     *telemetry.Counter
	failures     *telemetry.Counter
	cancels      *telemetry.Counter
	backpressure *telemetry.Counter
	healthyG     *telemetry.Gauge
}

// Gateway fans /batch and /distance across the configured backends.
type Gateway struct {
	cfg      Config
	log      *slog.Logger
	stats    *resilience.Stats
	client   *http.Client
	backends []*backend
	ring     ring

	ejections      *telemetry.Counter
	revivals       *telemetry.Counter
	retries        *telemetry.Counter
	retriesDenied  *telemetry.Counter
	hedgeWins      map[string]*telemetry.Counter // keyed by the won= label
	batchPartial   *telemetry.Counter
	pairErrors     *telemetry.Counter
	staleRoutes    *telemetry.Counter
	backendLatency *telemetry.Histogram
	retryTokens    *retryBudget
	tracer         *telemetry.RequestTracer // nil disables tracing

	// shardRR holds one round-robin cursor per geo-shard (region mode
	// only), spreading a shard's traffic across its replicas.
	shardRR []atomic.Uint32

	jitterMu  sync.Mutex
	jitterRng *rand.Rand

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New validates the backend list, builds the hash ring, and starts the
// active health-probe loop. Backends start healthy (they are probed
// within one HealthInterval); call Close to stop the probe loop.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: need at least one backend")
	}
	g := &Gateway{
		cfg:   cfg,
		log:   telemetry.OrNop(cfg.Logger),
		stats: resilience.NewStats(),
		client: &http.Client{
			Transport: cfg.Transport,
			Timeout:   cfg.BackendTimeout,
		},
		jitterRng: rand.New(rand.NewSource(time.Now().UnixNano())),
		stop:      make(chan struct{}),
	}
	g.stats.TrackRoutes("/batch", "/distance", "/knn", "/range")
	reg := g.stats.Registry()
	g.ejections = reg.Counter("rne_gateway_ejections_total",
		"Backends ejected from routing after consecutive failures.")
	g.revivals = reg.Counter("rne_gateway_revivals_total",
		"Ejected backends restored to routing by a successful probe.")
	g.retries = reg.Counter("rne_gateway_retries_total",
		"Sub-requests retried on another backend after a failure.")
	g.retriesDenied = reg.Counter("rne_gateway_retries_denied_total",
		"Retries and hedges denied because the retry token budget was empty.")
	g.hedgeWins = map[string]*telemetry.Counter{
		"primary": reg.Counter("rne_hedges_total",
			"Hedged /distance attempts, by which attempt answered first.", "won", "primary"),
		"hedge": reg.Counter("rne_hedges_total",
			"Hedged /distance attempts, by which attempt answered first.", "won", "hedge"),
	}
	g.batchPartial = reg.Counter("rne_batch_partial_total",
		"Batch responses returned partially (206) after a shard failed.")
	g.pairErrors = reg.Counter("rne_batch_pair_errors_total",
		"Individual batch pairs answered with an error entry instead of a distance.")
	g.staleRoutes = reg.Counter("rne_gateway_stale_routes_total",
		"Backend 421 answers: the replica disowned a vertex this gateway routed to it (stale shard map).")
	if cfg.ShardMap != nil {
		g.shardRR = make([]atomic.Uint32, cfg.ShardMap.NumShards())
		reg.Gauge("rne_model_bytes",
			"Resident bytes of routing state, by component.",
			"component", "shardmap").Set(float64(cfg.ShardMap.IndexBytes()))
	}
	g.backendLatency = reg.Histogram("rne_gateway_backend_latency_seconds",
		"Latency of successful backend calls, feeding the hedge delay.", telemetry.LatencyBuckets)
	g.backendLatency.EnableExemplars()
	g.retryTokens = newRetryBudget(cfg.RetryBudget)
	if cfg.Trace.Path != "" {
		tc := cfg.Trace
		if tc.Service == "" {
			tc.Service = "gateway"
		}
		dropped := g.stats.Counter("trace_dropped")
		written := g.stats.Counter("trace_written")
		callerDrop, callerWrite := tc.OnDrop, tc.OnWrite
		tc.OnDrop = func() {
			dropped.Inc()
			if callerDrop != nil {
				callerDrop()
			}
		}
		tc.OnWrite = func() {
			written.Inc()
			if callerWrite != nil {
				callerWrite()
			}
		}
		tr, err := telemetry.NewRequestTracer(tc)
		if err != nil {
			return nil, fmt.Errorf("gateway: %w", err)
		}
		g.tracer = tr
	}

	seen := make(map[string]bool)
	ids := make([]string, 0, len(cfg.Backends))
	for _, raw := range cfg.Backends {
		u, err := url.Parse(strings.TrimRight(strings.TrimSpace(raw), "/"))
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("gateway: backend %q is not an absolute URL", raw)
		}
		if seen[u.Host] {
			return nil, fmt.Errorf("gateway: duplicate backend %q", u.Host)
		}
		seen[u.Host] = true
		b := &backend{
			id:   u.Host,
			base: u.String(),
			requests: reg.Counter("rne_gateway_backend_requests_total",
				"Requests proxied, by backend.", "backend", u.Host),
			failures: reg.Counter("rne_gateway_backend_failures_total",
				"Failed proxied requests and probes, by backend.", "backend", u.Host),
			cancels: reg.Counter("rne_gateway_backend_cancels_total",
				"Sub-requests abandoned because the client canceled or its deadline expired, by backend.", "backend", u.Host),
			backpressure: reg.Counter("rne_gateway_backend_backpressure_total",
				"Backend 429/503 answers treated as busy-not-dead (never ejection), by backend.", "backend", u.Host),
			healthyG: reg.Gauge("rne_gateway_backend_healthy",
				"1 while the backend is routed to, 0 while ejected.", "backend", u.Host),
		}
		b.healthy.Store(true)
		b.healthyG.Set(1)
		b.shardID.Store(-1)
		g.backends = append(g.backends, b)
		ids = append(ids, u.Host)
	}
	g.ring = newRing(ids, cfg.VirtualNodes)

	g.wg.Add(1)
	go g.probeLoop()
	return g, nil
}

// Close stops the health-probe loop and flushes the request tracer.
// The handler keeps working with the last known backend states.
func (g *Gateway) Close() error {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
	g.tracer.Close() // nil-safe
	return nil
}

// Stats exposes the request counters backing /statz and /metrics.
func (g *Gateway) Stats() *resilience.Stats { return g.stats }

// Tracer exposes the request tracer (nil when disabled).
func (g *Gateway) Tracer() *telemetry.RequestTracer { return g.tracer }

// HealthyBackends reports how many backends are currently routed to.
func (g *Gateway) HealthyBackends() int {
	n := 0
	for _, b := range g.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

// Handler returns the gateway route table wrapped in the same
// resilience stack the replicas use:
//
//	GET  /healthz    gateway liveness + per-backend health (and shard ids)
//	GET  /readyz     ready iff at least one backend is routed to (503 otherwise);
//	                 region mode additionally reports per-shard coverage
//	GET  /statz      request/latency/status counters (JSON)
//	GET  /metrics    Prometheus text exposition
//	GET  /distance   proxied to the source vertex's owner (ring or region)
//	GET  /knn        proxied to the source vertex's owner
//	GET  /range      proxied to the source vertex's owner
//	POST /batch      split by source vertex, fanned out, merged in order
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("GET /readyz", g.handleReady)
	mux.Handle("GET /statz", g.stats.Handler())
	mux.Handle("GET /metrics", g.stats.Registry().Handler())
	mux.HandleFunc("GET /distance", g.handleDistance)
	mux.HandleFunc("GET /knn", g.handleKNN)
	mux.HandleFunc("GET /range", g.handleRange)
	mux.HandleFunc("POST /batch", g.handleBatch)
	// Same trace layering as the replicas: admission marker just inside
	// the resilience stack, handler span around the whole of it.
	var inner http.Handler = mux
	if g.tracer != nil {
		inner = telemetry.TraceAdmitted(mux)
	}
	h := resilience.Wrap(inner, resilience.Options{
		MaxInFlight: g.cfg.MaxInFlight,
		Admission:   g.cfg.Admission,
		Timeout:     g.cfg.RequestTimeout,
		Logger:      g.cfg.Logger,
		Stats:       g.stats,
	})
	h = telemetry.TraceHTTP(g.tracer, h)
	return telemetry.RequestID(h)
}

// pick returns the ring owner for src among healthy, non-excluded
// backends, or nil when none qualify.
func (g *Gateway) pick(src int32, exclude map[*backend]bool) *backend {
	i := g.ring.walk(src, func(idx int) bool {
		b := g.backends[idx]
		return b.healthy.Load() && !exclude[b]
	})
	if i < 0 {
		return nil
	}
	return g.backends[i]
}

// route returns the backend that owns src: the consistent-hash ring
// owner in hash mode, or (region mode) a healthy replica of src's
// shard, round-robined per shard. Returns nil when no owning backend
// qualifies — in region mode, replicas of *other* shards never do,
// since they would disown the vertex with a 421.
func (g *Gateway) route(src int32, exclude map[*backend]bool) *backend {
	sm := g.cfg.ShardMap
	if sm == nil {
		return g.pick(src, exclude)
	}
	owner, ok := sm.ShardOf(src)
	if !ok {
		return nil
	}
	start := int(g.shardRR[owner].Add(1))
	n := len(g.backends)
	for i := 0; i < n; i++ {
		b := g.backends[(start+i)%n]
		if b.healthy.Load() && !exclude[b] && int(b.shardID.Load()) == owner {
			return b
		}
	}
	return nil
}

// noBackendFor answers a request no backend can serve. Hash mode: the
// classic 502. Region mode: the shard's replicas are all gone while
// other regions keep serving, so the honest answer is a region-scoped
// 503 the client can retry after the shard recovers.
func (g *Gateway) noBackendFor(w http.ResponseWriter, src int32) {
	if sm := g.cfg.ShardMap; sm != nil {
		if owner, ok := sm.ShardOf(src); ok {
			w.Header().Set("Retry-After", fmt.Sprintf("%.2f", g.jittered(time.Second).Seconds()))
			g.fail(w, http.StatusServiceUnavailable,
				"shard %d degraded: no healthy replica for vertex %d", owner, src)
			return
		}
	}
	g.fail(w, http.StatusBadGateway, "no healthy backend for vertex %d", src)
}

// checkMapped rejects (with 400) a source vertex outside the shard
// map's range before any routing; a no-op in hash mode, where range
// validation is the backend's job.
func (g *Gateway) checkMapped(w http.ResponseWriter, src int32) bool {
	sm := g.cfg.ShardMap
	if sm == nil {
		return true
	}
	if _, ok := sm.ShardOf(src); !ok {
		g.fail(w, http.StatusBadRequest, "vertex %d outside the shard map [0,%d)", src, sm.NumVertices())
		return false
	}
	return true
}

// jittered spreads d by a uniform ±cfg.BackoffJitter fraction, so
// backends ejected by one event re-probe at staggered times instead of
// hammering a recovering replica in lockstep.
func (g *Gateway) jittered(d time.Duration) time.Duration {
	if g.cfg.BackoffJitter <= 0 || d <= 0 {
		return d
	}
	g.jitterMu.Lock()
	u := g.jitterRng.Float64()
	g.jitterMu.Unlock()
	return time.Duration(float64(d) * (1 + g.cfg.BackoffJitter*(2*u-1)))
}

// markFailure records one failed call or probe against b, ejecting it
// once cfg.EjectAfter consecutive failures accumulate. Ejection seeds
// the exponential re-probe backoff; further failures double it up to
// cfg.BackoffMax, with each re-probe time jittered.
func (g *Gateway) markFailure(b *backend, err error) {
	b.failures.Inc()
	b.mu.Lock()
	b.fails++
	eject := b.fails >= g.cfg.EjectAfter && b.healthy.Load()
	if eject {
		b.healthy.Store(false)
		b.backoff = g.cfg.BackoffBase
	} else if !b.healthy.Load() && b.backoff > 0 {
		b.backoff *= 2
		if b.backoff > g.cfg.BackoffMax {
			b.backoff = g.cfg.BackoffMax
		}
	}
	if !b.healthy.Load() {
		b.nextProbe = time.Now().Add(g.jittered(b.backoff))
	}
	backoff := b.backoff
	b.mu.Unlock()
	if eject {
		b.healthyG.Set(0)
		g.ejections.Inc()
		g.log.Warn("backend ejected", "backend", b.id, "error", err, "reprobe_in", backoff)
	}
}

// markSuccess resets b's failure streak and restores an ejected
// backend to routing.
func (g *Gateway) markSuccess(b *backend) {
	b.mu.Lock()
	b.fails = 0
	b.backoff = 0
	revived := !b.healthy.Load()
	if revived {
		b.healthy.Store(true)
	}
	b.mu.Unlock()
	if revived {
		b.healthyG.Set(1)
		g.revivals.Inc()
		g.log.Info("backend restored", "backend", b.id)
	}
}

// probeLoop actively checks backends: healthy ones every
// HealthInterval (so a silently dead replica is ejected even with no
// traffic), ejected ones on their backoff schedule.
func (g *Gateway) probeLoop() {
	defer g.wg.Done()
	ticker := time.NewTicker(g.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
		}
		for _, b := range g.backends {
			if !b.healthy.Load() {
				b.mu.Lock()
				due := !time.Now().Before(b.nextProbe)
				b.mu.Unlock()
				if !due {
					continue
				}
			}
			if err := g.probe(b); err != nil {
				g.markFailure(b, err)
			} else {
				g.markSuccess(b)
			}
		}
	}
}

// probe asks one backend for /readyz; any 200 counts (a replica
// serving degraded — no spatial index — still answers /batch), and so
// does a 429: a replica shedding its own probe is saturated, not dead,
// and ejecting it would shrink the fleet mid-overload.
//
// In region mode the probe also discovers which geo-shard the replica
// serves from the readiness body's model.shard block. A backend that
// is not a shard replica, or that reports a different fleet topology
// than the routing map, fails its probe: routing to it would serve the
// wrong region's answers. A shed (429) probe can't carry the body, so
// it keeps the previously discovered identity.
func (g *Gateway) probe(b *backend) error {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.BackendTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
		return fmt.Errorf("readyz returned %d", resp.StatusCode)
	}
	sm := g.cfg.ShardMap
	if sm == nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	var ready struct {
		Model struct {
			Shard *struct {
				ID     int `json:"id"`
				Shards int `json:"shards"`
			} `json:"shard"`
		} `json:"model"`
	}
	if err := json.Unmarshal(body, &ready); err != nil {
		return fmt.Errorf("readyz body unparseable in region mode: %w", err)
	}
	sh := ready.Model.Shard
	if sh == nil {
		return fmt.Errorf("backend is not a shard replica (no model.shard on /readyz) but the gateway routes by region")
	}
	if sh.Shards != sm.NumShards() || sh.ID < 0 || sh.ID >= sm.NumShards() {
		return fmt.Errorf("backend serves shard %d of %d but the routing map has %d shards",
			sh.ID, sh.Shards, sm.NumShards())
	}
	if prev := b.shardID.Swap(int32(sh.ID)); prev >= 0 && prev != int32(sh.ID) {
		g.log.Warn("backend changed shard identity", "backend", b.id, "from", prev, "to", sh.ID)
	}
	return nil
}

func (g *Gateway) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (g *Gateway) fail(w http.ResponseWriter, status int, format string, args ...any) {
	g.writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (g *Gateway) backendStates() []map[string]any {
	out := make([]map[string]any, len(g.backends))
	for i, b := range g.backends {
		st := map[string]any{
			"backend": b.id,
			"healthy": b.healthy.Load(),
		}
		if g.cfg.ShardMap != nil {
			st["shard"] = b.shardID.Load() // -1 until discovered
		}
		out[i] = st
	}
	return out
}

// shardCoverage reports, per geo-shard, how many healthy replicas
// currently serve it (region mode only).
func (g *Gateway) shardCoverage() []int {
	cover := make([]int, g.cfg.ShardMap.NumShards())
	for _, b := range g.backends {
		if sid := b.shardID.Load(); b.healthy.Load() && sid >= 0 && int(sid) < len(cover) {
			cover[sid]++
		}
	}
	return cover
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	g.writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"role":     "gateway",
		"backends": g.backendStates(),
		"healthy":  g.HealthyBackends(),
	})
}

// handleReady is what an upstream load balancer gates on: the gateway
// is ready while at least one backend is routed to, and answers 503
// once the whole fleet is ejected. In region mode readiness is
// per-shard: ready when every shard has a routed replica, degraded
// (still 200 — the surviving regions serve) when some shards are
// uncovered, 503 only when no shard is routable at all.
func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	if g.cfg.ShardMap != nil {
		g.handleReadyShards(w)
		return
	}
	healthy := g.HealthyBackends()
	status := http.StatusOK
	state := "ready"
	if healthy == 0 {
		status = http.StatusServiceUnavailable
		state = "unavailable"
	} else if healthy < len(g.backends) {
		state = "degraded"
	}
	g.writeJSON(w, status, map[string]any{
		"status":   state,
		"healthy":  healthy,
		"backends": g.backendStates(),
	})
}

func (g *Gateway) handleReadyShards(w http.ResponseWriter) {
	cover := g.shardCoverage()
	var down []int
	covered := 0
	for sid, n := range cover {
		if n == 0 {
			down = append(down, sid)
		} else {
			covered++
		}
	}
	status := http.StatusOK
	state := "ready"
	switch {
	case covered == 0:
		status = http.StatusServiceUnavailable
		state = "unavailable"
	case len(down) > 0:
		state = "degraded"
	}
	out := map[string]any{
		"status":   state,
		"shards":   len(cover),
		"covered":  covered,
		"healthy":  g.HealthyBackends(),
		"backends": g.backendStates(),
	}
	if len(down) > 0 {
		out["shards_down"] = down
	}
	g.writeJSON(w, status, out)
}

// relay writes a backend response through verbatim.
func relay(w http.ResponseWriter, status int, body []byte, ct string) {
	if ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(status)
	w.Write(body)
}

// handleDistance proxies the single-pair query to the source vertex's
// owner (ring or region replica), falling over to the next healthy
// candidate (and recording the failure) if the owner errors. Retries
// spend retry-budget tokens; when the budget is empty the gateway
// answers with whatever the backend said (relayed backpressure) or
// sheds with 429 itself rather than amplifying load. With cfg.Hedge, a
// slow primary call is hedged to the next owner and the first answer
// wins.
func (g *Gateway) handleDistance(w http.ResponseWriter, r *http.Request) {
	src, err := sourceParam(r)
	if err != nil {
		g.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !g.checkMapped(w, src) {
		return
	}
	g.retryTokens.onRequest()
	if g.cfg.Hedge {
		g.handleDistanceHedged(w, r, src)
		return
	}
	g.proxyBySource(w, r, src, "/distance")
}

// handleKNN and handleRange proxy the spatial queries to the source
// vertex's owner exactly like /distance (no hedging — result sets can
// be large). In region mode shard replicas carry no spatial index and
// answer 501, which is relayed with its body intact, so clients get a
// clear "not implemented on this deployment" rather than a routing
// error.
func (g *Gateway) handleKNN(w http.ResponseWriter, r *http.Request) {
	g.proxySpatial(w, r, "/knn")
}

func (g *Gateway) handleRange(w http.ResponseWriter, r *http.Request) {
	g.proxySpatial(w, r, "/range")
}

func (g *Gateway) proxySpatial(w http.ResponseWriter, r *http.Request, route string) {
	src, err := sourceParam(r)
	if err != nil {
		g.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !g.checkMapped(w, src) {
		return
	}
	g.retryTokens.onRequest()
	g.proxyBySource(w, r, src, route)
}

// proxyBySource is the shared single-source proxy loop behind
// /distance, /knn and /range: route to src's owner, forward, retry
// once elsewhere on failure (budget permitting), degrade honestly
// when no one can answer.
func (g *Gateway) proxyBySource(w http.ResponseWriter, r *http.Request, src int32, route string) {
	exclude := make(map[*backend]bool)
	var lastBP *backpressureError
	denied := false
	for attempt := 0; attempt < 2; attempt++ {
		b := g.route(src, exclude)
		if b == nil {
			break
		}
		kind := "primary"
		if attempt > 0 {
			if !g.retryTokens.take() {
				g.retriesDenied.Inc()
				denied = true
				break
			}
			g.retries.Inc()
			kind = "retry"
		}
		status, body, ct, err := g.forward(r.Context(), b, http.MethodGet,
			route+"?"+r.URL.RawQuery, nil, g.cfg.MaxBatchBytes, kind)
		if err != nil {
			if r.Context().Err() != nil {
				// The client hung up or its deadline expired mid-proxy:
				// the backend did nothing wrong, so the failure must not
				// count toward its ejection — and there is no one left to
				// answer, so retrying is pointless.
				b.cancels.Inc()
				return
			}
			if errors.Is(err, errBudgetExhausted) {
				g.fail(w, http.StatusGatewayTimeout, "deadline budget exhausted before backend call")
				return
			}
			var bp *backpressureError
			if errors.As(err, &bp) {
				// Busy, not broken: retryable on another replica but never
				// counted toward ejection.
				lastBP = bp
				exclude[b] = true
				continue
			}
			g.markFailure(b, err)
			exclude[b] = true
			continue
		}
		g.markSuccess(b)
		relay(w, status, body, ct)
		return
	}
	if lastBP != nil {
		// Every reachable owner shed the request; relay the backend's own
		// shed response (with its Retry-After context) instead of
		// inventing a 502 for a fleet that is alive but saturated.
		lastBP.relayTo(w)
		return
	}
	if denied && g.retryTokens.enabled() {
		// The retry budget is dry because failures already dominate the
		// traffic mix: the fleet is drowning, not dead. Shed with 429 so
		// the client backs off, rather than reporting a 502 outage.
		w.Header().Set("Retry-After", fmt.Sprintf("%.2f", g.jittered(time.Second).Seconds()))
		g.fail(w, http.StatusTooManyRequests, "retry budget exhausted for vertex %d; back off", src)
		return
	}
	g.noBackendFor(w, src)
}

// handleDistanceHedged races a primary backend call against a hedged
// second attempt fired after the p95-derived hedge delay (or
// immediately when the primary fails). The first successful answer
// wins; the straggler's response is discarded. Only the receive loop
// touches health bookkeeping — the launched goroutines just forward.
func (g *Gateway) handleDistanceHedged(w http.ResponseWriter, r *http.Request, src int32) {
	primary := g.route(src, nil)
	if primary == nil {
		g.noBackendFor(w, src)
		return
	}
	type attempt struct {
		b      *backend
		hedged bool
		status int
		body   []byte
		ct     string
		err    error
	}
	results := make(chan attempt, 2)
	launch := func(b *backend, hedged bool) {
		kind := "primary"
		if hedged {
			kind = "hedge"
		}
		go func() {
			// The attempt span lives in this goroutine: a hedge loser's
			// span is closed here once its call resolves (the handler
			// returning cancels the request context), not leaked.
			status, body, ct, err := g.forward(r.Context(), b, http.MethodGet,
				"/distance?"+r.URL.RawQuery, nil, g.cfg.MaxBatchBytes, kind)
			results <- attempt{b: b, hedged: hedged, status: status, body: body, ct: ct, err: err}
		}()
	}
	launch(primary, false)
	outstanding := 1
	hedged := false

	// tryHedge fires the one allowed hedge at the next ring owner,
	// budget permitting.
	tryHedge := func() {
		if hedged {
			return
		}
		hedged = true
		b := g.route(src, map[*backend]bool{primary: true})
		if b == nil {
			return
		}
		if !g.retryTokens.take() {
			g.retriesDenied.Inc()
			return
		}
		launch(b, true)
		outstanding++
	}

	timer := time.NewTimer(hedgeDelay(g.backendLatency, g.cfg.HedgeMinDelay, g.cfg.HedgeMaxDelay))
	defer timer.Stop()
	timerC := timer.C

	var lastBP *backpressureError
	var lastErr error
	for outstanding > 0 {
		select {
		case <-timerC:
			timerC = nil
			tryHedge()
		case res := <-results:
			outstanding--
			if res.err != nil {
				if r.Context().Err() != nil {
					res.b.cancels.Inc()
					return
				}
				var bp *backpressureError
				switch {
				case errors.Is(res.err, errBudgetExhausted):
					lastErr = res.err
				case errors.As(res.err, &bp):
					lastBP = bp
				default:
					g.markFailure(res.b, res.err)
					lastErr = res.err
				}
				// A failed primary is a stronger hedge signal than the
				// latency timer; fire the backup attempt now.
				tryHedge()
				continue
			}
			g.markSuccess(res.b)
			if hedged && outstanding > 0 {
				// A real race happened; record who won. The straggler's
				// goroutine exits on its own once its call resolves (the
				// request context is canceled when this handler returns).
				won := "primary"
				if res.hedged {
					won = "hedge"
				}
				g.hedgeWins[won].Inc()
			}
			relay(w, res.status, res.body, res.ct)
			return
		}
	}
	if lastBP != nil {
		lastBP.relayTo(w)
		return
	}
	if errors.Is(lastErr, errBudgetExhausted) {
		g.fail(w, http.StatusGatewayTimeout, "deadline budget exhausted before backend call")
		return
	}
	g.noBackendFor(w, src)
}

// sourceParam pulls the source vertex out of a /distance query; full
// validation (range checks, the t parameter) is the backend's job.
func sourceParam(r *http.Request) (int32, error) {
	raw := r.URL.Query().Get("s")
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", "s")
	}
	var v int64
	if _, err := fmt.Sscanf(raw, "%d", &v); err != nil || v < 0 || v > 1<<31-1 {
		return 0, fmt.Errorf("parameter %q is not a vertex id", "s")
	}
	return int32(v), nil
}

// errBudgetExhausted reports that the request's remaining deadline
// budget is too small to attempt a backend call at all.
var errBudgetExhausted = errors.New("deadline budget exhausted before backend call")

// forward performs one backend call, returning the response whole so
// the caller can merge or relay it. kind names which leg of the
// request this attempt is ("primary", "retry", "hedge", "shard",
// "shard-retry"); it labels the attempt span and, for non-primary
// legs, rides to the backend as an AttemptHeader so replica query
// logs can tell one slow query from one that cost two backends.
//
// Deadline budgets propagate here: when the inbound request carries a
// context deadline (the gateway's own RequestTimeout, or a client
// budget the resilience layer already folded in), the remaining time
// minus BudgetMargin both caps the call timeout and is forwarded as a
// BudgetHeader so the backend abandons work the gateway can no longer
// use.
//
// Every attempt that is actually made gets its own child span (a
// budget-exhausted bail-out never reaches the wire, so it gets none),
// and the outbound call carries that span's context as a traceparent —
// the replica's handler span parents under the exact attempt that
// caused it, hedge losers and retried shards included. The gateway's
// request ID is forwarded on every leg so all replicas log the same
// correlation ID instead of minting their own.
//
// The reply is read whole up to replyCap bytes; a longer one is a
// failed call (batchwire.ErrReplyTooLarge), never a truncated answer.
//
// Status classification: 2xx and 4xx are the caller's to relay or
// merge; 504 is relayed verbatim (the budget ran out downstream — the
// backend behaved correctly); 429/503 come back as a *backpressureError
// (busy, not broken: retryable elsewhere but never counted toward
// ejection); any other 5xx is a real failure.
func (g *Gateway) forward(ctx context.Context, b *backend, method, path string, body []byte, replyCap int64, kind string) (int, []byte, string, error) {
	timeout := g.cfg.BackendTimeout
	if dl, ok := ctx.Deadline(); ok {
		remain := time.Until(dl) - g.cfg.BudgetMargin
		if remain <= 0 {
			return 0, nil, "", errBudgetExhausted
		}
		if remain < timeout {
			timeout = remain
		}
	}
	b.requests.Inc()
	spanName := "backend " + path
	if i := strings.IndexByte(spanName, '?'); i >= 0 {
		spanName = spanName[:i]
	}
	ctx, span := telemetry.StartChild(ctx, spanName)
	defer span.End()
	span.SetAttr("backend", b.id)
	span.SetAttr("kind", kind)
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, rd)
	if err != nil {
		span.SetError(err)
		return 0, nil, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resilience.SetBudget(req.Header, timeout)
	if rid := telemetry.RequestIDFrom(ctx); rid != "" {
		req.Header.Set(telemetry.RequestIDHeader, rid)
	}
	switch kind {
	case "retry", "hedge", "shard-retry":
		req.Header.Set(telemetry.AttemptHeader, kind)
	}
	telemetry.InjectTraceParent(req.Header, span.Context())
	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		span.SetError(err)
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	data, err := batchwire.ReadReply(resp.Body, resp.ContentLength, replyCap)
	if err != nil {
		err = fmt.Errorf("%s %s: %w", method, path, err)
		span.SetError(err)
		return 0, nil, "", err
	}
	span.SetStatus(resp.StatusCode)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		b.backpressure.Inc()
		span.Event("backpressure", fmt.Sprintf("backend answered %d", resp.StatusCode))
		return 0, nil, "", &backpressureError{
			status: resp.StatusCode, body: data,
			ct:         resp.Header.Get("Content-Type"),
			retryAfter: resp.Header.Get("Retry-After"),
		}
	case resp.StatusCode == http.StatusMisdirectedRequest:
		// The replica disowned a vertex this gateway routed to it: the
		// routing map and the fleet disagree (stale map or mid-rollout
		// topology change). Counted for alerting, then relayed with the
		// replica's Rne-Shard-Owner hint — the backend is healthy, the
		// route was wrong.
		g.staleRoutes.Inc()
		span.Event("stale-route", "backend disowned the routed vertex (421)")
	case resp.StatusCode >= 500 &&
		resp.StatusCode != http.StatusGatewayTimeout &&
		resp.StatusCode != http.StatusNotImplemented:
		// 501 is a capability statement (e.g. a shard replica with no
		// spatial index answering /knn), relayed verbatim rather than
		// treated as a replica failure — ejecting a healthy fleet
		// because a route is unimplemented would be self-inflicted.
		err := fmt.Errorf("%s %s returned %d", method, path, resp.StatusCode)
		span.SetError(err)
		return 0, nil, "", err
	}
	if resp.StatusCode < 300 {
		g.backendLatency.ObserveExemplar(time.Since(start).Seconds(), span.ExemplarID())
	}
	return resp.StatusCode, data, resp.Header.Get("Content-Type"), nil
}

// backendBatch is the slice of an inbound batch owned by one backend:
// the original indices (for order-preserving scatter) and the pairs.
type backendBatch struct {
	b        *backend
	index    []int
	src, dst []int32
}

// handleBatch is the fan-out path: split the pairs by their source
// vertex's ring owner, post every sub-batch concurrently, and scatter
// the answers back into the original order. A failed sub-batch is
// retried once on the next healthy backend (budget permitting, with
// real failures recorded against the first); a sub-batch that still
// cannot be served degrades the response instead of failing it: the
// surviving pairs come back with their distances, the lost ones as
// per-pair error entries, under 206 Partial Content with "partial":
// true. Only when every sub-batch fails (502) — or no pair is
// routable at all (503) — does the whole request fail.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	bufs := batchwire.GetBuffers()
	defer bufs.Release()
	var err error
	if bufs.Body, err = batchwire.ReadBody(w, r, g.cfg.MaxBatchBytes, bufs.Body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			g.fail(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d byte limit", tooLarge.Limit)
			return
		}
		g.fail(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	bufs.S, bufs.T, err = batchwire.DecodePairs(bufs.Body, bufs.S, bufs.T)
	if err != nil {
		g.fail(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	ss, ts := bufs.S, bufs.T
	if len(ss) == 0 {
		g.fail(w, http.StatusBadRequest, "empty batch")
		return
	}
	g.retryTokens.onRequest()

	groups := make(map[*backend]*backendBatch)
	var errs []batchwire.PairError
	for i := range ss {
		b := g.route(ss[i], nil)
		if b == nil {
			msg := "no healthy backend"
			if sm := g.cfg.ShardMap; sm != nil {
				if owner, ok := sm.ShardOf(ss[i]); ok {
					msg = fmt.Sprintf("shard %d has no healthy replica", owner)
				} else {
					msg = fmt.Sprintf("vertex %d outside the shard map", ss[i])
				}
			}
			errs = append(errs, batchwire.PairError{Index: i, Error: msg})
			continue
		}
		gr := groups[b]
		if gr == nil {
			gr = &backendBatch{b: b}
			groups[b] = gr
		}
		gr.index = append(gr.index, i)
		gr.src = append(gr.src, ss[i])
		gr.dst = append(gr.dst, ts[i])
	}
	if len(groups) == 0 {
		g.fail(w, http.StatusServiceUnavailable, "no healthy backends")
		return
	}

	type result struct {
		gr    *backendBatch
		reply *batchwire.Reply
		code  int    // non-zero 4xx to relay verbatim
		body  []byte // 4xx body
		err   error
	}
	results := make(chan result, len(groups))
	for _, gr := range groups {
		go func(gr *backendBatch) {
			res := result{gr: gr}
			res.reply, res.code, res.body, res.err = g.sendBatch(r.Context(), gr)
			results <- res
		}(gr)
	}

	merge := batchwire.NewMerge(len(ss))
	clamped := 0
	guarded := true
	served := 0
	sawBackoff := false
	for range groups {
		res := <-results
		if res.err != nil {
			if r.Context().Err() != nil {
				// The client is gone; nothing to degrade for.
				return
			}
			if errors.Is(res.err, errBackpressure) ||
				(g.retryTokens.enabled() && errors.Is(res.err, errRetryDenied)) {
				sawBackoff = true
			}
			for _, orig := range res.gr.index {
				errs = append(errs, batchwire.PairError{Index: orig, Error: res.err.Error()})
			}
			continue
		}
		if res.code != 0 {
			// A backend rejected its slice as a bad request (e.g. vertex
			// out of range): the client's fault, relayed verbatim.
			relay(w, res.code, res.body, "application/json")
			return
		}
		rp, n := res.reply, len(res.gr.index)
		if len(rp.Distances) != n {
			shape := fmt.Errorf("backend %s returned %d distances for %d pairs",
				res.gr.b.id, len(rp.Distances), n)
			for _, orig := range res.gr.index {
				errs = append(errs, batchwire.PairError{Index: orig, Error: shape.Error()})
			}
			continue
		}
		served++
		if len(rp.Lo) == n && len(rp.Hi) == n {
			if rp.HasClamped {
				clamped += rp.ClampedCount
			}
		} else {
			guarded = false
		}
		merge.Add(rp, res.gr.index)
	}

	if served == 0 {
		if sawBackoff {
			// Every shard failed, but at least one failure was shed load or
			// a budget-denied retry: the fleet is saturated, not down.
			// Answer 429 so clients back off and retry, not 502.
			w.Header().Set("Retry-After", fmt.Sprintf("%.2f", g.jittered(time.Second).Seconds()))
			g.fail(w, http.StatusTooManyRequests,
				"fleet saturated: every backend sub-batch was shed (%d pairs)", len(ss))
			return
		}
		g.fail(w, http.StatusBadGateway, "every backend sub-batch failed (%d pairs)", len(ss))
		return
	}
	if len(errs) == 0 {
		// Guard bounds survive the merge only when every backend answered
		// with certified bounds.
		bufs.Out = merge.AppendOK(bufs.Out[:0], guarded, clamped)
		batchwire.Write(w, http.StatusOK, bufs.Out)
		return
	}

	// Partial degradation: null out the lost pairs, attach their error
	// entries, and say so with 206 + "partial": true. Guard bounds are
	// dropped — a partial set of certificates is not a certificate.
	g.batchPartial.Inc()
	g.pairErrors.Add(int64(len(errs)))
	if rspan := telemetry.SpanFromContext(r.Context()); rspan.Recording() {
		rspan.Event("partial", fmt.Sprintf("%d of %d pairs failed", len(errs), len(ss)))
		rspan.SetAttrInt("pair_errors", int64(len(errs)))
	}
	sortPairErrors(errs)
	bufs.Out = merge.AppendPartial(bufs.Out[:0], errs)
	batchwire.Write(w, http.StatusPartialContent, bufs.Out)
}

// sortPairErrors orders error entries by pair index so partial
// responses are deterministic regardless of fan-out completion order.
func sortPairErrors(errs []batchwire.PairError) {
	slices.SortFunc(errs, func(a, b batchwire.PairError) int { return a.Index - b.Index })
}

// sendBatch posts one sub-batch, retrying once on the next healthy
// backend when the owner fails (spending a retry-budget token; a
// drained budget stops the retry rather than amplifying load).
// Backend backpressure (429/503) is retryable but never counted
// toward ejection. Returns either a scanned reply (a malformed one is
// a "bad reply" error), or a 4xx status+body to relay, or an error
// when no backend could serve the slice — the caller degrades those
// pairs instead of failing the whole batch. A reply longer than the
// longest answer to the slice's pair count fails as over its cap.
func (g *Gateway) sendBatch(ctx context.Context, gr *backendBatch) (*batchwire.Reply, int, []byte, error) {
	body := batchwire.AppendRequest(nil, gr.src, gr.dst)
	replyCap := batchwire.MaxReplyBytes(len(gr.src))
	exclude := map[*backend]bool{}
	b := gr.b
	var lastErr error
	for attempt := 0; attempt < 2 && b != nil; attempt++ {
		kind := "shard"
		if attempt > 0 {
			if !g.retryTokens.take() {
				g.retriesDenied.Inc()
				lastErr = fmt.Errorf("%w; last: %w", errRetryDenied, lastErr)
				break
			}
			g.retries.Inc()
			kind = "shard-retry"
		}
		status, data, _, err := g.forward(ctx, b, http.MethodPost, "/batch", body, replyCap, kind)
		if err != nil {
			if ctx.Err() != nil {
				// Client cancellation, propagated into the sub-request:
				// not the backend's fault, and not worth a retry the
				// client will never see.
				b.cancels.Inc()
				return nil, 0, nil, fmt.Errorf("client canceled: %w", ctx.Err())
			}
			lastErr = err
			var bp *backpressureError
			switch {
			case errors.Is(err, errBudgetExhausted):
				// No budget left for any backend; retrying cannot help.
				return nil, 0, nil, err
			case errors.As(err, &bp):
				// Busy, not broken: no ejection bookkeeping.
			default:
				g.markFailure(b, err)
			}
			exclude[b] = true
			// Re-route by the slice's first source so the retry lands on
			// the next owner: the ring's next backend in hash mode, a
			// sibling replica of the same geo-shard in region mode.
			b = g.route(gr.src[0], exclude)
			continue
		}
		g.markSuccess(b)
		if status == http.StatusGatewayTimeout {
			// The backend ran out of forwarded budget mid-slice; surface
			// it as this slice's failure, not a relayable 4xx.
			return nil, 0, nil, fmt.Errorf("backend %s: budget exhausted (504)", b.id)
		}
		if status != http.StatusOK {
			return nil, status, data, nil
		}
		reply := batchwire.NewReply(len(gr.src))
		if err := reply.Scan(data); err != nil {
			return nil, 0, nil, fmt.Errorf("backend %s: bad reply: %w", b.id, err)
		}
		return reply, 0, nil, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no healthy backend")
	}
	return nil, 0, nil, lastErr
}
