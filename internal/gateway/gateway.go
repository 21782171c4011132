// Package gateway is the scale-out tier in front of rneserver
// replicas: one stdlib-only HTTP process that fans a /batch request
// out across N backends and merges the answers in order, and proxies
// the single-source routes (/distance, /knn, /range) to their owner.
//
// One routing rule serves every fleet. Each backend belongs to a
// region: region 0 when the replicas hold the whole model, and its
// geo-shard (internal/shard) when Config.ShardMap splits the model. A
// source vertex goes to the healthy replica of its region with the
// highest rendezvous (highest-random-weight) score for that vertex, so
// each source keeps one owner, ejecting a replica moves only the
// sources it owned, and a retry, hedge or failed sub-batch goes to the
// next-ranked replica of the same region. In a sharded fleet each
// backend's shard is discovered from its /readyz probe; a replica
// answering 421 (stale map, misrouted vertex) is counted on
// rne_gateway_stale_routes_total and relayed with its redirect hint. A
// region with no healthy replica degrades only its own vertices (503);
// other regions keep serving.
//
// Backends are health-checked actively (periodic /readyz probes) and
// passively (proxy failures count); a backend that fails repeatedly is
// ejected from routing and re-probed on an exponential backoff until
// it recovers, mirroring the ejection/backoff discipline of the
// internal/resilience serving stack. The gateway exposes the same
// operational surface as the replicas it fronts: /healthz, /readyz
// and /metrics (Prometheus text).
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strconv"
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
	// ShardMap splits the fleet into regions: each source vertex goes
	// to a replica of its owning geo-shard (loaded from the sharded
	// registry version's shards/shardmap.rnemap). Backends then must be
	// shard replicas, each one's shard discovered from its /readyz
	// probe. Nil makes the fleet one region of full-model replicas. A
	// backend reporting a shard count other than the fleet's fails its
	// probe.
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
	// call has been outstanding longer than the observed p95 of
	// successful backend /distance calls (clamped into [HedgeMinDelay,
	// HedgeMaxDelay]), a second attempt is sent to the next-ranked
	// replica of the source's region and the first answer wins.
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
	// resilience.Wrap pass, with the same semantics as the server's.
	MaxInFlight    int
	RequestTimeout time.Duration
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

	// shardID is the region this backend serves: 0 from the start in a
	// one-region fleet; in a sharded fleet the geo-shard its probe
	// reported, -1 until then. A probe reporting a shard the fleet does
	// not have resets it to -1, taking the backend out of routing.
	shardID atomic.Int32
	// hash is the fixed hash of id that rendezvous scores mix with each
	// source vertex.
	hash uint64

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
	regions  int // the shard map's shard count, or 1

	ejections      *telemetry.Counter
	revivals       *telemetry.Counter
	retries        *telemetry.Counter
	retriesDenied  *telemetry.Counter
	hedgeWins      map[string]*telemetry.Counter // keyed by the won= label
	batchPartial   *telemetry.Counter
	pairErrors     *telemetry.Counter
	staleRoutes    *telemetry.Counter
	sheds          *telemetry.Counter
	backendLatency map[string]*telemetry.Histogram // by proxied route
	retryTokens    *retryBudget
	tracer         *telemetry.RequestTracer // nil disables tracing

	jitterMu  sync.Mutex
	jitterRng *rand.Rand

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New validates the backend list and starts the active health-probe
// loop. Backends start healthy (they are probed within one
// HealthInterval); in a one-region fleet they are routed to at once,
// in a sharded fleet once a probe has reported their shard. Call Close
// to stop the probe loop.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: need at least one backend")
	}
	routes := []string{"/batch", "/distance", "/knn", "/range"}
	g := &Gateway{
		cfg:   cfg,
		log:   telemetry.OrNop(cfg.Logger),
		stats: resilience.NewStats(routes...),
		client: &http.Client{
			Transport: cfg.Transport,
			Timeout:   cfg.BackendTimeout,
		},
		jitterRng: rand.New(rand.NewSource(time.Now().UnixNano())),
		stop:      make(chan struct{}),
	}
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
	g.sheds = reg.Counter("rne_gateway_shed_total",
		"429 answers from the gateway's handlers: a replica's 429 relayed, or a retry the budget refused. Sheds at the gateway's own in-flight cap count in rne_http_requests_shed_total.")
	// A one-region fleet routes every backend from the start; a sharded
	// one routes a backend once a probe has reported its shard.
	g.regions = 1
	region := int32(0)
	if cfg.ShardMap != nil {
		g.regions = cfg.ShardMap.NumShards()
		region = -1
		reg.Gauge("rne_model_bytes",
			"Resident bytes of routing state, by component.",
			"component", "shardmap").Set(float64(cfg.ShardMap.IndexBytes()))
	}
	g.backendLatency = make(map[string]*telemetry.Histogram)
	for _, route := range routes {
		h := reg.Histogram("rne_gateway_backend_latency_seconds",
			"Latency of successful backend calls, by route; the /distance series feeds the hedge delay.",
			telemetry.LatencyBuckets, "route", route)
		h.EnableExemplars()
		g.backendLatency[route] = h
	}
	g.retryTokens = newRetryBudget(cfg.RetryBudget)
	if cfg.Trace.Path != "" {
		tc := cfg.Trace
		if tc.Service == "" {
			tc.Service = "gateway"
		}
		tr, err := telemetry.NewRequestTracer(tc)
		if err != nil {
			return nil, fmt.Errorf("gateway: %w", err)
		}
		g.tracer = tr
		tr.RegisterMetrics(reg)
	}

	seen := make(map[string]bool)
	for _, raw := range cfg.Backends {
		u, err := url.Parse(strings.TrimRight(strings.TrimSpace(raw), "/"))
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("gateway: backend %q is not an absolute URL", raw)
		}
		if seen[u.Host] {
			return nil, fmt.Errorf("gateway: duplicate backend %q", u.Host)
		}
		seen[u.Host] = true
		h := fnv.New64a()
		h.Write([]byte(u.Host))
		b := &backend{
			id:   u.Host,
			base: u.String(),
			hash: h.Sum64(),
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
		b.shardID.Store(region)
		g.backends = append(g.backends, b)
	}

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

// Stats exposes the request counters backing /metrics.
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

// Handler returns the gateway route table behind the same serving pass
// the replicas use (resilience.Wrap):
//
//	GET  /healthz    gateway liveness + per-backend health and shard
//	GET  /readyz     per-region coverage; 503 iff no region has a routed replica
//	GET  /metrics    Prometheus text exposition
//	GET  /distance   proxied to the source vertex's owner
//	GET  /knn        proxied to the source vertex's owner
//	GET  /range      proxied to the source vertex's owner
//	POST /batch      split by source vertex, fanned out, merged in order
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("GET /readyz", g.handleReady)
	mux.Handle("GET /metrics", g.stats.Registry().Handler())
	mux.HandleFunc("GET /distance", g.handleProxy)
	mux.HandleFunc("GET /knn", g.handleProxy)
	mux.HandleFunc("GET /range", g.handleProxy)
	mux.HandleFunc("POST /batch", g.handleBatch)
	return resilience.Wrap(mux, resilience.Options{
		MaxInFlight: g.cfg.MaxInFlight,
		Timeout:     g.cfg.RequestTimeout,
		Logger:      g.cfg.Logger,
		Stats:       g.stats,
		Tracer:      g.tracer,
	})
}

// regionOf returns the region that owns vertex v: its geo-shard under
// a shard map, region 0 in a one-region fleet. ok is false for a
// vertex outside the shard map.
func (g *Gateway) regionOf(v int32) (int, bool) {
	if sm := g.cfg.ShardMap; sm != nil {
		return sm.ShardOf(v)
	}
	return 0, true
}

// route returns the replica that owns src: of the healthy,
// non-excluded backends serving src's region, the one with the highest
// rendezvous score for src. Excluding the owner yields the next-ranked
// replica of the same region, which is where retries, hedges and
// failed sub-batches go. Returns nil when no replica of the region
// qualifies; replicas of other regions never do, since they would
// disown the vertex with a 421.
func (g *Gateway) route(src int32, exclude map[*backend]bool) *backend {
	region, ok := g.regionOf(src)
	if !ok {
		return nil
	}
	var best *backend
	var bestScore uint64
	for _, b := range g.backends {
		if b.shardID.Load() != int32(region) || !b.healthy.Load() || exclude[b] {
			continue
		}
		if s := rendezvous(b.hash, src); best == nil || s > bestScore {
			best, bestScore = b, s
		}
	}
	return best
}

// rendezvous scores the backend whose id hashes to h for vertex v:
// MurmurHash3's 64-bit finalizer over the two. It depends only on the
// backend id and the vertex, so every gateway fed the same backend
// list ranks a vertex's replicas the same way.
func rendezvous(h uint64, v int32) uint64 {
	k := h ^ uint64(uint32(v))
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
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
// A 200 also tells the gateway which region the backend serves: the
// readiness body's model.shard block, or shard 0 of 1 when the block is
// absent (a full-model replica). A backend reporting a shard count
// other than the fleet's fails its probe and leaves routing at once:
// it would serve another region's answers, or disown the vertices
// routed to it. A shed (429) probe carries no body, so it keeps the
// region last reported.
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
	if resp.StatusCode != http.StatusOK {
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
	id, shards := 0, 1
	if json.Unmarshal(body, &ready) == nil && ready.Model.Shard != nil {
		id, shards = ready.Model.Shard.ID, ready.Model.Shard.Shards
	}
	if shards != g.regions || id < 0 || id >= shards {
		b.shardID.Store(-1)
		return fmt.Errorf("backend serves shard %d of %d but the fleet has %d shards",
			id, shards, g.regions)
	}
	if prev := b.shardID.Swap(int32(id)); prev >= 0 && prev != int32(id) {
		g.log.Warn("backend changed shard identity", "backend", b.id, "from", prev, "to", id)
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

// shed answers 429 with a jittered Retry-After and counts it.
func (g *Gateway) shed(w http.ResponseWriter, format string, args ...any) {
	g.sheds.Inc()
	w.Header().Set("Retry-After", resilience.RetryAfterHint())
	g.fail(w, http.StatusTooManyRequests, format, args...)
}

func (g *Gateway) backendStates() []map[string]any {
	out := make([]map[string]any, len(g.backends))
	for i, b := range g.backends {
		out[i] = map[string]any{
			"backend": b.id,
			"healthy": b.healthy.Load(),
			"shard":   b.shardID.Load(), // -1 until a probe reports one
		}
	}
	return out
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	g.writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"role":     "gateway",
		"backends": g.backendStates(),
		"healthy":  g.HealthyBackends(),
	})
}

// handleReady is what an upstream load balancer gates on. Readiness is
// per region: ready when every region has a routed replica and no
// backend is ejected; degraded (still 200, the covered regions serve)
// when some region is uncovered, listed in shards_down, or some backend
// is ejected; 503 only when no region is covered at all.
func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	cover := make([]int, g.regions)
	healthy := 0
	for _, b := range g.backends {
		if !b.healthy.Load() {
			continue
		}
		healthy++
		if sid := b.shardID.Load(); sid >= 0 {
			cover[sid]++
		}
	}
	var down []int
	for sid, n := range cover {
		if n == 0 {
			down = append(down, sid)
		}
	}
	covered := g.regions - len(down)
	status := http.StatusOK
	state := "ready"
	switch {
	case covered == 0:
		status = http.StatusServiceUnavailable
		state = "unavailable"
	case len(down) > 0 || healthy < len(g.backends):
		state = "degraded"
	}
	out := map[string]any{
		"status":   state,
		"shards":   g.regions,
		"covered":  covered,
		"healthy":  healthy,
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

// handleProxy forwards /distance, /knn and /range to the source
// vertex's owner through the attempt loop, hedging /distance when
// cfg.Hedge is set (/knn and /range result sets can be large). A shard
// replica, which has no spatial index, answers /knn and /range 501;
// that is relayed with its body, so clients get a clear "not
// implemented on this deployment" rather than a routing error.
//
// When no attempt served the request, a deadline budget spent before a
// backend call is 504. Otherwise, when the owners shed the request, the
// backend's own shed response (with its Retry-After context) is
// relayed rather than inventing an outage for a fleet that is alive but
// saturated. A retry or hedge denied by an enabled retry budget means
// failures already dominate the traffic mix: the fleet is drowning, not
// dead, so the gateway sheds with 429 and Retry-After and the client
// backs off. Only then is src's region reported degraded: other regions
// may still be serving, so the honest answer is a region-scoped 503 the
// client can retry after the region recovers.
func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	src, err := sourceParam(r)
	if err != nil {
		g.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A source outside the shard map is rejected before any routing; a
	// one-region fleet maps every vertex, and range validation is then
	// the backend's job.
	region, ok := g.regionOf(src)
	if !ok {
		g.fail(w, http.StatusBadRequest, "vertex %d outside the shard map [0,%d)", src, g.cfg.ShardMap.NumVertices())
		return
	}
	g.retryTokens.onRequest()
	req := backendRequest{route: r.URL.Path, path: r.URL.Path + "?" + r.URL.RawQuery,
		replyCap: g.cfg.MaxBatchBytes, kinds: [2]string{"primary", "retry"}}
	if g.cfg.Hedge && req.route == "/distance" {
		req.kinds[1] = "hedge"
	}
	won, busy, err := g.call(r.Context(), src, req)
	switch {
	case err == nil:
		relay(w, won.status, won.body, won.ct)
	case r.Context().Err() != nil:
		// The client hung up or its deadline expired: no one is left to
		// answer.
	case errors.Is(err, errBudgetExhausted):
		g.fail(w, http.StatusGatewayTimeout, "deadline budget exhausted before backend call")
	case busy != nil:
		if busy.status == http.StatusTooManyRequests {
			g.sheds.Inc()
		}
		busy.relayTo(w)
	case errors.Is(err, errRetryDenied) && g.retryTokens.enabled():
		g.shed(w, "retry budget exhausted for vertex %d; back off", src)
	default:
		w.Header().Set("Retry-After", resilience.RetryAfterHint())
		g.fail(w, http.StatusServiceUnavailable, "shard %d degraded: no healthy replica for vertex %d", region, src)
	}
}

// sourceParam pulls the source vertex out of a /distance query with
// the replica's own integer syntax, so a value the replica would
// reject costs no backend call; the rest of the validation (the upper
// range bound, the t parameter) is the backend's job.
func sourceParam(r *http.Request) (int32, error) {
	raw := r.URL.Query().Get("s")
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", "s")
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 || v > 1<<31-1 {
		return 0, fmt.Errorf("parameter %q is not a vertex id", "s")
	}
	return int32(v), nil
}

// errBudgetExhausted reports that the request's remaining deadline
// budget is too small to attempt a backend call at all.
var errBudgetExhausted = errors.New("deadline budget exhausted before backend call")

// errNoBackend reports that no replica of the source's region was
// routable for a first attempt.
var errNoBackend = errors.New("no healthy backend")

// backendRequest is what the attempt loop sends: the same request to
// whichever replica an attempt picks.
type backendRequest struct {
	route    string // "/distance", "/knn", "/range" or "/batch"
	path     string // route and query
	body     []byte // a POST body; nil sends a GET
	replyCap int64  // the longest reply read
	// kinds names the first attempt and the second, which goes to the
	// next-ranked replica when the first fails. A second attempt of kind
	// "hedge" also starts once the first has been outstanding for the
	// hedge delay.
	kinds [2]string
}

// answer is one attempt's outcome: the backend's reply, or err.
type answer struct {
	b      *backend
	kind   string
	status int
	body   []byte
	ct     string
	err    error
}

// call is the gateway's one attempt loop, behind every proxied request
// and every /batch leg. The first attempt goes to src's owner. When it
// fails, the second goes to the next-ranked replica of src's region
// and costs one retry-budget token; a hedge also starts once the first
// has been outstanding for the hedge delay. The first success wins and
// the other attempt is canceled. A deadline budget too small for a
// further backend call, or a client that has gone away, ends the call.
// Only the loop keeps the health bookkeeping: backpressure (429/503)
// is busy, not broken, so it is retried elsewhere but never counted
// toward ejection.
//
// call returns the winning answer, or an error saying why no attempt
// won, with the last backpressure answer seen, if any.
func (g *Gateway) call(ctx context.Context, src int32, req backendRequest) (answer, *backpressureError, error) {
	b := g.route(src, nil)
	if b == nil {
		return answer{}, nil, errNoBackend
	}
	timeout, err := g.callTimeout(ctx)
	if err != nil {
		return answer{}, nil, err
	}
	hedge := req.kinds[1] == "hedge"
	var delay <-chan time.Time // fires the hedge; nil in an unhedged call
	if hedge {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel() // ends the losing attempt
		t := time.NewTimer(g.hedgeDelay())
		defer t.Stop()
		delay = t.C
	}
	done := make(chan answer, 2) // one slot per attempt, so a loser never blocks
	attempt := func(ctx context.Context, b *backend, req backendRequest, kind string, timeout time.Duration) {
		done <- g.forward(ctx, b, req, kind, timeout)
	}
	pending := 0
	// send starts an attempt: on its own goroutine in a hedged call, so
	// the second can start while the first is outstanding, else on this
	// one.
	send := func(b *backend, kind string, timeout time.Duration) {
		pending++
		if hedge {
			go attempt(ctx, b, req, kind, timeout)
		} else {
			attempt(ctx, b, req, kind, timeout)
		}
	}
	send(b, req.kinds[0], timeout)
	tried := map[*backend]bool{b: true}
	var busy *backpressureError
	var last, refused error // the last attempt's failure; why no second attempt went out
	second := false         // whether the second attempt has been decided
	for pending > 0 {
		select {
		case <-delay:
			delay = nil
		case a := <-done:
			pending--
			if a.err == nil {
				g.markSuccess(a.b)
				if pending > 0 {
					g.hedgeWins[a.kind].Inc() // a real race happened
				}
				return a, nil, nil
			}
			if ctx.Err() != nil {
				// The client hung up or its deadline expired mid-call: the
				// backend did nothing wrong, so the failure must not count
				// toward its ejection, and retrying is pointless.
				a.b.cancels.Inc()
				return answer{}, busy, fmt.Errorf("client canceled: %w", ctx.Err())
			}
			var bp *backpressureError
			if errors.As(a.err, &bp) {
				busy = bp
			} else {
				g.markFailure(a.b, a.err)
			}
			last = a.err
		}
		if second {
			continue
		}
		second = true
		next := g.route(src, tried)
		if next == nil {
			continue
		}
		if timeout, refused = g.callTimeout(ctx); refused != nil {
			continue
		}
		if !g.retryTokens.take() {
			g.retriesDenied.Inc()
			refused = errRetryDenied
			continue
		}
		if !hedge {
			g.retries.Inc()
		}
		send(next, req.kinds[1], timeout)
	}
	if errors.Is(refused, errRetryDenied) {
		return answer{}, busy, fmt.Errorf("%w; last: %w", errRetryDenied, last)
	}
	if refused != nil {
		return answer{}, busy, refused
	}
	return answer{}, busy, last
}

// callTimeout is the time the next backend call may take:
// BackendTimeout, capped by the request's remaining deadline (the
// gateway's own RequestTimeout, or a client budget the resilience
// layer already folded in) less BudgetMargin, so the backend gives up
// slightly before the gateway does. A budget with no time left for a
// call is errBudgetExhausted.
func (g *Gateway) callTimeout(ctx context.Context) (time.Duration, error) {
	timeout := g.cfg.BackendTimeout
	if dl, ok := ctx.Deadline(); ok {
		remain := time.Until(dl) - g.cfg.BudgetMargin
		if remain <= 0 {
			return 0, errBudgetExhausted
		}
		timeout = min(timeout, remain)
	}
	return timeout, nil
}

// forward performs one backend call within timeout, returning the
// reply whole so the caller can merge or relay it. kind names which
// attempt this is ("primary", "retry", "hedge", "shard",
// "shard-retry"); it labels the attempt span and, for non-primary
// legs, rides to the backend as an AttemptHeader so replica query logs
// can tell one slow query from one that cost two backends. timeout
// rides along as a BudgetHeader, so the backend abandons work the
// gateway can no longer use.
//
// Every attempt gets its own child span, and the outbound call carries
// that span's context as a traceparent — the replica's handler span
// parents under the exact attempt that caused it, hedge losers and
// retried shards included. The gateway's request ID is forwarded on
// every leg so all replicas log the same correlation ID instead of
// minting their own.
//
// The reply is read whole up to req.replyCap bytes; a longer one is a
// failed call (batchwire.ErrReplyTooLarge), never a truncated answer.
//
// Status classification: 2xx and 4xx are the caller's to relay or
// merge; 504 is relayed verbatim (the budget ran out downstream — the
// backend behaved correctly); 429/503 come back as a *backpressureError
// (busy, not broken: retryable elsewhere but never counted toward
// ejection); any other 5xx is a real failure. A successful call's
// latency is filed under its route.
func (g *Gateway) forward(ctx context.Context, b *backend, req backendRequest, kind string, timeout time.Duration) answer {
	a := answer{b: b, kind: kind}
	method := http.MethodGet
	var body io.Reader
	if req.body != nil {
		method, body = http.MethodPost, bytes.NewReader(req.body)
	}
	b.requests.Inc()
	ctx, span := telemetry.StartChild(ctx, "backend "+req.route)
	defer span.End()
	span.SetAttr("backend", b.id)
	span.SetAttr("kind", kind)
	failed := func(err error) answer {
		span.SetError(err)
		a.err = err
		return a
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, method, b.base+req.path, body)
	if err != nil {
		return failed(err)
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resilience.SetBudget(hr.Header, timeout)
	if rid := telemetry.RequestIDFrom(ctx); rid != "" {
		hr.Header.Set(telemetry.RequestIDHeader, rid)
	}
	if kind != "primary" && kind != "shard" {
		hr.Header.Set(telemetry.AttemptHeader, kind)
	}
	telemetry.InjectTraceParent(hr.Header, span.Context())
	start := time.Now()
	resp, err := g.client.Do(hr)
	if err != nil {
		return failed(err)
	}
	defer resp.Body.Close()
	data, err := batchwire.ReadReply(resp.Body, resp.ContentLength, req.replyCap)
	if err != nil {
		return failed(fmt.Errorf("%s %s: %w", method, req.path, err))
	}
	span.SetStatus(resp.StatusCode)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		b.backpressure.Inc()
		span.Event("backpressure", fmt.Sprintf("backend answered %d", resp.StatusCode))
		a.err = &backpressureError{
			status: resp.StatusCode, body: data,
			ct:         resp.Header.Get("Content-Type"),
			retryAfter: resp.Header.Get("Retry-After"),
		}
		return a
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
		return failed(fmt.Errorf("%s %s returned %d", method, req.path, resp.StatusCode))
	}
	if resp.StatusCode < 300 {
		g.backendLatency[req.route].ObserveExemplar(time.Since(start).Seconds(), span.ExemplarID())
	}
	a.status, a.body, a.ct = resp.StatusCode, data, resp.Header.Get("Content-Type")
	return a
}

// backendBatch is the slice of an inbound batch owned by one backend:
// the original indices (for order-preserving scatter) and the pairs.
type backendBatch struct {
	b        *backend
	index    []int
	src, dst []int32
}

// handleBatch is the fan-out path: split the pairs by their source
// vertex's owner, post every sub-batch concurrently, and scatter the
// answers back into the original order. A failed sub-batch is retried
// once on the next-ranked replica of its region (budget permitting, with
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
			msg := fmt.Sprintf("vertex %d outside the shard map", ss[i])
			if region, ok := g.regionOf(ss[i]); ok {
				msg = fmt.Sprintf("shard %d has no healthy replica", region)
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
			g.shed(w, "fleet saturated: every backend sub-batch was shed (%d pairs)", len(ss))
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

// sendBatch posts one sub-batch through the attempt loop. It returns
// either a scanned reply (a malformed one is a "bad reply" error), or
// a 4xx status and body to relay, or an error when no backend could
// serve the slice — the caller degrades those pairs instead of failing
// the whole batch. A reply longer than the longest answer to the
// slice's pair count fails as over its cap.
func (g *Gateway) sendBatch(ctx context.Context, gr *backendBatch) (*batchwire.Reply, int, []byte, error) {
	// Every source of the slice has one owner, so routing by the first
	// reaches it, and a retry a sibling replica of its region.
	won, _, err := g.call(ctx, gr.src[0], backendRequest{
		route: "/batch", path: "/batch",
		body:     batchwire.AppendRequest(nil, gr.src, gr.dst),
		replyCap: batchwire.MaxReplyBytes(len(gr.src)),
		kinds:    [2]string{"shard", "shard-retry"},
	})
	if err != nil {
		return nil, 0, nil, err
	}
	if won.status == http.StatusGatewayTimeout {
		// The backend ran out of forwarded budget mid-slice; surface it
		// as this slice's failure, not a relayable 4xx.
		return nil, 0, nil, fmt.Errorf("backend %s: budget exhausted (504)", won.b.id)
	}
	if won.status != http.StatusOK {
		return nil, won.status, won.body, nil
	}
	reply := batchwire.NewReply(len(gr.src))
	if err := reply.Scan(won.body); err != nil {
		return nil, 0, nil, fmt.Errorf("backend %s: bad reply: %w", won.b.id, err)
	}
	return reply, 0, nil, nil
}
