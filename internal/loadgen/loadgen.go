// Package loadgen is the saturation-grade load harness behind
// cmd/rneload: a closed-loop (N clients at maximum throughput) and
// open-loop (target QPS on a paced arrival schedule) generator for the
// serving tier's /distance, /batch and /knn routes.
//
// Two decisions make its numbers honest where naive load scripts lie:
//
//   - Open-loop latency is measured from each request's *intended*
//     arrival time, not from when a backed-up client finally got to
//     send it. A saturated target therefore shows its real queueing
//     delay instead of the coordinated-omission artifact where every
//     sample conveniently waits for the previous one to finish. The
//     send lag (send time minus intent) is reported separately, and
//     arrivals the run ended before sending are counted, never
//     silently dropped.
//
//   - While clients run, the harness scrapes the target fleet's
//     /metrics and joins server-side counters (in-flight requests,
//     sheds, retries, hedges, GC cycles, goroutine/heap gauges) with the
//     client-observed latency of the same window, so a p99 knee is
//     attributable to admission, GC or kernel time rather than
//     guessed. Optional pprof capture from the operator listener adds
//     CPU/heap profiles at configurable points in a step.
//
// Per-client latency is captured in shared telemetry histograms
// (log-bucketed, interpolated quantiles — the same estimator the
// serving tier's /metrics exports) and merged associatively, so fleet
// quantiles do not depend on client fold order.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// LatencyBuckets is the harness's log-bucketed latency layout: 10µs to
// 10s at five buckets per decade, i.e. quantile estimates good to one
// ~1.6× bucket ratio across six decades.
var LatencyBuckets = telemetry.LogBuckets(1e-5, 10, 5)

// Route is one serving endpoint the generator can exercise.
type Route string

const (
	RouteDistance Route = "distance"
	RouteBatch    Route = "batch"
	RouteKNN      Route = "knn"
)

// Mix weights the route mix of a workload. Zero-weight routes are
// never issued; an all-zero mix defaults to distance-only.
type Mix struct {
	Distance int `json:"distance"`
	Batch    int `json:"batch"`
	KNN      int `json:"knn"`
}

func (m Mix) total() int { return m.Distance + m.Batch + m.KNN }

func (m Mix) withDefault() Mix {
	if m.total() <= 0 {
		return Mix{Distance: 1}
	}
	return m
}

// pick draws one route with probability proportional to its weight.
func (m Mix) pick(rng *rand.Rand) Route {
	n := rng.Intn(m.total())
	if n < m.Distance {
		return RouteDistance
	}
	if n < m.Distance+m.Batch {
		return RouteBatch
	}
	return RouteKNN
}

// ParseMix parses "distance=8,batch=1,knn=1" (missing routes weigh 0).
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("loadgen: mix entry %q is not route=weight", part)
		}
		w, err := strconv.Atoi(v)
		if err != nil || w < 0 {
			return m, fmt.Errorf("loadgen: mix weight %q must be a non-negative integer", v)
		}
		switch Route(k) {
		case RouteDistance:
			m.Distance = w
		case RouteBatch:
			m.Batch = w
		case RouteKNN:
			m.KNN = w
		default:
			return m, fmt.Errorf("loadgen: unknown route %q (want distance, batch or knn)", k)
		}
	}
	if m.total() <= 0 {
		return m, fmt.Errorf("loadgen: mix %q has no positive weight", s)
	}
	return m, nil
}

// Step is one load level of a run: Clients concurrent workers for
// Duration, either closed-loop (QPS == 0: every worker issues
// back-to-back requests at maximum throughput) or open-loop (QPS > 0:
// requests follow a paced arrival schedule shared by all workers).
// Observations whose intended start falls inside the first Warmup are
// excluded from the measured window.
type Step struct {
	Clients  int           `json:"clients"`
	QPS      float64       `json:"qps"`
	Duration time.Duration `json:"-"`
	Warmup   time.Duration `json:"-"`
}

// Label names the step in reports and profile file names.
func (s Step) Label() string {
	if s.QPS > 0 {
		return fmt.Sprintf("c%d-q%g", s.Clients, s.QPS)
	}
	return fmt.Sprintf("c%d-closed", s.Clients)
}

func (s Step) validate() error {
	if s.Clients < 1 {
		return fmt.Errorf("loadgen: step needs at least one client")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("loadgen: step duration must be positive")
	}
	if s.Warmup < 0 || s.Warmup >= s.Duration {
		return fmt.Errorf("loadgen: warmup %v must be within [0, duration %v)", s.Warmup, s.Duration)
	}
	if s.QPS < 0 {
		return fmt.Errorf("loadgen: QPS must be >= 0 (0 selects closed loop)")
	}
	return nil
}

// ParseSteps parses a semicolon-separated step list, each step a
// comma-separated c=<clients>,qps=<qps>,d=<duration>,w=<warmup> block,
// e.g. "c=4,qps=0,d=2s,w=500ms;c=8,qps=200,d=2s".
func ParseSteps(s string, defaultWarmup time.Duration) ([]Step, error) {
	var steps []Step
	for _, block := range strings.Split(s, ";") {
		block = strings.TrimSpace(block)
		if block == "" {
			continue
		}
		st := Step{Clients: 1, Warmup: defaultWarmup}
		for _, part := range strings.Split(block, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok {
				return nil, fmt.Errorf("loadgen: step entry %q is not key=value", part)
			}
			var err error
			switch k {
			case "c":
				st.Clients, err = strconv.Atoi(v)
			case "qps":
				st.QPS, err = strconv.ParseFloat(v, 64)
			case "d":
				st.Duration, err = time.ParseDuration(v)
			case "w":
				st.Warmup, err = time.ParseDuration(v)
			default:
				err = fmt.Errorf("unknown key %q (want c, qps, d or w)", k)
			}
			if err != nil {
				return nil, fmt.Errorf("loadgen: step entry %q: %v", part, err)
			}
		}
		if err := st.validate(); err != nil {
			return nil, fmt.Errorf("loadgen: step %q: %v", block, err)
		}
		steps = append(steps, st)
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("loadgen: no steps in %q", s)
	}
	return steps, nil
}

// ScrapeTarget is one /metrics endpoint joined against client latency.
type ScrapeTarget struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Config describes one run of the harness against one target.
type Config struct {
	// Target is the base URL queried by the workers (replica or
	// gateway). Required.
	Target string
	// Mix weights the route mix (default distance-only). Targets that
	// lack a route (the gateway serves no /knn) should weight it 0.
	Mix Mix
	// BatchSize is the pair count of each /batch request (default 32).
	BatchSize int
	// KNNK is the k of each /knn request (default 8).
	KNNK int
	// Vertices bounds the random vertex ids. 0 discovers the count
	// from the target's /healthz model metadata.
	Vertices int
	// Seed makes the workload deterministic per client.
	Seed int64
	// Scrapes lists the /metrics endpoints whose counters are joined
	// with each step (default: the Target itself, named "target").
	// Empty URL entries are skipped.
	Scrapes []ScrapeTarget
	// ScrapeInterval paces the timeline sampling (default 500ms).
	ScrapeInterval time.Duration
	// DebugURL is the target's operator listener (rneserver/rnegate
	// -debug-addr); when set with ProfileCPUSeconds/ProfileHeap, pprof
	// profiles are captured during each step.
	DebugURL string
	// ProfileCPUSeconds captures an N-second CPU profile starting at
	// the end of each step's warmup (0 disables).
	ProfileCPUSeconds int
	// ProfileHeap captures a heap profile at the end of each step.
	ProfileHeap bool
	// ProfileDir receives captured profiles (default "load-profiles").
	ProfileDir string
	// RequestTimeout bounds each request (default 10s).
	RequestTimeout time.Duration
	// Transport overrides the HTTP transport (tests).
	Transport http.RoundTripper
	// Logf receives progress lines (nil silences).
	Logf func(format string, args ...any)
}

// Runner executes load steps against one target.
type Runner struct {
	cfg    Config
	client *http.Client

	// onObserve, when set (tests), receives every completed request's
	// observation.
	onObserve func(obs)
}

// New validates cfg, fills defaults and discovers the vertex count
// when cfg.Vertices is 0.
func New(ctx context.Context, cfg Config) (*Runner, error) {
	if cfg.Target == "" {
		return nil, fmt.Errorf("loadgen: Target is required")
	}
	if _, err := url.Parse(cfg.Target); err != nil {
		return nil, fmt.Errorf("loadgen: target URL: %v", err)
	}
	cfg.Target = strings.TrimRight(cfg.Target, "/")
	cfg.Mix = cfg.Mix.withDefault()
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.KNNK <= 0 {
		cfg.KNNK = 8
	}
	if cfg.ScrapeInterval <= 0 {
		cfg.ScrapeInterval = 500 * time.Millisecond
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.ProfileDir == "" {
		cfg.ProfileDir = "load-profiles"
	}
	if len(cfg.Scrapes) == 0 {
		cfg.Scrapes = []ScrapeTarget{{Name: "target", URL: cfg.Target}}
	}
	var scrapes []ScrapeTarget
	for _, sc := range cfg.Scrapes {
		if sc.URL == "" {
			continue
		}
		sc.URL = strings.TrimRight(sc.URL, "/")
		if sc.Name == "" {
			sc.Name = sc.URL
		}
		scrapes = append(scrapes, sc)
	}
	cfg.Scrapes = scrapes
	r := &Runner{
		cfg: cfg,
		client: &http.Client{
			Transport: cfg.Transport,
			Timeout:   cfg.RequestTimeout,
		},
	}
	if cfg.Vertices <= 0 {
		n, err := r.discoverVertices(ctx)
		if err != nil {
			return nil, err
		}
		r.cfg.Vertices = n
		r.logf("discovered %d vertices from %s/healthz", n, cfg.Target)
	}
	return r, nil
}

// Vertices reports the vertex-id bound the workload draws from.
func (r *Runner) Vertices() int { return r.cfg.Vertices }

func (r *Runner) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// discoverVertices reads the vertex count from the target's /healthz
// model metadata. Gateways don't carry model metadata; point the
// harness at a replica or pass Config.Vertices explicitly.
func (r *Runner) discoverVertices(ctx context.Context) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.Target+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("loadgen: probing %s/healthz: %w", r.cfg.Target, err)
	}
	defer resp.Body.Close()
	var meta struct {
		Vertices int `json:"vertices"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&meta); err != nil {
		return 0, fmt.Errorf("loadgen: decoding %s/healthz: %w", r.cfg.Target, err)
	}
	if meta.Vertices <= 0 {
		return 0, fmt.Errorf("loadgen: %s/healthz reports no vertex count (a gateway?); pass the vertex count explicitly", r.cfg.Target)
	}
	return meta.Vertices, nil
}

// obs is one completed request as the workers see it.
type obs struct {
	route   Route
	class   string        // "2xx".."5xx" or "err" (transport failure)
	latency time.Duration // completion minus intended arrival
	lag     time.Duration // send start minus intended arrival (open loop)
	warm    bool          // inside the measured (post-warmup) window
}

// statKey indexes one (route, status class) latency series.
type statKey struct {
	route Route
	class string
}

// collector accumulates one worker's observations; workers never share
// a collector, so observation is lock-free and merging happens once at
// step end via associative histogram merges.
type collector struct {
	hists map[statKey]*telemetry.Histogram
	maxNS map[statKey]int64
	lag   *telemetry.Histogram
	lagNS int64

	total    int64 // completed requests, warmup included
	measured int64 // completed requests inside the measured window
}

func newCollector() *collector {
	return &collector{
		hists: make(map[statKey]*telemetry.Histogram),
		maxNS: make(map[statKey]int64),
		lag:   telemetry.NewHistogram(LatencyBuckets),
	}
}

func (c *collector) observe(o obs, openLoop bool) {
	c.total++
	if !o.warm {
		return
	}
	c.measured++
	k := statKey{o.route, o.class}
	h := c.hists[k]
	if h == nil {
		h = telemetry.NewHistogram(LatencyBuckets)
		c.hists[k] = h
	}
	h.ObserveDuration(o.latency)
	if ns := o.latency.Nanoseconds(); ns > c.maxNS[k] {
		c.maxNS[k] = ns
	}
	if openLoop {
		c.lag.ObserveDuration(o.lag)
		if ns := o.lag.Nanoseconds(); ns > c.lagNS {
			c.lagNS = ns
		}
	}
}

// RunStep executes one load step and returns its merged result.
func (r *Runner) RunStep(ctx context.Context, step Step) (StepResult, error) {
	if err := step.validate(); err != nil {
		return StepResult{}, err
	}
	label := step.Label()
	r.logf("step %s: %d clients, %s for %v (warmup %v)", label, step.Clients,
		describeLoop(step), step.Duration, step.Warmup)

	join := r.startJoin(ctx)
	start := time.Now()
	warmEnd := start.Add(step.Warmup)
	deadline := start.Add(step.Duration)

	var profiles []ProfileCapture
	var profWG sync.WaitGroup
	r.startProfiles(ctx, label, warmEnd, deadline, &profiles, &profWG)

	openLoop := step.QPS > 0
	var interval time.Duration
	if openLoop {
		interval = time.Duration(float64(time.Second) / step.QPS)
		if interval <= 0 {
			return StepResult{}, fmt.Errorf("loadgen: QPS %g too high to pace", step.QPS)
		}
	}

	var arrivals atomic.Int64 // next open-loop arrival index
	cols := make([]*collector, step.Clients)
	var wg sync.WaitGroup
	for c := 0; c < step.Clients; c++ {
		col := newCollector()
		cols[c] = col
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.cfg.Seed + int64(worker)*7919 + 1))
			for ctx.Err() == nil {
				var intent time.Time
				if openLoop {
					i := arrivals.Add(1) - 1
					intent = start.Add(time.Duration(i) * interval)
					if !intent.Before(deadline) {
						return
					}
					now := time.Now()
					if !now.Before(deadline) {
						// The schedule fell behind the wall clock past the
						// step end: the remaining arrivals are counted as
						// unsent instead of stretching the step.
						arrivals.Add(-1)
						return
					}
					if wait := intent.Sub(now); wait > 0 {
						select {
						case <-ctx.Done():
							return
						case <-time.After(wait):
						}
					}
				} else {
					intent = time.Now()
					if !intent.Before(deadline) {
						return
					}
				}
				sendStart := time.Now()
				route := r.cfg.Mix.pick(rng)
				class := r.do(ctx, route, rng)
				o := obs{
					route:   route,
					class:   class,
					latency: time.Since(intent),
					lag:     sendStart.Sub(intent),
					warm:    !intent.Before(warmEnd),
				}
				col.observe(o, openLoop)
				if r.onObserve != nil {
					r.onObserve(o)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	profWG.Wait()
	servers := join.stop()

	res := r.mergeStep(step, label, cols, elapsed, openLoop)
	res.Servers = servers
	res.Profiles = profiles
	if openLoop {
		intended := int64(step.Duration / interval)
		if sent := arrivals.Load(); sent < intended {
			res.UnsentArrivals = intended - sent
		}
	}
	r.logf("step %s done: %d measured, achieved %.1f qps", label, res.Measured, res.AchievedQPS)
	return res, ctx.Err()
}

func describeLoop(s Step) string {
	if s.QPS > 0 {
		return fmt.Sprintf("open loop at %g qps", s.QPS)
	}
	return "closed loop"
}

// mergeStep folds the per-client collectors into one StepResult. The
// histogram merge is associative (telemetry.HistSnapshot.Merge), so
// the result is independent of client order.
func (r *Runner) mergeStep(step Step, label string, cols []*collector, elapsed time.Duration, openLoop bool) StepResult {
	res := StepResult{
		Label:           label,
		Clients:         step.Clients,
		Mode:            "closed",
		DurationSeconds: elapsed.Seconds(),
		WarmupSeconds:   step.Warmup.Seconds(),
	}
	if openLoop {
		res.Mode = "open"
		res.OfferedQPS = step.QPS
	}

	merged := make(map[statKey]telemetry.HistSnapshot)
	maxNS := make(map[statKey]int64)
	var lagSnap telemetry.HistSnapshot
	var lagMax int64
	for _, col := range cols {
		res.Sent += col.total
		res.Measured += col.measured
		for k, h := range col.hists {
			s := h.Snapshot()
			if prev, ok := merged[k]; ok {
				m, err := prev.Merge(s)
				if err != nil {
					// Unreachable: every collector uses LatencyBuckets.
					panic(err)
				}
				s = m
			}
			merged[k] = s
			if col.maxNS[k] > maxNS[k] {
				maxNS[k] = col.maxNS[k]
			}
		}
		if openLoop {
			s := col.lag.Snapshot()
			if lagSnap.Bounds == nil {
				lagSnap = s
			} else if m, err := lagSnap.Merge(s); err == nil {
				lagSnap = m
			}
			if col.lagNS > lagMax {
				lagMax = col.lagNS
			}
		}
	}

	measuredWindow := elapsed - step.Warmup
	if measuredWindow > 0 {
		res.AchievedQPS = float64(res.Measured) / measuredWindow.Seconds()
	}

	keys := make([]statKey, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].class < keys[j].class
	})
	for _, k := range keys {
		s := merged[k]
		rs := RouteStats{
			Route: string(k.route),
			Class: k.class,
			Count: s.Count,
			MaxMS: float64(maxNS[k]) / 1e6,
		}
		if s.Count > 0 {
			rs.MeanMS = s.Sum / float64(s.Count) * 1e3
			rs.P50MS = s.Quantile(0.50) * 1e3
			rs.P90MS = s.Quantile(0.90) * 1e3
			rs.P99MS = s.Quantile(0.99) * 1e3
			rs.P999MS = s.Quantile(0.999) * 1e3
		}
		res.Routes = append(res.Routes, rs)
	}
	if openLoop && lagSnap.Count > 0 {
		res.SendLag = &LagStats{
			P50MS: lagSnap.Quantile(0.50) * 1e3,
			P99MS: lagSnap.Quantile(0.99) * 1e3,
			MaxMS: float64(lagMax) / 1e6,
		}
	}
	return res
}

// Run executes every step in order and assembles the Run block.
func (r *Runner) Run(ctx context.Context, steps []Step, tags map[string]string) (Run, error) {
	run := Run{
		Target:    r.cfg.Target,
		Tags:      tags,
		Mix:       map[string]int{"distance": r.cfg.Mix.Distance, "batch": r.cfg.Mix.Batch, "knn": r.cfg.Mix.KNN},
		BatchSize: r.cfg.BatchSize,
		KNNK:      r.cfg.KNNK,
		Vertices:  r.cfg.Vertices,
		Seed:      r.cfg.Seed,
	}
	for _, step := range steps {
		res, err := r.RunStep(ctx, step)
		if err != nil {
			return run, err
		}
		run.Steps = append(run.Steps, res)
	}
	return run, nil
}

// do issues one request of the given route and classifies the outcome.
func (r *Runner) do(ctx context.Context, route Route, rng *rand.Rand) string {
	n := int32(r.cfg.Vertices)
	var req *http.Request
	var err error
	switch route {
	case RouteBatch:
		var b strings.Builder
		b.WriteString(`{"pairs":[`)
		for i := 0; i < r.cfg.BatchSize; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "[%d,%d]", rng.Int31n(n), rng.Int31n(n))
		}
		b.WriteString("]}")
		req, err = http.NewRequestWithContext(ctx, http.MethodPost,
			r.cfg.Target+"/batch", strings.NewReader(b.String()))
		if req != nil {
			req.Header.Set("Content-Type", "application/json")
		}
	case RouteKNN:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/knn?s=%d&k=%d", r.cfg.Target, rng.Int31n(n), r.cfg.KNNK), nil)
	default:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/distance?s=%d&t=%d", r.cfg.Target, rng.Int31n(n), rng.Int31n(n)), nil)
	}
	if err != nil {
		return "err"
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return "err"
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	class := resp.StatusCode / 100
	if class < 1 || class > 5 {
		return "err"
	}
	return fmt.Sprintf("%dxx", class)
}
