package resilience

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Stats accumulates request counters for the serving path. It is
// implemented on a telemetry.Registry, so one set of atomics feeds
// both GET /statz (the backward-compatible JSON snapshot below) and
// GET /metrics (Prometheus text exposition, including the request
// latency histograms the JSON view only summarizes). One Stats
// instance is shared by the whole serving pass.
type Stats struct {
	start time.Time
	reg   *telemetry.Registry

	byClass  [6]*telemetry.Counter // index status/100: [0]=other, 1xx..5xx
	inFlight *telemetry.Gauge
	shed     *telemetry.Counter // 429s issued by the limiter
	panics   *telemetry.Counter // handler panics converted to 500s
	latency  *telemetry.Histogram

	// latencyMaxNS tracks the maximum, which a fixed-bucket histogram
	// cannot recover exactly; /statz reports it as before.
	latencyMaxNS atomic.Int64

	// routes maps tracked request paths to their per-route latency
	// histograms; untracked paths fall into the "other" series. Built
	// by TrackRoutes before serving, then read-only.
	routeMu    sync.RWMutex
	routes     map[string]*telemetry.Histogram
	otherRoute *telemetry.Histogram

	// extra holds named feature counters (e.g. the server guard mode's
	// clamp counts) registered at runtime via Counter.
	extraMu sync.Mutex
	extra   map[string]*telemetry.Counter

	// states holds named state providers (e.g. the autoheal
	// controller's armed/retraining view), rendered into the /statz
	// "state" object. Registered at setup via SetStateProvider.
	stateMu sync.Mutex
	states  map[string]func() any
}

var statusClasses = [...]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

// NewStats returns a zeroed Stats anchored at the current time,
// backed by its own fresh registry.
func NewStats() *Stats { return NewStatsWith(telemetry.NewRegistry()) }

// NewStatsWith returns a Stats registering its metrics on reg, so the
// caller can expose them (plus its own) on a /metrics endpoint.
func NewStatsWith(reg *telemetry.Registry) *Stats {
	s := &Stats{
		start: time.Now(),
		reg:   reg,
		inFlight: reg.Gauge("rne_http_in_flight_requests",
			"Requests currently being served."),
		shed: reg.Counter("rne_http_requests_shed_total",
			"Requests shed with 429 by the in-flight limiter."),
		panics: reg.Counter("rne_http_panics_total",
			"Handler panics converted to 500 responses."),
		latency: reg.Histogram("rne_http_request_duration_seconds",
			"End-to-end request latency across all routes.", telemetry.LatencyBuckets),
		routes: make(map[string]*telemetry.Histogram),
		otherRoute: reg.Histogram("rne_http_route_duration_seconds",
			"Request latency by route.", telemetry.LatencyBuckets, "route", "other"),
	}
	// Exemplars tie p99 buckets to stored traces; with tracing off the
	// trace ID is always "" and the slots stay empty.
	s.latency.EnableExemplars()
	s.otherRoute.EnableExemplars()
	for i, class := range statusClasses {
		s.byClass[i] = reg.Counter("rne_http_requests_total",
			"HTTP requests served, by status class.", "class", class)
	}
	reg.GaugeFunc("rne_uptime_seconds", "Seconds since the stats epoch (process start).",
		func() float64 { return time.Since(s.start).Seconds() })
	// Every serving surface (replica and gateway alike) exports the Go
	// runtime block — goroutines, heap, GC cycles and pauses — so a
	// load harness can attribute latency knees to the runtime.
	telemetry.RegisterRuntimeMetrics(reg)
	return s
}

// Registry exposes the backing metrics registry (the /metrics data).
func (s *Stats) Registry() *telemetry.Registry { return s.reg }

// TrackRoutes registers a per-route latency histogram for each path.
// Call once at setup, before serving; requests to unlisted paths are
// accounted under route="other".
func (s *Stats) TrackRoutes(paths ...string) {
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	for _, p := range paths {
		if _, ok := s.routes[p]; !ok {
			h := s.reg.Histogram("rne_http_route_duration_seconds",
				"Request latency by route.", telemetry.LatencyBuckets, "route", p)
			h.EnableExemplars()
			s.routes[p] = h
		}
	}
}

// observe files the request's status and latency; traceID (the sampled
// request's trace, "" when untraced) becomes the latency bucket's
// exemplar so tail buckets link to stored traces.
func (s *Stats) observe(status int, elapsed time.Duration, traceID string) {
	class := status / 100
	if class < 1 || class > 5 {
		class = 0
	}
	s.byClass[class].Inc()
	s.latency.ObserveExemplar(elapsed.Seconds(), traceID)
	ns := elapsed.Nanoseconds()
	for {
		cur := s.latencyMaxNS.Load()
		if ns <= cur || s.latencyMaxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// observeRoute files the request under its route's latency histogram.
func (s *Stats) observeRoute(path string, elapsed time.Duration, traceID string) {
	s.routeMu.RLock()
	h := s.routes[path]
	s.routeMu.RUnlock()
	if h == nil {
		h = s.otherRoute
	}
	h.ObserveExemplar(elapsed.Seconds(), traceID)
}

// Counter returns the named extra counter, creating it on first use
// (it appears on /metrics as rne_<name>_total). The returned pointer
// is stable: callers on hot paths should fetch it once at setup and
// Add on the pointer, paying only the atomic.
func (s *Stats) Counter(name string) *telemetry.Counter {
	s.extraMu.Lock()
	defer s.extraMu.Unlock()
	if s.extra == nil {
		s.extra = make(map[string]*telemetry.Counter)
	}
	c, ok := s.extra[name]
	if !ok {
		c = s.reg.Counter("rne_"+telemetry.SanitizeName(name)+"_total",
			"Feature counter "+name+".")
		s.extra[name] = c
	}
	return c
}

// SetStateProvider registers a named provider whose value is rendered
// under the /statz "state" object on every snapshot. Providers must be
// safe for concurrent use and return JSON-marshalable values. A nil fn
// removes the provider.
func (s *Stats) SetStateProvider(name string, fn func() any) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if fn == nil {
		delete(s.states, name)
		return
	}
	if s.states == nil {
		s.states = make(map[string]func() any)
	}
	s.states[name] = fn
}

// Snapshot is the JSON shape served on /statz. It predates /metrics
// and must stay byte-shape-compatible: fields, names and order are
// frozen (new optional blocks may only be appended with omitempty, so
// servers without the feature keep the historical byte shape).
type Snapshot struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Requests      int64            `json:"requests"`
	InFlight      int64            `json:"in_flight"`
	ByClass       map[string]int64 `json:"by_status_class"`
	Shed          int64            `json:"shed_429"`
	Panics        int64            `json:"panics"`
	LatencyMeanMS float64          `json:"latency_mean_ms"`
	LatencyMaxMS  float64          `json:"latency_max_ms"`
	Extra         map[string]int64 `json:"extra,omitempty"`
	State         map[string]any   `json:"state,omitempty"`
}

// Snapshot returns a consistent-enough point-in-time view of the
// counters (each counter individually atomic).
func (s *Stats) Snapshot() Snapshot {
	hs := s.latency.Snapshot()
	n := hs.Count
	snap := Snapshot{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      n,
		InFlight:      int64(s.inFlight.Value()),
		ByClass:       make(map[string]int64, 5),
		Shed:          s.shed.Value(),
		Panics:        s.panics.Value(),
		LatencyMaxMS:  float64(s.latencyMaxNS.Load()) / 1e6,
	}
	if n > 0 {
		snap.LatencyMeanMS = hs.Sum * 1e3 / float64(n)
	}
	for i, name := range statusClasses {
		if v := s.byClass[i].Value(); v > 0 {
			snap.ByClass[name] = v
		}
	}
	s.extraMu.Lock()
	if len(s.extra) > 0 {
		snap.Extra = make(map[string]int64, len(s.extra))
		for name, c := range s.extra {
			snap.Extra[name] = c.Value()
		}
	}
	s.extraMu.Unlock()
	s.stateMu.Lock()
	if len(s.states) > 0 {
		snap.State = make(map[string]any, len(s.states))
		for name, fn := range s.states {
			snap.State[name] = fn()
		}
	}
	s.stateMu.Unlock()
	return snap
}

// Handler serves the stats snapshot as JSON (the /statz endpoint).
func (s *Stats) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.Snapshot())
	})
}
