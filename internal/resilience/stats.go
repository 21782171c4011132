package resilience

import (
	"time"

	"repro/internal/telemetry"
)

// Stats holds the serving pass's request series on a
// telemetry.Registry, which GET /metrics exports: requests by status
// class, in-flight requests, sheds, panics, and latency overall and by
// route. One Stats instance is shared by the whole serving pass.
type Stats struct {
	start time.Time
	reg   *telemetry.Registry

	byClass  [6]*telemetry.Counter // index status/100: [0]=other, 1xx..5xx
	inFlight *telemetry.Gauge
	shed     *telemetry.Counter // 429s issued by the limiter
	panics   *telemetry.Counter // handler panics converted to 500s
	latency  *telemetry.Histogram

	// routes maps each route named to NewStats to its latency
	// histogram; other paths fall into the "other" series. Never
	// written after NewStats, so requests read it without a lock.
	routes     map[string]*telemetry.Histogram
	otherRoute *telemetry.Histogram
}

var statusClasses = [...]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

// NewStats returns a zeroed Stats anchored at the current time, backed
// by its own fresh registry, with a latency histogram for each of
// routes; requests to any other path share route="other".
func NewStats(routes ...string) *Stats {
	reg := telemetry.NewRegistry()
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
		routes: make(map[string]*telemetry.Histogram, len(routes)),
	}
	// Exemplars tie p99 buckets to stored traces; with tracing off the
	// trace ID is always "" and the slots stay empty.
	s.latency.EnableExemplars()
	route := func(name string) *telemetry.Histogram {
		h := reg.Histogram("rne_http_route_duration_seconds",
			"Request latency by route.", telemetry.LatencyBuckets, "route", name)
		h.EnableExemplars()
		return h
	}
	s.otherRoute = route("other")
	for _, p := range routes {
		s.routes[p] = route(p)
	}
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

// observe files a finished request's status and latency, overall and
// under its route; traceID (the sampled request's trace, "" when
// untraced) becomes the latency buckets' exemplar so tail buckets link
// to stored traces.
func (s *Stats) observe(path string, status int, elapsed time.Duration, traceID string) {
	class := status / 100
	if class < 1 || class > 5 {
		class = 0
	}
	s.byClass[class].Inc()
	sec := elapsed.Seconds()
	s.latency.ObserveExemplar(sec, traceID)
	h := s.routes[path]
	if h == nil {
		h = s.otherRoute
	}
	h.ObserveExemplar(sec, traceID)
}

// Counter returns the feature counter rne_<name>_total, registering it
// on first use; the registry hands back the same counter for a
// repeated name. Callers on hot paths fetch it once at setup and Add
// on the pointer, paying only the atomic.
func (s *Stats) Counter(name string) *telemetry.Counter {
	return s.reg.Counter("rne_"+telemetry.SanitizeName(name)+"_total",
		"Feature counter "+name+".")
}

// Snapshot is a point-in-time copy of the request counters for
// in-process readers, such as a benchmark harness; /metrics exports
// the same series.
type Snapshot struct {
	Requests int64 // requests finished, any status
	InFlight int64
	Shed     int64 // 429s issued by the limiter
	Panics   int64 // handler panics converted to 500s
}

// Snapshot reads the counters, each individually atomic.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Requests: s.latency.Snapshot().Count,
		InFlight: int64(s.inFlight.Value()),
		Shed:     s.shed.Value(),
		Panics:   s.panics.Value(),
	}
}
