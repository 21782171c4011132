// Package server exposes a trained RNE model over HTTP — the serving
// shape of the paper's motivating Uber/Yelp workloads: high-volume
// distance estimates, k-nearest-vehicle and POIs-within-range queries.
// Handlers are stdlib net/http and safe for concurrent use (model
// queries are read-only).
//
// The serving state (model, spatial index, ALT guard, drift monitor,
// version label) lives behind one atomic pointer: each request loads
// the snapshot once and is answered entirely by it, so Swap can install
// a retrained model under full traffic with zero dropped requests and
// no torn reads (see swap.go and POST /admin/reload).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batchwire"
	"repro/internal/hybrid"
	"repro/internal/qlog"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// Config tunes the production-hardening layer wrapped around the
// route table. Zero values select the documented defaults.
type Config struct {
	// MaxInFlight caps concurrently-served requests; excess load is
	// shed with 429 + Retry-After, except health, metrics and admin
	// requests (default 256, negative disables).
	MaxInFlight int
	// RequestTimeout bounds each request (default 30s, negative
	// disables); over-budget requests receive 503 — or 504 when the
	// deadline came from a forwarded X-Rne-Budget-Ms budget, which the
	// serving pass folds into the request deadline.
	RequestTimeout time.Duration
	// MaxBatchBytes caps the /batch request body; larger bodies get
	// 413 (default 8 MiB).
	MaxBatchBytes int64
	// Logger receives panic reports and structured access logs, each
	// tagged with the request ID (nil disables logging; counters and
	// /metrics still work).
	Logger *slog.Logger
	// QueryLog, when its Path is non-empty, samples served /distance and
	// /batch queries into an async JSONL log (see internal/qlog) that
	// cmd/rnereplay can re-run offline. The server owns the logger
	// (Close flushes it) and exports its drop/write counters on /metrics
	// as rne_qlog_dropped_total / rne_qlog_written_total.
	QueryLog qlog.Config
	// Trace, when its Path is non-empty, turns on request-scoped
	// distributed tracing: every request gets a handler span (continuing
	// an inbound traceparent when a gateway forwarded one) with
	// admission/kernel/guard/index child spans, head-sampled 1-in-
	// SampleEvery and persisted as JSONL (see telemetry.RequestTracer).
	// The server owns the tracer (Close flushes it) and exports drop and
	// write counters as rne_trace_dropped_total / rne_trace_written_total.
	Trace telemetry.TraceConfig
	// Reloader, when non-nil, supplies a fresh ModelSet on demand: it
	// backs POST /admin/reload and Server.Reload (which rneserver also
	// invokes on SIGHUP). rneserver's reloader re-resolves the latest
	// good version from its registry.
	Reloader func() (ModelSet, error)
}

const defaultMaxBatchBytes = 8 << 20

// Server wires a hot-swappable model set (and optionally a spatial
// index over a target set) into an http.Handler.
type Server struct {
	cfg   Config
	stats *resilience.Stats

	// active is the serving snapshot; handlers load it exactly once per
	// request. Swap replaces it atomically under swapMu.
	active atomic.Pointer[snapshot]
	swapMu sync.Mutex

	// Swap telemetry: rne_model_swaps_total / rne_model_swap_failures_total
	// counters plus the rne_model_version gauge flipped by Swap.
	swaps        *telemetry.Counter
	swapFailures *telemetry.Counter
	versionGauge *telemetry.Gauge

	// qlog samples served queries to a JSONL file; nil disables.
	qlog *qlog.Logger

	// tracer records request-scoped spans to a JSONL file; nil disables
	// (every span operation is a nil-safe no-op).
	tracer *telemetry.RequestTracer
}

// NewFromSet returns a server booted from a model set: a full model or
// one geo-shard, with its optional spatial index and ALT guard. A set
// without a spatial index reports degraded readiness and answers /knn
// and /range with 501.
func NewFromSet(set ModelSet, cfg Config) (*Server, error) {
	if cfg.MaxBatchBytes == 0 {
		cfg.MaxBatchBytes = defaultMaxBatchBytes
	}
	s := &Server{cfg: cfg, stats: resilience.NewStats("/distance", "/batch", "/knn", "/range", "/admin/reload")}
	reg := s.stats.Registry()
	s.swaps = reg.Counter("rne_model_swaps_total",
		"Model hot swaps installed by /admin/reload, SIGHUP or Server.Swap.")
	s.swapFailures = reg.Counter("rne_model_swap_failures_total",
		"Model swaps rejected by validation or a failed reload source.")
	sn, err := s.buildSnapshot(set)
	if err != nil {
		return nil, err
	}
	s.active.Store(sn)
	s.setVersionGauge(sn.version)
	s.setModelGauges(sn)
	if cfg.QueryLog.Path != "" {
		ql, err := qlog.New(cfg.QueryLog)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.qlog = ql
		// Drops are visible on /metrics even on an unattended server.
		reg.CounterFunc("rne_qlog_dropped_total", "Sampled queries the query log dropped.",
			func() float64 { return float64(ql.Dropped()) })
		reg.CounterFunc("rne_qlog_written_total", "Sampled queries the query log wrote.",
			func() float64 { return float64(ql.Written()) })
	}
	if cfg.Trace.Path != "" {
		tc := cfg.Trace
		if tc.Service == "" {
			tc.Service = "server"
		}
		tr, err := telemetry.NewRequestTracer(tc)
		if err != nil {
			if s.qlog != nil {
				s.qlog.Close()
			}
			return nil, fmt.Errorf("server: %w", err)
		}
		s.tracer = tr
		tr.RegisterMetrics(reg)
	}
	return s, nil
}

// Close flushes and closes the query log and request tracer, if
// configured. Safe to call whether or not serving ever started.
func (s *Server) Close() error {
	s.tracer.Close() // nil-safe
	if s.qlog == nil {
		return nil
	}
	return s.qlog.Close()
}

// QueryLog exposes the sampled query logger (nil when disabled), so
// operators and tests can read its seen/sampled/dropped counters.
func (s *Server) QueryLog() *qlog.Logger { return s.qlog }

// Tracer exposes the request tracer (nil when disabled), so sidecars
// like the autoheal controller can trace their own operations into the
// same span stream.
func (s *Server) Tracer() *telemetry.RequestTracer { return s.tracer }

// Stats exposes the request counters backing /metrics.
func (s *Server) Stats() *resilience.Stats { return s.stats }

// Estimate answers one pair from the active snapshot exactly as
// /distance would (guard-clamped when a guard is installed), but
// without touching the serving clamp counters or drift monitor. It is
// the read-only probe path for sidecar watchers like the autoheal
// controller, whose synthetic probes must not pollute serving
// telemetry.
func (s *Server) Estimate(src, dst int32) (float64, error) {
	sn := s.active.Load()
	n := sn.model.NumVertices()
	if src < 0 || int(src) >= n || dst < 0 || int(dst) >= n {
		return 0, fmt.Errorf("server: pair (%d,%d) outside [0,%d)", src, dst, n)
	}
	if sn.guard != nil {
		return sn.guard.Guard(src, dst).Est, nil
	}
	return sn.model.Estimate(src, dst), nil
}

// Scale returns the active model's distance normalizer (its graph-
// diameter estimate) — the band scale an external drift monitor over
// served estimates should be built with.
func (s *Server) Scale() float64 { return s.active.Load().model.Scale() }

// Handler returns the route table behind the serving pass,
// resilience.Wrap (request IDs, tracing, panic recovery, per-request
// deadline, load shedding, request accounting):
//
//	GET  /healthz                    liveness + model shape + version
//	GET  /readyz                     readiness (degraded without spatial index)
//	GET  /metrics                    Prometheus text exposition
//	GET  /distance?s=<id>&t=<id>     one estimate (&explain=1 adds provenance)
//	POST /batch                      {"pairs":[[s,t],...]} -> {"distances":[...]}
//	GET  /knn?s=<id>&k=<n>           k nearest indexed targets (&explain=1 adds traversal stats)
//	GET  /range?s=<id>&tau=<dist>    indexed targets within tau (&explain=1 adds traversal stats)
//	POST /admin/reload               hot-swap to the Reloader's latest model set
//
// The pass assigns the request ID first, so every log line and error
// response — including shed and timed-out requests — carries one.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.Handle("GET /metrics", s.stats.Registry().Handler())
	mux.HandleFunc("GET /distance", s.handleDistance)
	mux.HandleFunc("POST /batch", s.handleBatch)
	mux.HandleFunc("GET /knn", s.handleKNN)
	mux.HandleFunc("GET /range", s.handleRange)
	mux.HandleFunc("POST /admin/reload", s.handleReload)
	return resilience.Wrap(mux, resilience.Options{
		MaxInFlight: s.cfg.MaxInFlight,
		Timeout:     s.cfg.RequestTimeout,
		Logger:      s.cfg.Logger,
		Stats:       s.stats,
		Tracer:      s.tracer,
	})
}

// writeJSON encodes v before the status goes out, so a value JSON
// cannot carry (a NaN or infinite estimate) answers 500 with an error
// body instead of a 200 with an empty one.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": fmt.Sprintf("cannot encode the answer: %v", err)})
	}
	writeBody(w, status, append(body, '\n'))
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// vertexParam parses the raw value of the vertex id query parameter
// name against the snapshot actually serving this request.
func (s *Server) vertexParam(sn *snapshot, raw, name string) (int32, error) {
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q is not an integer", name)
	}
	if v < 0 || v >= sn.model.NumVertices() {
		return 0, fmt.Errorf("vertex %d outside [0,%d)", v, sn.model.NumVertices())
	}
	return int32(v), nil
}

// modelMeta is the model-shape block shared by /healthz and /readyz,
// so probes and dashboards can tell *which* model a replica serves:
// version label, vertex count, embedding dimension, hierarchy depth
// (0 for loaded, naive or shard models, which drop the partition tree)
// and whether the ALT guard is active.
func modelMeta(sn *snapshot) map[string]any {
	levels := 0
	if full := sn.full(); full != nil {
		if h := full.Hierarchy(); h != nil {
			levels = h.MaxDepth() + 1
		}
	}
	out := map[string]any{
		"version":  sn.version,
		"vertices": sn.model.NumVertices(),
		"dim":      sn.model.Dim(),
		"levels":   levels,
		"spatial":  sn.idx != nil,
		"guard":    sn.guard != nil,
	}
	// Shard identity, so the gateway's probes (and operators) can tell
	// which region a replica owns without a separate discovery call.
	if sv := sn.shard(); sv != nil {
		out["shard"] = map[string]any{
			"id":        sv.ShardID(),
			"shards":    sv.NumShards(),
			"cut_level": sv.CutLevel(),
			"owned":     sv.OwnedVertices(),
		}
	}
	return out
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	sn := s.active.Load()
	out := map[string]any{"status": "ok"}
	for k, v := range modelMeta(sn) {
		out[k] = v
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleReady reports readiness, distinct from /healthz liveness: a
// live process may still be degraded. With no spatial index loaded the
// server can serve /distance and /batch but not /knn or /range, so it
// answers "degraded" and lists the missing capability; orchestrators
// that require the full API can gate on status == "ready". Swaps never
// degrade readiness: the previous snapshot serves until the new one is
// fully validated and installed.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	sn := s.active.Load()
	if sn.idx == nil {
		s.writeJSON(w, http.StatusOK, map[string]any{
			"status":   "degraded",
			"degraded": []string{"spatial index absent: /knn and /range answer 501"},
			"model":    modelMeta(sn),
		})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ready",
		"targets": sn.idx.Size(),
		"model":   modelMeta(sn),
	})
}

// guardExplanation is the guard-side provenance block attached to
// explained responses: the raw (pre-clamp) estimate, the certified
// interval, which way it clamped, and the landmarks that produced each
// bound.
type guardExplanation struct {
	Raw        float64 `json:"raw"`
	Lo         float64 `json:"lo"`
	Hi         float64 `json:"hi"`
	Clamp      string  `json:"clamp,omitempty"` // "", "low", "high"
	LoLandmark int32   `json:"lo_landmark"`
	HiLandmark int32   `json:"hi_landmark"`
}

func clampDirection(g hybrid.GuardResult) string {
	switch {
	case g.ClampedLow:
		return "low"
	case g.ClampedHigh:
		return "high"
	default:
		return ""
	}
}

// misdirect answers an out-of-region request on a shard replica: 421
// Misdirected Request with the owning shard in the Rne-Shard-Owner
// header and the body, so a stale-mapped gateway can re-route instead
// of serving the wrong region's upper-level approximation as exact.
func (s *Server) misdirect(w http.ResponseWriter, sn *snapshot, src int32) {
	sv := sn.shard()
	owner := sv.Owner(src)
	sn.misdirected.Inc()
	w.Header().Set("Rne-Shard-Owner", strconv.Itoa(owner))
	s.writeJSON(w, http.StatusMisdirectedRequest, map[string]any{
		"error": fmt.Sprintf("vertex %d belongs to shard %d, this replica serves shard %d",
			src, owner, sv.ShardID()),
		"owner_shard": owner,
		"shard":       sv.ShardID(),
	})
}

func (s *Server) handleDistance(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sn := s.active.Load()
	q := parseQuery(r.URL.RawQuery)
	src, err := s.vertexParam(sn, q.s, "s")
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	dst, err := s.vertexParam(sn, q.t, "t")
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	sv := sn.shard()
	if sv != nil && !sv.Owns(src) {
		s.misdirect(w, sn, src)
		return
	}
	bufs := batchwire.GetBuffers()
	defer bufs.Release()
	bufs.S, bufs.T = append(bufs.S[:0], src), append(bufs.T[:0], dst)
	var explain []pairExplanation
	if q.wantExplain() {
		explain = make([]pairExplanation, 1)
	}
	clamped, ok := s.answerPairs(w, r, sn, "/distance", bufs, explain, start)
	if !ok {
		return
	}
	a := distanceAnswer{S: src, T: dst, Distance: bufs.Dist[0], CrossShard: sv != nil && sv.CrossShard(src, dst)}
	if sn.guard != nil {
		a.Guarded, a.Lo, a.Hi, a.Clamped = true, bufs.Lo[0], bufs.Hi[0], clamped > 0
	}
	if explain != nil {
		// An explained answer carries the whole per-level decomposition
		// where /batch reports only its dominant level.
		out := a.fields()
		if full := sn.full(); full != nil {
			out["model"] = full.ExplainEstimate(src, dst)
		}
		if ge := explain[0].Guard; ge != nil {
			out["guard"] = ge
		}
		s.writeJSON(w, http.StatusOK, out)
		return
	}
	if bufs.Out, err = a.appendJSON(bufs.Out[:0]); err != nil {
		s.fail(w, http.StatusInternalServerError, "cannot encode the answer: %v", err)
		return
	}
	writeBody(w, http.StatusOK, bufs.Out)
}

const maxBatch = 1 << 20

// floats returns buf resized to n, reallocating only when it is short.
func floats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// pairExplanation is one pair's provenance, filled by the pair loop
// when a route asks for it: the dominant level (-1 on shard replicas,
// which drop the per-level decomposition) and the guard's block. /batch
// returns it per pair as is, brief rather than the full per-level
// table, which at maxBatch pairs would dwarf the distances themselves.
type pairExplanation struct {
	DominantLevel int               `json:"dominant_level"`
	Guard         *guardExplanation `json:"guard,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sn := s.active.Load()
	bufs := batchwire.GetBuffers()
	defer bufs.Release()
	// Bound request memory before reading: a client cannot make the
	// server buffer an unbounded body.
	var err error
	if bufs.Body, err = batchwire.ReadBody(w, r, s.cfg.MaxBatchBytes, bufs.Body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d byte limit", tooLarge.Limit)
			return
		}
		s.fail(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	bufs.S, bufs.T, err = batchwire.DecodePairs(bufs.Body, bufs.S, bufs.T)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	ss, ts := bufs.S, bufs.T
	if len(ss) == 0 {
		s.fail(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(ss) > maxBatch {
		s.fail(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(ss), maxBatch)
		return
	}
	n := int32(sn.model.NumVertices())
	for i := range ss {
		if ss[i] < 0 || ss[i] >= n || ts[i] < 0 || ts[i] >= n {
			s.fail(w, http.StatusBadRequest, "pair %d references vertex outside [0,%d)", i, n)
			return
		}
	}
	// A shard replica owns a batch only if it owns every source: one
	// misdirected pair fails the whole batch with the redirect hint
	// (the gateway splits per-shard, so a mixed batch means its map is
	// stale) — answering the rest would mislabel upper-level numbers
	// as exact. Cross-shard *targets* are fine and counted below.
	sv := sn.shard()
	ans := batchwire.Answer{Sharded: sv != nil}
	if sv != nil {
		for i := range ss {
			if !sv.Owns(ss[i]) {
				s.misdirect(w, sn, ss[i])
				return
			}
			if sv.CrossShard(ss[i], ts[i]) {
				ans.CrossCount++
			}
		}
	}
	var explain []pairExplanation
	if q := parseQuery(r.URL.RawQuery); q.wantExplain() {
		explain = make([]pairExplanation, len(ss))
	}
	clamped, ok := s.answerPairs(w, r, sn, "/batch", bufs, explain, start)
	if !ok {
		return
	}
	ans.Distances = bufs.Dist
	if sn.guard != nil {
		ans.Guarded, ans.Lo, ans.Hi, ans.ClampedCount = true, bufs.Lo, bufs.Hi, clamped
	}
	if explain != nil {
		if ans.Explain, err = json.Marshal(explain); err != nil {
			s.fail(w, http.StatusInternalServerError, "cannot encode the answer: %v", err)
			return
		}
	}
	// Encode before the status goes out: an estimate JSON cannot carry
	// answers 500, never a 200 with a truncated body.
	if bufs.Out, err = bufs.AppendAnswer(bufs.Out[:0], &ans); err != nil {
		s.fail(w, http.StatusInternalServerError, "cannot encode the answer: %v", err)
		return
	}
	batchwire.Write(w, http.StatusOK, bufs.Out)
}

// answerPairs is the replica's one answer path, behind /distance (one
// pair) and /batch: it answers bufs.S[i]→bufs.T[i] into bufs.Dist and,
// under a guard, the certified interval into bufs.Lo and bufs.Hi. The
// guard serves each pair, and each chunk of pairs is filed once with
// the clamp counters and the drift monitor, its raw estimates kept in
// bufs.Raw; without a guard a full model runs its batch kernel a chunk
// at a time and a shard its per-pair estimate. explain, when non-nil, gets
// each pair's provenance. Served pairs are sampled into the query log
// under route, their latency timed from the request's start.
//
// The loop checks the request's context every 256 guarded or 4,096
// kernel pairs and abandons a request whose deadline budget ran out or
// whose client left: the serving pass owns that answer, and every
// further pair would be work no one can use. It reports the number of
// clamped pairs, and false when it abandoned the request or answered
// 500 for a kernel error; the caller then writes nothing.
func (s *Server) answerPairs(w http.ResponseWriter, r *http.Request, sn *snapshot, route string,
	bufs *batchwire.Buffers, explain []pairExplanation, start time.Time) (clamped int, ok bool) {
	ss, ts := bufs.S, bufs.T
	n := len(ss)
	bufs.Dist = floats(bufs.Dist, n)
	out := bufs.Dist
	full := sn.full()
	// Query-log records buffer until the loop resolves so an abandoned
	// request can tag every record Outcome "partial": the pairs were
	// computed but the client never saw them.
	var recs []qlog.Record
	var rec qlog.Record // the fields every record of the request shares
	if s.qlog != nil {
		recs = make([]qlog.Record, 0, n)
		rec = qlog.Record{
			TimeUnixNano: start.UnixNano(),
			RequestID:    telemetry.RequestIDFrom(r.Context()),
			Route:        route,
			TraceID:      telemetry.SpanFromContext(r.Context()).TraceID(),
			Attempt:      telemetry.SanitizeAttempt(r.Header.Get(telemetry.AttemptHeader)),
		}
	}
	// logPair buffers pair i's record; g carries the guard provenance
	// when the guard served it.
	logPair := func(i int, g *hybrid.GuardResult) {
		rec.S, rec.T, rec.Estimate = ss[i], ts[i], out[i]
		rec.LatencyUS = float64(time.Since(start).Nanoseconds()) / 1e3
		if g != nil {
			rec.Raw, rec.Lo, rec.Hi, rec.HasBounds, rec.Clamp = g.Raw, g.Lo, g.Hi, true, clampDirection(*g)
		}
		recs = append(recs, rec)
	}
	span, chunk := "kernel", 4096
	if sn.guard != nil {
		span, chunk = "guard", 256
		bufs.Lo, bufs.Hi, bufs.Raw = floats(bufs.Lo, n), floats(bufs.Hi, n), floats(bufs.Raw, n)
	}
	_, sp := telemetry.StartChild(r.Context(), span)
	sp.SetAttrInt("pairs", int64(n))
	var err error
	done := 0
	for done < n && err == nil {
		if err = r.Context().Err(); err != nil {
			sp.Event("abandoned", fmt.Sprintf("deadline/cancel after %d of %d pairs", done, n))
			sp.SetAttrInt("pairs_done", int64(done))
			break
		}
		end := min(done+chunk, n)
		switch {
		case sn.guard != nil:
			var low, high int64
			for i := done; i < end; i++ {
				g := sn.guard.Guard(ss[i], ts[i])
				if explain != nil {
					explain[i].Guard = &guardExplanation{Raw: g.Raw, Lo: g.Lo, Hi: g.Hi, Clamp: clampDirection(g),
						LoLandmark: g.LoLandmark, HiLandmark: g.HiLandmark}
				}
				out[i], bufs.Raw[i], bufs.Lo[i], bufs.Hi[i] = g.Est, g.Raw, g.Lo, g.Hi
				if g.ClampedLow || g.ClampedHigh {
					clamped++
				}
				if g.ClampedLow {
					low++
				}
				if g.ClampedHigh {
					high++
				}
				if recs != nil {
					logPair(i, &g)
				}
			}
			// Each Add is an atomic on a line every request shares, so
			// none is made for nothing.
			sn.guardChecked.Add(int64(end - done))
			if low > 0 {
				sn.guardClampedLow.Add(low)
			}
			if high > 0 {
				sn.guardClampedHigh.Add(high)
			}
			sn.drift.ObserveAll(bufs.Raw[done:end], bufs.Lo[done:end], bufs.Hi[done:end])
		case full != nil:
			if err = full.EstimateBatch(ss[done:end], ts[done:end], out[done:end], 0); err != nil {
				sp.SetError(err)
				s.fail(w, http.StatusInternalServerError, "%v", err)
				continue
			}
		default:
			for i := done; i < end; i++ {
				out[i] = sn.model.Estimate(ss[i], ts[i])
			}
		}
		if recs != nil && sn.guard == nil {
			for i := done; i < end; i++ {
				logPair(i, nil)
			}
		}
		if explain != nil {
			for i := done; i < end; i++ {
				explain[i].DominantLevel = -1
				if full != nil {
					explain[i].DominantLevel = full.ExplainEstimate(ss[i], ts[i]).DominantLevel()
				}
			}
		}
		done = end
	}
	sp.SetAttrInt("clamped", int64(clamped))
	sp.End()
	outcome := ""
	if err != nil {
		outcome = "partial"
	}
	for i := range recs {
		recs[i].Outcome = outcome
		s.qlog.Observe(recs[i])
	}
	return clamped, err == nil
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	sn := s.active.Load()
	if sn.idx == nil {
		s.fail(w, http.StatusNotImplemented, "no spatial index loaded")
		return
	}
	q := parseQuery(r.URL.RawQuery)
	src, err := s.vertexParam(sn, q.s, "s")
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	k, err := strconv.Atoi(q.k)
	if err != nil || k < 1 || k > sn.idx.Size() {
		s.fail(w, http.StatusBadRequest, "k must be in [1,%d]", sn.idx.Size())
		return
	}
	bufs := batchwire.GetBuffers()
	defer bufs.Release()
	_, ispan := telemetry.StartChild(r.Context(), "index")
	results, dists, st := sn.idx.KNNDistances(src, k, bufs.Dist[:0])
	bufs.Dist = dists
	ispan.SetAttrInt("visited", int64(st.NodesVisited))
	ispan.End()
	var stats []byte
	if q.wantExplain() {
		if stats, err = json.Marshal(st); err != nil {
			s.fail(w, http.StatusInternalServerError, "cannot encode the answer: %v", err)
			return
		}
	}
	if bufs.Out, err = appendKNN(bufs.Out[:0], results, dists, stats); err != nil {
		s.fail(w, http.StatusInternalServerError, "cannot encode the answer: %v", err)
		return
	}
	writeBody(w, http.StatusOK, bufs.Out)
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	sn := s.active.Load()
	if sn.idx == nil {
		s.fail(w, http.StatusNotImplemented, "no spatial index loaded")
		return
	}
	q := parseQuery(r.URL.RawQuery)
	src, err := s.vertexParam(sn, q.s, "s")
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	tau, err := strconv.ParseFloat(q.tau, 64)
	if err != nil || tau < 0 {
		s.fail(w, http.StatusBadRequest, "tau must be a non-negative number")
		return
	}
	_, ispan := telemetry.StartChild(r.Context(), "index")
	results, st := sn.idx.RangeStats(src, tau)
	ispan.SetAttrInt("visited", int64(st.NodesVisited))
	ispan.End()
	if results == nil {
		results = []int32{}
	}
	resp := map[string]any{"targets": results}
	if q.wantExplain() {
		resp["stats"] = st
	}
	s.writeJSON(w, http.StatusOK, resp)
}
