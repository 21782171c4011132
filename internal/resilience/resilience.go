// Package resilience is the production-hardening layer for the HTTP
// serving path: one pass around the route table that keeps rneserver
// and rnegate alive and well-behaved under the paper's motivating
// high-volume dispatch/range workloads. It assigns request IDs, starts
// the request's trace span, recovers panics (a crashing handler costs
// one 500, not the process), bounds each request by a deadline with
// cross-tier budget propagation (a forwarded BudgetHeader bounds the
// work a replica will attempt; exhaustion answers 504, local timeouts
// 503), caps in-flight concurrency — either a static cap or the
// adaptive AIMD limiter that tracks observed p99 latency and sheds
// /batch before /distance — with 429 + jittered Retry-After, never
// shedding health, metrics or admin requests under either, and
// accounts each request on GET /metrics (Prometheus text, via
// internal/telemetry).
package resilience

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/telemetry"
)

// Options configures the serving pass assembled by Wrap. Zero values
// select the documented defaults; Timeout and MaxInFlight can be
// disabled explicitly with negative values.
type Options struct {
	// MaxInFlight caps concurrently-served requests; excess requests
	// are shed with 429 + Retry-After, except health, metrics and admin
	// requests, which run past a full cap. Default 256; negative
	// disables. Ignored when Admission configures the adaptive limiter.
	MaxInFlight int
	// Admission, when non-nil, replaces the static MaxInFlight cap with
	// the adaptive AIMD limiter: the concurrency limit tracks observed
	// p99 latency against Admission.TargetP99, health/admin routes are
	// never shed, and /batch sheds before /distance. An invalid config
	// falls back to the static cap (and is logged).
	Admission *AdmissionConfig
	// RetryAfter is the hint returned with shed requests (default 1s).
	RetryAfter time.Duration
	// RetryAfterJitter spreads every Retry-After hint by a uniform
	// ±fraction (default 0.2), so synchronized shed clients do not
	// retry in lockstep. Negative disables jitter.
	RetryAfterJitter float64
	// Timeout bounds each request via its context deadline; requests
	// whose deadline passes before the handler returns receive 503 — or
	// 504 when the deadline came from a forwarded BudgetHeader budget
	// tighter than Timeout. Default 30s; negative disables the local
	// timeout (forwarded budgets still apply).
	Timeout time.Duration
	// Logger receives panic reports and access logs (nil disables).
	Logger *slog.Logger
	// Stats, when non-nil, accumulates request/latency/status counters
	// for /metrics.
	Stats *Stats
	// Tracer, when non-nil, gives every request a handler span that
	// continues an inbound traceparent, with an "admission" child span
	// and the shed and deadline events; nil traces nothing.
	Tracer *telemetry.RequestTracer
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 256
	}
	if o.RetryAfter == 0 {
		o.RetryAfter = time.Second
	}
	if o.RetryAfterJitter == 0 {
		o.RetryAfterJitter = 0.2
	}
	if o.RetryAfterJitter < 0 {
		o.RetryAfterJitter = 0
	}
	if o.Timeout == 0 {
		o.Timeout = 30 * time.Second
	}
	if o.Timeout < 0 {
		o.Timeout = 0
	}
	if o.Stats == nil {
		o.Stats = NewStats() // counted, but read by no one
	}
	o.Logger = telemetry.OrNop(o.Logger)
	return o
}

// pass is the one serving pass Wrap returns.
type pass struct {
	next http.Handler
	o    Options
	// Admission: the adaptive limiter, or else the static cap's
	// semaphore; both nil when admission is off.
	adaptive *AdaptiveLimiter
	sem      chan struct{}

	exhaustedLocal, exhaustedBudget *telemetry.Counter
}

// Wrap returns next behind the serving pass that replicas and the
// gateway install. For each request, on the connection's own goroutine,
// the pass:
//
//   - accepts the client's well-formed X-Request-Id or mints one,
//     echoes it on the response and stores it in the context;
//   - starts the handler span when Tracer is set;
//   - admits the request under the static cap or the adaptive limiter,
//     or sheds it with 429 + Retry-After; a critical request (health,
//     metrics, admin) is never shed;
//   - answers 504 at once when a forwarded budget is already spent;
//   - runs next under a context deadline, the tighter of Timeout and
//     the forwarded budget, buffering its answer; when the deadline
//     passed before next returned it answers 503 (local timeout) or 504
//     (forwarded budget) instead, and nothing when the client went away;
//   - turns a panic into a 500, re-panicking http.ErrAbortHandler;
//   - files the status and latency in Stats, the access log and the span.
//
// A handler keeps its admission slot until it returns, so a handler
// that ignores its context delays its own 503/504 until then.
func Wrap(next http.Handler, o Options) http.Handler {
	o = o.withDefaults()
	p := &pass{next: next, o: o}
	if o.Admission != nil {
		al, err := NewAdaptiveLimiter(*o.Admission, o.Stats.Registry())
		if err == nil {
			p.adaptive = al
		} else {
			o.Logger.Warn("adaptive admission disabled; using static cap", "error", err)
		}
	}
	if p.adaptive == nil && o.MaxInFlight > 0 {
		p.sem = make(chan struct{}, o.MaxInFlight)
	}
	const help = "Requests abandoned at their deadline, by budget source."
	p.exhaustedLocal = o.Stats.reg.Counter("rne_deadline_exhausted_total", help, "source", "local")
	p.exhaustedBudget = o.Stats.reg.Counter("rne_deadline_exhausted_total", help, "source", "budget")
	return p
}

func (p *pass) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := telemetry.InboundRequestID(r.Header)
	w.Header().Set(telemetry.RequestIDHeader, id)
	ctx, span := p.o.Tracer.StartRequestSpan(telemetry.WithRequestID(r.Context(), id), r, id, start)
	rw := newResponseWriter(w)
	p.o.Stats.inFlight.Add(1)
	defer p.finish(rw, r, id, span, start)
	held, ok := p.admit(rw, r.URL.Path, span)
	if !ok {
		return
	}
	if held {
		defer p.release(start)
	}

	budget, fromBudget := p.o.Timeout, false
	if b, ok := ParseBudget(r); ok {
		if b <= 0 {
			p.exhaustedBudget.Inc()
			span.Event("budget_exhausted", "spent before admission")
			p.reject(rw, http.StatusGatewayTimeout, "deadline budget exhausted before the request was admitted")
			return
		}
		if budget <= 0 || b < budget {
			budget, fromBudget = b, true
		}
	}
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
		rw.buffered = true
	}
	span.MarkAdmitted()
	p.next.ServeHTTP(rw, r.WithContext(ctx))
	if !rw.buffered {
		return
	}
	switch ctx.Err() {
	case nil:
		rw.flush()
	case context.DeadlineExceeded:
		if fromBudget {
			msg := fmt.Sprintf("deadline budget of %v exhausted", budget)
			p.exhaustedBudget.Inc()
			span.Event("budget_exhausted", msg)
			p.reject(rw, http.StatusGatewayTimeout, msg)
		} else {
			msg := fmt.Sprintf("request exceeded %v deadline", budget)
			p.exhaustedLocal.Inc()
			span.Event("deadline_exceeded", msg)
			p.reject(rw, http.StatusServiceUnavailable, msg)
		}
	default:
		// The client went away: there is no one to answer.
		span.Event("client_gone", "canceled before completion")
	}
}

// admit decides whether a request to path may run (ok) and whether it
// then holds an admission slot that release must return (held). A
// request that may not run is shed with 429. A critical request that
// finds the static cap full runs without a slot; the path is looked at
// only then, so an unsaturated cap costs no more than the channel send.
func (p *pass) admit(rw *responseWriter, path string, span *telemetry.ReqSpan) (held, ok bool) {
	var event, msg string
	switch {
	case p.adaptive != nil:
		prio := PriorityForPath(path)
		if p.adaptive.Acquire(prio) {
			return true, true
		}
		event = fmt.Sprintf("admission limit %d, %s priority", p.adaptive.Limit(), prio)
		msg = fmt.Sprintf("server saturated (admission limit %d, %s priority)", p.adaptive.Limit(), prio)
	case p.sem != nil:
		select {
		case p.sem <- struct{}{}:
			return true, true
		default:
		}
		if PriorityForPath(path) == PriorityCritical {
			return false, true
		}
		event = fmt.Sprintf("static limiter at %d in flight", cap(p.sem))
		msg = fmt.Sprintf("server saturated (%d requests in flight)", cap(p.sem))
	default:
		return false, true
	}
	p.o.Stats.shed.Inc()
	span.Event("shed", event)
	hint := p.retryAfter(rw)
	rw.reply(http.StatusTooManyRequests, msg+"; retry after "+hint+" s")
	return false, false
}

// release returns the admission slot of a request that started at
// start; the adaptive limiter learns its latency.
func (p *pass) release(start time.Time) {
	if p.adaptive != nil {
		p.adaptive.Release(time.Since(start))
	} else {
		<-p.sem
	}
}

// retryAfter sets a jittered Retry-After hint on the response and
// returns it.
func (p *pass) retryAfter(rw *responseWriter) string {
	hint := retryAfterHint(p.o.RetryAfter, p.o.RetryAfterJitter)
	rw.w.Header().Set("Retry-After", hint)
	return hint
}

// reject answers status with a Retry-After hint, discarding any
// buffered answer.
func (p *pass) reject(rw *responseWriter, status int, msg string) {
	p.retryAfter(rw)
	rw.reply(status, msg)
}

// finish runs last for every request, deferred: it turns a panic into
// a 500, then files the status and latency in Stats, the access log and
// the span, and returns rw to its pool.
func (p *pass) finish(rw *responseWriter, r *http.Request, id string, span *telemetry.ReqSpan, start time.Time) {
	rec := recover()
	if rec != nil && rec != http.ErrAbortHandler {
		p.o.Stats.panics.Inc()
		p.o.Logger.Error("panic serving request",
			"method", r.Method, "path", r.URL.Path, "request_id", id,
			"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
		// Answer only if nothing went out yet (a buffered answer never
		// has); otherwise the connection is already poisoned and closing
		// it is all we can do.
		if rw.status == 0 {
			rw.reply(http.StatusInternalServerError, "internal server error")
		}
	}
	status := rw.status
	if status == 0 {
		status = http.StatusOK
	}
	elapsed := time.Since(start)
	st := p.o.Stats
	st.inFlight.Add(-1)
	st.observe(r.URL.Path, status, elapsed, span.ExemplarID())
	if p.o.Logger.Enabled(r.Context(), slog.LevelInfo) {
		p.o.Logger.Info("request",
			"method", r.Method, "path", r.URL.Path, "status", status,
			"duration", elapsed.Round(time.Microsecond), "request_id", id)
	}
	span.SetStatus(status)
	span.End()
	rw.release()
	if rec == http.ErrAbortHandler {
		panic(rec) // net/http aborts the connection
	}
}
