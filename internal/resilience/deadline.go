package resilience

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// BudgetHeader carries the remaining deadline budget of a request, in
// (possibly fractional) milliseconds. A gateway derives it from the
// client's deadline, subtracts its own overhead margin, and forwards
// what is left to each backend; every tier spends from the same budget
// instead of stacking independent timeouts. A request arriving with a
// non-positive budget is answered 504 immediately — the cheapest
// possible way to abandon work nobody is waiting for.
const BudgetHeader = "X-Rne-Budget-Ms"

// ParseBudget extracts the forwarded deadline budget from r, reporting
// whether a parseable budget header was present. A zero or negative
// budget is returned as-is (the caller answers 504 without doing work).
// NaN is not a budget. A budget past the range of time.Duration, +Inf
// included, saturates at the largest Duration, so the local timeout
// stays in charge; -Inf saturates at the smallest.
func ParseBudget(r *http.Request) (time.Duration, bool) {
	raw := r.Header.Get(BudgetHeader)
	if raw == "" {
		return 0, false
	}
	ms, err := strconv.ParseFloat(raw, 64)
	if (err != nil && !errors.Is(err, strconv.ErrRange)) || math.IsNaN(ms) {
		return 0, false
	}
	// float64(math.MaxInt64) is 2^63, one past the largest Duration.
	switch ns := ms * float64(time.Millisecond); {
	case ns >= math.MaxInt64:
		return math.MaxInt64, true
	case ns <= math.MinInt64:
		return math.MinInt64, true
	default:
		return time.Duration(ns), true
	}
}

// SetBudget stamps the remaining budget onto an outbound request's
// headers, rounded to microsecond precision.
func SetBudget(h http.Header, d time.Duration) {
	h.Set(BudgetHeader, strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64))
}

// The Retry-After hint every shed, timed-out or backed-off answer of
// both tiers carries: one second, spread by a uniform ±20%.
const (
	retryAfter       = time.Second
	retryAfterJitter = 0.2
)

// RetryAfterHint renders a Retry-After value: retryAfter spread by a
// uniform ±retryAfterJitter fraction, so a synchronized fleet of shed
// clients does not retry in lockstep and re-saturate the server at the
// same instant. It keeps two decimals; the clients parse Retry-After
// as a number.
func RetryAfterHint() string {
	secs := retryAfter.Seconds() * (1 + retryAfterJitter*(2*rand.Float64()-1))
	return strconv.FormatFloat(secs, 'f', 2, 64)
}

// responseWriter is the pass's view of one response. It records the
// status sent to the client, and while a deadline is in force it
// buffers the handler's headers, status and body, so a request whose
// deadline passed before its handler returned can be answered 503/504
// instead, never with a late body.
type responseWriter struct {
	w        http.ResponseWriter
	status   int // status sent on w; 0 until one is
	buffered bool
	h        http.Header // the handler's headers while buffered
	code     int         // the handler's status while buffered
	body     []byte
}

var responseWriters = sync.Pool{New: func() any { return &responseWriter{h: make(http.Header)} }}

// maxPooledBody keeps a rare huge answer from pinning its memory in
// the pool.
const maxPooledBody = 1 << 20

func newResponseWriter(w http.ResponseWriter) *responseWriter {
	rw := responseWriters.Get().(*responseWriter)
	rw.w = w
	return rw
}

// release returns rw to the pool; nothing may use it after.
func (rw *responseWriter) release() {
	if cap(rw.body) > maxPooledBody {
		return
	}
	clear(rw.h)
	*rw = responseWriter{h: rw.h, body: rw.body[:0]}
	responseWriters.Put(rw)
}

func (rw *responseWriter) Header() http.Header {
	if rw.buffered {
		return rw.h
	}
	return rw.w.Header()
}

func (rw *responseWriter) WriteHeader(code int) {
	if !rw.buffered {
		rw.writeHeader(code)
	} else if rw.code == 0 {
		rw.code = code
	}
}

func (rw *responseWriter) Write(p []byte) (int, error) {
	if !rw.buffered {
		if rw.status == 0 {
			rw.status = http.StatusOK
		}
		return rw.w.Write(p)
	}
	if rw.code == 0 {
		rw.code = http.StatusOK
	}
	rw.body = append(rw.body, p...)
	return len(p), nil
}

// writeHeader sends code on the client's writer.
func (rw *responseWriter) writeHeader(code int) {
	if rw.status == 0 {
		rw.status = code
	}
	rw.w.WriteHeader(code)
}

// flush sends the buffered answer in one write.
func (rw *responseWriter) flush() {
	dst := rw.w.Header()
	for k, v := range rw.h {
		dst[k] = v
	}
	if rw.code == 0 {
		rw.code = http.StatusOK
	}
	rw.writeHeader(rw.code)
	_, _ = rw.w.Write(rw.body) // a failed write means the client is gone
}

// reply answers on the client's writer itself, bypassing any buffered
// answer.
func (rw *responseWriter) reply(status int, msg string) {
	rw.w.Header().Set("Content-Type", "application/json")
	rw.writeHeader(status)
	_ = json.NewEncoder(rw.w).Encode(map[string]string{"error": msg})
}
