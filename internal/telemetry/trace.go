package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsx"
)

// TraceParentHeader is the W3C Trace Context header carrying the
// trace/span identity across service hops.
const TraceParentHeader = "traceparent"

// AttemptHeader marks a proxied backend call as a non-primary leg
// ("retry", "hedge", "shard-retry"): the gateway stamps it on every
// extra attempt so replica-side logs can tell redundant work from
// first-try traffic.
const AttemptHeader = "X-Rne-Attempt"

// SanitizeAttempt maps an inbound AttemptHeader value onto the known
// vocabulary, discarding anything else (it lands in logs).
func SanitizeAttempt(s string) string {
	switch s {
	case "retry", "hedge", "shard", "shard-retry":
		return s
	}
	return ""
}

// SpanContext is the propagated identity of a span: which trace it
// belongs to, which span it is, and whether the trace is sampled (the
// head-sampling decision made once at the root and inherited by every
// child, local or remote).
type SpanContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Sampled bool
}

// Valid reports whether both IDs are non-zero, as required by the W3C
// spec for a usable traceparent.
func (sc SpanContext) Valid() bool {
	return sc.TraceID != [16]byte{} && sc.SpanID != [8]byte{}
}

// TraceIDString returns the 32-hex-digit trace ID.
func (sc SpanContext) TraceIDString() string { return hex.EncodeToString(sc.TraceID[:]) }

// SpanIDString returns the 16-hex-digit span ID.
func (sc SpanContext) SpanIDString() string { return hex.EncodeToString(sc.SpanID[:]) }

// FormatTraceParent renders sc as a version-00 traceparent value:
// 00-<trace-id>-<span-id>-<flags>.
func FormatTraceParent(sc SpanContext) string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceIDString() + "-" + sc.SpanIDString() + "-" + flags
}

// ParseTraceParent parses a version-00 traceparent value. Unknown
// versions, malformed fields and all-zero IDs are rejected (ok=false),
// per the W3C processing rules: a broken header means "no parent", not
// an error the request should see.
func ParseTraceParent(s string) (SpanContext, bool) {
	// 2 (version) + 1 + 32 (trace id) + 1 + 16 (span id) + 1 + 2 (flags)
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	if s[0] != '0' || s[1] != '0' {
		return SpanContext{}, false // only version 00 is understood
	}
	if len(s) > 55 { // version 00 has exactly four fields
		return SpanContext{}, false
	}
	var sc SpanContext
	if _, err := hex.Decode(sc.TraceID[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(s[36:52])); err != nil {
		return SpanContext{}, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(s[53:55])); err != nil {
		return SpanContext{}, false
	}
	sc.Sampled = flags[0]&1 == 1 // bit 0 of trace-flags is "sampled"
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// ExtractTraceParent reads the traceparent header from h.
func ExtractTraceParent(h http.Header) (SpanContext, bool) {
	v := h.Get(TraceParentHeader)
	if v == "" {
		return SpanContext{}, false
	}
	return ParseTraceParent(v)
}

// InjectTraceParent writes sc as the traceparent header on h. Invalid
// contexts are not injected.
func InjectTraceParent(h http.Header, sc SpanContext) {
	if !sc.Valid() {
		return
	}
	h.Set(TraceParentHeader, FormatTraceParent(sc))
}

// ID generation: one crypto/rand seed at process start, then a
// splitmix64 sequence over an atomic counter. Spans are minted on the
// request hot path, so per-span crypto/rand (a syscall) is out.
var idCounter atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		idCounter.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		idCounter.Store(uint64(time.Now().UnixNano()))
	}
}

func nextID() uint64 {
	for {
		x := idCounter.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 { // all-zero IDs are invalid per the W3C spec
			return x
		}
	}
}

func newTraceID() (id [16]byte) {
	binary.BigEndian.PutUint64(id[:8], nextID())
	binary.BigEndian.PutUint64(id[8:], nextID())
	return id
}

func newSpanID() (id [8]byte) {
	binary.BigEndian.PutUint64(id[:], nextID())
	return id
}

// SpanEvent is a point-in-time annotation within a span (a shed, a
// deadline expiry, a backpressure relay), stamped relative to the span
// start.
type SpanEvent struct {
	Name   string  `json:"name"`
	AtUS   float64 `json:"at_us"`
	Detail string  `json:"detail,omitempty"`
}

// SpanRecord is one finished span as persisted to the trace JSONL.
type SpanRecord struct {
	TraceID       string            `json:"trace_id"`
	SpanID        string            `json:"span_id"`
	ParentID      string            `json:"parent_id,omitempty"`
	Service       string            `json:"service,omitempty"`
	Name          string            `json:"name"`
	StartUnixNano int64             `json:"start"`
	DurationUS    float64           `json:"duration_us"`
	HTTPStatus    int               `json:"http_status,omitempty"`
	Error         string            `json:"error,omitempty"`
	Attrs         map[string]string `json:"attrs,omitempty"`
	Events        []SpanEvent       `json:"events,omitempty"`
}

// TraceConfig tunes a RequestTracer. Zero values select the documented
// defaults.
type TraceConfig struct {
	// Path is the span JSONL file appended to. Rotation moves it to
	// Path+".1". Empty keeps ended spans in memory for Spans instead;
	// nothing evicts them, so that mode is for bounded runs such as a
	// build.
	Path string
	// Service names this process in every span record (e.g. "gateway",
	// "server"), so multi-process traces can be read without guessing.
	Service string
	// SampleEvery keeps one trace in N (deterministic head sampling:
	// every Nth root span is sampled; children inherit the decision).
	// <= 1 samples everything.
	SampleEvery int
	// QueueSize bounds the spans buffered between the serving path and
	// the writer goroutine (default 1024). A full queue drops.
	QueueSize int
	// MaxBytes rotates the active file once the bytes written to it
	// reach this size (default 64 MiB; negative disables rotation).
	MaxBytes int64
	// OnDrop and OnWrite, when non-nil, are invoked once per dropped
	// and per persisted span (e.g. to feed metrics counters). OnDrop
	// runs on the serving path and must be cheap.
	OnDrop  func()
	OnWrite func()
}

// RequestTracer mints request-scoped spans and persists the sampled
// ones through an fsx.Appender, the bounded JSONL writer the query log
// uses too: the serving goroutine pays one atomic tick plus, for
// sampled spans, one non-blocking channel send; a slow disk degrades
// the trace, never a request. A nil *RequestTracer is valid and makes
// every operation a no-op, so call sites never branch on "is tracing
// on".
type RequestTracer struct {
	cfg TraceConfig
	out *fsx.Appender[SpanRecord] // nil in memory mode (no Path)

	roots atomic.Int64 // root-span creations, sampled or not

	mu   sync.Mutex
	kept []SpanRecord // memory mode's ended spans, in end order
}

// NewRequestTracer opens (appending) the span file and starts its
// writer; with no Path it keeps spans in memory.
func NewRequestTracer(cfg TraceConfig) (*RequestTracer, error) {
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	t := &RequestTracer{cfg: cfg}
	if cfg.Path != "" {
		out, err := fsx.OpenAppender[SpanRecord](cfg.Path, cfg.QueueSize, cfg.MaxBytes, cfg.OnDrop, cfg.OnWrite)
		if err != nil {
			return nil, fmt.Errorf("telemetry: trace output: %w", err)
		}
		t.out = out
	}
	return t, nil
}

// Roots returns the number of root spans started (sampled or not).
func (t *RequestTracer) Roots() int64 {
	if t == nil {
		return 0
	}
	return t.roots.Load()
}

// Dropped returns the number of sampled spans lost to a full queue.
func (t *RequestTracer) Dropped() int64 {
	if t == nil || t.out == nil {
		return 0
	}
	return t.out.Dropped()
}

// Written returns the number of spans persisted so far.
func (t *RequestTracer) Written() int64 {
	if t == nil || t.out == nil {
		return 0
	}
	return t.out.Written()
}

// Spans returns the spans a memory-mode tracer has kept, in the order
// they ended; nil for a file-backed tracer.
func (t *RequestTracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.kept...)
}

// Close stops accepting spans, flushes the queue to disk and closes
// the file. Spans ended after Close are counted as drops. Nil-safe,
// and a no-op in memory mode.
func (t *RequestTracer) Close() error {
	if t == nil || t.out == nil {
		return nil
	}
	return t.out.Close()
}

// RegisterMetrics exports a file-backed tracer's span counts on reg as
// rne_trace_written_total and rne_trace_dropped_total.
func (t *RequestTracer) RegisterMetrics(reg *Registry) {
	reg.CounterFunc("rne_trace_written_total", "Sampled spans the tracer wrote.",
		func() float64 { return float64(t.Written()) })
	reg.CounterFunc("rne_trace_dropped_total", "Sampled spans the tracer dropped.",
		func() float64 { return float64(t.Dropped()) })
}

func (t *RequestTracer) enqueue(rec SpanRecord) {
	if t.out != nil {
		t.out.Append(rec)
		return
	}
	t.mu.Lock()
	t.kept = append(t.kept, rec)
	t.mu.Unlock()
}

// ReqSpan is one in-flight request-scoped span. A nil *ReqSpan is
// valid and makes every method a no-op, which is how disabled tracing
// stays near-zero cost: with no tracer installed every StartSpan
// returns nil and the hot path pays only nil checks. Unsampled spans
// exist (they carry IDs for propagation) but record nothing and are
// never enqueued.
type ReqSpan struct {
	tracer *RequestTracer
	sc     SpanContext
	parent [8]byte
	name   string
	start  time.Time

	mu     sync.Mutex
	attrs  map[string]string
	events []SpanEvent
	status int
	errMsg string
	ended  bool
}

type spanCtxKey struct{}
type remoteParentKey struct{}

// ContextWithSpan attaches span to ctx, making it the parent of
// subsequent StartSpan/StartChild calls.
func ContextWithSpan(ctx context.Context, span *ReqSpan) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, span)
}

// SpanFromContext returns the context's span, or nil.
func SpanFromContext(ctx context.Context) *ReqSpan {
	s, _ := ctx.Value(spanCtxKey{}).(*ReqSpan)
	return s
}

// ContextWithRemoteParent records an extracted upstream SpanContext so
// the next StartSpan continues the remote trace instead of rooting a
// new one.
func ContextWithRemoteParent(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, remoteParentKey{}, sc)
}

func remoteParentFrom(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(remoteParentKey{}).(SpanContext)
	return sc, ok
}

// StartSpan starts a span named name: a child of the context's span if
// one exists, else a child of a remote parent recorded by
// ContextWithRemoteParent, else a new root (where the head-sampling
// decision is made). The returned context carries the new span. Nil
// tracer: returns (ctx, nil).
func (t *RequestTracer) StartSpan(ctx context.Context, name string) (context.Context, *ReqSpan) {
	return t.startSpanAt(ctx, name, time.Now(), false)
}

// StartSpanForced is StartSpan but a root started here is always
// sampled, regardless of SampleEvery — for rare, high-value operations
// such as autoheal attempts that must never be sampled away.
func (t *RequestTracer) StartSpanForced(ctx context.Context, name string) (context.Context, *ReqSpan) {
	return t.startSpanAt(ctx, name, time.Now(), true)
}

func (t *RequestTracer) startSpanAt(ctx context.Context, name string, start time.Time, force bool) (context.Context, *ReqSpan) {
	if t == nil {
		return ctx, nil
	}
	var sc SpanContext
	var parentID [8]byte
	if p := SpanFromContext(ctx); p != nil {
		sc = SpanContext{TraceID: p.sc.TraceID, SpanID: newSpanID(), Sampled: p.sc.Sampled}
		parentID = p.sc.SpanID
	} else if remote, ok := remoteParentFrom(ctx); ok && remote.Valid() {
		sc = SpanContext{TraceID: remote.TraceID, SpanID: newSpanID(), Sampled: remote.Sampled}
		parentID = remote.SpanID
	} else {
		n := t.roots.Add(1)
		sampled := force || n%int64(t.cfg.SampleEvery) == 0
		sc = SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: sampled}
	}
	s := &ReqSpan{tracer: t, sc: sc, parent: parentID, name: name, start: start}
	return ContextWithSpan(ctx, s), s
}

// StartChild starts a child of the context's span using that span's
// own tracer, so instrumented call sites need no tracer handle of
// their own. With no span in ctx it returns (ctx, nil).
func StartChild(ctx context.Context, name string) (context.Context, *ReqSpan) {
	p := SpanFromContext(ctx)
	if p == nil {
		return ctx, nil
	}
	return p.tracer.startSpanAt(ctx, name, time.Now(), false)
}

// Child starts a child of s that began at start. start may lie in the
// past, for work whose span can only be made once it ran: an admission
// wait, or a training unit checked after it finished. A nil s gives a
// nil child.
func (s *ReqSpan) Child(name string, start time.Time) *ReqSpan {
	if s == nil {
		return nil
	}
	return &ReqSpan{
		tracer: s.tracer,
		sc:     SpanContext{TraceID: s.sc.TraceID, SpanID: newSpanID(), Sampled: s.sc.Sampled},
		parent: s.sc.SpanID,
		name:   name,
		start:  start,
	}
}

// Context returns the span's propagation identity (zero for nil).
func (s *ReqSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Recording reports whether this span will be persisted on End.
func (s *ReqSpan) Recording() bool { return s != nil && s.sc.Sampled }

// TraceID returns the hex trace ID, "" for nil spans.
func (s *ReqSpan) TraceID() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceIDString()
}

// ExemplarID returns the hex trace ID only when the span is recorded —
// the ID a latency-histogram exemplar should carry, since an exemplar
// pointing at a never-written trace is noise.
func (s *ReqSpan) ExemplarID() string {
	if s == nil || !s.sc.Sampled {
		return ""
	}
	return s.sc.TraceIDString()
}

// SetAttr attaches a string attribute. No-op on nil/unsampled/ended
// spans — a goroutine that outlives its request, such as a hedge
// loser, may touch a span after it ended, and must not race the writer.
func (s *ReqSpan) SetAttr(k, v string) {
	if !s.Recording() {
		return
	}
	s.mu.Lock()
	if !s.ended {
		if s.attrs == nil {
			s.attrs = make(map[string]string, 4)
		}
		s.attrs[k] = v
	}
	s.mu.Unlock()
}

// SetAttrInt attaches an integer attribute.
func (s *ReqSpan) SetAttrInt(k string, v int64) {
	if !s.Recording() {
		return
	}
	s.SetAttr(k, fmt.Sprintf("%d", v))
}

// SetAttrFloat attaches a float attribute in its shortest exact form.
func (s *ReqSpan) SetAttrFloat(k string, v float64) {
	if !s.Recording() {
		return
	}
	s.SetAttr(k, strconv.FormatFloat(v, 'g', -1, 64))
}

// Event records a point-in-time annotation.
func (s *ReqSpan) Event(name, detail string) {
	if !s.Recording() {
		return
	}
	at := time.Since(s.start).Seconds() * 1e6
	s.mu.Lock()
	if !s.ended {
		s.events = append(s.events, SpanEvent{Name: name, AtUS: at, Detail: detail})
	}
	s.mu.Unlock()
}

// SetError marks the span failed. A nil error is ignored.
func (s *ReqSpan) SetError(err error) {
	if err == nil || !s.Recording() {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.errMsg = err.Error()
	}
	s.mu.Unlock()
}

// SetStatus records the HTTP status the span's request answered with.
func (s *ReqSpan) SetStatus(code int) {
	if !s.Recording() {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.status = code
	}
	s.mu.Unlock()
}

// End finishes the span and, when sampled, offers it to the writer
// (non-blocking; a full queue drops and counts). Ending twice is safe:
// the second End is a no-op, so a hedge loser can be ended both by its
// own completion and by a cleanup sweep.
func (s *ReqSpan) End() {
	if s == nil || !s.sc.Sampled {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := SpanRecord{
		TraceID:       s.sc.TraceIDString(),
		SpanID:        s.sc.SpanIDString(),
		Service:       s.tracer.cfg.Service,
		Name:          s.name,
		StartUnixNano: s.start.UnixNano(),
		DurationUS:    time.Since(s.start).Seconds() * 1e6,
		HTTPStatus:    s.status,
		Error:         s.errMsg,
		Attrs:         s.attrs,
		Events:        s.events,
	}
	s.mu.Unlock()
	if s.parent != [8]byte{} {
		rec.ParentID = hex.EncodeToString(s.parent[:])
	}
	s.tracer.enqueue(rec)
}
