package telemetry

import (
	"context"
	"net/http"
	"time"
)

// StartRequestSpan starts the handler span of an inbound request at
// start: named "METHOD path", continuing the caller's trace when r
// carries a traceparent, and tagged with the request ID. With a nil
// tracer it returns (ctx, nil) and allocates nothing.
func (t *RequestTracer) StartRequestSpan(ctx context.Context, r *http.Request, requestID string, start time.Time) (context.Context, *ReqSpan) {
	if t == nil {
		return ctx, nil
	}
	if remote, ok := ExtractTraceParent(r.Header); ok {
		ctx = ContextWithRemoteParent(ctx, remote)
	}
	ctx, span := t.startSpanAt(ctx, r.Method+" "+r.URL.Path, start, false)
	if requestID != "" {
		span.SetAttr("request_id", requestID)
	}
	return ctx, span
}

// MarkAdmitted records the "admission" child span of a handler span:
// from the handler span's start to now, the time the request spent
// before its admission gate let it through. Shed requests never reach
// the gate, so their handler span carries the shed event instead.
func (s *ReqSpan) MarkAdmitted() {
	if !s.Recording() {
		return
	}
	s.Child("admission", s.start).End()
}
