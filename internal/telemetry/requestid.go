package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync/atomic"
)

// RequestIDHeader is the header request IDs arrive on and are echoed
// back through, so callers and upstream proxies can correlate logs
// across services.
const RequestIDHeader = "X-Request-Id"

type requestIDKey struct{}

// WithRequestID attaches a request ID to the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the context's request ID, or "" when none was
// attached (e.g. outside the serving pass, resilience.Wrap).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// fallbackSeq numbers request IDs when crypto/rand is unavailable.
var fallbackSeq atomic.Int64

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d", fallbackSeq.Add(1))
	}
	var id [16]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// sanitizeRequestID accepts a client-supplied ID only if it is short
// and printable-safe; anything else is discarded so log injection via
// the header is impossible.
func sanitizeRequestID(s string) string {
	if len(s) == 0 || len(s) > 64 {
		return ""
	}
	for _, r := range s {
		ok := r == '-' || r == '_' || r == '.' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			return ""
		}
	}
	return s
}

// InboundRequestID returns the well-formed X-Request-Id a client sent,
// or a freshly minted ID when it sent none or one that could inject
// into logs.
func InboundRequestID(h http.Header) string {
	if id := sanitizeRequestID(h.Get(RequestIDHeader)); id != "" {
		return id
	}
	return newRequestID()
}
