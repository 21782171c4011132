package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRequestIDFromEmptyContext(t *testing.T) {
	if got := RequestIDFrom(httptest.NewRequest("GET", "/", nil).Context()); got != "" {
		t.Fatalf("ID from bare context = %q, want empty", got)
	}
}

// idByte reports whether b may appear in a request ID.
func idByte(b byte) bool {
	return b == '-' || b == '_' || b == '.' ||
		('0' <= b && b <= '9') || ('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z')
}

// FuzzInboundRequestID: a header value comes back unchanged exactly
// when it is 1–64 bytes of [-_.0-9A-Za-z]; anything else is replaced
// by a freshly minted ID, and no result carries another byte.
func FuzzInboundRequestID(f *testing.F) {
	for _, s := range []string{
		"", "req-42", "upstream-42.a_b", strings.Repeat("a", 64), strings.Repeat("a", 65),
		"evil\nX-Injected: 1", "spaces here", "quote\"", "caf\xc3\xa9", "\xff",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		h := http.Header{}
		h.Set(RequestIDHeader, in)
		got := InboundRequestID(h)
		valid := len(in) >= 1 && len(in) <= 64
		for i := 0; i < len(in); i++ {
			valid = valid && idByte(in[i])
		}
		if valid != (got == in) {
			t.Fatalf("InboundRequestID(%q) = %q; the value is valid: %v", in, got, valid)
		}
		if len(got) < 1 || len(got) > 64 {
			t.Fatalf("InboundRequestID(%q) = %q: length %d outside 1..64", in, got, len(got))
		}
		for i := 0; i < len(got); i++ {
			if !idByte(got[i]) {
				t.Fatalf("InboundRequestID(%q) = %q carries byte %#x", in, got, got[i])
			}
		}
		if !valid && InboundRequestID(h) == got {
			t.Fatalf("InboundRequestID(%q) minted %q twice", in, got)
		}
	})
}
