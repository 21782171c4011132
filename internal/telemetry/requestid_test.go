package telemetry

import (
	"net/http/httptest"
	"testing"
)

func TestRequestIDFromEmptyContext(t *testing.T) {
	if got := RequestIDFrom(httptest.NewRequest("GET", "/", nil).Context()); got != "" {
		t.Fatalf("ID from bare context = %q, want empty", got)
	}
}
