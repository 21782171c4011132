package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
)

// A NaN embedding row makes estimates JSON cannot carry. Both routes,
// guarded or not, must answer 500 with a JSON error body rather than a
// 200 whose body the encoder abandoned.
func TestNonFiniteEstimateAnswers500(t *testing.T) {
	for _, guarded := range []bool{false, true} {
		var ts *httptest.Server
		var m *core.Model
		if guarded {
			ts, m, _ = newGuardedServer(t)
		} else {
			ts, m = newTestServer(t, false)
		}
		row := m.Vector(7)
		for i := range row {
			row[i] = math.NaN()
		}
		check := func(route string, resp *http.Response, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			var e map[string]string
			if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(body, &e) != nil || e["error"] == "" {
				t.Fatalf("guarded=%v %s: status %d body %q, want 500 with a JSON error", guarded, route, resp.StatusCode, body)
			}
		}
		resp, err := http.Get(ts.URL + "/distance?s=7&t=3")
		check("/distance", resp, err)
		resp, err = http.Post(ts.URL+"/batch", "application/json",
			bytes.NewReader([]byte(`{"pairs":[[1,2],[7,3]]}`)))
		check("/batch", resp, err)
	}
}
