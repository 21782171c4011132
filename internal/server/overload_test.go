package server

import (
	"net/http"
	"testing"

	"repro/internal/resilience"
)

// A replica receiving a request whose forwarded deadline budget is
// already spent answers 504 immediately — it must not burn capacity on
// work the gateway can no longer use.
func TestServerZeroBudgetIs504(t *testing.T) {
	ts, _ := newTestServer(t, false)
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/distance?s=1&t=2", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(resilience.BudgetHeader, "0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("zero-budget request = %d, want 504", resp.StatusCode)
	}
	// The same request with budget left is unaffected.
	req.Header.Set(resilience.BudgetHeader, "5000")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted request = %d, want 200", resp.StatusCode)
	}
}
