package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/alt"
	"repro/internal/batchwire"
	"repro/internal/hybrid"
)

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// Bodies encoding/json used to coerce into an answer get 400 from the
// replica and the gateway alike.
func TestMalformedPairsRejected(t *testing.T) {
	_, m := buildModel(t)
	replica := newBackend(t, m, nil, "v1")
	gw := newGateway(t, Config{Backends: []string{replica.URL}, HealthInterval: time.Hour})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	targets := map[string]string{"replica": replica.URL, "gateway": ts.URL}
	for _, body := range []string{
		`{"pairs":[[5]]}`,                     // was distance(5,0)
		`{"pairs":[[5,7,9]]}`,                 // the 9 was dropped
		`{"pairs":[null]}`,                    // was the pair (0,0)
		`{"Pairs":[[5,7]]}`,                   // keys matched case-insensitively
		`{"pairs":[[5,7]]} {"pairs":[[1,2]]}`, // bytes after the object ignored
		`{"pairs":[[5,7]]},`,
	} {
		for name, url := range targets {
			status, out := post(t, url, body)
			var e map[string]string
			if status != http.StatusBadRequest || json.Unmarshal(out, &e) != nil || e["error"] == "" {
				t.Fatalf("%s answered %q with %d %s, want 400 with a JSON error", name, body, status, out)
			}
		}
	}
	for name, url := range targets {
		if status, out := post(t, url, " {\n\t\"pairs\" : [ [5 , 7] ]\r\n} "); status != http.StatusOK {
			t.Fatalf("%s refused a well-formed spaced body: %d %s", name, status, out)
		}
	}
}

// A 200,000-pair batch answers about 54 bytes a pair, past the 8 MiB
// request cap the gateway once read leg replies under. The leg's reply
// cap follows its pair count, so the merged answer arrives whole —
// byte for byte the replica's own.
func TestLargeBatchReplyNotTruncated(t *testing.T) {
	g, m := buildModel(t)
	lt, err := alt.Build(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	guard, err := hybrid.New(m, lt)
	if err != nil {
		t.Fatal(err)
	}
	replica := newBackend(t, m, guard, "v1")
	gw := newGateway(t, Config{Backends: []string{replica.URL}, HealthInterval: time.Hour})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int32, 200000)
	for i := range pairs {
		pairs[i] = [2]int32{rng.Int31n(64), rng.Int31n(64)}
	}
	body := batchBody(pairs)
	status, direct := post(t, replica.URL, body)
	if status != http.StatusOK {
		t.Fatalf("replica: %d %.200s", status, direct)
	}
	if len(direct) <= 8<<20 {
		t.Fatalf("answer is %d bytes, no longer past the 8 MiB request cap", len(direct))
	}
	status, merged := post(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("gateway: %d %.200s", status, merged)
	}
	if !bytes.Equal(merged, direct) {
		t.Fatalf("gateway answer (%d bytes) differs from the replica's (%d bytes)", len(merged), len(direct))
	}
}

// A reply longer than any answer to its leg could be is a failed leg,
// reported as over the cap, never relayed truncated.
func TestOverCapReplyReported(t *testing.T) {
	_, m := buildModel(t)
	good := newBackend(t, m, nil, "v1")
	padded := jsonBackend(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			return
		}
		ss, _, err := decodeBatch(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		d := strings.TrimSuffix(strings.Repeat("1,", len(ss)), ",")
		pad := strings.Repeat(" ", int(batchwire.MaxReplyBytes(len(ss))))
		fmt.Fprintf(w, `{"distances":[%s]}%s`, d, pad)
	})
	gw := newGateway(t, Config{
		Backends:       []string{good.URL, padded.URL},
		HealthInterval: time.Hour,
		RetryBudget:    -1,
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	pairs := make([][2]int32, 64)
	for i := range pairs {
		pairs[i] = [2]int32{int32(i), int32(63 - i)}
	}
	status, out := post(t, ts.URL, batchBody(pairs))
	if status != http.StatusPartialContent || !bytes.Contains(out, []byte(batchwire.ErrReplyTooLarge.Error())) {
		t.Fatalf("got %d %.300s, want 206 naming the over-cap reply", status, out)
	}
}

// Pooled request memory is shared by every handler goroutine: batches
// served at once, directly and through the gateway, must each get
// exactly their own answers.
func TestConcurrentBatchesKeepTheirAnswers(t *testing.T) {
	_, m := buildModel(t)
	b1 := newBackend(t, m, nil, "v1")
	b2 := newBackend(t, m, nil, "v1")
	gw := newGateway(t, Config{Backends: []string{b1.URL, b2.URL}, HealthInterval: time.Hour})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 10; i++ {
				pairs := make([][2]int32, 1+rng.Intn(300))
				for k := range pairs {
					pairs[k] = [2]int32{rng.Int31n(64), rng.Int31n(64)}
				}
				url := []string{b1.URL, ts.URL}[i%2]
				resp, err := http.Post(url+"/batch", "application/json", strings.NewReader(batchBody(pairs)))
				if err != nil {
					t.Error(err)
					return
				}
				var out struct {
					Distances []float64 `json:"distances"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(out.Distances) != len(pairs) {
					t.Errorf("%s: status %d, %d distances for %d pairs, %v", url, resp.StatusCode, len(out.Distances), len(pairs), err)
					return
				}
				for k, p := range pairs {
					if out.Distances[k] != m.Estimate(p[0], p[1]) {
						t.Errorf("%s: pair %d got %v, want %v", url, k, out.Distances[k], m.Estimate(p[0], p[1]))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
