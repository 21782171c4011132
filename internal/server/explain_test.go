package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/alt"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hybrid"
	"repro/internal/qlog"
)

// smallModel trains a quick 6x6-grid model for wiring-level tests that
// do not care about estimate quality.
func smallModel(t *testing.T, seed int64) *core.Model {
	t.Helper()
	g, err := gen.Grid(6, 6, gen.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(seed)
	opt.Dim = 8
	opt.Epochs = 1
	opt.VertexSampleRatio = 5
	opt.FineTuneRounds = 1
	opt.HierSampleCap = 1000
	opt.ValidationPairs = 50
	m, _, err := core.Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExplainEndpointGuarded(t *testing.T) {
	ts, _, lt := newGuardedServer(t)
	out := getJSON(t, ts.URL+"/distance?s=7&t=90&explain=1", http.StatusOK)
	guard, ok := out["guard"].(map[string]any)
	if !ok {
		t.Fatalf("guarded /distance?explain=1 has no guard block: %v", out)
	}
	wantLo, wantHi := lt.Bounds(7, 90)
	if guard["lo"].(float64) != wantLo || guard["hi"].(float64) != wantHi {
		t.Fatalf("guard bounds [%v,%v] != recomputed [%v,%v]",
			guard["lo"], guard["hi"], wantLo, wantHi)
	}
	d := out["distance"].(float64)
	if d < wantLo || d > wantHi {
		t.Fatalf("explained distance %v outside certified [%v,%v]", d, wantLo, wantHi)
	}
	// The named landmarks must exist in the index.
	landmarks := lt.Landmarks()
	for _, key := range []string{"lo_landmark", "hi_landmark"} {
		id := int32(guard[key].(float64))
		found := false
		for _, l := range landmarks {
			if l == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s=%d is not one of the index landmarks %v", key, id, landmarks)
		}
	}
	// Clamp direction consistent with the reported raw estimate.
	raw := guard["raw"].(float64)
	switch guard["clamp"] {
	case "low":
		if raw >= wantLo {
			t.Fatalf("clamp=low but raw %v >= lo %v", raw, wantLo)
		}
	case "high":
		if raw <= wantHi {
			t.Fatalf("clamp=high but raw %v <= hi %v", raw, wantHi)
		}
	case nil, "":
		if raw < wantLo || raw > wantHi {
			t.Fatalf("no clamp but raw %v outside [%v,%v]", raw, wantLo, wantHi)
		}
	default:
		t.Fatalf("bad clamp value %v", guard["clamp"])
	}
}

// fetch GETs url, or POSTs body there when it is non-nil, and returns
// the 200 answer's body.
func fetch(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, out)
	}
	return out
}

// ?explain=1 is strictly opt-in on /distance, and its provenance is the
// guard's: an unguarded replica has none to add, so its explained
// answer is the plain one byte for byte, and a guarded one adds the
// guard block alone. Explained requests share the plain validation.
func TestDistanceExplainOptIn(t *testing.T) {
	ts, _ := newTestServer(t, false)
	plain := fetch(t, ts.URL+"/distance?s=2&t=9", nil)
	if explained := fetch(t, ts.URL+"/distance?s=2&t=9&explain=1", nil); !bytes.Equal(explained, plain) {
		t.Fatalf("unguarded explain=1 answered %s, the plain request %s", explained, plain)
	}
	getJSON(t, ts.URL+"/distance?s=3&explain=1", http.StatusBadRequest)
	getJSON(t, ts.URL+"/distance?s=abc&t=1&explain=1", http.StatusBadRequest)

	gts, _, _ := newGuardedServer(t)
	gplain := getJSON(t, gts.URL+"/distance?s=2&t=9", http.StatusOK)
	gout := getJSON(t, gts.URL+"/distance?s=2&t=9&explain=1", http.StatusOK)
	if _, ok := gout["guard"].(map[string]any); !ok {
		t.Fatalf("guarded explain=1 response has no guard block: %v", gout)
	}
	delete(gout, "guard")
	if !reflect.DeepEqual(gout, gplain) {
		t.Fatalf("guarded explain=1 answered %v besides its guard block, the plain request %v", gout, gplain)
	}
}

// /batch?explain=1 adds one guard block per pair on a guarded replica;
// an unguarded replica has no provenance to add and answers what the
// plain request answers.
func TestBatchExplainOptIn(t *testing.T) {
	pairs := [][2]int32{{0, 1}, {2, 3}, {4, 5}}
	body, _ := json.Marshal(map[string]any{"pairs": pairs})
	ts, _ := newTestServer(t, false)
	plain, explained := fetch(t, ts.URL+"/batch", body), fetch(t, ts.URL+"/batch?explain=1", body)
	if !bytes.Equal(explained, plain) {
		t.Fatalf("unguarded explain=1 answered %s, the plain request %s", explained, plain)
	}

	gts, _, _ := newGuardedServer(t)
	var out struct {
		Explain []map[string]json.RawMessage `json:"explain"`
	}
	if err := json.Unmarshal(fetch(t, gts.URL+"/batch?explain=1", body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Explain) != len(pairs) {
		t.Fatalf("explain array has %d entries for %d pairs", len(out.Explain), len(pairs))
	}
	for i, e := range out.Explain {
		if len(e) != 1 || e["guard"] == nil {
			t.Fatalf("pair %d: explain entry %v, want the guard block alone", i, e)
		}
	}
}

func TestKNNRangeExplainStats(t *testing.T) {
	ts, m := newTestServer(t, true)
	plain := getJSON(t, ts.URL+"/knn?s=1&k=3", http.StatusOK)
	if _, ok := plain["stats"]; ok {
		t.Fatal("stats leaked into an unexplained /knn response")
	}
	out := getJSON(t, ts.URL+"/knn?s=1&k=3&explain=1", http.StatusOK)
	st, ok := out["stats"].(map[string]any)
	if !ok {
		t.Fatalf("/knn explain=1 has no stats: %v", out)
	}
	if st["nodes_visited"].(float64) <= 0 || st["verts_scanned"].(float64) < 3 {
		t.Fatalf("implausible knn stats: %v", st)
	}

	tau := m.Scale() * 0.2
	out = getJSON(t, fmt.Sprintf("%s/range?s=1&tau=%f&explain=1", ts.URL, tau), http.StatusOK)
	st, ok = out["stats"].(map[string]any)
	if !ok {
		t.Fatalf("/range explain=1 has no stats: %v", out)
	}
	if st["nodes_visited"].(float64) <= 0 {
		t.Fatalf("implausible range stats: %v", st)
	}
}

// A server with a query log configured records served traffic as
// parseable JSONL with the guard provenance, and exports the write
// counter on /metrics.
func TestQueryLogRecordsServedQueries(t *testing.T) {
	m := smallModel(t, 11)
	path := filepath.Join(t.TempDir(), "queries.jsonl")
	srv, err := NewFromSet(ModelSet{Model: m}, Config{QueryLog: qlog.Config{Path: path}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	getJSON(t, ts.URL+"/distance?s=0&t=5", http.StatusOK)
	getJSON(t, ts.URL+"/distance?s=1&t=7", http.StatusOK)
	pairs := [][2]int32{{0, 2}, {3, 4}}
	body, _ := json.Marshal(map[string]any{"pairs": pairs})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 { // 2 distance + 2 batch pairs
		t.Fatalf("query log has %d records, want 4:\n%s", len(lines), data)
	}
	var rec qlog.Record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Route != "/distance" || rec.S != 0 || rec.T != 5 || rec.RequestID == "" {
		t.Fatalf("first record wrong: %+v", rec)
	}
	if want := m.Estimate(0, 5); rec.Estimate != want {
		t.Fatalf("logged estimate %v, served %v", rec.Estimate, want)
	}
	if rec.HasBounds {
		t.Fatal("unguarded server logged guard bounds")
	}
	if err := json.Unmarshal([]byte(lines[2]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Route != "/batch" || rec.S != 0 || rec.T != 2 {
		t.Fatalf("batch record wrong: %+v", rec)
	}

	if got := srv.QueryLog().Written(); got != 4 {
		t.Fatalf("Written() = %d, want 4", got)
	}
}

// Guard-mode records carry bounds and clamp provenance.
func TestQueryLogGuardProvenance(t *testing.T) {
	g, err := gen.Grid(6, 6, gen.DefaultConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	m := smallModel(t, 12)
	lt, err := alt.Build(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	est, err := hybrid.New(m, lt)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "queries.jsonl")
	srv, err := NewFromSet(ModelSet{Model: m, Guard: est}, Config{QueryLog: qlog.Config{Path: path}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	getJSON(t, ts.URL+"/distance?s=0&t=34", http.StatusOK)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec qlog.Record
	if err := json.Unmarshal(bytes.TrimSpace(data), &rec); err != nil {
		t.Fatal(err)
	}
	if !rec.HasBounds {
		t.Fatalf("guard record has no bounds: %+v", rec)
	}
	wantLo, wantHi := lt.Bounds(0, 34)
	if rec.Lo != wantLo || rec.Hi != wantHi {
		t.Fatalf("logged bounds [%v,%v], want [%v,%v]", rec.Lo, rec.Hi, wantLo, wantHi)
	}
	if rec.Estimate < rec.Lo || rec.Estimate > rec.Hi {
		t.Fatalf("logged estimate %v outside own bounds", rec.Estimate)
	}
}

// The query log must never slow serving: with the writer wedged and a
// 1-slot queue, requests still answer promptly and every lost record
// shows up in the drop counters and on /metrics.
func TestQueryLogNonBlockingUnderLoad(t *testing.T) {
	m := smallModel(t, 13)
	path := filepath.Join(t.TempDir(), "queries.jsonl")
	release := make(chan struct{})
	var once sync.Once
	srv, err := NewFromSet(ModelSet{Model: m}, Config{QueryLog: qlog.Config{
		Path:      path,
		QueueSize: 1,
		// Wedge the writer on its first record so the queue saturates.
		OnWrite: func() { <-release },
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer once.Do(func() { close(release) })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	start := time.Now()
	for i := 0; i < 100; i++ {
		getJSON(t, ts.URL+"/distance?s=0&t=5", http.StatusOK)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("100 requests against a wedged query log took %v", elapsed)
	}
	ql := srv.QueryLog()
	if ql.Dropped() == 0 {
		t.Fatal("wedged query log produced no drops")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "rne_qlog_dropped_total") {
		t.Fatal("qlog_dropped_total missing from /metrics")
	}
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "rne_qlog_dropped_total ") {
			var v float64
			if _, err := fmt.Sscanf(line, "rne_qlog_dropped_total %f", &v); err != nil {
				t.Fatal(err)
			}
			if int64(v) != ql.Dropped() {
				t.Fatalf("/metrics reports %v drops, logger counted %d", v, ql.Dropped())
			}
		}
	}

	once.Do(func() { close(release) })
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if ql.Written()+ql.Dropped() != ql.Sampled() {
		t.Fatalf("written %d + dropped %d != sampled %d",
			ql.Written(), ql.Dropped(), ql.Sampled())
	}
}

// A broken query log path fails server construction loudly.
func TestQueryLogBadPathRejected(t *testing.T) {
	m := smallModel(t, 14)
	_, err := NewFromSet(ModelSet{Model: m}, Config{QueryLog: qlog.Config{
		Path: filepath.Join(t.TempDir(), "no", "such", "dir", "q.jsonl"),
	}})
	if err == nil {
		t.Fatal("unwritable query log path accepted")
	}
}
