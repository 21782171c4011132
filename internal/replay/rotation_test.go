package replay

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/qlog"
	"repro/internal/telemetry"
)

// rotationBudget is small enough that a hundred records of either kind
// rotate their file more than once.
const rotationBudget = 4 << 10

// checkGeneration fails unless path holds at most rotationBudget bytes
// plus the one record that reached the budget.
func checkGeneration(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	longest := 0
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		longest = max(longest, len(line))
	}
	if len(raw) > rotationBudget+longest {
		t.Fatalf("%s holds %d bytes, over the %d-byte budget plus one %d-byte record",
			filepath.Base(path), len(raw), rotationBudget, longest)
	}
}

// The query log and the tracer write through one appender: both rotate
// once the bytes written reach MaxBytes, and both generations read back
// as the newest records in order.
func TestRotatedLogsReadBack(t *testing.T) {
	const n = 100
	dir := t.TempDir()

	qpath := filepath.Join(dir, "queries.jsonl")
	ql, err := qlog.New(qlog.Config{Path: qpath, MaxBytes: rotationBudget})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// The fields a guarded, traced replica logs: about 280 bytes.
		if !ql.Observe(qlog.Record{
			TimeUnixNano: 1_760_000_000_000_000_000 + int64(i), RequestID: "9f86d081884c7d65",
			Route: "/distance", S: int32(i), T: int32(i + 4000), Estimate: 10523.718, Raw: 10498.2265625,
			Lo: 10211.5, Hi: 11873.25, HasBounds: true, Clamp: "low", LatencyUS: 38.217,
			TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Attempt: "retry",
		}) {
			t.Fatalf("record %d dropped", i)
		}
	}
	if err := ql.Close(); err != nil {
		t.Fatal(err)
	}
	var queries []Query
	for _, p := range []string{qpath + ".1", qpath} {
		checkGeneration(t, p)
		qs, err := ReadLogFile(p)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, qs...)
	}
	if len(queries) >= n {
		t.Fatalf("%d of %d records kept: the log never rotated past one generation", len(queries), n)
	}
	for i, q := range queries {
		if want := int32(n - len(queries) + i); q.S != want {
			t.Fatalf("query %d has s=%d, want %d: generations out of order or torn", i, q.S, want)
		}
	}

	spath := filepath.Join(dir, "spans.jsonl")
	tr, err := telemetry.NewRequestTracer(telemetry.TraceConfig{Path: spath, Service: "server", MaxBytes: rotationBudget})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, span := tr.StartSpan(context.Background(), "GET /distance")
		span.SetAttr("request_id", "9f86d081884c7d65")
		span.SetAttrInt("seq", int64(i))
		span.SetStatus(200)
		span.End()
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Written() != n {
		t.Fatalf("tracer wrote %d spans, want %d", tr.Written(), n)
	}
	checkGeneration(t, spath+".1")
	checkGeneration(t, spath)
	spans, err := ReadSpanFiles([]string{spath})
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) >= n {
		t.Fatalf("%d of %d spans kept: the span file never rotated past one generation", len(spans), n)
	}
	for i, s := range spans {
		if want := strconv.Itoa(n - len(spans) + i); s.Attrs["seq"] != want || s.Service != "server" {
			t.Fatalf("span %d is %+v, want seq %s from service server", i, s, want)
		}
	}
}
