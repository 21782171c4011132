package replay

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// span builds a synthetic SpanRecord tersely. Handler spans ("GET
// ...", "POST ...") carry the HTTP status every served request records.
func span(trace, id, parent, service, name string, durUS float64) telemetry.SpanRecord {
	rec := telemetry.SpanRecord{
		TraceID: trace, SpanID: id, ParentID: parent,
		Service: service, Name: name, DurationUS: durUS,
	}
	if strings.HasPrefix(name, "GET ") || strings.HasPrefix(name, "POST ") {
		rec.HTTPStatus = 200
	}
	return rec
}

// One gateway trace with a replica handler inside the backend attempt:
// network must come out as attempt minus handler, and every phase must
// land in its bucket.
func TestAggregateTracesAttribution(t *testing.T) {
	spans := []telemetry.SpanRecord{
		// trace A: gateway root 1000us, admission 50us, one backend
		// attempt 800us containing a replica handler 600us with its own
		// admission 100us, kernel 300us, guard 150us.
		span("aaaa", "01", "", "gateway", "GET /distance", 1000),
		span("aaaa", "02", "01", "gateway", "admission", 50),
		span("aaaa", "03", "01", "gateway", "backend /distance", 800),
		span("aaaa", "04", "03", "server", "GET /distance", 600),
		span("aaaa", "05", "04", "server", "admission", 100),
		span("aaaa", "06", "04", "server", "kernel", 300),
		span("aaaa", "07", "04", "server", "guard", 150),
		// trace B: an orphaned replica fragment (its gateway root was
		// dropped) — counted but not attributed.
		span("bbbb", "08", "99", "server", "GET /distance", 500),
		span("bbbb", "09", "08", "server", "kernel", 400),
	}
	rep, err := AggregateTraces(spans)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spans != 9 || rep.Traces != 2 || rep.CompleteTraces != 1 {
		t.Fatalf("counts wrong: %+v", rep)
	}
	if rep.Services["gateway"] != 3 || rep.Services["server"] != 6 {
		t.Fatalf("service counts wrong: %v", rep.Services)
	}
	if rep.Request.P50US != 1000 || rep.Request.Count != 1 {
		t.Fatalf("request quantiles wrong: %+v", rep.Request)
	}
	got := map[string]PhaseStats{}
	for _, ps := range rep.Phases {
		got[ps.Phase] = ps
	}
	// queue = gateway admission 50 + replica admission 100.
	if q := got["queue"]; q.P50US != 150 || q.ShareOfRequest != 0.15 {
		t.Fatalf("queue attribution wrong: %+v", q)
	}
	if k := got["kernel"]; k.P50US != 300 {
		t.Fatalf("kernel attribution wrong: %+v", k)
	}
	if g := got["guard"]; g.P50US != 150 {
		t.Fatalf("guard attribution wrong: %+v", g)
	}
	if b := got["backend"]; b.P50US != 800 {
		t.Fatalf("backend attribution wrong: %+v", b)
	}
	// network = attempt 800 - replica handler 600.
	if n := got["network"]; n.P50US != 200 || n.ShareOfRequest != 0.2 {
		t.Fatalf("network attribution wrong: %+v", n)
	}
	if len(rep.Slowest) != 1 || rep.Slowest[0].TraceID != "aaaa" {
		t.Fatalf("slowest wrong: %+v", rep.Slowest)
	}
	if rep.Slowest[0].DominantPhase != "backend" {
		t.Fatalf("dominant phase %q, want backend", rep.Slowest[0].DominantPhase)
	}
}

// A replica handler span missing from the file (dropped) attributes
// the whole attempt to network — never a negative.
func TestAggregateTracesNetworkClampsAtZero(t *testing.T) {
	spans := []telemetry.SpanRecord{
		span("cccc", "01", "", "gateway", "GET /distance", 400),
		span("cccc", "02", "01", "gateway", "backend /distance", 300),
		// Pathological: child longer than the attempt (clock skew).
		span("dddd", "03", "", "gateway", "GET /distance", 400),
		span("dddd", "04", "03", "gateway", "backend /distance", 300),
		span("dddd", "05", "04", "server", "GET /distance", 350),
	}
	rep, err := AggregateTraces(spans)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]PhaseStats{}
	for _, ps := range rep.Phases {
		got[ps.Phase] = ps
	}
	// cccc: network = full 300; dddd: clamped to 0.
	n := got["network"]
	if n.Traces != 2 || n.MaxUS != 300 || n.P50US != 0 {
		t.Fatalf("network clamp wrong: %+v", n)
	}
}

// A heal trace shares the span stream with requests but is no
// request: only the trace rooted at a request span is attributed.
func TestAggregateTracesSkipsNonRequestRoots(t *testing.T) {
	spans := []telemetry.SpanRecord{
		span("aaaa", "01", "", "server", "GET /distance", 200),
		span("bbbb", "02", "", "server", "autoheal.heal", 7.8e6),
		span("bbbb", "03", "02", "server", "finetune", 7.7e6),
	}
	rep, err := AggregateTraces(spans)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Traces != 2 || rep.CompleteTraces != 1 {
		t.Fatalf("traces %d, complete %d; want 2, 1", rep.Traces, rep.CompleteTraces)
	}
	if rep.Request.P95US != 200 || rep.Request.MaxUS != 200 {
		t.Fatalf("request quantiles %+v include the heal", rep.Request)
	}
	if len(rep.Slowest) != 1 || rep.Slowest[0].TraceID != "aaaa" {
		t.Fatalf("slowest %+v", rep.Slowest)
	}
}

func TestAggregateTracesNoRootFails(t *testing.T) {
	spans := []telemetry.SpanRecord{
		span("eeee", "01", "99", "server", "GET /distance", 100),
	}
	if _, err := AggregateTraces(spans); err == nil {
		t.Fatal("aggregation over rootless fragments should fail loudly")
	}
	if _, err := AggregateTraces(nil); err == nil {
		t.Fatal("empty span set should fail")
	}
}

func TestReadSpanFilesAndOverhead(t *testing.T) {
	dir := t.TempDir()
	gw := filepath.Join(dir, "gw.jsonl")
	content := `{"trace_id":"aaaa","span_id":"01","name":"GET /distance","start":1,"duration_us":100,"http_status":200}
{"trace_id":"aaaa","span_id":"02","parent_id":"01","name":"kernel","start":1,"duration_us":60}
`
	if err := os.WriteFile(gw, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	// A rotated generation is read too.
	if err := os.WriteFile(gw+".1", []byte(`{"trace_id":"ffff","span_id":"03","name":"GET /distance","start":1,"duration_us":50,"http_status":200}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpanFiles([]string{gw})
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("read %d spans, want 3 (rotated + active)", len(spans))
	}
	rep, err := AggregateTraces(spans)
	if err != nil {
		t.Fatal(err)
	}
	rep.SetOverhead(101, 100)
	if rep.Overhead.DeltaPct != 1 {
		t.Fatalf("overhead delta %v, want 1%%", rep.Overhead.DeltaPct)
	}
	var sb strings.Builder
	rep.WriteHuman(&sb)
	for _, want := range []string{"traces: 2", "kernel", "tracing overhead"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("human output lacks %q:\n%s", want, sb.String())
		}
	}

	if _, err := ReadSpanFiles([]string{filepath.Join(dir, "missing.jsonl")}); err == nil {
		t.Fatal("missing trace file should error")
	}
}

func TestQuantilesExact(t *testing.T) {
	pop := make([]float64, 100)
	for i := range pop {
		pop[i] = float64(i + 1)
	}
	q := quantiles(pop)
	if q.P50US != 50 || q.P95US != 95 || q.P99US != 99 || q.MaxUS != 100 || q.Count != 100 {
		t.Fatalf("quantiles wrong: %+v", q)
	}
}
