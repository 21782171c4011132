package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// readSpanFile parses the JSONL a tracer wrote.
func readSpanFile(t *testing.T, path string) []SpanRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []SpanRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		out = append(out, rec)
	}
	return out
}

func newTestTracer(t *testing.T, cfg TraceConfig) (*RequestTracer, string) {
	t.Helper()
	if cfg.Path == "" {
		cfg.Path = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	tr, err := NewRequestTracer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, cfg.Path
}

func TestTraceParentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	got, ok := ParseTraceParent(FormatTraceParent(sc))
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
	sc.Sampled = false
	got, ok = ParseTraceParent(FormatTraceParent(sc))
	if !ok || got != sc {
		t.Fatalf("unsampled round trip: got %+v ok=%v", got, ok)
	}
	// Sampled is bit 0 of the flags byte read as hex, whatever the
	// other bits hold.
	for flags, sampled := range map[string]bool{
		"00": false, "01": true, "02": false, "03": true,
		"0a": false, "0b": true, "0c": false, "0d": true, "0e": false, "0f": true,
		"10": false, "11": true, "fe": false, "ff": true, "FF": true,
	} {
		s := "00-" + sc.TraceIDString() + "-" + sc.SpanIDString() + "-" + flags
		got, ok := ParseTraceParent(s)
		if !ok || got.Sampled != sampled {
			t.Fatalf("flags %q: sampled=%v ok=%v, want sampled=%v", flags, got.Sampled, ok, sampled)
		}
	}
	bad := []string{
		"",
		"00",
		"01-" + sc.TraceIDString() + "-" + sc.SpanIDString() + "-01",       // unknown version
		"00-00000000000000000000000000000000-" + sc.SpanIDString() + "-01", // zero trace id
		"00-" + sc.TraceIDString() + "-0000000000000000-01",                // zero span id
		"00-" + strings.Repeat("z", 32) + "-" + sc.SpanIDString() + "-01",  // non-hex
		"00-" + sc.TraceIDString() + "-" + sc.SpanIDString() + "-01-extra", // trailing field on v00
		"00-" + sc.TraceIDString() + "-" + sc.SpanIDString() + "-0g",       // non-hex flags
	}
	for _, s := range bad {
		if _, ok := ParseTraceParent(s); ok {
			t.Fatalf("accepted malformed traceparent %q", s)
		}
	}
}

// FuzzParseTraceParent checks that no header value panics the parser,
// that an accepted value formats back to the same ids, and that
// Sampled is bit 0 of the decoded flags byte.
func FuzzParseTraceParent(f *testing.F) {
	sc := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	f.Add(FormatTraceParent(sc))
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0b")
	f.Add("00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-FE")
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := ParseTraceParent(s)
		if !ok {
			return
		}
		if got.TraceIDString() != strings.ToLower(s[3:35]) || got.SpanIDString() != strings.ToLower(s[36:52]) {
			t.Fatalf("%q parsed to ids %s-%s", s, got.TraceIDString(), got.SpanIDString())
		}
		again, ok := ParseTraceParent(FormatTraceParent(got))
		if !ok || again != got {
			t.Fatalf("%q: formatted %q parses to %+v ok=%v, want %+v", s, FormatTraceParent(got), again, ok, got)
		}
		flags, err := strconv.ParseUint(s[53:55], 16, 8)
		if err != nil {
			t.Fatalf("%q accepted with flags %q: %v", s, s[53:55], err)
		}
		if got.Sampled != (flags&1 == 1) {
			t.Fatalf("%q: sampled=%v, flags byte %#02x", s, got.Sampled, flags)
		}
	})
}

func TestTraceParentHeaderInjectExtract(t *testing.T) {
	h := http.Header{}
	InjectTraceParent(h, SpanContext{}) // invalid: must not inject
	if h.Get(TraceParentHeader) != "" {
		t.Fatal("invalid span context was injected")
	}
	sc := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	InjectTraceParent(h, sc)
	got, ok := ExtractTraceParent(h)
	if !ok || got != sc {
		t.Fatalf("extract: got %+v ok=%v, want %+v", got, ok, sc)
	}
}

func TestNilTracerAndNilSpanAreNoOps(t *testing.T) {
	var tr *RequestTracer
	ctx, span := tr.StartSpan(context.Background(), "x")
	if span != nil {
		t.Fatal("nil tracer minted a span")
	}
	// Every span method must be callable on nil.
	span.SetAttr("k", "v")
	span.SetAttrInt("n", 1)
	span.Event("e", "")
	span.SetError(errors.New("boom"))
	span.SetStatus(200)
	span.End()
	if span.Recording() || span.TraceID() != "" || span.ExemplarID() != "" {
		t.Fatal("nil span is not inert")
	}
	if _, child := StartChild(ctx, "child"); child != nil {
		t.Fatal("StartChild minted a span without a parent")
	}
	if tr.Roots() != 0 || tr.Dropped() != 0 || tr.Written() != 0 || tr.Close() != nil {
		t.Fatal("nil tracer accessors not inert")
	}
}

func TestTracerWritesLinkedSpans(t *testing.T) {
	tr, path := newTestTracer(t, TraceConfig{Service: "test"})
	ctx, root := tr.StartSpan(context.Background(), "GET /distance")
	root.SetAttr("request_id", "r1")
	_, child := StartChild(ctx, "kernel")
	child.SetAttrInt("pairs", 3)
	child.Event("abandoned", "deadline")
	child.SetError(errors.New("boom"))
	child.SetStatus(504)
	child.End()
	root.End()
	root.End() // idempotent
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	spans := readSpanFile(t, path)
	if len(spans) != 2 {
		t.Fatalf("wrote %d spans, want 2", len(spans))
	}
	kernel, handler := spans[0], spans[1] // children end first
	if kernel.Name != "kernel" || handler.Name != "GET /distance" {
		t.Fatalf("span order/names wrong: %q, %q", kernel.Name, handler.Name)
	}
	if handler.ParentID != "" {
		t.Fatalf("root has parent %q", handler.ParentID)
	}
	if kernel.ParentID != handler.SpanID || kernel.TraceID != handler.TraceID {
		t.Fatalf("child not linked: parent=%q trace=%q vs root span=%q trace=%q",
			kernel.ParentID, kernel.TraceID, handler.SpanID, handler.TraceID)
	}
	if kernel.Service != "test" || handler.Attrs["request_id"] != "r1" {
		t.Fatalf("service/attrs lost: %+v", handler)
	}
	if kernel.Attrs["pairs"] != "3" || kernel.Error != "boom" || kernel.HTTPStatus != 504 {
		t.Fatalf("child record incomplete: %+v", kernel)
	}
	if len(kernel.Events) != 1 || kernel.Events[0].Name != "abandoned" {
		t.Fatalf("events lost: %+v", kernel.Events)
	}
	if tr.Written() != 2 || tr.Dropped() != 0 {
		t.Fatalf("written=%d dropped=%d", tr.Written(), tr.Dropped())
	}
}

func TestHeadSamplingIsInheritedAndCounted(t *testing.T) {
	tr, path := newTestTracer(t, TraceConfig{SampleEvery: 2})
	sampled := 0
	for i := 0; i < 10; i++ {
		ctx, root := tr.StartSpan(context.Background(), "root")
		_, child := StartChild(ctx, "child")
		if child.Recording() != root.Recording() {
			t.Fatal("child did not inherit the sampling decision")
		}
		if root.Recording() {
			sampled++
		}
		child.End()
		root.End()
	}
	if sampled != 5 {
		t.Fatalf("sampled %d of 10 roots with SampleEvery=2", sampled)
	}
	// An unsampled span still carries a valid identity for propagation.
	_, root := tr.StartSpan(context.Background(), "root")
	if root.Recording() && !root.Context().Valid() {
		t.Fatal("span context invalid")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(readSpanFile(t, path)); got != 10 {
		t.Fatalf("persisted %d spans, want 10 (5 roots + 5 children)", got)
	}
	if tr.Roots() != 11 {
		t.Fatalf("roots=%d, want 11", tr.Roots())
	}
}

func TestForcedRootAlwaysSampled(t *testing.T) {
	tr, _ := newTestTracer(t, TraceConfig{SampleEvery: 1 << 30})
	defer tr.Close()
	if _, s := tr.StartSpan(context.Background(), "r"); s.Recording() {
		t.Fatal("plain root sampled despite huge SampleEvery")
	}
	_, forced := tr.StartSpanForced(context.Background(), "autoheal.heal")
	if !forced.Recording() {
		t.Fatal("forced root not sampled")
	}
	forced.End()
}

func TestRemoteParentContinuesTrace(t *testing.T) {
	tr, _ := newTestTracer(t, TraceConfig{SampleEvery: 1 << 30})
	defer tr.Close()
	remote := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	ctx := ContextWithRemoteParent(context.Background(), remote)
	_, span := tr.StartSpan(ctx, "GET /distance")
	if !span.Recording() {
		t.Fatal("remote sampled flag not inherited")
	}
	if span.Context().TraceID != remote.TraceID {
		t.Fatal("remote trace ID not continued")
	}
	span.End()
}

func TestTracerFullQueueDropsNotBlocks(t *testing.T) {
	onDrops := 0
	tr, _ := newTestTracer(t, TraceConfig{QueueSize: 1, OnDrop: func() { onDrops++ }})
	// Saturate: the writer goroutine may drain some, so push until a
	// drop is observed — the call must never block.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10000 && tr.Dropped() == 0; i++ {
			_, s := tr.StartSpan(context.Background(), "s")
			s.End()
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("span End blocked on a full queue")
	}
	tr.Close()
	if tr.Dropped() == 0 || onDrops == 0 {
		t.Fatalf("no drops recorded (dropped=%d onDrops=%d)", tr.Dropped(), onDrops)
	}
	// Ending a span after Close is a counted drop, not a panic.
	before := tr.Dropped()
	_, s := tr.StartSpan(context.Background(), "late")
	s.End()
	if tr.Dropped() != before+1 {
		t.Fatal("post-Close End not counted as a drop")
	}
}

func TestMutationAfterEndIsIgnored(t *testing.T) {
	tr, path := newTestTracer(t, TraceConfig{})
	_, s := tr.StartSpan(context.Background(), "s")
	s.SetAttr("kept", "yes")
	s.End()
	// A deadline-abandoned handler goroutine may still hold the span.
	s.SetAttr("late", "no")
	s.Event("late", "")
	s.SetError(errors.New("late"))
	s.SetStatus(500)
	tr.Close()
	spans := readSpanFile(t, path)
	if len(spans) != 1 {
		t.Fatalf("%d spans", len(spans))
	}
	rec := spans[0]
	if rec.Attrs["kept"] != "yes" || rec.Attrs["late"] != "" || rec.Error != "" ||
		rec.HTTPStatus != 0 || len(rec.Events) != 0 {
		t.Fatalf("post-End mutation leaked into the record: %+v", rec)
	}
}

func TestSanitizeAttempt(t *testing.T) {
	for _, ok := range []string{"retry", "hedge", "shard", "shard-retry"} {
		if SanitizeAttempt(ok) != ok {
			t.Fatalf("rejected known attempt kind %q", ok)
		}
	}
	for _, bad := range []string{"", "primary", "RETRY", "retry\n", "x"} {
		if got := SanitizeAttempt(bad); got != "" {
			t.Fatalf("accepted %q as %q", bad, got)
		}
	}
}
