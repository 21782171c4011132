package replay

// Tail-latency attribution over span JSONL: read the trace files the
// gateway and its replicas wrote (telemetry.RequestTracer), stitch the
// spans back into whole traces by trace ID, classify each span into a
// phase of the request's life (queue, backend, network, kernel, guard,
// index), and aggregate per-trace phase totals into quantiles. The
// output answers the on-call question the metrics alone cannot: of the
// p99, how much was admission queueing, how much the wire, how much
// the model kernel — and which specific slow traces to go read.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// Phase names, in reporting order. "queue" is admission wait (gateway
// and replica both), "backend" the whole gateway-side attempt,
// "network" the attempt minus the replica handler time inside it,
// "kernel"/"guard"/"index" the replica-side work spans.
var phaseOrder = []string{"queue", "backend", "network", "kernel", "guard", "index"}

// ReadSpans parses one span JSONL stream. Blank lines are skipped; a
// malformed line is an error (a truncated trace file should fail
// loudly, not silently shrink the analysis).
func ReadSpans(r io.Reader) ([]telemetry.SpanRecord, error) {
	var out []telemetry.SpanRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec telemetry.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("span line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading spans: %w", err)
	}
	return out, nil
}

// ReadSpanFiles reads and concatenates span JSONL from several files —
// typically one per process (gateway plus each replica). A rotated
// sibling (path+".1") is read first when present so near-full files do
// not lose their oldest spans.
func ReadSpanFiles(paths []string) ([]telemetry.SpanRecord, error) {
	var all []telemetry.SpanRecord
	for _, p := range paths {
		for _, candidate := range []string{p + ".1", p} {
			f, err := os.Open(candidate)
			if err != nil {
				if candidate != p {
					continue // no rotated generation; fine
				}
				return nil, fmt.Errorf("replay: %w", err)
			}
			spans, rerr := ReadSpans(f)
			f.Close()
			if rerr != nil {
				return nil, fmt.Errorf("replay: %s: %w", candidate, rerr)
			}
			all = append(all, spans...)
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("replay: trace files hold no spans")
	}
	return all, nil
}

// PhaseQuantiles summarizes one duration population in microseconds.
type PhaseQuantiles struct {
	Count int     `json:"count"`
	P50US float64 `json:"p50_us"`
	P95US float64 `json:"p95_us"`
	P99US float64 `json:"p99_us"`
	MaxUS float64 `json:"max_us"`
}

// PhaseStats aggregates one phase across all complete traces.
type PhaseStats struct {
	Phase string `json:"phase"`
	// Traces is how many complete traces contain this phase at all.
	Traces int `json:"traces"`
	// Quantiles are over the per-trace phase totals, among traces that
	// contain the phase. Parallel fan-out legs sum, so a phase total
	// can legitimately exceed the request's wall time.
	PhaseQuantiles
	// ShareOfRequest is total phase time over total request time,
	// across every complete trace — the fleet-wide answer to "what
	// fraction of our latency is this hop".
	ShareOfRequest float64 `json:"share_of_request"`
}

// SlowTrace is one of the slowest complete traces, broken down by
// phase — the concrete trace to go read after the quantiles point at
// a hop.
type SlowTrace struct {
	TraceID       string             `json:"trace_id"`
	TotalUS       float64            `json:"total_us"`
	Spans         int                `json:"spans"`
	PhaseUS       map[string]float64 `json:"phase_us,omitempty"`
	DominantPhase string             `json:"dominant_phase,omitempty"`
}

// TraceOverhead compares p99 latency with tracing on vs off, measured
// externally (e.g. by the trace smoke harness) and embedded in the
// report so the cost of observability is itself observable.
type TraceOverhead struct {
	P99OnUS  float64 `json:"p99_tracing_on_us"`
	P99OffUS float64 `json:"p99_tracing_off_us"`
	// DeltaPct is (on-off)/off in percent; negative means tracing-on
	// happened to measure faster (noise).
	DeltaPct float64 `json:"delta_pct"`
}

// TraceReport is the tail-latency attribution written as
// BENCH_trace.json.
type TraceReport struct {
	Spans  int `json:"spans"`
	Traces int `json:"traces"`
	// CompleteTraces have a request root span (no parent, an HTTP
	// status): only those can be attributed, since the root's duration
	// is the request wall time.
	CompleteTraces int            `json:"complete_traces"`
	Services       map[string]int `json:"services,omitempty"`
	Request        PhaseQuantiles `json:"request"`
	Phases         []PhaseStats   `json:"phases"`
	Slowest        []SlowTrace    `json:"slowest,omitempty"`
	Overhead       *TraceOverhead `json:"overhead,omitempty"`
}

// phaseOf classifies one span by name; "" means the span is structural
// (a handler span) rather than a phase of its own.
func phaseOf(name string) string {
	switch name {
	case "admission":
		return "queue"
	case "kernel", "guard", "index":
		return name
	}
	if strings.HasPrefix(name, "backend ") {
		return "backend"
	}
	return ""
}

// AggregateTraces groups spans by trace ID and attributes each
// complete trace's wall time to phases. Only traces rooted at a
// request span, the one that carries http_status, are complete: an
// autoheal or build trace shares the span stream but is no request.
// Network time is derived, not
// measured: each backend-attempt span's duration minus the replica
// handler span(s) that ran inside it (children by parent ID), clamped
// at zero — what is left after the replica accounted for itself is
// the wire plus proxy overhead.
func AggregateTraces(spans []telemetry.SpanRecord) (*TraceReport, error) {
	if len(spans) == 0 {
		return nil, fmt.Errorf("replay: no spans to aggregate")
	}
	rep := &TraceReport{Spans: len(spans), Services: map[string]int{}}
	byTrace := make(map[string][]*telemetry.SpanRecord)
	for i := range spans {
		s := &spans[i]
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
		svc := s.Service
		if svc == "" {
			svc = "unknown"
		}
		rep.Services[svc]++
	}
	rep.Traces = len(byTrace)

	var totals []float64
	perPhase := map[string][]float64{}
	shareNum := map[string]float64{}
	var shareDen float64
	var slow []SlowTrace

	for id, ts := range byTrace {
		// childSum[parent span ID] = summed durations of direct children.
		childSum := make(map[string]float64, len(ts))
		var root *telemetry.SpanRecord
		for _, s := range ts {
			if s.ParentID == "" && s.HTTPStatus != 0 && (root == nil || s.DurationUS > root.DurationUS) {
				root = s
			}
			if s.ParentID != "" {
				childSum[s.ParentID] += s.DurationUS
			}
		}
		if root == nil {
			// Orphaned fragment (e.g. a replica traced a request whose
			// gateway-side root was dropped by a full queue) or no
			// request at all: not attributable against a request wall
			// time.
			continue
		}
		rep.CompleteTraces++
		totals = append(totals, root.DurationUS)
		shareDen += root.DurationUS

		phaseUS := map[string]float64{}
		for _, s := range ts {
			ph := phaseOf(s.Name)
			if ph == "" {
				continue
			}
			phaseUS[ph] += s.DurationUS
			if ph == "backend" {
				// Wire + proxy overhead: the attempt minus whatever the
				// replica handler(s) inside it accounted for. A loser leg
				// whose replica span never arrived attributes fully to
				// network, which is honest: from here it was all wire.
				net := s.DurationUS - childSum[s.SpanID]
				if net < 0 {
					net = 0
				}
				phaseUS["network"] += net
			}
		}
		dominant := ""
		for ph, us := range phaseUS {
			perPhase[ph] = append(perPhase[ph], us)
			shareNum[ph] += us
			if dominant == "" || us > phaseUS[dominant] {
				dominant = ph
			}
		}
		slow = append(slow, SlowTrace{
			TraceID: id, TotalUS: root.DurationUS, Spans: len(ts),
			PhaseUS: phaseUS, DominantPhase: dominant,
		})
	}
	if rep.CompleteTraces == 0 {
		return nil, fmt.Errorf("replay: %d traces but none has a request root span (gateway trace file missing?)", rep.Traces)
	}

	rep.Request = quantiles(totals)
	for _, ph := range phaseOrder {
		pop, ok := perPhase[ph]
		if !ok {
			continue
		}
		ps := PhaseStats{Phase: ph, Traces: len(pop), PhaseQuantiles: quantiles(pop)}
		if shareDen > 0 {
			ps.ShareOfRequest = shareNum[ph] / shareDen
		}
		rep.Phases = append(rep.Phases, ps)
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].TotalUS > slow[j].TotalUS })
	if len(slow) > 5 {
		slow = slow[:5]
	}
	rep.Slowest = slow
	return rep, nil
}

// SetOverhead attaches an externally measured tracing-on vs -off p99
// comparison (microseconds) to the report.
func (r *TraceReport) SetOverhead(onUS, offUS float64) {
	o := &TraceOverhead{P99OnUS: onUS, P99OffUS: offUS}
	if offUS > 0 {
		o.DeltaPct = (onUS - offUS) / offUS * 100
	}
	r.Overhead = o
}

// WriteHuman prints the attribution the way an on-call would read it.
func (r *TraceReport) WriteHuman(w io.Writer) {
	fmt.Fprintf(w, "traces: %d (%d complete) from %d spans\n",
		r.Traces, r.CompleteTraces, r.Spans)
	fmt.Fprintf(w, "request  p50 %8.0fµs  p95 %8.0fµs  p99 %8.0fµs  max %8.0fµs\n",
		r.Request.P50US, r.Request.P95US, r.Request.P99US, r.Request.MaxUS)
	for _, ps := range r.Phases {
		fmt.Fprintf(w, "%-8s p50 %8.0fµs  p95 %8.0fµs  p99 %8.0fµs  share %5.1f%%  (%d traces)\n",
			ps.Phase, ps.P50US, ps.P95US, ps.P99US, ps.ShareOfRequest*100, ps.Traces)
	}
	for i, st := range r.Slowest {
		if i == 0 {
			fmt.Fprintln(w, "slowest traces:")
		}
		fmt.Fprintf(w, "  %s  %8.0fµs  dominant=%s\n", st.TraceID, st.TotalUS, st.DominantPhase)
	}
	if r.Overhead != nil {
		fmt.Fprintf(w, "tracing overhead: p99 on %.0fµs vs off %.0fµs (%+.1f%%)\n",
			r.Overhead.P99OnUS, r.Overhead.P99OffUS, r.Overhead.DeltaPct)
	}
}

// quantiles computes exact order statistics over one population.
func quantiles(pop []float64) PhaseQuantiles {
	if len(pop) == 0 {
		return PhaseQuantiles{}
	}
	s := append([]float64(nil), pop...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return PhaseQuantiles{
		Count: len(s),
		P50US: at(0.50), P95US: at(0.95), P99US: at(0.99),
		MaxUS: s[len(s)-1],
	}
}
