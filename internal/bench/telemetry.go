package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// telemetryReport is the machine-readable output of TelemetrySmoke,
// written to BENCH_telemetry.json next to the working directory.
type telemetryReport struct {
	Graph     string  `json:"graph"`
	Vertices  int     `json:"vertices"`
	Queries   int     `json:"queries"`
	BuildSecs float64 `json:"build_seconds"`

	LatencyP50US float64 `json:"latency_p50_us"`
	LatencyP95US float64 `json:"latency_p95_us"`
	LatencyP99US float64 `json:"latency_p99_us"`

	RelErrP50 float64 `json:"rel_err_p50"`
	RelErrP95 float64 `json:"rel_err_p95"`
	RelErrP99 float64 `json:"rel_err_p99"`
}

// TelemetrySmoke exercises the telemetry pipeline end to end: a quick
// build on the BJ stand-in, then cfg.Queries point queries timed and
// scored through telemetry histograms. Percentiles come from the
// same fixed-bucket quantile estimator the live /metrics endpoint
// exports, so this doubles as a sanity check of those buckets. Results
// land in BENCH_telemetry.json.
func TelemetrySmoke(w io.Writer, cfg Config) error {
	g, err := ablationGraph(cfg)
	if err != nil {
		return err
	}
	buildStart := time.Now()
	m, _, err := core.Build(g, ablationOptions(cfg))
	if err != nil {
		return err
	}
	buildSecs := time.Since(buildStart).Seconds()

	pairs := randomPairs(g, cfg.Queries, cfg.Seed+1)
	reg := telemetry.NewRegistry()
	lat := reg.Histogram("rne_bench_query_duration_seconds",
		"Per-query estimate latency.", telemetry.LatencyBuckets)
	relErr := reg.Histogram("rne_bench_rel_error",
		"Per-query relative error against Dijkstra truth.", telemetry.RelErrorBuckets)
	for _, p := range pairs {
		t0 := time.Now()
		est := m.Estimate(p.S, p.T)
		lat.ObserveDuration(time.Since(t0))
		if p.Dist > 0 {
			relErr.Observe(math.Abs(est-p.Dist) / p.Dist)
		}
	}

	rep := telemetryReport{
		Graph:        "bj-mini",
		Vertices:     g.NumVertices(),
		Queries:      len(pairs),
		BuildSecs:    buildSecs,
		LatencyP50US: lat.Quantile(0.50) * 1e6,
		LatencyP95US: lat.Quantile(0.95) * 1e6,
		LatencyP99US: lat.Quantile(0.99) * 1e6,
		RelErrP50:    relErr.Quantile(0.50),
		RelErrP95:    relErr.Quantile(0.95),
		RelErrP99:    relErr.Quantile(0.99),
	}

	fmt.Fprintf(w, "telemetry smoke: %s n=%d, build %.1fs, %d queries\n",
		rep.Graph, rep.Vertices, rep.BuildSecs, rep.Queries)
	fmt.Fprintf(w, "  latency  p50 %.1fus  p95 %.1fus  p99 %.1fus\n",
		rep.LatencyP50US, rep.LatencyP95US, rep.LatencyP99US)
	fmt.Fprintf(w, "  rel err  p50 %.2f%%  p95 %.2f%%  p99 %.2f%%\n",
		rep.RelErrP50*100, rep.RelErrP95*100, rep.RelErrP99*100)

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_telemetry.json", append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(w, "  wrote BENCH_telemetry.json")
	return nil
}
