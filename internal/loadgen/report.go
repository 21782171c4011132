package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/fsx"
)

// ReportSchema versions the BENCH_load.json layout; bump on
// incompatible changes so downstream tooling can refuse gracefully.
const ReportSchema = 1

// RouteStats is the client-observed latency of one (route, status
// class) series over a step's measured window. Quantiles come from
// the merged per-client log-bucketed histograms (interpolated, the
// same estimator the serving tier's /metrics uses); Max is exact.
type RouteStats struct {
	Route  string  `json:"route"`
	Class  string  `json:"class"`
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// LagStats reports open-loop send lag: how far behind the intended
// arrival schedule the clients fell. Latency quantiles already charge
// this lag to the target (coordinated-omission accounting); the lag
// series shows how much of the tail was queue-wait before send.
type LagStats struct {
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// HistJoin is a server-side histogram's windowed view over one step:
// observations during the step and their interpolated quantiles.
type HistJoin struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

// TimelineSample is one scrape of a target during a step, projected
// onto the gauges that explain latency knees: runtime (goroutines,
// heap, GC cycles) and admission (in-flight, cumulative sheds).
type TimelineSample struct {
	OffsetSeconds float64 `json:"offset_s"`
	Goroutines    float64 `json:"goroutines"`
	HeapBytes     float64 `json:"heap_bytes"`
	GCCycles      float64 `json:"gc_cycles"`
	InFlight      float64 `json:"in_flight"`
	Sheds         float64 `json:"sheds"`
}

// ServerJoin is the join of one scrape target with one step: counter
// deltas across the step window, closing gauge values, windowed
// server-side latency and GC-pause quantiles, and the gauge timeline.
type ServerJoin struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// ScrapeError, when set, explains an empty join (target without
	// /metrics, or unreachable). The step's client stats still stand.
	ScrapeError   string             `json:"scrape_error,omitempty"`
	CountersDelta map[string]float64 `json:"counters_delta,omitempty"`
	Gauges        map[string]float64 `json:"gauges,omitempty"`
	HTTPLatency   *HistJoin          `json:"http_latency,omitempty"`
	GCPause       *HistJoin          `json:"gc_pause,omitempty"`
	Timeline      []TimelineSample   `json:"timeline,omitempty"`
}

// ProfileCapture records one pprof capture attempted during a step.
type ProfileCapture struct {
	Kind  string `json:"kind"` // "cpu" or "heap"
	Path  string `json:"path"`
	Bytes int64  `json:"bytes,omitempty"`
	Error string `json:"error,omitempty"`
}

// StepResult is one load step: offered vs achieved rate, per-route
// client latency, open-loop honesty accounting, and the server join.
type StepResult struct {
	Label           string  `json:"label"`
	Mode            string  `json:"mode"` // "closed" or "open"
	Clients         int     `json:"clients"`
	OfferedQPS      float64 `json:"offered_qps,omitempty"`
	AchievedQPS     float64 `json:"achieved_qps"`
	DurationSeconds float64 `json:"duration_s"`
	WarmupSeconds   float64 `json:"warmup_s"`
	Sent            int64   `json:"sent"`
	Measured        int64   `json:"measured"`
	// UnsentArrivals counts open-loop arrivals whose intended time fell
	// inside the step but which no client got to send before the step
	// ended — offered load the target never saw, reported instead of
	// silently folded into a rosier achieved rate.
	UnsentArrivals int64            `json:"unsent_arrivals,omitempty"`
	Routes         []RouteStats     `json:"routes"`
	SendLag        *LagStats        `json:"send_lag,omitempty"`
	Servers        []ServerJoin     `json:"servers,omitempty"`
	Profiles       []ProfileCapture `json:"profiles,omitempty"`
}

// Run is one invocation of the harness against one target: the
// workload shape plus every step's result.
type Run struct {
	Name      string            `json:"name,omitempty"`
	Target    string            `json:"target"`
	Tags      map[string]string `json:"tags,omitempty"`
	Mix       map[string]int    `json:"mix"`
	BatchSize int               `json:"batch_size"`
	KNNK      int               `json:"knn_k"`
	Vertices  int               `json:"vertices"`
	Seed      int64             `json:"seed"`
	StartUnix int64             `json:"start_unix,omitempty"`
	Steps     []StepResult      `json:"steps"`
}

// Report is the BENCH_load.json root: an append-friendly collection
// of runs so one file can hold a whole sweep (single replica vs
// gateway, guard on vs off) for side-by-side comparison.
type Report struct {
	Experiment string `json:"experiment"` // always "load"
	Schema     int    `json:"schema"`
	Runs       []Run  `json:"runs"`
}

// NewReport returns an empty load report.
func NewReport() *Report { return &Report{Experiment: "load", Schema: ReportSchema} }

// LoadReport reads an existing report for appending; a missing file
// yields a fresh empty report (first run of a sweep).
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewReport(), nil
	}
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("loadgen: parsing %s: %w", path, err)
	}
	if r.Experiment != "load" {
		return nil, fmt.Errorf("loadgen: %s is a %q report, not a load report", path, r.Experiment)
	}
	if r.Schema > ReportSchema {
		return nil, fmt.Errorf("loadgen: %s has schema %d, newer than this binary's %d", path, r.Schema, ReportSchema)
	}
	return &r, nil
}

// AppendRun stamps and appends one run.
func (r *Report) AppendRun(run Run) {
	if run.StartUnix == 0 {
		run.StartUnix = time.Now().Unix()
	}
	r.Runs = append(r.Runs, run)
}

// Write atomically persists the report as indented JSON.
func (r *Report) Write(path string) error {
	return fsx.WriteAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	})
}
