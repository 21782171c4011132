// Command perfbench is the repository's end-to-end benchmark. One run
// builds a workload's serving stack through the public constructors
// (train → publish → load → replica → gateway), drives it with closed-
// loop clients over loopback, checks every answer, and prints one JSON
// result line.
//
//	perfbench --workload point|matrix|knn --seed N --seconds S --trace 0|1
//	perfbench compare OLD NEW
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays the same
// seeded stream with spans at each layer boundary and reports the
// per-layer metrics. compare reads the standard output of any number of
// runs, concatenated into one file per side. See NOTES.md for the metric
// and workload choices.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/telemetry"
)

// Run shape.
const (
	// setupRepeats builds the stack this many times per run; setup_s is
	// the median.
	setupRepeats = 3
	// warmup is the discarded closed-loop window after set-up, the
	// accuracy pass and a forced GC.
	warmup = 2 * time.Second
	// windowLen is the length of one measurement window. Each window is
	// scaled to the reference speed by the calibration passes on either
	// side of it (calib.go); latency and CPU metrics are means over the
	// scaled windows.
	windowLen = 500 * time.Millisecond
	// buildDir holds everything a run writes, inside the checkout.
	buildDir = ".bench_build"
)

type metricSpec struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_us_per_req", "us"},
	{"mean_rel_err", "ratio"},
	{"recall_at_k", "ratio"},
}

// perLayer lists the metrics a --trace 1 run reports, on every
// workload; a layer the workload's route does not cross reports 0.
var perLayer = []metricSpec{
	{"core.build_s", "s"},
	{"core.build.setup_s", "s"},
	{"core.build.hier_s", "s"},
	{"core.build.vertex_s", "s"},
	{"core.build.finetune_s", "s"},
	{"alt.build_s", "s"},
	{"index.build_s", "s"},
	{"shard.cut_s", "s"},
	{"registry.publish_s", "s"},
	{"registry.load_s", "s"},
	{"server.new_s", "s"},
	{"gateway.ready_s", "s"},
	{"core.estimate_ns", "ns"},
	{"hybrid.guard_ns", "ns"},
	{"hybrid.clamp_ratio", "ratio"},
	{"shard.estimate_ns", "ns"},
	{"shard.cross_ratio", "ratio"},
	{"index.knn_us", "us"},
	{"index.visited_per_query", "count"},
	{"index.pruned_ratio", "ratio"},
	{"server.handler_us", "us"},
	{"server.allocs_per_req", "count"},
	{"server.bytes_per_req", "B"},
	{"server.self_us", "us"},
	{"server.span_us", "us"},
	{"http.transport_us", "us"},
	{"gateway.hop_us", "us"},
	{"gateway.legs_per_batch", "count"},
	{"gateway.retries", "count"},
	{"gateway.stale_routes", "count"},
	{"gateway.partial_batches", "count"},
	{"resilience.shed", "count"},
	{"runtime.gc_per_kreq", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.p50_ms", "ms"},
	{"trace.untraced_p50_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.rung_sum_ms", "ms"},
	{"trace.unexplained_us", "us"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full result, printed on the line before the contract
// line: environment, sample counts and diagnostics that are not
// metrics. compare reads these lines.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       int                `json:"trace"`
	Seconds     int                `json:"seconds"`
	Env         environment        `json:"env"`
	Samples     map[string]int     `json:"samples"`
	Diagnostics map[string]float64 `json:"diagnostics"`
	// Windows holds the untraced windows' figures as measured, the
	// spread behind each mean.
	Windows []windowSummary `json:"windows"`
	// SetupCalibMS holds the calibration passes before the first set-up
	// and after each one.
	SetupCalibMS []float64 `json:"setup_calib_ms"`
	FirstError   string    `json:"first_error,omitempty"`
	Result       result    `json:"result"`
}

type windowSummary struct {
	P50ms       float64 `json:"p50_ms"`
	P90ms       float64 `json:"p90_ms"`
	CPUusPerReq float64 `json:"cpu_us_per_req"`
	RPS         float64 `json:"rps"`
	CPUCores    float64 `json:"cpu_cores"`
	// CalibMS is the mean of the calibration passes before and after
	// the window.
	CalibMS float64 `json:"calib_ms"`
}

type recordLine struct {
	Record *record `json:"perfbench_record"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "request-stream seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	rec, err := runBench(runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(recordLine{Record: rec})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", line, res)
	if !rec.Result.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d answers failed; first: %s\n",
			rec.Result.Failed, rec.Result.Attempted, rec.FirstError)
		return 1
	}
	return 0
}

// runBench performs one run and returns its record.
func runBench(cfg runConfig) (*record, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	preset, err := gen.PresetByName(presetName)
	if err != nil {
		return nil, err
	}
	g, err := preset.Build()
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	s, err := genStream(cfg.workload, n, cfg.seed)
	if err != nil {
		return nil, err
	}
	sample, err := genAccuracySample(cfg.workload, n, cfg.seed)
	if err != nil {
		return nil, err
	}
	var targets []int32
	if cfg.workload == wlKNN {
		targets = knnTargets(n)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(buildDir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// The first calibration pass, before the first set-up, also makes
	// the pass's own table. That table and the inputs stay live through
	// the run; heap_mb counts only what set-up adds on top of them.
	setupCalib := []time.Duration{calibrate()}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	inputHeap := ms.HeapAlloc

	var spans *spanRecorder
	if cfg.trace {
		spans = &spanRecorder{}
	}

	// Set-up, several times; the last stack is measured.
	var st *stack
	var setups []setupTimes
	first := firstAnswer(s)
	defer first.close()
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		if st, err = setupStack(cfg.workload, g, root, targets, spans, first.check); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, st.times)
		setupCalib = append(setupCalib, calibrate())
	}
	defer st.close()

	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapMB := float64(int64(ms.HeapAlloc)-int64(inputHeap)) / (1 << 20)

	chk := newChecker(st)
	exp := chk.expect(s)

	// Accuracy pass: the sample's served answers against exact Dijkstra.
	answers, err := serveSample(st.url, chk, sample)
	if err != nil {
		return nil, err
	}
	meanRelErr, recall := accuracy(g, sample, answers, targets)

	lp := &loop{s: s, exp: exp, chk: chk}
	for i := 0; i < clients; i++ {
		c, err := newClient(st.url)
		if err != nil {
			return nil, err
		}
		defer c.close()
		lp.clients = append(lp.clients, c)
	}
	runtime.GC()
	lp.run(warmup)

	// A traced run alternates untraced and traced windows, so both see
	// the same conditions and their p50s give the tracing overhead.
	before := countersOf(st)
	nWin := max(2, int(time.Duration(cfg.seconds)*time.Second/windowLen))
	var plain, traced []window
	calib := calibrate()
	for i := 0; i < nWin; i++ {
		if !cfg.trace || i%2 == 0 {
			w := lp.run(windowLen)
			next := calibrate()
			w.calib = (calib + next) / 2
			calib = next
			plain = append(plain, w)
			continue
		}
		setTracing(st, lp, spans)
		traced = append(traced, lp.run(windowLen))
		setTracing(st, lp, nil)
	}
	var lad ladder
	var traces []rungs
	if cfg.trace {
		traces = analyzeSpans(spans.take())
		lad = runLadder(st, chk, s, exp)
	}
	after := countersOf(st)

	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Env:         newEnvironment(g, cfg.seed, s, nWin),
		Samples:     map[string]int{},
		Diagnostics: map[string]float64{},
	}
	if cfg.trace {
		rec.Trace = 1
	}
	for _, w := range plain {
		rec.Windows = append(rec.Windows, windowSummary{
			P50ms: w.p(50), P90ms: w.p(90), CPUusPerReq: w.cpuUSPerReq(),
			RPS: float64(w.done) / w.wall.Seconds(), CPUCores: w.cpu.Seconds() / w.wall.Seconds(),
			CalibMS: float64(w.calib.Nanoseconds()) / 1e6,
		})
	}
	for _, c := range setupCalib {
		rec.SetupCalibMS = append(rec.SetupCalibMS, float64(c.Nanoseconds())/1e6)
	}
	all := mergeWindows(plain)
	rec.Samples["latency"] = len(all.lat)
	rec.Samples["windows"] = len(plain)
	rec.Samples["accuracy_requests"] = sample.len()
	rec.Diagnostics["p99_ms"] = all.p(99)
	rec.Diagnostics["p999_ms"] = all.p(99.9)
	rec.Diagnostics["max_ms"] = all.p(100)
	rec.Diagnostics["achieved_rps"] = float64(all.done) / all.wall.Seconds()
	rec.Diagnostics["recall_at_k"] = recall
	rec.Diagnostics["mean_rel_err"] = meanRelErr
	rec.Diagnostics["heap_mb"] = heapMB
	rec.Diagnostics["input_heap_mb"] = float64(inputHeap) / (1 << 20)
	rec.Diagnostics["setup_s"] = median(durations(setups, func(t setupTimes) time.Duration { return t.total }))
	rec.Diagnostics["p50_ms"] = mean(perWindow(plain, func(w window) float64 { return w.p(50) }))
	rec.Diagnostics["p90_ms"] = mean(perWindow(plain, func(w window) float64 { return w.p(90) }))
	rec.Diagnostics["cpu_us_per_req"] = mean(perWindow(plain, window.cpuUSPerReq))

	metrics := map[string]metricValue{}
	set := func(specs []metricSpec, name string, v float64) {
		for _, sp := range specs {
			if sp.name == name {
				metrics[name] = metricValue{Value: v, Unit: sp.unit}
				return
			}
		}
		panic("perfbench: undeclared metric " + name)
	}
	if !cfg.trace {
		e := func(name string, v float64) { set(endToEnd, name, v) }
		// Time metrics at the reference speed; diagnostics hold them as
		// measured.
		scaledSetups := make([]float64, len(setups))
		for i, t := range setups {
			scaledSetups[i] = atRef(t.total.Seconds(), (setupCalib[i]+setupCalib[i+1])/2)
		}
		scaled := func(f func(window) float64) float64 {
			return mean(perWindow(plain, func(w window) float64 { return atRef(f(w), w.calib) }))
		}
		e("setup_s", median(scaledSetups))
		e("heap_mb", heapMB)
		e("p50_ms", scaled(func(w window) float64 { return w.p(50) }))
		e("p90_ms", scaled(func(w window) float64 { return w.p(90) }))
		e("cpu_us_per_req", scaled(window.cpuUSPerReq))
		e("mean_rel_err", meanRelErr)
		e("recall_at_k", recall)
	} else {
		l := func(name string, v float64) { set(perLayer, name, v) }
		setupMedian := func(f func(setupTimes) time.Duration) float64 { return median(durations(setups, f)) }
		l("core.build_s", setupMedian(func(t setupTimes) time.Duration { return t.coreBuild }))
		l("core.build.setup_s", setupMedian(func(t setupTimes) time.Duration { return t.build.Setup }))
		l("core.build.hier_s", setupMedian(func(t setupTimes) time.Duration { return t.build.HierPhase }))
		l("core.build.vertex_s", setupMedian(func(t setupTimes) time.Duration { return t.build.VertexPhase }))
		l("core.build.finetune_s", setupMedian(func(t setupTimes) time.Duration { return t.build.FineTune }))
		l("alt.build_s", setupMedian(func(t setupTimes) time.Duration { return t.alt }))
		l("index.build_s", setupMedian(func(t setupTimes) time.Duration { return t.index }))
		l("shard.cut_s", setupMedian(func(t setupTimes) time.Duration { return t.cut }))
		l("registry.publish_s", setupMedian(func(t setupTimes) time.Duration { return t.publish }))
		l("registry.load_s", setupMedian(func(t setupTimes) time.Duration { return t.load }))
		l("server.new_s", setupMedian(func(t setupTimes) time.Duration { return t.serverNew }))
		l("gateway.ready_s", setupMedian(func(t setupTimes) time.Duration { return t.gatewayReady }))

		l("core.estimate_ns", lad.coreNS)
		l("hybrid.guard_ns", lad.guardNS)
		l("hybrid.clamp_ratio", lad.clampRatio)
		l("shard.estimate_ns", lad.shardNS)
		l("shard.cross_ratio", lad.crossRatio)
		l("index.knn_us", lad.knnUS)
		l("index.visited_per_query", lad.visited)
		l("index.pruned_ratio", lad.prunedRatio)
		l("server.handler_us", lad.handlerUS)
		l("server.allocs_per_req", lad.allocs)
		l("server.bytes_per_req", lad.bytes)
		l("server.self_us", lad.selfUS)

		band := medianBand(traces)
		l("server.span_us", band.replica)
		l("http.transport_us", band.transport)
		l("gateway.hop_us", band.gateway)
		l("gateway.legs_per_batch", band.legs)
		l("gateway.retries", after.retries-before.retries)
		l("gateway.stale_routes", after.staleRoutes-before.staleRoutes)
		l("gateway.partial_batches", after.partial-before.partial)
		l("resilience.shed", after.shed-before.shed)

		gcCycles, gcPause, done := 0, time.Duration(0), 0
		for _, w := range plain {
			gcCycles += int(w.gcCycles)
			gcPause += w.gcPause
			done += w.done
		}
		l("runtime.gc_per_kreq", float64(gcCycles)/(float64(done)/1000))
		pause := 0.0
		if gcCycles > 0 {
			pause = float64(gcPause.Nanoseconds()) / 1e6 / float64(gcCycles)
		}
		l("runtime.gc_pause_ms", pause)

		untracedP50 := mean(perWindow(plain, func(w window) float64 { return w.p(50) }))
		tracedP50 := mean(perWindow(traced, func(w window) float64 { return w.p(50) }))
		l("trace.p50_ms", tracedP50)
		l("trace.untraced_p50_ms", untracedP50)
		l("trace.overhead_ms", tracedP50-untracedP50)
		l("trace.rung_sum_ms", (band.transport+band.gateway+band.replica)/1e3)
		l("trace.unexplained_us", band.legSum-lad.handlerUS)
		rec.Samples["traced_requests"] = len(traces)
		rec.Samples["traced_latency"] = len(mergeWindows(traced).lat)
	}

	rec.Diagnostics["fail_ratio"] = 0
	if a := chk.attempted.Load(); a > 0 {
		rec.Diagnostics["fail_ratio"] = float64(chk.failed.Load()) / float64(a)
	}
	if chk.firstErr != nil {
		rec.FirstError = chk.firstErr.Error()
	}
	rec.Result = result{
		Correct:   chk.failed.Load() == 0,
		Attempted: chk.attempted.Load(),
		Failed:    chk.failed.Load(),
		Metrics:   metrics,
	}
	return rec, nil
}

// setTracing switches span recording on every listener of the stack and
// in the client loop on (rec non-nil) or off.
func setTracing(st *stack, lp *loop, rec *spanRecorder) {
	lp.rec = rec
	for _, ep := range st.endpoints() {
		ep.spans.on.Store(rec != nil)
	}
}

// firstCheck answers request 0 of the stream on a stack's route and
// checks it: the end of set-up.
type firstCheck struct {
	s   *stream
	c   *client
	url string // the stack c is connected to
}

func firstAnswer(s *stream) *firstCheck {
	first := &stream{workload: s.workload}
	switch s.workload {
	case wlPoint:
		first.pairs, first.queries = s.pairs[:1], s.queries[:1]
	case wlMatrix:
		first.batches, first.bodies = s.batches[:1], s.bodies[:1]
	case wlKNN:
		first.sources, first.queries = s.sources[:1], s.queries[:1]
	}
	return &firstCheck{s: first}
}

func (f *firstCheck) check(st *stack) error {
	if f.c == nil || f.url != st.url {
		f.close()
		c, err := newClient(st.url)
		if err != nil {
			return err
		}
		f.c, f.url = c, st.url
	}
	chk := newChecker(st)
	a, err := f.c.send(f.s, 0, "")
	if err != nil {
		return err
	}
	return chk.verify(chk.expect(f.s), 0, a)
}

func (f *firstCheck) close() {
	if f.c != nil {
		f.c.close()
	}
}

// serveSample sends the accuracy sample through the route on the
// benchmark's client connections, checking each answer.
func serveSample(url string, chk *checker, sample *stream) ([]answer, error) {
	exp := chk.expect(sample)
	answers := make([]answer, sample.len())
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for ci := range errs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := newClient(url)
			if err != nil {
				errs[ci] = err
				return
			}
			defer c.close()
			for i := ci; i < len(answers); i += clients {
				a, err := c.send(sample, i, "")
				if err == nil {
					err = chk.verify(exp, i, a)
				}
				chk.record(err)
				if err != nil {
					errs[ci] = fmt.Errorf("accuracy sample request %d: %w", i, err)
					return
				}
				answers[i] = a
			}
		}(ci)
	}
	wg.Wait()
	return answers, errors.Join(errs...)
}

// counters are the cumulative failure counters the stack exports.
type counters struct {
	shed, retries, staleRoutes, partial float64
}

func countersOf(st *stack) counters {
	var c counters
	for _, rp := range st.replicas {
		c.shed += float64(rp.srv.Stats().Snapshot().Shed)
	}
	if st.gw == nil {
		return c
	}
	c.shed += float64(st.gw.Stats().Snapshot().Shed)
	rr := httptest.NewRecorder()
	st.gw.Stats().Registry().Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	samples, err := telemetry.ParseExposition(rr.Body)
	if err != nil {
		return c
	}
	c.retries = samples["rne_gateway_retries_total"]
	c.staleRoutes = samples["rne_gateway_stale_routes_total"]
	c.partial = samples["rne_batch_partial_total"]
	return c
}

func mergeWindows(ws []window) window {
	var all window
	for _, w := range ws {
		all.lat = append(all.lat, w.lat...)
		all.done += w.done
		all.wall += w.wall
	}
	sort.Float64s(all.lat)
	return all
}

func perWindow(ws []window, f func(window) float64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = f(w)
	}
	return out
}

func durations(ts []setupTimes, f func(setupTimes) time.Duration) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = f(t).Seconds()
	}
	return out
}
