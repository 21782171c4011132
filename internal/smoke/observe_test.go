//go:build smoke

package smoke

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/replay"
)

// TestTrace runs hedged /distance and sharded /batch traffic through a
// traced rnegate over two traced replicas and asserts the span files
// stitch into whole traces: one gateway /batch trace holds every
// backend-attempt span, and each attempt a replica handler span with
// the same trace ID (traceparent propagation across the wire). The
// same traffic then runs through an untraced fleet, which must write
// no spans, and rnereplay -traces turns the traced spans and the on/off
// p99 into the tail-latency attribution, BENCH_trace.json.
func TestTrace(t *testing.T) {
	f := newFleet(t)
	f.grid()
	// serve starts two replicas and a hedging gateway, tracing into
	// <prefix>{gw,sa,sb}.spans.jsonl when traced, drives the traffic,
	// stops the fleet with SIGTERM so every span file is flushed, and
	// returns the exact p99 of the /distance calls in microseconds.
	serve := func(prefix string, traced bool) float64 {
		var srvFlags, gwFlags []string
		if traced {
			srvFlags = []string{"-trace"}
			gwFlags = []string{"-trace", "-trace-out", prefix + "gw.spans.jsonl"}
		}
		a := f.start(prefix+"a", "rneserver", append(srvFlags, "-registry", "reg", "-name", "demo", "-trace-out", prefix+"sa.spans.jsonl")...)
		b := f.start(prefix+"b", "rneserver", append(srvFlags, "-registry", "reg", "-name", "demo", "-trace-out", prefix+"sb.spans.jsonl")...)
		gate := f.start(prefix+"gate", "rnegate", append(gwFlags, "-backends", a.url+","+b.url,
			"-health-interval", "100ms", "-retry-budget", "1",
			"-hedge", "-hedge-min-delay", "1us", "-hedge-max-delay", "20us")...)
		body := []byte(`{"pairs":[[0,99],[17,42],[3,61],[88,5],[25,60],[7,70]]}`)
		for i := 0; i < 10; i++ {
			if code, out := fetch(gate.url+"/batch", body); code == 0 || code >= 400 {
				t.Fatalf("/batch = %d %s", code, out)
			}
		}
		var took []float64
		for i := 0; i < 60; i++ {
			start := time.Now()
			if code, out := fetch(fmt.Sprintf("%s/distance?s=%d&t=%d", gate.url, i%97, (i*7+3)%97), nil); code == 0 || code >= 400 {
				t.Fatalf("/distance = %d %s", code, out)
			}
			took = append(took, time.Since(start).Seconds())
		}
		for _, p := range []*proc{a, b, gate} {
			f.stop(p)
		}
		sort.Float64s(took)
		return math.Round(took[max(int(math.Ceil(float64(len(took))*0.99)), 1)-1] * 1e6)
	}

	p99On := serve("on-", true)
	// Count the traced spans per side (gateway or replica), per name
	// and per trace ID plus name; ReadSpanFiles fails on an empty file.
	n, batchTrace := map[string]int{}, ""
	for _, file := range []string{"gw", "sa", "sb"} {
		recs, err := replay.ReadSpanFiles([]string{filepath.Join(f.dir, "on-"+file+".spans.jsonl")})
		if err != nil {
			t.Fatal(err)
		}
		side := "replica"
		if file == "gw" {
			side = "gateway"
		}
		for _, s := range recs {
			if side == "gateway" && s.Name == "POST /batch" && batchTrace == "" {
				batchTrace = s.TraceID
			}
			n[side+" "+s.Name]++
			n[side+" "+s.TraceID+" "+s.Name]++
			n[side+" kind="+s.Attrs["kind"]]++
		}
	}
	attempts := n["gateway "+batchTrace+" backend /batch"]
	switch {
	case batchTrace == "":
		t.Fatal("no gateway /batch root span")
	case attempts < 1:
		t.Fatalf("/batch trace %s has no attempt spans", batchTrace)
	case n["replica "+batchTrace+" POST /batch"] != attempts:
		t.Fatalf("trace %s has %d gateway attempts but %d replica handler spans",
			batchTrace, attempts, n["replica "+batchTrace+" POST /batch"])
	case n["gateway kind=hedge"] == 0:
		t.Fatal("no hedge attempt span recorded")
	case n["replica kernel"] == 0:
		t.Fatal("no kernel spans on the replicas")
	}

	p99Off := serve("off-", false)
	for _, file := range []string{"gw", "sa", "sb"} {
		if st, err := os.Stat(filepath.Join(f.dir, "off-"+file+".spans.jsonl")); err == nil && st.Size() > 0 {
			t.Fatalf("untraced fleet wrote %s spans", file)
		}
	}

	f.run("rnereplay", "-traces", "on-gw.spans.jsonl,on-sa.spans.jsonl,on-sb.spans.jsonl",
		"-p99-on", fmt.Sprint(p99On), "-p99-off", fmt.Sprint(p99Off), "-out", "BENCH_trace.json")
	out := f.readFile("BENCH_trace.json")
	var rep replay.TraceReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) == 0 || rep.Overhead == nil {
		t.Fatalf("BENCH_trace.json lacks the phase breakdown or the overhead delta:\n%s", out)
	}
	t.Logf("one /batch trace carried %d attempt spans; p99 on %.0fus vs off %.0fus", attempts, p99On, p99Off)
	writeBench(t, "trace", out)
}

// checkLoadReport decodes the rneload report at path and asserts it
// holds exactly the named runs, each with 2xx answers on every route
// its -mix weighs in and no failed /metrics scrape. It returns the report's bytes and the name
// of every series the runs joined, one per line, with counter deltas
// prefixed "delta ".
func (f *fleet) checkLoadReport(path string, runs ...string) (data []byte, joined string) {
	f.t.Helper()
	rep, err := loadgen.LoadReport(filepath.Join(f.dir, path))
	if err != nil {
		f.t.Fatal(err)
	}
	if len(rep.Runs) != len(runs) {
		f.t.Fatalf("%s has %d runs, want %v", path, len(rep.Runs), runs)
	}
	var names strings.Builder
	for i, run := range rep.Runs {
		if run.Name != runs[i] {
			f.t.Fatalf("run %d is %q, want %q", i, run.Name, runs[i])
		}
		good := map[string]bool{} // routes with 2xx answers
		for _, st := range run.Steps {
			for _, r := range st.Routes {
				good[r.Route] = good[r.Route] || r.Class == "2xx" && r.Count > 0
			}
			for _, s := range st.Servers {
				if s.ScrapeError != "" {
					f.t.Fatalf("run %s: scrape of %s failed, the join is incomplete: %s", run.Name, s.Name, s.ScrapeError)
				}
				for k := range s.CountersDelta {
					names.WriteString("\ndelta " + k)
				}
				for k := range s.Gauges {
					names.WriteString("\n" + k)
				}
			}
		}
		for route, weight := range run.Mix {
			if weight > 0 && !good[route] {
				f.t.Fatalf("run %s mixes in %s but got no 2xx answer on it", run.Name, route)
			}
		}
	}
	return f.readFile(path), names.String()
}

// TestLoad drives rneload's short ramp (closed loop, then a paced
// open loop) against one replica, with a heap profile captured from
// its -debug-addr, then against rnegate over two replicas, appending
// both runs to one BENCH_load.json. The client/server join must carry
// /metrics counter deltas and the Go runtime gauges.
func TestLoad(t *testing.T) {
	f := newFleet(t)
	// 10 indexed targets, enough for rneload's default -knn-k of 8.
	f.grid("-target-frac", "0.1")
	debug := freeAddr(t)
	a := f.start("a", "rneserver", "-registry", "reg", "-name", "demo", "-debug-addr", debug, "-request-timeout", "5s")
	b := f.start("b", "rneserver", "-registry", "reg", "-name", "demo", "-request-timeout", "5s")
	steps := "c=2,qps=0,d=1s,w=300ms;c=2,qps=100,d=1s,w=300ms"
	f.run("rneload", "-target", a.url, "-steps", steps,
		"-mix", "distance=8,batch=1,knn=1", "-batch-size", "8",
		"-debug-url", "http://"+debug, "-profile-heap", "-profile-dir", "profiles",
		"-name", "replica", "-tags", "replicas=1", "-out", "BENCH_load.json")

	// The gateway serves no /knn; its run is joined against the gateway
	// and both backends.
	gate := f.start("gate", "rnegate", "-backends", a.url+","+b.url,
		"-health-interval", "100ms", "-request-timeout", "5s")
	f.run("rneload", "-target", gate.url, "-vertices", "100", "-steps", steps,
		"-mix", "distance=8,batch=1", "-batch-size", "8",
		"-scrape", "gate="+gate.url+",r1="+a.url+",r2="+b.url,
		"-name", "gateway", "-tags", "replicas=2", "-append", "-out", "BENCH_load.json")

	out, joined := f.checkLoadReport("BENCH_load.json", "replica", "gateway")
	for _, want := range []string{"delta rne_http_requests_total{class", "rne_go_goroutines", "rne_go_heap_bytes"} {
		if !strings.Contains(joined, "\n"+want) {
			t.Errorf("BENCH_load.json joins no %s", want)
		}
	}
	heaps, _ := filepath.Glob(filepath.Join(f.dir, "profiles", "*-heap.pprof"))
	captured := 0
	for _, p := range heaps {
		if st, err := os.Stat(p); err == nil && st.Size() > 0 {
			captured++
		}
	}
	if captured < 1 {
		t.Fatal("no non-empty heap profile captured from -debug-addr")
	}
	writeBench(t, "load", out)
}

// TestReplay is record → replay → diff: score a generated workload on
// a 12×12 grid against the exact oracle while recording it as a query
// log, then replay the log with the same deterministic training
// against that baseline; rnereplay exits 3 on a regression verdict.
func TestReplay(t *testing.T) {
	f := newFleet(t)
	f.run("genroad", "-rows", "12", "-cols", "12", "-seed", "7", "-o", "g.txt")
	f.run("rnereplay", "-graph", "g.txt", "-gen", "300", "-quick", "-landmarks", "4",
		"-qlog-out", "q.jsonl", "-out", "base.json")
	out := f.run("rnereplay", "-graph", "g.txt", "-log", "q.jsonl", "-quick", "-landmarks", "4",
		"-out", "replay.json", "-baseline", "base.json")
	if !strings.Contains(out, "diff vs") {
		t.Fatalf("replay printed no baseline diff:\n%s", out)
	}
}

// TestTelemetry runs rnebench's telemetry smoke (a quick build, then
// point queries timed through the telemetry histograms) in a scratch
// directory and checks its BENCH_telemetry.json percentiles.
func TestTelemetry(t *testing.T) {
	f := newFleet(t)
	f.run("rnebench", "-exp", "telemetry-smoke", "-quick")
	out := f.readFile("BENCH_telemetry.json")
	var rep struct {
		Vertices     int
		LatencyP50US float64 `json:"latency_p50_us"`
		LatencyP95US float64 `json:"latency_p95_us"`
		LatencyP99US float64 `json:"latency_p99_us"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Vertices <= 0 || !(0 < rep.LatencyP50US && rep.LatencyP50US <= rep.LatencyP95US && rep.LatencyP95US <= rep.LatencyP99US) {
		t.Fatalf("implausible telemetry report:\n%s", out)
	}
	writeBench(t, "telemetry", out)
}
