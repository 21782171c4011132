// Command rneload is the saturation-grade load harness for the
// serving tier: closed-loop (max-throughput) and open-loop (paced
// arrival schedule — coordinated omission charged to the target, not
// hidden) generation against /distance, /batch and /knn, with
// HDR-style log-bucketed latency capture per route and status class.
//
// The harness does not stop at client-side numbers: while each step
// runs it scrapes the target fleet's /metrics (in-flight requests,
// sheds, retries, hedges, GC and goroutine gauges) and joins the
// counter deltas with the client-observed latency of the same window,
// so a p99 knee in the report comes attributed to shedding, GC
// pressure or backend ejection rather than guessed at. With
// -profile-cpu / -profile-heap it also captures pprof profiles from
// the target's -debug-addr listener at fixed points in each step.
//
// Steps sweep load levels in one invocation; -append folds multiple
// invocations (single replica, then gateway; guard on, then off) into
// one BENCH_load.json for side-by-side comparison.
//
// Usage:
//
//	rneload -target http://localhost:8080 \
//	  -steps 'c=4,qps=0,d=5s;c=4,qps=200,d=5s;c=8,qps=400,d=5s' \
//	  -mix distance=8,batch=1,knn=1 -out BENCH_load.json
//
//	# gateway run joined against gateway and both replicas, appended:
//	rneload -target http://localhost:9090 -vertices 10000 \
//	  -scrape gate=http://localhost:9090,r1=http://localhost:8080,r2=http://localhost:8081 \
//	  -steps 'c=8,qps=400,d=5s' -name gateway -append -out BENCH_load.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rneload: ")

	target := flag.String("target", "", "base URL of the replica or gateway under load (required)")
	steps := flag.String("steps", "c=4,qps=0,d=5s", "semicolon-separated load steps, each c=<clients>,qps=<qps>,d=<duration>[,w=<warmup>]; qps=0 is closed loop")
	warmup := flag.Duration("warmup", 500*time.Millisecond, "default per-step warmup excluded from the measured window (override per step with w=)")
	mix := flag.String("mix", "distance=1", "route mix weights, e.g. distance=8,batch=1,knn=1 (gateways serve no /knn)")
	batchSize := flag.Int("batch-size", 32, "pairs per /batch request")
	knnK := flag.Int("knn-k", 8, "k per /knn request")
	vertices := flag.Int("vertices", 0, "vertex-id bound for generated queries (0 discovers from the target's /healthz; required for gateway targets)")
	seed := flag.Int64("seed", 1, "workload seed (per-client streams derive from it)")
	scrape := flag.String("scrape", "", "comma-separated name=URL /metrics endpoints to join with each step (default: the target itself)")
	scrapeInterval := flag.Duration("scrape-interval", 500*time.Millisecond, "timeline sampling period during a step")
	debugURL := flag.String("debug-url", "", "target's operator (-debug-addr) base URL for pprof capture")
	profileCPU := flag.Int("profile-cpu", 0, "with -debug-url: capture an N-second CPU profile starting at each step's warmup end (0 disables)")
	profileHeap := flag.Bool("profile-heap", false, "with -debug-url: capture a heap profile at each step's end")
	profileDir := flag.String("profile-dir", "load-profiles", "directory for captured pprof profiles")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request client deadline")
	name := flag.String("name", "", "run name recorded in the report (e.g. replica, gateway)")
	tags := flag.String("tags", "", "comma-separated key=value tags recorded on the run (e.g. guard=on,replicas=2)")
	out := flag.String("out", "BENCH_load.json", "report output path")
	appendRun := flag.Bool("append", false, "append this run to an existing -out report instead of overwriting")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	flag.Parse()

	if *target == "" {
		log.Fatal("-target is required")
	}
	stepList, err := loadgen.ParseSteps(*steps, *warmup)
	if err != nil {
		log.Fatal(err)
	}
	mixVal, err := loadgen.ParseMix(*mix)
	if err != nil {
		log.Fatal(err)
	}
	scrapes, err := parseScrapes(*scrape)
	if err != nil {
		log.Fatal(err)
	}
	tagMap, err := parseTags(*tags)
	if err != nil {
		log.Fatal(err)
	}

	cfg := loadgen.Config{
		Target:            *target,
		Mix:               mixVal,
		BatchSize:         *batchSize,
		KNNK:              *knnK,
		Vertices:          *vertices,
		Seed:              *seed,
		Scrapes:           scrapes,
		ScrapeInterval:    *scrapeInterval,
		DebugURL:          *debugURL,
		ProfileCPUSeconds: *profileCPU,
		ProfileHeap:       *profileHeap,
		ProfileDir:        *profileDir,
		RequestTimeout:    *reqTimeout,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	runner, err := loadgen.New(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	run, err := runner.Run(ctx, stepList, tagMap)
	run.Name = *name
	if err != nil {
		// A canceled sweep still reports the completed steps.
		log.Printf("sweep interrupted: %v (%d/%d steps done)", err, len(run.Steps), len(stepList))
	}
	if len(run.Steps) == 0 {
		log.Fatal("no steps completed; nothing to report")
	}

	report := loadgen.NewReport()
	if *appendRun {
		if report, err = loadgen.LoadReport(*out); err != nil {
			log.Fatal(err)
		}
	}
	report.AppendRun(run)
	if err := report.Write(*out); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d runs)", *out, len(report.Runs))
	printSummary(run)
}

func parseScrapes(s string) ([]loadgen.ScrapeTarget, error) {
	if s == "" {
		return nil, nil
	}
	var out []loadgen.ScrapeTarget
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, u, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("scrape entry %q is not name=URL", part)
		}
		out = append(out, loadgen.ScrapeTarget{Name: name, URL: u})
	}
	return out, nil
}

func parseTags(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("tag %q is not key=value", part)
		}
		out[k] = v
	}
	return out, nil
}

// printSummary renders the sweep as a terminal table: one line per
// (step, route, class) with the offered/achieved rates and the tail.
func printSummary(run loadgen.Run) {
	w := os.Stdout
	fmt.Fprintf(w, "\n%-14s %-10s %-5s %9s %9s %9s %9s %9s %9s\n",
		"step", "route", "class", "count", "ach qps", "p50 ms", "p99 ms", "p99.9 ms", "max ms")
	for _, st := range run.Steps {
		for _, rs := range st.Routes {
			fmt.Fprintf(w, "%-14s %-10s %-5s %9d %9.1f %9.3f %9.3f %9.3f %9.3f\n",
				st.Label, rs.Route, rs.Class, rs.Count, st.AchievedQPS,
				rs.P50MS, rs.P99MS, rs.P999MS, rs.MaxMS)
		}
		if st.UnsentArrivals > 0 {
			fmt.Fprintf(w, "%-14s   %d intended arrivals unsent (target saturated)\n", st.Label, st.UnsentArrivals)
		}
		for _, sj := range st.Servers {
			if sj.ScrapeError != "" {
				fmt.Fprintf(w, "%-14s   scrape %s: %s\n", st.Label, sj.Name, sj.ScrapeError)
			} else if sj.HTTPLatency != nil {
				fmt.Fprintf(w, "%-14s   server %s: http p50 %.3fms p99 %.3fms (%d reqs)",
					st.Label, sj.Name, sj.HTTPLatency.P50MS, sj.HTTPLatency.P99MS, sj.HTTPLatency.Count)
				if sj.GCPause != nil && sj.GCPause.Count > 0 {
					fmt.Fprintf(w, ", gc pauses %d p99 %.3fms", sj.GCPause.Count, sj.GCPause.P99MS)
				}
				fmt.Fprintln(w)
			}
		}
	}
}
