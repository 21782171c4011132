// Command rnereplay re-runs a recorded query workload against a model
// and an exact Dijkstra oracle, offline: the regression harness for
// the sampled serving log (rneserver -qlog). It aggregates relative
// error per distance band and per hierarchy level, reproduces the live
// drift monitor's band scores from guard bounds, writes the report as
// JSON, and — given a baseline report from a previous run — emits an
// ok/regression verdict, exiting non-zero on regression so CI can gate
// model changes on recorded production traffic.
//
// The graph is always required: it is the ground-truth oracle, and the
// model is retrained from it deterministically (-seed), which keeps the
// partition tree behind per-level error attribution (a published model
// drops it). -landmarks adds an ALT guard so drift bands are scored the
// way a guarded server would.
//
// With -traces, rnereplay instead runs tail-latency attribution: it
// reads span JSONL files written by traced rnegate/rneserver
// processes (-trace-out), stitches spans into whole traces, and
// reports the queue/network/kernel/guard share of request p50/p95/p99
// plus the slowest concrete traces to go read. No graph or query log
// is needed in this mode.
//
// Usage:
//
//	rnereplay -graph bj.txt -log queries.jsonl -out BENCH_replay.json
//	rnereplay -graph bj.txt -gen 5000 -landmarks 8 -out now.json -baseline BENCH_replay.json
//	rnereplay -traces gw.spans.jsonl,s1.spans.jsonl,s2.spans.jsonl -out BENCH_trace.json
//
// Exit codes: 0 ok, 1 error, 2 usage, 3 regression verdict.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	rne "repro"
	"repro/internal/qlog"
	"repro/internal/replay"
)

func main() {
	graphPath := flag.String("graph", "", "graph file: the exact-distance oracle (required unless -preset)")
	preset := flag.String("preset", "", "built-in preset instead of -graph")
	seed := flag.Int64("seed", 42, "training seed")
	quick := flag.Bool("quick", false, "cheap training settings for smoke tests (small dim, one epoch)")
	logPath := flag.String("log", "", "query log (JSONL from rneserver -qlog) to replay")
	genN := flag.Int("gen", 0, "generate this many random queries instead of -log")
	landmarks := flag.Int("landmarks", 0, "build an ALT guard with this many landmarks and score drift bands (0 disables)")
	outPath := flag.String("out", "BENCH_replay.json", "report output path")
	qlogOut := flag.String("qlog-out", "", "also record the replayed workload as a fresh query log at this path")
	baselinePath := flag.String("baseline", "", "previous report to diff against; regression exits 3")
	tolFactor := flag.Float64("tolerance", 0.10, "allowed fractional error worsening before the diff flags a regression")
	tracesArg := flag.String("traces", "", "comma-separated span JSONL files: run tail-latency attribution instead of an error replay")
	p99On := flag.Float64("p99-on", 0, "measured p99 with tracing on, microseconds (embedded in the -traces report)")
	p99Off := flag.Float64("p99-off", 0, "measured p99 with tracing off, microseconds (embedded in the -traces report)")
	flag.Parse()

	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "rnereplay: "+format+"\n", args...)
		os.Exit(1)
	}
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "rnereplay: "+format+"\n", args...)
		os.Exit(2)
	}

	if *tracesArg != "" {
		// Attribution mode needs no oracle: the spans carry their own
		// ground truth (measured durations).
		out := *outPath
		set := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "out" {
				set = true
			}
		})
		if !set {
			out = "BENCH_trace.json"
		}
		if err := runTraces(strings.Split(*tracesArg, ","), out, *p99On, *p99Off); err != nil {
			fatal("%v", err)
		}
		return
	}

	var g *rne.Graph
	var err error
	switch {
	case *graphPath != "":
		g, err = rne.LoadGraph(*graphPath)
	case *preset != "":
		g, err = rne.Preset(*preset)
	default:
		usage("need -graph or -preset (the exact-distance oracle)")
	}
	if err != nil {
		fatal("loading graph: %v", err)
	}

	var queries []replay.Query
	switch {
	case *logPath != "" && *genN > 0:
		usage("-log and -gen are mutually exclusive")
	case *logPath != "":
		queries, err = replay.ReadLogFile(*logPath)
		if err != nil {
			fatal("%v", err)
		}
	case *genN > 0:
		queries = replay.GenerateWorkload(g.NumVertices(), *genN, *seed+1)
	default:
		usage("need -log or -gen")
	}

	opt := rne.DefaultOptions(*seed)
	if *quick {
		opt.Dim = 8
		opt.Epochs = 1
		opt.VertexSampleRatio = 5
		opt.FineTuneRounds = 1
		opt.HierSampleCap = 1000
		opt.ValidationPairs = 50
	}
	model, _, err := rne.Build(g, opt)
	if err != nil {
		fatal("training: %v", err)
	}

	var guard *rne.BoundedEstimator
	if *landmarks > 0 {
		altIdx, err := rne.BuildALTIndex(g, *landmarks, *seed+2)
		if err != nil {
			fatal("building ALT guard: %v", err)
		}
		guard, err = rne.NewBoundedEstimatorFromIndex(model, altIdx)
		if err != nil {
			fatal("enabling guard: %v", err)
		}
	}

	rep, err := replay.Run(model, guard, g, queries, replay.Options{})
	if err != nil {
		fatal("%v", err)
	}
	rep.WriteHuman(os.Stdout)

	if *qlogOut != "" {
		if err := recordWorkload(*qlogOut, model, guard, queries); err != nil {
			fatal("recording workload: %v", err)
		}
		fmt.Printf("recorded %d queries to %s\n", len(queries), *qlogOut)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %s\n", *outPath)

	if *baselinePath != "" {
		base, err := replay.LoadReport(*baselinePath)
		if err != nil {
			fatal("%v", err)
		}
		d := replay.Diff(base, rep, replay.Tolerances{RelFactor: *tolFactor})
		fmt.Printf("diff vs %s: %s\n", *baselinePath, d.Verdict)
		for _, r := range d.Reasons {
			fmt.Println(" ", r)
		}
		if d.Regressed() {
			os.Exit(3)
		}
	}
}

// runTraces is the -traces mode: read span JSONL, aggregate into the
// per-hop tail-latency report, print it and write it as JSON.
func runTraces(paths []string, outPath string, p99OnUS, p99OffUS float64) error {
	clean := paths[:0]
	for _, p := range paths {
		if p = strings.TrimSpace(p); p != "" {
			clean = append(clean, p)
		}
	}
	spans, err := replay.ReadSpanFiles(clean)
	if err != nil {
		return err
	}
	rep, err := replay.AggregateTraces(spans)
	if err != nil {
		return err
	}
	if p99OnUS > 0 || p99OffUS > 0 {
		rep.SetOverhead(p99OnUS, p99OffUS)
	}
	rep.WriteHuman(os.Stdout)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// recordWorkload writes the workload back out as a query log — every
// query, unsampled — so a generated workload becomes a replayable
// fixture for future runs.
func recordWorkload(path string, model *rne.Model, guard *rne.BoundedEstimator, queries []replay.Query) error {
	l, err := qlog.New(qlog.Config{Path: path, QueueSize: len(queries) + 1})
	if err != nil {
		return err
	}
	for _, q := range queries {
		rec := qlog.Record{Route: "replay", S: q.S, T: q.T}
		if guard != nil {
			gr := guard.Guard(q.S, q.T)
			rec.Estimate, rec.Raw, rec.Lo, rec.Hi = gr.Est, gr.Raw, gr.Lo, gr.Hi
			rec.HasBounds = true
		} else {
			rec.Estimate = model.Estimate(q.S, q.T)
		}
		l.Observe(rec)
	}
	if err := l.Close(); err != nil {
		return err
	}
	if dropped := l.Dropped(); dropped > 0 {
		return fmt.Errorf("dropped %d of %d records", dropped, len(queries))
	}
	return nil
}
