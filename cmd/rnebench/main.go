// Command rnebench regenerates the paper's tables and figures.
//
// Usage:
//
//	rnebench -exp table3             # one experiment
//	rnebench -exp all                # everything (long)
//	rnebench -exp fig11 -quick       # CI-sized run
//	rnebench -list                   # show experiment ids
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/bench"
)

var experiments = map[string]func(io.Writer, bench.Config) error{
	"table2": bench.Table2,
	"table3": bench.Table3,
	"table4": bench.Table4,
	"fig7":   bench.Fig7,
	"fig8":   bench.Fig8,
	"fig9":   bench.Fig9,
	"fig10":  bench.Fig10,
	"fig11":  bench.Fig11,
	"fig12":  bench.Fig12,
	"fig13":  bench.Fig13,
	"fig14":  bench.Fig14,
	"fig15":  bench.Fig15,
	"fig16":  bench.Fig16,
	"fig17":  bench.Fig17,

	// Beyond the paper: ablations of DESIGN.md design choices and the
	// LT-clamped hybrid extension.
	"fig16-knn":          bench.Fig16KNN,
	"suite":              bench.Suite,
	"ablation-partition": bench.AblationPartition,
	"ablation-gridk":     bench.AblationGridK,
	"ablation-landmarks": bench.AblationLandmarks,
	"ablation-hybrid":    bench.AblationHybrid,
	"ablation-optimizer": bench.AblationOptimizer,
	"ablation-topology":  bench.AblationTopology,

	// Operational: exercises the telemetry histograms end to end and
	// emits BENCH_telemetry.json with latency/error percentiles.
	"telemetry-smoke": bench.TelemetrySmoke,
}

func main() {
	exp := flag.String("exp", "", "experiment id (see -list), or 'all'")
	list := flag.Bool("list", false, "list experiment ids")
	quick := flag.Bool("quick", false, "CI-sized datasets and query counts")
	scale := flag.Float64("scale", 0, "override dataset scale factor")
	queries := flag.Int("queries", 0, "override per-measurement query count")
	seed := flag.Int64("seed", 42, "workload/build seed")
	flag.Parse()

	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "rnebench: -exp required (use -list for ids)")
		os.Exit(2)
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	cfg.Seed = *seed
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}

	run := func(id string) {
		f, ok := experiments[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "rnebench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("=== %s ===\n", id)
		start := time.Now()
		if err := f(os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "rnebench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("--- %s done in %v ---\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, id := range ids {
			run(id)
		}
		return
	}
	run(*exp)
}
