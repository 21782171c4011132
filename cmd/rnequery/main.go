// Command rnequery answers shortest-path distance queries from a model
// version in a registry (published by rnebuild), as a replica of that
// version would: clamped into the certified landmark interval when the
// version carries an ALT guard. It reads the version -name resolves to
// and changes nothing in the registry. Queries are "s t" vertex-id
// pairs, one per line on stdin, or a single pair via -s/-t flags.
//
// -explain prints the raw model estimate and, on a guarded version,
// the certified interval with the landmarks that produced it and the
// clamp direction. A published model keeps no partition tree, so
// there is no per-level breakdown (rnereplay attributes error per
// level from a model it retrains). -knn and -range query the
// version's spatial index (rnebuild -target-frac) and print its
// pruning counters with -explain.
//
// Usage:
//
//	rnequery -registry ./models -name bj -s 17 -t 4242 [-explain]
//	rnequery -registry ./models -name bj -s 17 -knn 5
//	rnequery -registry ./models -name bj -s 17 -range 2500
//	shuf pairs.txt | rnequery -registry ./models -name bj
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	rne "repro"
)

func main() {
	registryRoot := flag.String("registry", "", "versioned model registry root (rnebuild -publish), required")
	regName := flag.String("name", "default", "model name within -registry")
	s := flag.Int("s", -1, "source vertex (with -t, -knn or -range)")
	t := flag.Int("t", -1, "target vertex")
	k := flag.Int("knn", 0, "return the k nearest indexed targets to -s (needs the version's spatial index)")
	tau := flag.Float64("range", -1, "return indexed targets within this distance of -s (needs the version's spatial index)")
	explain := flag.Bool("explain", false, "print estimate provenance (raw estimate, guard bounds, traversal stats)")
	flag.Parse()

	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "rnequery: "+format+"\n", args...)
		os.Exit(1)
	}
	if *registryRoot == "" {
		fmt.Fprintln(os.Stderr, "rnequery: -registry is required")
		os.Exit(2)
	}
	if *k < 0 {
		fmt.Fprintf(os.Stderr, "rnequery: -knn must be >= 0, got %d\n", *k)
		os.Exit(2)
	}
	// LoadLatest quarantines a version that fails to load; a query tool
	// reads the latest version as it is, and creates no missing root.
	store, err := rne.OpenExistingModelRegistry(*registryRoot)
	if err != nil {
		fatal("%v", err)
	}
	version, err := store.Latest(*regName)
	if err != nil {
		fatal("%v", err)
	}
	set, err := store.LoadVersion(*regName, version, rne.RegistryLoadOpts{})
	if err != nil {
		fatal("%v", err)
	}
	model := set.Model
	n := model.NumVertices()

	var guard *rne.BoundedEstimator
	if set.ALT != nil {
		guard, err = rne.NewBoundedEstimatorFromIndex(model, set.ALT)
		if err != nil {
			fatal("%v", err)
		}
	}

	if *k > 0 || *tau >= 0 {
		if set.Index == nil {
			fatal("-knn and -range need a spatial index, and %s %s has none (publish with rnebuild -target-frac)", *regName, version)
		}
		if *s < 0 || *s >= n {
			fatal("-knn and -range need a valid -s, got %d", *s)
		}
		spatial(model, set.Index, int32(*s), *k, *tau, *explain)
		return
	}

	answer := func(s, t int) error {
		if s < 0 || s >= n || t < 0 || t >= n {
			return fmt.Errorf("pair (%d,%d) outside [0,%d)", s, t, n)
		}
		if *explain {
			explainPair(model, guard, int32(s), int32(t))
			return nil
		}
		est := model.Estimate(int32(s), int32(t))
		if guard != nil {
			est = guard.Estimate(int32(s), int32(t))
		}
		fmt.Printf("%d %d %.2f\n", s, t, est)
		return nil
	}

	if *s >= 0 && *t >= 0 {
		if err := answer(*s, *t); err != nil {
			fatal("%v", err)
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			fatal("line %d: want 's t', got %q", line, text)
		}
		sv, err1 := strconv.Atoi(fields[0])
		tv, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			fatal("line %d: bad vertex ids %q", line, text)
		}
		if err := answer(sv, tv); err != nil {
			fatal("line %d: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		fatal("%v", err)
	}
}

// explainPair prints the provenance view of one estimate.
func explainPair(model *rne.Model, guard *rne.BoundedEstimator, s, t int32) {
	if guard == nil {
		raw := model.Estimate(s, t)
		fmt.Printf("%d %d %.2f\n  raw model estimate %.2f, unguarded\n", s, t, raw, raw)
		return
	}
	g := guard.Guard(s, t)
	fmt.Printf("%d %d %.2f\n  raw model estimate %.2f\n", s, t, g.Est, g.Raw)
	clamp := "within bounds"
	switch {
	case g.ClampedLow:
		clamp = "clamped up to lo"
	case g.ClampedHigh:
		clamp = "clamped down to hi"
	}
	fmt.Printf("  guard: certified [%.2f, %.2f] via landmarks (lo %d, hi %d), raw %.2f %s\n",
		g.Lo, g.Hi, g.LoLandmark, g.HiLandmark, g.Raw, clamp)
}

// spatial runs one -knn or -range query, with traversal counters under
// -explain. kNN prints the distances the index ranked by, as /knn does.
func spatial(model *rne.Model, idx *rne.SpatialIndex, s int32, k int, tau float64, explain bool) {
	var targets []int32
	var dists []float64
	var st rne.IndexQueryStats
	what := fmt.Sprintf("knn k=%d", k)
	if k > 0 {
		targets, dists, st = idx.KNNDistances(s, k, nil)
	} else {
		targets, st = idx.RangeStats(s, tau)
		for _, v := range targets {
			dists = append(dists, model.Estimate(s, v))
		}
		what = fmt.Sprintf("range tau=%.2f", tau)
	}
	for i, v := range targets {
		fmt.Printf("%d %d %.2f\n", s, v, dists[i])
	}
	if explain {
		fmt.Printf("  %s: %d results; visited %d nodes, pruned %d, scanned %d vertices\n",
			what, len(targets), st.NodesVisited, st.NodesPruned, st.VertsScanned)
	}
}
