package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/alt"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gtree"
	"repro/internal/hybrid"
	"repro/internal/index"
	"repro/internal/kdtree"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/sssp"
)

// The experiments in this file go beyond the paper's exhibits: they
// ablate the design choices DESIGN.md calls out (partition shape,
// fine-tuning grid resolution, landmark selection policy) and evaluate
// the LT-clamped hybrid estimator this repository adds.

// AblationPartition sweeps the hierarchy fanout κ and leaf threshold δ.
func AblationPartition(w io.Writer, cfg Config) error {
	g, err := ablationGraph(cfg)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Fanout κ\tLeaf δ\trel.err(%)\tbuild")
	for _, fanout := range []int{2, 4, 8} {
		for _, leaf := range []int{32, 64, 128} {
			opt := ablationOptions(cfg)
			opt.Fanout = fanout
			opt.Leaf = leaf
			start := time.Now()
			_, st, err := core.Build(g, opt)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%d\t%d\t%.2f\t%v\n", fanout, leaf,
				st.Validation.MeanRel*100, time.Since(start).Round(time.Millisecond))
		}
	}
	return tw.Flush()
}

// AblationGridK sweeps the fine-tuning grid resolution K (R = 2K-1
// buckets).
func AblationGridK(w io.Writer, cfg Config) error {
	g, err := ablationGraph(cfg)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Grid K\tBuckets R\trel.err(%)\tp99(%)")
	for _, k := range []int{4, 8, 16, 24} {
		opt := ablationOptions(cfg)
		opt.GridK = k
		_, st, err := core.Build(g, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t%.2f\n", k, 2*k-1,
			st.Validation.MeanRel*100, st.Validation.P99Rel*100)
	}
	return tw.Flush()
}

// AblationLandmarks compares landmark selection policies for the
// vertex-phase samples.
func AblationLandmarks(w io.Writer, cfg Config) error {
	g, err := ablationGraph(cfg)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Strategy\trel.err(%)\tp99(%)")
	for _, strat := range []string{"farthest", "random", "degree"} {
		opt := ablationOptions(cfg)
		opt.LandmarkStrategy = strat
		_, st, err := core.Build(g, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\n", strat,
			st.Validation.MeanRel*100, st.Validation.P99Rel*100)
	}
	return tw.Flush()
}

// AblationHybrid compares plain RNE, plain LT and the LT-clamped hybrid
// on mean and tail errors.
func AblationHybrid(w io.Writer, cfg Config) error {
	g, err := ablationGraph(cfg)
	if err != nil {
		return err
	}
	m, _, err := core.Build(g, ablationOptions(cfg))
	if err != nil {
		return err
	}
	lt, err := alt.Build(g, 128, cfg.Seed)
	if err != nil {
		return err
	}
	hy, err := hybrid.New(m, lt)
	if err != nil {
		return err
	}
	pairs := randomPairs(g, cfg.Queries, cfg.Seed+37)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Estimator\tmean(%)\tp99(%)\tmax(%)\tquery")
	for _, e := range []struct {
		name string
		f    func(s, t int32) float64
	}{
		{"RNE", m.EstimateL1},
		{"LT", lt.Estimate},
		{"Hybrid (RNE clamped to LT bounds)", hy.Estimate},
	} {
		st := metrics.Evaluate(metrics.EstimatorFunc(e.f), pairs)
		fmt.Fprintf(tw, "%s\t%.3f\t%.2f\t%.2f\t%s\n", e.name,
			st.MeanRel*100, st.P99Rel*100, st.MaxRel*100, fmtNanos(timeEstimator(e.f, pairs)))
	}
	return tw.Flush()
}

// Fig16KNN is the kNN counterpart of Figure 16 (the paper reports range
// queries and notes kNN behaves alike — this measures it).
func Fig16KNN(w io.Writer, cfg Config) error {
	g, err := ablationGraph(cfg)
	if err != nil {
		return err
	}
	rng := newRng(cfg.Seed + 41)
	var targets []int32
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if rng.Intn(10) == 0 {
			targets = append(targets, v)
		}
	}
	model, _, err := core.Build(g, ablationOptions(cfg))
	if err != nil {
		return err
	}
	rneIdx, err := index.Build(model, targets)
	if err != nil {
		return err
	}
	h, err := partition.BuildHierarchy(g, partition.DefaultHierConfig(cfg.Seed))
	if err != nil {
		return err
	}
	gt, err := gtree.Build(g, h, targets)
	if err != nil {
		return err
	}
	orc, err := oracle.Build(g, 0.5)
	if err != nil {
		return err
	}
	xs := make([]float64, len(targets))
	ys := make([]float64, len(targets))
	for i, v := range targets {
		xs[i] = g.X(v)
		ys[i] = g.Y(v)
	}
	euclidTree, err := kdtree.Build(xs, ys, targets, kdtree.Euclidean)
	if err != nil {
		return err
	}
	manhTree, err := kdtree.Build(xs, ys, targets, kdtree.Manhattan)
	if err != nil {
		return err
	}

	oracleKNN := func(s int32, k int) []int32 {
		dists := make([]float64, len(targets))
		order := make([]int32, len(targets))
		for i, v := range targets {
			dists[i] = orc.Estimate(s, v)
			order[i] = int32(i)
		}
		// Full sort: the target set is small.
		sortByKey(order, dists)
		out := make([]int32, 0, k)
		for i := 0; i < k && i < len(order); i++ {
			out = append(out, targets[order[i]])
		}
		return out
	}

	type knnMethod struct {
		name string
		run  func(s int32, k int) []int32
	}
	methods := []knnMethod{
		{"RNE", func(s int32, k int) []int32 { return rneIdx.KNN(s, k) }},
		{"V-tree(G-tree)", func(s int32, k int) []int32 { return gt.KNN(s, k) }},
		{"DistanceOracle", oracleKNN},
		{"Euclidean", func(s int32, k int) []int32 { return euclidTree.KNN(g.X(s), g.Y(s), k) }},
		{"Manhattan", func(s int32, k int) []int32 { return manhTree.KNN(g.X(s), g.Y(s), k) }},
	}

	ks := []int{1, 5, 10, 20}
	nQueries := 40
	if cfg.Quick {
		nQueries = 15
	}
	sources := make([]int32, nQueries)
	for i := range sources {
		sources[i] = int32(rng.Intn(g.NumVertices()))
	}
	ws := sssp.NewWorkspace(g)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Method\t")
	for _, k := range ks {
		fmt.Fprintf(tw, "F1@k=%d\ttime\t", k)
	}
	fmt.Fprintln(tw)
	var scratch []float64
	for _, m := range methods {
		fmt.Fprintf(tw, "%s\t", m.name)
		for _, k := range ks {
			var f1Sum float64
			start := time.Now()
			for _, s := range sources {
				_ = m.run(s, k)
			}
			elapsed := time.Since(start)
			for _, s := range sources {
				got := m.run(s, k)
				scratch = wsFrom(ws, s, scratch)
				want := exactKNN(scratch, targets, k)
				_, _, f1 := metrics.F1(got, want)
				f1Sum += f1
			}
			fmt.Fprintf(tw, "%.3f\t%s\t", f1Sum/float64(len(sources)),
				fmtNanos(float64(elapsed.Nanoseconds())/float64(len(sources))))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// AblationOptimizer compares plain SGD (Function Training) against
// Adam on identical budgets.
func AblationOptimizer(w io.Writer, cfg Config) error {
	g, err := ablationGraph(cfg)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Optimizer\trel.err(%)\tp99(%)\tbuild")
	for _, optim := range []string{"sgd", "adam"} {
		opt := ablationOptions(cfg)
		opt.Optimizer = optim
		start := time.Now()
		_, st, err := core.Build(g, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%v\n", optim,
			st.Validation.MeanRel*100, st.Validation.P99Rel*100,
			time.Since(start).Round(time.Millisecond))
	}
	return tw.Flush()
}

// AblationTopology trains RNE on two structurally different synthetic
// networks of similar size — a pure urban grid and a multi-city highway
// network (sparse long links between dense grids) — to check that the
// embedding quality is not an artifact of the single-grid generator.
func AblationTopology(w io.Writer, cfg Config) error {
	grid, err := ablationGraph(cfg)
	if err != nil {
		return err
	}
	hwCfg := gen.DefaultHighwayConfig(cfg.Seed)
	hwCfg.Cities = 5
	hwCfg.CityRows, hwCfg.CityCols = 28, 28
	if cfg.Quick {
		hwCfg.Cities = 3
		hwCfg.CityRows, hwCfg.CityCols = 12, 12
	}
	highway, err := gen.Highway(hwCfg)
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Topology\t|V|\trel.err(%)\tp99(%)\tquery")
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"urban grid", grid},
		{"multi-city highway", highway},
	} {
		opt := ablationOptions(cfg)
		m, st, err := core.Build(tc.g, opt)
		if err != nil {
			return err
		}
		pairs := randomPairs(tc.g, cfg.Queries/2+500, cfg.Seed+43)
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%s\n", tc.name, tc.g.NumVertices(),
			st.Validation.MeanRel*100, st.Validation.P99Rel*100,
			fmtNanos(timeEstimator(m.EstimateL1, pairs)))
	}
	return tw.Flush()
}
