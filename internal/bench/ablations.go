package bench

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/deepwalk"
	"repro/internal/dr"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gtree"
	"repro/internal/index"
	"repro/internal/kdtree"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/sample"
	"repro/internal/sssp"
)

// ablationGraph builds the BJ stand-in (all Section VII-B ablations run
// on BJ in the paper).
func ablationGraph(cfg Config) (*graph.Graph, error) {
	p, err := gen.PresetByName("bj-mini")
	if err != nil {
		return nil, err
	}
	scale := cfg.Scale
	if cfg.Quick && scale > 0.3 {
		scale = 0.3
	}
	return p.BuildScaled(scale)
}

// ablationOptions returns the ablation training configuration.
func ablationOptions(cfg Config) core.Options {
	opt := core.DefaultOptions(cfg.Seed)
	opt.Dim = 64
	if cfg.Quick {
		opt.Dim = 32
		opt.Epochs = 5
		opt.VertexSampleRatio = 60
		opt.FineTuneRounds = 4
		opt.HierSampleCap = 15000
		opt.ValidationPairs = 400
	}
	return opt
}

// Fig7 quantifies the embedding-layout comparison of Figure 7: a d=2
// RNE trained flat collapses (low spread, poor distance correlation)
// while the hierarchical one preserves the global layout.
func Fig7(w io.Writer, cfg Config) error {
	g, err := ablationGraph(cfg)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Model\tRel.err(%)\tSpread\tNote")
	for _, hier := range []bool{false, true} {
		opt := ablationOptions(cfg)
		opt.Dim = 2
		opt.Hierarchical = hier
		opt.ActiveFineTune = false
		if !hier {
			opt.VertexStrategy = core.VertexRandom
		}
		m, st, err := core.Build(g, opt)
		if err != nil {
			return err
		}
		name := "RNE-Naive d=2"
		if hier {
			name = "RNE-Hier d=2"
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.3f\t%s\n", name, st.Validation.MeanRel*100,
			embeddingSpread(m), "spread = mean pairwise / max pairwise L1")
	}
	return tw.Flush()
}

// embeddingSpread measures how evenly the embedding fills its bounding
// region: the mean pairwise L1 distance of a vertex sample divided by
// the sample maximum. Collapsed embeddings (Figure 7b) score low.
func embeddingSpread(m *core.Model) float64 {
	rng := rand.New(rand.NewSource(1))
	n := m.NumVertices()
	const samples = 2000
	var sum, max float64
	for i := 0; i < samples; i++ {
		a := int32(rng.Intn(n))
		b := int32(rng.Intn(n))
		d := m.Estimate(a, b)
		sum += d
		if d > max {
			max = d
		}
	}
	if max == 0 {
		return 0
	}
	return sum / samples / max
}

// Fig8 prints the per-distance-bucket sample share and relative error
// before and after active fine-tuning (paper Figure 8).
func Fig8(w io.Writer, cfg Config) error {
	g, err := ablationGraph(cfg)
	if err != nil {
		return err
	}
	pairs := randomPairs(g, cfg.Queries, cfg.Seed+3)
	const buckets = 10
	counts := make([]int, buckets)
	var maxDist float64
	for _, p := range pairs {
		if p.Dist > maxDist {
			maxDist = p.Dist
		}
	}
	for _, p := range pairs {
		b := int(p.Dist / maxDist * buckets)
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Bucket\t")
	for b := 0; b < buckets; b++ {
		fmt.Fprintf(tw, "%d\t", b)
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "Random-pair share(%)\t")
	for _, c := range counts {
		fmt.Fprintf(tw, "%.1f\t", 100*float64(c)/float64(len(pairs)))
	}
	fmt.Fprintln(tw)

	for _, aft := range []bool{false, true} {
		opt := ablationOptions(cfg)
		opt.ActiveFineTune = aft
		m, _, err := core.Build(g, opt)
		if err != nil {
			return err
		}
		bs := metrics.EvaluateBuckets(metrics.EstimatorFunc(m.Estimate), pairs, buckets, maxDist)
		label := "rel.err before AFT(%)"
		if aft {
			label = "rel.err after AFT(%)"
		}
		fmt.Fprintf(tw, "%s\t", label)
		for _, b := range bs {
			fmt.Fprintf(tw, "%.2f\t", b.MeanRel*100)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Fig9 varies the representation metric L_p (paper Figure 9): L1 should
// come out lowest.
func Fig9(w io.Writer, cfg Config) error {
	g, err := ablationGraph(cfg)
	if err != nil {
		return err
	}
	ps := []float64{0.5, 1, 2, 3, 4, 5}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Metric\tRel.err(%)")
	for _, p := range ps {
		opt := ablationOptions(cfg)
		opt.P = p
		_, st, err := core.Build(g, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "L%.1f\t%.2f\n", p, st.Validation.MeanRel*100)
	}
	return tw.Flush()
}

// Fig10 varies the embedding dimension d, reporting validation error at
// increasing sample budgets (paper Figure 10).
func Fig10(w io.Writer, cfg Config) error {
	g, err := ablationGraph(cfg)
	if err != nil {
		return err
	}
	dims := []int{32, 64, 128, 256, 512}
	chunks := 6
	if cfg.Quick {
		dims = []int{16, 32, 64}
		chunks = 4
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Model\tsamples\trel.err(%)")
	for _, d := range dims {
		opt := ablationOptions(cfg)
		opt.Dim = d
		tr, err := core.NewTrainer(g, opt)
		if err != nil {
			return err
		}
		tr.RunHierPhase()
		chunk := int(opt.VertexSampleRatio * float64(g.NumVertices()) / float64(chunks))
		for c := 0; c < chunks; c++ {
			samples := tr.GenVertexSamples(chunk)
			for e := 0; e < opt.Epochs/2+1; e++ {
				tr.VertexStep(samples, opt.LR/float64(opt.Dim)/(1+0.5*float64(e)))
			}
			fmt.Fprintf(tw, "RNE%d\t%d\t%.2f\n", d, tr.SamplesUsed(), tr.Validate().MeanRel*100)
		}
	}
	return tw.Flush()
}

// Fig11 compares RNE-Naive and RNE-Hier, each with and without active
// fine-tuning, tracking validation error against samples consumed
// (paper Figure 11).
func Fig11(w io.Writer, cfg Config) error {
	g, err := ablationGraph(cfg)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Model\tsamples\trel.err(%)")
	for _, hier := range []bool{false, true} {
		opt := ablationOptions(cfg)
		opt.Hierarchical = hier
		if !hier {
			opt.VertexStrategy = core.VertexRandom
		}
		tr, err := core.NewTrainer(g, opt)
		if err != nil {
			return err
		}
		name := "RNE-Naive"
		if hier {
			name = "RNE-Hier"
			tr.RunHierPhase()
			fmt.Fprintf(tw, "%s\t%d\t%.2f\n", name, tr.SamplesUsed(), tr.Validate().MeanRel*100)
		}
		chunks := 5
		chunk := int(opt.VertexSampleRatio * float64(g.NumVertices()) / float64(chunks))
		lrBase := opt.LR / float64(opt.Dim)
		for c := 0; c < chunks; c++ {
			samples := tr.GenVertexSamples(chunk)
			for e := 0; e < opt.Epochs; e++ {
				tr.VertexStep(samples, lrBase/(1+0.5*float64(e)))
			}
			fmt.Fprintf(tw, "%s\t%d\t%.2f\n", name, tr.SamplesUsed(), tr.Validate().MeanRel*100)
		}
		// Active fine-tuning continuation (the red dashed segments).
		for k := 0; k < opt.FineTuneRounds; k++ {
			tr.RunFineTuneRound(k)
		}
		fmt.Fprintf(tw, "%s-AFT\t%d\t%.2f\n", name, tr.SamplesUsed(), tr.Validate().MeanRel*100)
	}
	return tw.Flush()
}

// Fig12 compares landmark-based vertex-phase sampling at |U| = 10^1..4
// against uniform random pairs, tracking error per epoch (paper
// Figure 12). All models share the hierarchy-phase initialization seed.
func Fig12(w io.Writer, cfg Config) error {
	g, err := ablationGraph(cfg)
	if err != nil {
		return err
	}
	type variant struct {
		name      string
		landmarks int
		random    bool
	}
	variants := []variant{
		{"LM10^1", 10, false},
		{"LM10^2", 100, false},
		{"LM10^3", 1000, false},
		{"LM10^4", 10000, false},
		{"Random", 0, true},
	}
	epochs := 8
	if cfg.Quick {
		epochs = 5
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Model\t")
	for e := 1; e <= epochs; e++ {
		fmt.Fprintf(tw, "ep%d\t", e)
	}
	fmt.Fprintln(tw)
	for _, v := range variants {
		opt := ablationOptions(cfg)
		opt.ActiveFineTune = false
		if v.random {
			opt.VertexStrategy = core.VertexRandom
		} else {
			opt.Landmarks = v.landmarks
			if opt.Landmarks > g.NumVertices() {
				opt.Landmarks = g.NumVertices()
			}
		}
		tr, err := core.NewTrainer(g, opt)
		if err != nil {
			return err
		}
		tr.RunHierPhase()
		n := int(opt.VertexSampleRatio * float64(g.NumVertices()))
		samples := tr.GenVertexSamples(n)
		lrBase := opt.LR / float64(opt.Dim)
		fmt.Fprintf(tw, "%s\t", v.name)
		for e := 0; e < epochs; e++ {
			tr.VertexStep(samples, lrBase/(1+0.5*float64(e)))
			fmt.Fprintf(tw, "%.2f\t", tr.Validate().MeanRel*100)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Fig14 compares RNE against the DeepWalk-Regression baselines and the
// coordinate heuristics across training-set sizes (referenced as
// Figure 14 in Section VII-B1).
func Fig14(w io.Writer, cfg Config) error {
	g, err := ablationGraph(cfg)
	if err != nil {
		return err
	}
	val := randomPairs(g, cfg.Queries/2+500, cfg.Seed+17)
	ratios := []float64{0.5, 1, 2, 5, 10}
	if cfg.Quick {
		ratios = []float64{0.5, 2, 5}
	}
	variants := []int{1000, 10000, 100000}
	if cfg.Quick {
		variants = []int{1000, 10000}
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Model\t|S|/|V|\trel.err(%)")
	euclid := metrics.Evaluate(metrics.EstimatorFunc(g.Euclidean), val)
	manhattan := metrics.Evaluate(metrics.EstimatorFunc(g.Manhattan), val)
	fmt.Fprintf(tw, "Euclidean\t-\t%.2f\n", euclid.MeanRel*100)
	fmt.Fprintf(tw, "Manhattan\t-\t%.2f\n", manhattan.MeanRel*100)

	lab := sample.NewLabeler(g)
	rng := rand.New(rand.NewSource(cfg.Seed + 19))
	// DeepWalk depends only on the graph and seed; train it once and
	// share it across every variant and training-set size.
	embedDim := 64
	if cfg.Quick {
		embedDim = 32
	}
	dwCfg := deepwalk.DefaultConfig(cfg.Seed)
	dwCfg.Dim = embedDim
	dwEmb, err := deepwalk.Train(g, dwCfg)
	if err != nil {
		return err
	}
	for _, r := range ratios {
		n := int(r * float64(g.NumVertices()))
		trainSet := sample.RandomPairs(g, n, 32, lab, rng)

		for _, params := range variants {
			drCfg, err := dr.Variant(params, cfg.Seed)
			if err != nil {
				return err
			}
			drCfg.EmbedDim = embedDim
			m, err := dr.TrainWithEmbedding(g, dwEmb, trainSet, drCfg)
			if err != nil {
				return err
			}
			st := metrics.Evaluate(metrics.EstimatorFunc(m.Estimate), val)
			fmt.Fprintf(tw, "DR-%dK\t%.1f\t%.2f\n", params/1000, r, st.MeanRel*100)
		}

		// RNE trained on the same budget: hierarchy phase plus vertex
		// steps over exactly the given sample set.
		opt := ablationOptions(cfg)
		opt.ActiveFineTune = false
		tr, err := core.NewTrainer(g, opt)
		if err != nil {
			return err
		}
		tr.RunHierPhase()
		lrBase := opt.LR / float64(opt.Dim)
		for e := 0; e < opt.Epochs; e++ {
			tr.VertexStep(trainSet, lrBase/(1+0.5*float64(e)))
		}
		fmt.Fprintf(tw, "RNE\t%.1f\t%.2f\n", r, tr.Validate().MeanRel*100)
	}
	return tw.Flush()
}

// Fig16 evaluates range queries over a POI set: F1 against the exact
// answer and mean query time, across distance thresholds τ (paper
// Figure 16; kNN results are analogous, as the paper notes).
func Fig16(w io.Writer, cfg Config) error {
	g, err := ablationGraph(cfg)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 23))
	var targets []int32
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if rng.Intn(10) == 0 {
			targets = append(targets, v)
		}
	}

	// RNE tree index.
	opt := ablationOptions(cfg)
	model, _, err := core.Build(g, opt)
	if err != nil {
		return err
	}
	rneIdx, err := index.Build(model, targets)
	if err != nil {
		return err
	}

	// G-tree (V-tree stand-in, exact).
	h, err := partition.BuildHierarchy(g, partition.DefaultHierConfig(cfg.Seed))
	if err != nil {
		return err
	}
	gt, err := gtree.Build(g, h, targets)
	if err != nil {
		return err
	}

	// Distance oracle: linear scan over targets with oracle estimates.
	orc, err := oracle.Build(g, 0.5)
	if err != nil {
		return err
	}
	oracleRange := func(s int32, tau float64) []int32 {
		var out []int32
		for _, v := range targets {
			if orc.Estimate(s, v) <= tau {
				out = append(out, v)
			}
		}
		return out
	}

	// Coordinate KD-trees.
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

	type rangeMethod struct {
		name string
		run  func(s int32, tau float64) []int32
	}
	methods := []rangeMethod{
		{"RNE", func(s int32, tau float64) []int32 { return rneIdx.Range(s, tau) }},
		{"V-tree(G-tree)", func(s int32, tau float64) []int32 { return gt.Range(s, tau) }},
		{"DistanceOracle", oracleRange},
		{"Euclidean", func(s int32, tau float64) []int32 { return euclidTree.Range(g.X(s), g.Y(s), tau) }},
		{"Manhattan", func(s int32, tau float64) []int32 { return manhTree.Range(g.X(s), g.Y(s), tau) }},
	}

	_, diam := distanceGroups(g, 2, 1, cfg.Seed) // reuse the diameter sweep
	taus := []float64{0.05, 0.10, 0.15, 0.20, 0.25}
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
	for _, tf := range taus {
		fmt.Fprintf(tw, "F1@%.0f%%\ttime\t", tf*100)
	}
	fmt.Fprintln(tw)
	var scratch []float64
	for _, m := range methods {
		fmt.Fprintf(tw, "%s\t", m.name)
		for _, tf := range taus {
			tau := tf * diam
			var f1Sum float64
			start := time.Now()
			for _, s := range sources {
				_ = m.run(s, tau)
			}
			elapsed := time.Since(start)
			for _, s := range sources {
				got := m.run(s, tau)
				var want []int32
				want, scratch = exactRange(ws, targets, s, tau, scratch)
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
