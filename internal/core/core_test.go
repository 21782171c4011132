package core

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sample"
)

// fastOptions returns a small, quick configuration for tests.
func fastOptions(seed int64) Options {
	opt := DefaultOptions(seed)
	opt.Dim = 32
	opt.Epochs = 6
	opt.VertexSampleRatio = 60
	opt.FineTuneRounds = 4
	opt.HierSampleCap = 15000
	opt.ValidationPairs = 600
	opt.GridK = 8
	return opt
}

func testGraph(t *testing.T, rows int) *graph.Graph {
	t.Helper()
	g, err := gen.Grid(rows, rows, gen.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildConvergesHierarchical(t *testing.T) {
	g := testGraph(t, 16)
	m, st, err := Build(g, fastOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	if st.Validation.MeanRel > 0.06 {
		t.Fatalf("hier RNE meanRel %.2f%% too high: %v", st.Validation.MeanRel*100, st.Validation)
	}
	if m.NumVertices() != g.NumVertices() || m.Dim() != 32 {
		t.Fatalf("model shape %dx%d", m.NumVertices(), m.Dim())
	}
	if m.Hier() == nil || m.Hierarchy() == nil {
		t.Fatal("hierarchical build should retain the hierarchy")
	}
	if st.SamplesUsed == 0 || st.Total <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestBuildNaiveMode(t *testing.T) {
	g := testGraph(t, 12)
	opt := fastOptions(1)
	opt.Hierarchical = false
	opt.ActiveFineTune = false
	opt.VertexStrategy = VertexRandom
	m, st, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Naive flat training converges too, just worse/slower; only sanity
	// bound here (the Fig 11 bench quantifies the gap).
	if st.Validation.MeanRel > 0.30 {
		t.Fatalf("naive RNE meanRel %.2f%%: %v", st.Validation.MeanRel*100, st.Validation)
	}
	if m.Hier() != nil {
		t.Fatal("naive build should have no hierarchy")
	}
}

func TestHierBeatsNaiveAtEqualBudget(t *testing.T) {
	// The Figure 11 headline: at the same sample budget the hierarchical
	// model reaches a lower validation error than the flat one.
	g := testGraph(t, 14)
	optH := fastOptions(7)
	optN := optH
	optN.Hierarchical = false
	optN.VertexStrategy = VertexRandom
	optN.ActiveFineTune = optH.ActiveFineTune

	_, stH, err := Build(g, optH)
	if err != nil {
		t.Fatal(err)
	}
	_, stN, err := Build(g, optN)
	if err != nil {
		t.Fatal(err)
	}
	if stH.Validation.MeanRel >= stN.Validation.MeanRel {
		t.Fatalf("hier %.3f%% not better than naive %.3f%%",
			stH.Validation.MeanRel*100, stN.Validation.MeanRel*100)
	}
}

func TestEstimateSymmetricAndReflexive(t *testing.T) {
	g := testGraph(t, 10)
	m, _, err := Build(g, fastOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 20; v++ {
		if d := m.Estimate(v, v); d != 0 {
			t.Fatalf("Estimate(v,v) = %v", d)
		}
	}
	for i := 0; i < 50; i++ {
		s, u := int32(i), int32((i*37+11)%g.NumVertices())
		if a, b := m.Estimate(s, u), m.Estimate(u, s); a != b {
			t.Fatalf("asymmetric estimate %v vs %v", a, b)
		}
	}
}

func TestEstimateTriangleInequality(t *testing.T) {
	// L1 in the embedding space guarantees the triangle inequality on
	// estimates (a property the Section VI index exploits).
	g := testGraph(t, 10)
	m, _, err := Build(g, fastOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	n := int32(g.NumVertices())
	for i := int32(0); i < 40; i++ {
		a := i % n
		b := (i*31 + 7) % n
		c := (i*57 + 13) % n
		if m.Estimate(a, b) > m.Estimate(a, c)+m.Estimate(c, b)+1e-9 {
			t.Fatalf("triangle inequality violated at (%d,%d,%d)", a, b, c)
		}
	}
}

func TestEstimateL1MatchesEstimate(t *testing.T) {
	g := testGraph(t, 10)
	m, _, err := Build(g, fastOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		s, u := int32(i), int32((i*13+5)%g.NumVertices())
		if a, b := m.Estimate(s, u), m.EstimateL1(s, u); math.Abs(a-b) > 1e-9 {
			t.Fatalf("EstimateL1 %v != Estimate %v", b, a)
		}
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	g := testGraph(t, 10)
	m, _, err := Build(g, fastOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Dim() != m.Dim() || m2.NumVertices() != m.NumVertices() ||
		m2.P() != m.P() || m2.Scale() != m.Scale() {
		t.Fatal("metadata changed on round trip")
	}
	for i := 0; i < 50; i++ {
		s, u := int32(i%m.NumVertices()), int32((i*7+3)%m.NumVertices())
		if a, b := m.Estimate(s, u), m2.Estimate(s, u); a != b {
			t.Fatalf("estimates differ after round trip: %v vs %v", a, b)
		}
	}
	if m2.Hier() != nil {
		t.Fatal("loaded model should not claim a hierarchy")
	}
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage model accepted")
	}
}

func TestModelIndexBytes(t *testing.T) {
	g := testGraph(t, 10)
	m, _, err := Build(g, fastOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(m.NumVertices())*int64(m.Dim())*8 + 32
	if m.IndexBytes() != want {
		t.Fatalf("IndexBytes = %d, want %d", m.IndexBytes(), want)
	}
}

func TestOptionsValidation(t *testing.T) {
	g := testGraph(t, 8)
	bad := []Options{
		{Dim: -1},
		{P: -2},
		{LR: -0.1},
		{Epochs: -3},
		{VertexStrategy: "bogus"},
	}
	for i, opt := range bad {
		if _, err := NewTrainer(g, opt); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
	// Tiny graph rejected.
	tiny := graph.NewBuilder(1, 0)
	tiny.AddVertex(0, 0)
	if _, err := NewTrainer(tiny.Build(), DefaultOptions(1)); err == nil {
		t.Error("1-vertex graph accepted")
	}
}

// The same seed must give the same model bytes, whatever the number of
// labeling workers: labels are drawn first and each source's group is
// labeled independently of which worker runs it.
func TestBuildDeterministic(t *testing.T) {
	g := testGraph(t, 10)
	opt := fastOptions(11)
	build := func(procs int) ([]byte, BuildStats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m, st, err := Build(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), st
	}
	b1, st1 := build(1)
	for _, procs := range []int{1, 4} {
		b, st := build(procs)
		if !bytes.Equal(b, b1) {
			t.Fatalf("GOMAXPROCS(%d) build wrote different model bytes than GOMAXPROCS(1)", procs)
		}
		if st.SamplesUsed != st1.SamplesUsed {
			t.Fatalf("GOMAXPROCS(%d) build used %d samples, GOMAXPROCS(1) %d", procs, st.SamplesUsed, st1.SamplesUsed)
		}
	}
}

func TestTrainerPhasesImproveValidation(t *testing.T) {
	g := testGraph(t, 14)
	tr, err := NewTrainer(g, fastOptions(13))
	if err != nil {
		t.Fatal(err)
	}
	e0 := tr.Validate().MeanRel
	tr.RunHierPhase()
	e1 := tr.Validate().MeanRel
	tr.RunVertexPhase()
	e2 := tr.Validate().MeanRel
	if !(e1 < e0) {
		t.Fatalf("hier phase did not improve: %.3f -> %.3f", e0, e1)
	}
	if !(e2 < e1) {
		t.Fatalf("vertex phase did not improve: %.3f -> %.3f", e1, e2)
	}
	for k := 0; k < 3; k++ {
		tr.RunFineTuneRound(k)
	}
	e3 := tr.Validate().MeanRel
	if e3 > e2*1.25 {
		t.Fatalf("fine-tune regressed badly: %.4f -> %.4f", e2, e3)
	}
}

func TestFineTuneModesRun(t *testing.T) {
	g := testGraph(t, 10)
	for _, mode := range []sample.Mode{sample.Local, sample.Global} {
		opt := fastOptions(17)
		opt.FineTuneMode = mode
		opt.FineTuneRounds = 2
		if _, _, err := Build(g, opt); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

func TestValidationAgainstFreshPairs(t *testing.T) {
	// The held-out error must generalize: error on a fresh random pair
	// set should be in the same ballpark as the trainer's validation.
	g := testGraph(t, 14)
	tr, err := NewTrainer(g, fastOptions(19))
	if err != nil {
		t.Fatal(err)
	}
	tr.RunHierPhase()
	tr.RunVertexPhase()
	valErr := tr.Validate().MeanRel

	m := tr.Finalize()
	fresh := sample.RandomPairs(g, 500, 8, sample.NewLabeler(g), newRng(99))
	pairs := make([]metrics.Pair, len(fresh))
	for i, s := range fresh {
		pairs[i] = metrics.Pair{S: s.S, T: s.T, Dist: s.Dist}
	}
	freshErr := metrics.Evaluate(metrics.EstimatorFunc(m.Estimate), pairs).MeanRel
	if freshErr > 3*valErr+0.02 {
		t.Fatalf("fresh error %.3f%% far above validation %.3f%%", freshErr*100, valErr*100)
	}
}

func TestAdamOptimizerConverges(t *testing.T) {
	g := testGraph(t, 14)
	sgdOpt := fastOptions(31)
	adamOpt := sgdOpt
	adamOpt.Optimizer = "adam"

	_, stSGD, err := Build(g, sgdOpt)
	if err != nil {
		t.Fatal(err)
	}
	_, stAdam, err := Build(g, adamOpt)
	if err != nil {
		t.Fatal(err)
	}
	// Adam must converge to a comparable error (within 2x of SGD's) —
	// the ablation-optimizer experiment quantifies which wins where.
	if stAdam.Validation.MeanRel > 2*stSGD.Validation.MeanRel+0.01 {
		t.Fatalf("adam %.2f%% far above sgd %.2f%%",
			stAdam.Validation.MeanRel*100, stSGD.Validation.MeanRel*100)
	}
	t.Logf("sgd %.3f%% vs adam %.3f%%", stSGD.Validation.MeanRel*100, stAdam.Validation.MeanRel*100)
}

func TestOptimizerValidation(t *testing.T) {
	g := testGraph(t, 8)
	opt := fastOptions(32)
	opt.Optimizer = "rmsprop"
	if _, err := NewTrainer(g, opt); err == nil {
		t.Fatal("unknown optimizer accepted")
	}
}
