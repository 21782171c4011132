package dr

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sample"
)

func testData(t *testing.T) (*graph.Graph, []sample.Sample, []metrics.Pair) {
	t.Helper()
	g, err := gen.Grid(12, 12, gen.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	lab := sample.NewLabeler(g)
	rng := rand.New(rand.NewSource(2))
	train := sample.RandomPairs(g, 20000, 16, lab, rng)
	valRaw := sample.RandomPairs(g, 500, 16, lab, rng)
	val := make([]metrics.Pair, len(valRaw))
	for i, s := range valRaw {
		val[i] = metrics.Pair{S: s.S, T: s.T, Dist: s.Dist}
	}
	return g, train, val
}

func TestVariants(t *testing.T) {
	for _, p := range []int{1000, 10000, 100000} {
		cfg, err := Variant(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Hidden < 1 {
			t.Fatalf("variant %d has no hidden units", p)
		}
	}
	if _, err := Variant(12345, 1); err == nil {
		t.Fatal("unsupported variant accepted")
	}
}

func TestTrainBeatsCoordinateBaselines(t *testing.T) {
	g, train, val := testData(t)
	cfg, err := Variant(10000, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.EmbedDim = 32
	cfg.Epochs = 6
	m, err := Train(g, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drErr := metrics.Evaluate(metrics.EstimatorFunc(m.Estimate), val).MeanRel
	euclid := metrics.Evaluate(metrics.EstimatorFunc(g.Euclidean), val).MeanRel
	manhattan := metrics.Evaluate(metrics.EstimatorFunc(g.Manhattan), val).MeanRel
	// The paper's Figure 14 point: DR outperforms raw coordinate
	// heuristics once trained.
	if drErr >= euclid || drErr >= manhattan {
		t.Fatalf("DR %.3f not better than Euclidean %.3f / Manhattan %.3f", drErr, euclid, manhattan)
	}
	if drErr > 0.25 {
		t.Fatalf("DR error %.3f implausibly high", drErr)
	}
	if m.NumParams() < 5000 {
		t.Fatalf("DR-10K has %d params", m.NumParams())
	}
}

func TestEstimateProperties(t *testing.T) {
	g, train, _ := testData(t)
	cfg, err := Variant(1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.EmbedDim = 8
	cfg.Epochs = 1
	m, err := Train(g, train[:1000], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Estimate(3, 3); d != 0 {
		t.Fatalf("self estimate %v", d)
	}
	for i := 0; i < 50; i++ {
		if d := m.Estimate(int32(i), int32(i*2+1)); d < 0 {
			t.Fatalf("negative estimate %v", d)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	g, train, _ := testData(t)
	if _, err := Train(g, nil, Config{Hidden: 5}); err == nil {
		t.Error("empty samples accepted")
	}
	if _, err := Train(g, train, Config{Hidden: 0}); err == nil {
		t.Error("Hidden=0 accepted")
	}
	zeroDist := []sample.Sample{{S: 0, T: 1, Dist: 0}}
	if _, err := Train(g, zeroDist, Config{Hidden: 5}); err == nil {
		t.Error("all-zero distances accepted")
	}
}
