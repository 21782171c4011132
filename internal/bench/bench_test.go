package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/metrics"
)

// tinyConfig keeps every experiment under a few seconds.
func tinyConfig() Config {
	return Config{Scale: 0.18, Queries: 300, Seed: 42, Quick: true}
}

func TestLoadDatasets(t *testing.T) {
	dss, err := loadDatasets(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(dss) != 3 {
		t.Fatalf("got %d datasets", len(dss))
	}
	if dss[0].groups != 5 || dss[1].groups != 7 {
		t.Fatal("distance-scale group counts wrong")
	}
	if !(dss[0].g.NumVertices() < dss[1].g.NumVertices() &&
		dss[1].g.NumVertices() < dss[2].g.NumVertices()) {
		t.Fatal("dataset size ladder broken")
	}
	if _, err := loadDatasets(tinyConfig(), "nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRandomPairsExact(t *testing.T) {
	p, err := gen.PresetByName("bj-mini")
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.BuildScaled(0.15)
	if err != nil {
		t.Fatal(err)
	}
	pairs := randomPairs(g, 200, 1)
	if len(pairs) != 200 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for _, pr := range pairs {
		if pr.S == pr.T || pr.Dist <= 0 {
			t.Fatalf("bad pair %+v", pr)
		}
	}
}

func TestDistanceGroups(t *testing.T) {
	p, err := gen.PresetByName("bj-mini")
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.BuildScaled(0.15)
	if err != nil {
		t.Fatal(err)
	}
	groups, diam := distanceGroups(g, 5, 50, 1)
	if diam <= 0 {
		t.Fatal("diameter not positive")
	}
	width := diam / 5
	for gi, pairs := range groups {
		for _, pr := range pairs {
			lo := width * float64(gi)
			hi := width * float64(gi+1)
			if gi == 4 {
				// The double-sweep diameter is a lower bound; pairs
				// beyond it clamp into the last group.
				hi = diam * 2
			}
			if pr.Dist < lo || pr.Dist > hi {
				t.Fatalf("group %d pair distance %v outside [%v,%v]", gi, pr.Dist, lo, hi)
			}
		}
	}
	// Middle groups are easy to fill.
	if len(groups[1]) == 0 || len(groups[2]) == 0 {
		t.Fatal("common distance groups empty")
	}
}

func TestTimeEstimatorPositive(t *testing.T) {
	pairs := randomPairsForTiming()
	ns := timeEstimator(func(s, t int32) float64 { return float64(s + t) }, pairs)
	if ns <= 0 {
		t.Fatalf("timer returned %v", ns)
	}
	if got := timeEstimator(nil2, nil); got != 0 {
		t.Fatalf("empty pairs should time 0, got %v", got)
	}
}

func nil2(s, t int32) float64 { return 0 }

func randomPairsForTiming() []metrics.Pair {
	out := make([]metrics.Pair, 256)
	for i := range out {
		out[i] = metrics.Pair{S: int32(i), T: int32(i + 1), Dist: 1}
	}
	return out
}

// Experiment smoke tests: every table/figure function must run to
// completion and produce non-empty output at tiny scale.
func TestExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds-long each")
	}
	cfg := tinyConfig()
	exps := map[string]func(io.Writer, Config) error{
		"table2":             Table2,
		"fig9":               Fig9,
		"fig11":              Fig11,
		"fig12":              Fig12,
		"fig15":              Fig15,
		"fig16-knn":          Fig16KNN,
		"ablation-optimizer": AblationOptimizer,
		"suite":              Suite,
		"ablation-hybrid":    AblationHybrid,
		"ablation-topology":  AblationTopology,
	}
	for name, f := range exps {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := f(&buf, cfg); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("no output")
			}
		})
	}
}

// TestTable3Shape checks the headline orderings on a tiny instance: the
// exact methods report zero error and RNE reports a low one.
func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full comparator suite")
	}
	var buf bytes.Buffer
	if err := Table3(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, needle := range []string{"H2H", "CH", "ACH", "LT", "RNE", "DistanceOracle", "0 (exact)"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("Table3 output missing %q:\n%s", needle, out)
		}
	}
}
