package index

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/vecmath"
)

func buildModel(t testing.TB) *core.Model {
	t.Helper()
	return buildModelP(t, 1)
}

// buildModelP is the fixture model trained under L_p.
func buildModelP(t testing.TB, p float64) *core.Model {
	t.Helper()
	g, err := gen.Grid(14, 14, gen.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(5)
	opt.Dim = 16
	opt.Epochs = 4
	opt.VertexSampleRatio = 30
	opt.FineTuneRounds = 2
	opt.ValidationPairs = 200
	opt.GridK = 6
	opt.P = p
	m, _, err := core.Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// bruteRange/bruteKNN are reference implementations over the model's
// own estimates: the index must match them exactly.
func bruteRange(m *core.Model, targets []int32, src int32, tau float64) []int32 {
	var out []int32
	for _, v := range targets {
		if m.Estimate(src, v) <= tau {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func bruteKNN(m *core.Model, targets []int32, src int32, k int) []float64 {
	ds := make([]float64, len(targets))
	for i, v := range targets {
		ds[i] = m.Estimate(src, v)
	}
	sort.Float64s(ds)
	if k > len(ds) {
		k = len(ds)
	}
	return ds[:k]
}

func TestRangeMatchesBruteForce(t *testing.T) {
	m := buildModel(t)
	rng := rand.New(rand.NewSource(2))
	n := m.NumVertices()
	targets := make([]int32, 0, n/3)
	for v := int32(0); v < int32(n); v++ {
		if rng.Intn(3) == 0 {
			targets = append(targets, v)
		}
	}
	tree, err := Build(m, targets)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() != len(targets) {
		t.Fatalf("Size = %d, want %d", tree.Size(), len(targets))
	}
	for trial := 0; trial < 30; trial++ {
		src := int32(rng.Intn(n))
		tau := m.Scale() * (0.05 + rng.Float64()*0.4)
		got := tree.Range(src, tau)
		want := bruteRange(m, targets, src, tau)
		if len(got) != len(want) {
			t.Fatalf("src %d tau %v: got %d results, want %d", src, tau, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("src %d: result %d is %d, want %d", src, i, got[i], want[i])
			}
		}
	}
}

func TestRangeEdgeCases(t *testing.T) {
	m := buildModel(t)
	targets := []int32{1, 5, 9}
	tree, err := Build(m, targets)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Range(0, -1); got != nil {
		t.Fatalf("negative tau returned %v", got)
	}
	// Huge tau returns everything.
	if got := tree.Range(0, 1e18); len(got) != len(targets) {
		t.Fatalf("huge tau returned %d of %d", len(got), len(targets))
	}
	// Zero tau from an indexed vertex returns at least itself.
	got := tree.Range(5, 0)
	found := false
	for _, v := range got {
		if v == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("range(5, 0) = %v missing the query vertex", got)
	}
}

func TestKNNMatchesBruteForceDistances(t *testing.T) {
	m := buildModel(t)
	rng := rand.New(rand.NewSource(3))
	n := m.NumVertices()
	targets := make([]int32, 0, n/4)
	for v := int32(0); v < int32(n); v++ {
		if rng.Intn(4) == 0 {
			targets = append(targets, v)
		}
	}
	tree, err := Build(m, targets)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		src := int32(rng.Intn(n))
		k := 1 + rng.Intn(10)
		got := tree.KNN(src, k)
		wantDists := bruteKNN(m, targets, src, k)
		if len(got) != len(wantDists) {
			t.Fatalf("src %d k %d: got %d results, want %d", src, k, len(got), len(wantDists))
		}
		// Distances must match the true k smallest and be non-decreasing.
		prev := -1.0
		for i, v := range got {
			d := m.Estimate(src, v)
			if d < prev-1e-9 {
				t.Fatalf("kNN results not sorted: %v then %v", prev, d)
			}
			prev = d
			if diff := d - wantDists[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("src %d k %d pos %d: dist %v, want %v", src, k, i, d, wantDists[i])
			}
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	m := buildModel(t)
	targets := []int32{2, 4, 6, 8}
	tree, err := Build(m, targets)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.KNN(0, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	if got := tree.KNN(0, 100); len(got) != len(targets) {
		t.Fatalf("k>|targets| returned %d of %d", len(got), len(targets))
	}
	// k=1 from an indexed vertex must return that vertex (distance 0).
	if got := tree.KNN(4, 1); len(got) != 1 || got[0] != 4 {
		t.Fatalf("KNN(4,1) = %v, want [4]", got)
	}
}

func TestBuildValidation(t *testing.T) {
	m := buildModel(t)
	if _, err := Build(m, nil); err == nil {
		t.Error("empty targets accepted")
	}
	if _, err := Build(m, []int32{-1}); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := Build(m, []int32{int32(m.NumVertices())}); err == nil {
		t.Error("out-of-range target accepted")
	}
	// Below p = 1 L_p is not a metric: the radius prune would be unsound
	// (Figure 9's L0.5 point).
	if _, err := Build(buildModelP(t, 0.5), []int32{0, 1, 2}); err == nil || !strings.Contains(err.Error(), "p = 0.5") {
		t.Errorf("L0.5 model: error %v, want a refusal naming p = 0.5", err)
	}
	// A loaded (hierarchy-less) model is rejected.
	naiveOpt := core.DefaultOptions(1)
	naiveOpt.Hierarchical = false
	naiveOpt.Dim = 8
	naiveOpt.Epochs = 1
	naiveOpt.VertexSampleRatio = 1
	naiveOpt.FineTuneRounds = 1
	naiveOpt.ActiveFineTune = false
	naiveOpt.ValidationPairs = 50
	g, err := gen.Grid(8, 8, gen.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	nm, _, err := core.Build(g, naiveOpt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(nm, []int32{0}); err == nil {
		t.Error("hierarchy-less model accepted")
	}
}

func TestRadiiCoverIndexedVertices(t *testing.T) {
	// Invariant behind all pruning: every indexed vertex under a slot is
	// within the slot's radius of the slot's vector.
	m := buildModel(t)
	targets := make([]int32, m.NumVertices())
	for i := range targets {
		targets[i] = int32(i)
	}
	tree, err := Build(m, targets)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(slot int32) []int32
	walk = func(slot int32) []int32 {
		var under []int32
		under = append(under, tree.verts[slot]...)
		for _, c := range tree.children[slot] {
			under = append(under, walk(c)...)
		}
		for _, v := range under {
			d := vecmath.Lp(tree.vectors[slot], m.Vector(v), m.P()) * m.Scale()
			if d > tree.radius[slot]+1e-9 {
				t.Fatalf("slot %d radius %v does not cover vertex %d at %v", slot, tree.radius[slot], v, d)
			}
		}
		return under
	}
	if got := len(walk(tree.root)); got != len(targets) {
		t.Fatalf("tree covers %d of %d targets", got, len(targets))
	}
}

func TestTreeSerializationRoundTrip(t *testing.T) {
	m := buildModel(t)
	rng := rand.New(rand.NewSource(8))
	var targets []int32
	for v := int32(0); v < int32(m.NumVertices()); v++ {
		if rng.Intn(3) == 0 {
			targets = append(targets, v)
		}
	}
	tree, err := Build(m, targets)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Reload against a save/load round-tripped model (the serving path).
	var mbuf bytes.Buffer
	if err := m.Save(&mbuf); err != nil {
		t.Fatal(err)
	}
	m2, err := core.Load(&mbuf)
	if err != nil {
		t.Fatal(err)
	}
	tree2, err := Load(&buf, m2)
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Size() != tree.Size() {
		t.Fatalf("size changed: %d vs %d", tree2.Size(), tree.Size())
	}
	for trial := 0; trial < 20; trial++ {
		src := int32(rng.Intn(m.NumVertices()))
		k := 1 + rng.Intn(8)
		a := tree.KNN(src, k)
		b := tree2.KNN(src, k)
		if len(a) != len(b) {
			t.Fatalf("knn size differs after reload")
		}
		for i := range a {
			if m.Estimate(src, a[i]) != m2.Estimate(src, b[i]) {
				t.Fatalf("knn distances differ after reload")
			}
		}
		tau := m.Scale() * (0.1 + rng.Float64()*0.3)
		ra := tree.Range(src, tau)
		rb := tree2.Range(src, tau)
		if len(ra) != len(rb) {
			t.Fatalf("range size differs after reload: %d vs %d", len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatal("range results differ after reload")
			}
		}
	}
}

func TestTreeLoadRejectsMismatches(t *testing.T) {
	m := buildModel(t)
	tree, err := Build(m, []int32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Garbage rejected.
	if _, err := Load(bytes.NewReader([]byte("nope")), m); err == nil {
		t.Fatal("garbage accepted")
	}
	// A model with different shape rejected.
	g2, err := gen.Grid(8, 8, gen.DefaultConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(9)
	opt.Dim = 8
	opt.Epochs = 1
	opt.VertexSampleRatio = 2
	opt.FineTuneRounds = 1
	opt.HierSampleCap = 1000
	opt.ValidationPairs = 50
	m2, _, err := core.Build(g2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), m2); err == nil {
		t.Fatal("foreign model accepted")
	}
}
