package train

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/emb"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/sample"
	"repro/internal/sssp"
	"repro/internal/vecmath"
)

// TestFlatStepReducesLoss verifies that SGD decreases the training loss
// on a tiny fixed problem.
func TestFlatStepReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := emb.NewMatrix(4, 8)
	m.RandomInit(rng, 0.01)
	samples := []sample.Sample{
		{S: 0, T: 1, Dist: 1},
		{S: 1, T: 2, Dist: 2},
		{S: 0, T: 2, Dist: 3},
		{S: 2, T: 3, Dist: 1},
		{S: 0, T: 3, Dist: 4},
	}
	loss := func() float64 {
		var s float64
		for _, smp := range samples {
			d := vecmath.L1(m.Row(smp.S), m.Row(smp.T))
			e := d - smp.Dist
			s += e * e
		}
		return s
	}
	before := loss()
	for i := 0; i < 400; i++ {
		FlatStep(m, samples, 0.01/8, 1, 1)
	}
	after := loss()
	if after >= before/10 {
		t.Fatalf("loss %v -> %v: not reduced enough", before, after)
	}
	if after > 1e-3 {
		t.Fatalf("final loss %v too high for a consistent metric instance", after)
	}
}

// TestFlatStepScale checks that scale divides targets: training against
// scale s with distances k*s behaves like distances k at scale 1.
func TestFlatStepScale(t *testing.T) {
	mkSamples := func(mult float64) []sample.Sample {
		return []sample.Sample{{S: 0, T: 1, Dist: 1 * mult}, {S: 1, T: 2, Dist: 2 * mult}}
	}
	rng := rand.New(rand.NewSource(2))
	m1 := emb.NewMatrix(3, 4)
	m1.RandomInit(rng, 0.01)
	m2 := m1.Clone()
	for i := 0; i < 50; i++ {
		FlatStep(m1, mkSamples(1), 0.01, 1, 1)
		FlatStep(m2, mkSamples(100), 0.01, 1, 100)
	}
	for i := range m1.Data() {
		if math.Abs(m1.Data()[i]-m2.Data()[i]) > 1e-12 {
			t.Fatal("scale is not equivalent to dividing targets")
		}
	}
}

func TestHierStepTrainsHierarchy(t *testing.T) {
	g, err := gen.Grid(10, 10, gen.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	h, err := partition.BuildHierarchy(g, partition.DefaultHierConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	hh := emb.NewHier(h, 16)
	rng := rand.New(rand.NewSource(4))
	hh.Local.RandomInit(rng, 0.001)

	lab := sample.NewLabeler(g)
	samples := sample.RandomPairs(g, 2000, 16, lab, rng)
	scale := 3000.0

	loss := func() float64 {
		vs := make([]float64, 16)
		vt := make([]float64, 16)
		var s float64
		for _, smp := range samples {
			hh.GlobalInto(vs, smp.S)
			hh.GlobalInto(vt, smp.T)
			e := vecmath.L1(vs, vt) - smp.Dist/scale
			s += e * e
		}
		return s / float64(len(samples))
	}
	before := loss()
	rates := LevelRates(0.25/16, h.MaxDepth(), h.MaxDepth())
	for e := 0; e < 10; e++ {
		HierStep(hh, rates, samples, 1, scale)
	}
	after := loss()
	if after >= before/2 {
		t.Fatalf("hier loss %v -> %v: not reduced", before, after)
	}
}

// TestHierStepFrozenLevels ensures zero-rate levels never change.
func TestHierStepFrozenLevels(t *testing.T) {
	g, err := gen.Grid(10, 10, gen.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	h, err := partition.BuildHierarchy(g, partition.DefaultHierConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	hh := emb.NewHier(h, 8)
	rng := rand.New(rand.NewSource(6))
	hh.Local.RandomInit(rng, 0.01)
	snapshot := hh.Local.Clone()

	lab := sample.NewLabeler(g)
	samples := sample.RandomPairs(g, 500, 8, lab, rng)
	rates := VertexOnlyRates(0.01, h.MaxDepth())
	HierStep(hh, rates, samples, 1, 1000)

	changedVertexRows := 0
	for node := int32(0); node < int32(h.NumNodes()); node++ {
		changed := false
		a := hh.Local.Row(node)
		b := snapshot.Row(node)
		for i := range a {
			if a[i] != b[i] {
				changed = true
				break
			}
		}
		if changed {
			if !h.IsVertexNode(node) {
				t.Fatalf("frozen non-vertex node %d changed", node)
			}
			changedVertexRows++
		}
	}
	if changedVertexRows == 0 {
		t.Fatal("vertex level did not train")
	}
}

// TestHierStepSharedAncestorSkip: training a pair inside one leaf must
// not touch nodes outside that leaf's subtree.
func TestHierStepSharedAncestorSkip(t *testing.T) {
	g, err := gen.Grid(12, 12, gen.DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	h, err := partition.BuildHierarchy(g, partition.DefaultHierConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	hh := emb.NewHier(h, 4)
	rng := rand.New(rand.NewSource(8))
	hh.Local.RandomInit(rng, 0.01)
	snapshot := hh.Local.Clone()

	// Find two vertices sharing their leaf subgraph.
	var a, b int32 = -1, -1
	for node := int32(0); node < int32(h.NumNodes()); node++ {
		if h.IsVertexNode(node) {
			continue
		}
		kids := h.Children(node)
		var vkids []int32
		for _, c := range kids {
			if h.IsVertexNode(c) {
				vkids = append(vkids, h.VertexID(c))
			}
		}
		if len(vkids) >= 2 {
			a, b = vkids[0], vkids[1]
			break
		}
	}
	if a < 0 {
		t.Skip("no leaf with 2+ vertices")
	}
	ws := sssp.NewWorkspace(g)
	d := ws.Distance(a, b)
	rates := make([]float64, h.MaxDepth()+1)
	for l := range rates {
		rates[l] = 0.01
	}
	HierStep(hh, rates, []sample.Sample{{S: a, T: b, Dist: d}}, 1, 1000)

	for node := int32(0); node < int32(h.NumNodes()); node++ {
		ra := hh.Local.Row(node)
		rb := snapshot.Row(node)
		changed := false
		for i := range ra {
			if ra[i] != rb[i] {
				changed = true
				break
			}
		}
		if changed && node != h.VertexNode(a) && node != h.VertexNode(b) {
			t.Fatalf("node %d outside the two vertex nodes changed", node)
		}
	}
}

func TestLevelRates(t *testing.T) {
	rates := LevelRates(1.0, 2, 4)
	if rates[0] != 0 {
		t.Fatalf("root rate = %v, want 0", rates[0])
	}
	want := []float64{0, 0.5, 1.0, 0.5, 1.0 / 3}
	for l := 1; l <= 4; l++ {
		if math.Abs(rates[l]-want[l]) > 1e-12 {
			t.Fatalf("rates[%d] = %v, want %v", l, rates[l], want[l])
		}
	}
}

func TestVertexOnlyRates(t *testing.T) {
	rates := VertexOnlyRates(0.7, 3)
	for l := 0; l < 3; l++ {
		if rates[l] != 0 {
			t.Fatalf("rates[%d] = %v, want 0", l, rates[l])
		}
	}
	if rates[3] != 0.7 {
		t.Fatalf("rates[3] = %v, want 0.7", rates[3])
	}
}

func TestClampErr(t *testing.T) {
	if clampErr(100) != errClamp || clampErr(-100) != -errClamp || clampErr(0.5) != 0.5 {
		t.Fatal("clamp wrong")
	}
}

// TestFlatStepL2 exercises the p=2 training path.
func TestFlatStepL2(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := emb.NewMatrix(3, 4)
	m.RandomInit(rng, 0.05)
	samples := []sample.Sample{{S: 0, T: 1, Dist: 1}, {S: 1, T: 2, Dist: 1}, {S: 0, T: 2, Dist: 2}}
	loss := func() float64 {
		var s float64
		for _, smp := range samples {
			e := vecmath.L2(m.Row(smp.S), m.Row(smp.T)) - smp.Dist
			s += e * e
		}
		return s
	}
	before := loss()
	for i := 0; i < 500; i++ {
		FlatStep(m, samples, 0.02, 2, 1)
	}
	if after := loss(); after >= before/10 {
		t.Fatalf("L2 loss %v -> %v", before, after)
	}
}

func TestAdamFlatConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := emb.NewMatrix(4, 8)
	m.RandomInit(rng, 0.01)
	adam := NewAdam(4, 8)
	samples := []sample.Sample{
		{S: 0, T: 1, Dist: 1},
		{S: 1, T: 2, Dist: 2},
		{S: 0, T: 2, Dist: 3},
		{S: 2, T: 3, Dist: 1},
	}
	loss := func() float64 {
		var s float64
		for _, smp := range samples {
			e := vecmath.L1(m.Row(smp.S), m.Row(smp.T)) - smp.Dist
			s += e * e
		}
		return s
	}
	before := loss()
	for i := 0; i < 600; i++ {
		FlatStepAdam(m, adam, samples, 1e-3, 1, 1)
	}
	if after := loss(); after >= before/10 {
		t.Fatalf("adam loss %v -> %v", before, after)
	}
}

func TestAdamHierRespectsFrozenLevels(t *testing.T) {
	g, err := gen.Grid(9, 9, gen.DefaultConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	h, err := partition.BuildHierarchy(g, partition.DefaultHierConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	hh := emb.NewHier(h, 8)
	rng := rand.New(rand.NewSource(13))
	hh.Local.RandomInit(rng, 0.01)
	snapshot := hh.Local.Clone()
	adam := NewAdam(h.NumNodes(), 8)

	lab := sample.NewLabeler(g)
	samples := sample.RandomPairs(g, 300, 8, lab, rng)
	HierStepAdam(hh, adam, VertexOnlyRates(1e-3, h.MaxDepth()), samples, 1, 1000)

	for node := int32(0); node < int32(h.NumNodes()); node++ {
		if h.IsVertexNode(node) {
			continue
		}
		a := hh.Local.Row(node)
		b := snapshot.Row(node)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("frozen node %d changed under adam", node)
			}
		}
	}
}
