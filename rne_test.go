package rne

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sssp"
)

func buildTestModel(t *testing.T) (*Graph, *Model) {
	t.Helper()
	g, err := Preset("bj-mini")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(3)
	opt.Dim = 32
	opt.Epochs = 4
	opt.VertexSampleRatio = 25
	opt.FineTuneRounds = 2
	opt.HierSampleCap = 10000
	opt.ValidationPairs = 300
	m, stats, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Validation.MeanRel > 0.10 {
		t.Fatalf("facade build validation %.2f%% too high", stats.Validation.MeanRel*100)
	}
	return g, m
}

func TestFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full facade build in -short mode")
	}
	g, m := buildTestModel(t)

	// Estimates track exact distances.
	ws := sssp.NewWorkspace(g)
	var sumRel float64
	const trials = 100
	for i := 0; i < trials; i++ {
		s := int32((i * 131) % g.NumVertices())
		u := int32((i*197 + 53) % g.NumVertices())
		exact := ws.Distance(s, u)
		if exact <= 0 {
			continue
		}
		sumRel += math.Abs(m.Estimate(s, u)-exact) / exact
	}
	if mean := sumRel / trials; mean > 0.10 {
		t.Fatalf("facade estimates mean rel err %.3f", mean)
	}

	// Spatial index over a POI subset.
	var pois []int32
	for v := int32(0); v < int32(g.NumVertices()); v += 7 {
		pois = append(pois, v)
	}
	idx, err := NewSpatialIndex(m, pois)
	if err != nil {
		t.Fatal(err)
	}
	knn := idx.KNN(0, 5)
	if len(knn) != 5 {
		t.Fatalf("KNN returned %d results", len(knn))
	}
	rg := idx.Range(0, m.Scale()*0.2)
	for _, v := range rg {
		if m.Estimate(0, v) > m.Scale()*0.2 {
			t.Fatalf("range result %d outside radius", v)
		}
	}

	// Model persistence through the facade.
	dir := t.TempDir()
	path := filepath.Join(dir, "m.rne")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Estimate(1, 2) != m.Estimate(1, 2) {
		t.Fatal("loaded model disagrees")
	}
}

func TestGraphIOFacade(t *testing.T) {
	g, err := Preset("bj-mini")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("graph IO round trip changed sizes")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	g3, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumVertices() != g.NumVertices() {
		t.Fatal("file round trip changed graph")
	}
}

func TestPresetUnknown(t *testing.T) {
	if _, err := Preset("atlantis"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestBuilderFacade(t *testing.T) {
	b := NewGraphBuilder(3, 2)
	b.AddVertex(0, 0)
	b.AddVertex(1, 0)
	b.AddVertex(2, 0)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("builder facade produced %d/%d", g.NumVertices(), g.NumEdges())
	}
}

func TestFacadeExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("full build in -short mode")
	}
	g, m := buildTestModel(t)

	// Bounded estimator: certified intervals contain the exact distance.
	be, err := NewBoundedEstimator(g, m, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	ws := sssp.NewWorkspace(g)
	for i := 0; i < 50; i++ {
		s := int32((i * 61) % g.NumVertices())
		u := int32((i*97 + 13) % g.NumVertices())
		g := be.Guard(s, u)
		exact := ws.Distance(s, u)
		if g.Est < g.Lo || g.Est > g.Hi || exact < g.Lo-1e-9 || exact > g.Hi+1e-9 {
			t.Fatalf("(%d,%d): est %v bounds [%v,%v] exact %v", s, u, g.Est, g.Lo, g.Hi, exact)
		}
	}

	// Batch estimation through the facade.
	ss := []int32{0, 1, 2}
	ts := []int32{3, 4, 5}
	out := make([]float64, 3)
	if err := m.EstimateBatch(ss, ts, out, 2); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != m.Estimate(ss[i], ts[i]) {
			t.Fatal("batch disagrees with single estimates")
		}
	}
}

func TestReadDIMACSFacade(t *testing.T) {
	dir := t.TempDir()
	gr := filepath.Join(dir, "g.gr")
	co := filepath.Join(dir, "g.co")
	if err := os.WriteFile(gr, []byte("p sp 2 2\na 1 2 7\na 2 1 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(co, []byte("p aux sp co 2\nv 1 0 0\nv 2 3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := ReadDIMACS(gr, co)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatalf("DIMACS facade parsed %d/%d", g.NumVertices(), g.NumEdges())
	}
}
