package train

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/emb"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/sample"
)

// raggedHier returns a randomly initialised model over a hierarchy with
// vertex nodes at more than one depth and single-vertex subgraph nodes
// (vertex nodes whose parent was partitioned, not a leaf subgraph).
func raggedHier(t testing.TB, d int) *emb.Hier {
	t.Helper()
	g, err := gen.Grid(7, 7, gen.DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := partition.HierConfig{Fanout: 4, Leaf: 4, Seed: 2}
	h, err := partition.BuildHierarchy(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	depths := map[int32]bool{}
	single := 0
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		node := h.VertexNode(v)
		depths[h.Depth(node)] = true
		if len(h.SubgraphVertices(h.Parent(node))) > cfg.Leaf {
			single++
		}
	}
	if len(depths) < 2 || single == 0 {
		t.Fatalf("hierarchy not ragged: vertex depths %v, %d single-vertex subgraph nodes", depths, single)
	}
	hh := emb.NewHier(h, d)
	hh.Local.RandomInit(rand.New(rand.NewSource(5)), 0.3)
	return hh
}

// vertexSamples draws pairs over n vertices, with s == t pairs and
// non-finite labels among them. Some s == t pairs carry their true
// distance 0, a zero residual that no step trains on.
func vertexSamples(n, count int, seed int64) []sample.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sample.Sample, count)
	for i := range out {
		s, tt := int32(rng.Intn(n)), int32(rng.Intn(n))
		if i%17 == 0 {
			tt = s
		}
		dist := 2 * rng.Float64()
		switch {
		case i%23 == 5:
			dist = math.NaN()
		case i%23 == 11:
			dist = math.Inf(1)
		case i%34 == 0:
			dist = 0
		}
		out[i] = sample.Sample{S: s, T: tt, Dist: dist}
	}
	return out
}

// TestVertexStepMatchesHierStep pins the frozen-prefix step to HierStep
// under VertexOnlyRates, with and without Adam: every Local row
// bit-identical, the same skip counts and the same Adam state, over two
// passes, at p = 1, 2 and 0.5.
func TestVertexStepMatchesHierStep(t *testing.T) {
	const d, lr, scale = 16, 0.05, 1.5
	base := raggedHier(t, d)
	samples := vertexSamples(base.H.Graph().NumVertices(), 600, 3)
	rates := VertexOnlyRates(lr, base.H.MaxDepth())
	clone := func() *emb.Hier { return &emb.Hier{H: base.H, Local: base.Local.Clone()} }
	for _, p := range []float64{1, 2, 0.5} {
		want, got := clone(), clone()
		adamWant, adamGot := clone(), clone()
		aw := NewAdam(base.Local.Rows(), d)
		ag := NewAdam(base.Local.Rows(), d)
		for pass := 0; pass < 2; pass++ {
			sw := HierStep(want, nil, rates, samples, p, scale)
			sg := VertexStep(got, nil, lr, samples, p, scale)
			if sw != sg {
				t.Fatalf("p=%v pass %d: VertexStep skipped %d, HierStep %d", p, pass, sg, sw)
			}
			sw = HierStep(adamWant, aw, rates, samples, p, scale)
			sg = VertexStep(adamGot, ag, lr, samples, p, scale)
			if sw != sg {
				t.Fatalf("p=%v pass %d: VertexStep with Adam skipped %d, HierStep %d", p, pass, sg, sw)
			}
		}
		name := fmt.Sprintf("VertexStep p=%v", p)
		sameRows(t, name, want.Local, got.Local)
		sameRows(t, name+" with Adam", adamWant.Local, adamGot.Local)
		sameAdam(t, name, aw, ag)
		moved := false
		for i, x := range got.Local.Data() {
			moved = moved || x != base.Local.Data()[i]
		}
		if !moved {
			t.Fatalf("p=%v: no parameter moved", p)
		}
	}
}

// sameRows fails unless got's rows are bit-identical to want's.
func sameRows(t *testing.T, name string, want, got *emb.Matrix) {
	t.Helper()
	for r := int32(0); r < int32(want.Rows()); r++ {
		for i, x := range want.Row(r) {
			if math.Float64bits(got.Row(r)[i]) != math.Float64bits(x) {
				t.Fatalf("%s: row %d[%d] = %v, want %v", name, r, i, got.Row(r)[i], x)
			}
		}
	}
}

// sameAdam fails unless got's step counter and moments are
// bit-identical to want's.
func sameAdam(t *testing.T, name string, want, got *Adam) {
	t.Helper()
	if got.t != want.t {
		t.Fatalf("%s: Adam took %d steps, want %d", name, got.t, want.t)
	}
	for k := range want.m {
		if math.Float64bits(got.m[k]) != math.Float64bits(want.m[k]) ||
			math.Float64bits(got.v[k]) != math.Float64bits(want.v[k]) {
			t.Fatalf("%s: Adam moments at %d = (%v, %v), want (%v, %v)",
				name, k, got.m[k], got.v[k], want.m[k], want.v[k])
		}
	}
}

// benchFixture is the step benchmarks' input: a bj-mini-sized
// hierarchy (90x90 grid, κ=4, δ=64) and 16,384 samples.
func benchFixture(b *testing.B) (*partition.Hierarchy, []sample.Sample) {
	g, err := gen.Grid(90, 90, gen.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	h, err := partition.BuildHierarchy(g, partition.DefaultHierConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	samples := vertexSamples(g.NumVertices(), 1<<14, 1)
	for i := range samples {
		samples[i].Dist = g.Euclidean(samples[i].S, samples[i].T) / 10000
	}
	return h, samples
}

// benchHier returns a fresh d=64 model over h.
func benchHier(h *partition.Hierarchy) *emb.Hier {
	hh := emb.NewHier(h, 64)
	hh.Local.RandomInit(rand.New(rand.NewSource(1)), 0.01)
	return hh
}

// BenchmarkVertexStep times one vertex-only SGD pass at the paper's
// p = 1 and d = 64 over benchFixture: HierStep under VertexOnlyRates,
// which re-sums every ancestor row, against the frozen-prefix
// VertexStep.
func BenchmarkVertexStep(b *testing.B) {
	h, samples := benchFixture(b)
	const lr = 1e-4
	steps := map[string]func(hh *emb.Hier){
		"HierStep": func(hh *emb.Hier) {
			HierStep(hh, nil, VertexOnlyRates(lr, h.MaxDepth()), samples, 1, 1)
		},
		"VertexStep": func(hh *emb.Hier) { VertexStep(hh, nil, lr, samples, 1, 1) },
	}
	for _, name := range []string{"HierStep", "VertexStep"} {
		b.Run(name, func(b *testing.B) {
			hh := benchHier(h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				steps[name](hh)
			}
		})
	}
}

// BenchmarkHierStep times one phase-① pass at p = 1 over benchFixture:
// HierStep under LevelRates focused on a middle level, which moves every
// level below the root, by SGD and by Adam.
func BenchmarkHierStep(b *testing.B) {
	h, samples := benchFixture(b)
	rates := LevelRates(1e-4, h.MaxDepth()/2, h.MaxDepth())
	for _, name := range []string{"sgd", "adam"} {
		b.Run(name, func(b *testing.B) {
			hh := benchHier(h)
			var adam *Adam
			if name == "adam" {
				adam = NewAdam(h.NumNodes(), 64)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				HierStep(hh, adam, rates, samples, 1, 1)
			}
		})
	}
}
