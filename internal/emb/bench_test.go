package emb

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/vecmath"
)

// The DESIGN.md ablation: querying the flattened |V| x d matrix versus
// summing ancestor locals on the fly. Flattening wins by an order of
// magnitude, which is why Algorithm 1 materializes the global matrix.

func benchSetup(b *testing.B) (*Hier, *Matrix, int) {
	b.Helper()
	g, err := gen.Grid(30, 30, gen.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	h, err := partition.BuildHierarchy(g, partition.DefaultHierConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	hh := NewHier(h, 64)
	rng := rand.New(rand.NewSource(2))
	hh.Local.RandomInit(rng, 0.01)
	return hh, hh.Flatten(), g.NumVertices()
}

func BenchmarkQueryFlattened(b *testing.B) {
	_, flat, n := benchSetup(b)
	rng := rand.New(rand.NewSource(3))
	ss := make([]int32, 1024)
	ts := make([]int32, 1024)
	for i := range ss {
		ss[i] = int32(rng.Intn(n))
		ts[i] = int32(rng.Intn(n))
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		j := i & 1023
		sink += vecmath.L1(flat.Row(ss[j]), flat.Row(ts[j]))
	}
	_ = sink
}

func BenchmarkQueryAncestorSum(b *testing.B) {
	hh, _, n := benchSetup(b)
	rng := rand.New(rand.NewSource(3))
	ss := make([]int32, 1024)
	ts := make([]int32, 1024)
	for i := range ss {
		ss[i] = int32(rng.Intn(n))
		ts[i] = int32(rng.Intn(n))
	}
	vs := make([]float64, 64)
	vt := make([]float64, 64)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		j := i & 1023
		hh.GlobalInto(vs, ss[j])
		hh.GlobalInto(vt, ts[j])
		sink += vecmath.L1(vs, vt)
	}
	_ = sink
}
