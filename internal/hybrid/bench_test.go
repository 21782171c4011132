package hybrid

import (
	"math/rand"
	"testing"

	"repro/internal/alt"
	"repro/internal/gen"
	"repro/internal/graph"
)

// stubModel is a Distancer answering from one small fixed row, so
// BenchmarkGuard times the guard's own work, the landmark pass and the
// clamp, and not a model's kernel. The row holds landmark estimates of
// random pairs, so raw values fall below, inside and above an interval.
type stubModel struct {
	n   int
	row [256]float64
}

func (m *stubModel) Estimate(s, t int32) float64 { return m.row[uint8(s+t)] }
func (m *stubModel) NumVertices() int            { return m.n }

// BenchmarkGuard times Guard per pair over 65,536 random pairs with 16
// landmarks: on bj-mini (8,098 vertices, perfbench's guard) and on
// 100k- and 1M-vertex grids from internal/gen. Each graph and its labels
// are built once, on first use; the 1M case, about 0.3 GB and seconds
// of set-up, is skipped under -short.
func BenchmarkGuard(b *testing.B) {
	cases := []struct {
		name  string
		graph func() (*graph.Graph, error)
	}{
		{"bj-mini", func() (*graph.Graph, error) {
			p, err := gen.PresetByName("bj-mini")
			if err != nil {
				return nil, err
			}
			return p.Build()
		}},
		{"100k", func() (*graph.Graph, error) { return gen.Grid(317, 317, gen.DefaultConfig(1)) }},
		{"1M", func() (*graph.Graph, error) { return gen.Grid(1000, 1000, gen.DefaultConfig(1)) }},
	}
	for _, c := range cases {
		var e *Estimator
		var pairs [][2]int32
		b.Run(c.name, func(b *testing.B) {
			if c.name == "1M" && testing.Short() {
				b.Skip("1M-vertex guard set-up in -short mode")
			}
			if e == nil {
				e, pairs = guardFixture(b, c.graph)
			}
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				p := pairs[i&(len(pairs)-1)]
				sink += e.Guard(p[0], p[1]).Est
			}
			if sink < 0 {
				b.Fatal("negative guarded estimate")
			}
		})
	}
}

// guardFixture builds a 16-landmark guard over build's graph around a
// stubModel, and 65,536 seeded random pairs.
func guardFixture(b *testing.B, build func() (*graph.Graph, error)) (*Estimator, [][2]int32) {
	g, err := build()
	if err != nil {
		b.Fatal(err)
	}
	lt, err := alt.Build(g, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	n := int32(g.NumVertices())
	rng := rand.New(rand.NewSource(1))
	m := &stubModel{n: int(n)}
	for i := range m.row {
		m.row[i] = lt.Estimate(rng.Int31n(n), rng.Int31n(n))
	}
	e, err := New(m, lt)
	if err != nil {
		b.Fatal(err)
	}
	pairs := make([][2]int32, 1<<16)
	for i := range pairs {
		pairs[i] = [2]int32{rng.Int31n(n), rng.Int31n(n)}
	}
	return e, pairs
}
