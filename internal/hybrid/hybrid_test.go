package hybrid

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/alt"
	"repro/internal/core"
	"repro/internal/emb"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sssp"
)

func setup(t *testing.T) (*graph.Graph, *Estimator, *core.Model) {
	t.Helper()
	g, err := gen.Grid(16, 16, gen.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(2)
	opt.Dim = 32
	opt.Epochs = 5
	opt.VertexSampleRatio = 50
	opt.FineTuneRounds = 3
	opt.HierSampleCap = 12000
	opt.ValidationPairs = 300
	m, _, err := core.Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := alt.Build(g, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(m, lt)
	if err != nil {
		t.Fatal(err)
	}
	return g, e, m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("nil components accepted")
	}
}

func TestEstimateWithinCertifiedBounds(t *testing.T) {
	g, e, _ := setup(t)
	ws := sssp.NewWorkspace(g)
	rng := rand.New(rand.NewSource(4))
	n := g.NumVertices()
	for trial := 0; trial < 300; trial++ {
		s := int32(rng.Intn(n))
		u := int32(rng.Intn(n))
		g := e.Guard(s, u)
		if g.Est < g.Lo || g.Est > g.Hi {
			t.Fatalf("(%d,%d): estimate %v outside own bounds [%v,%v]", s, u, g.Est, g.Lo, g.Hi)
		}
		exact := ws.Distance(s, u)
		if exact < g.Lo-1e-9 || exact > g.Hi+1e-9 {
			t.Fatalf("(%d,%d): exact %v outside certified bounds [%v,%v]", s, u, exact, g.Lo, g.Hi)
		}
		if got := e.Estimate(s, u); got != g.Est {
			t.Fatalf("Estimate and Guard disagree: %v vs %v", got, g.Est)
		}
	}
	if e.Estimate(5, 5) != 0 {
		t.Fatal("self estimate not zero")
	}
}

// TestClampImprovesTail: the ensemble's worst-case relative error must
// not exceed plain RNE's, and typically improves it.
func TestClampImprovesTail(t *testing.T) {
	g, e, m := setup(t)
	ws := sssp.NewWorkspace(g)
	rng := rand.New(rand.NewSource(5))
	pairs := make([]metrics.Pair, 0, 600)
	var dist []float64
	for len(pairs) < 600 {
		s := int32(rng.Intn(g.NumVertices()))
		dist = ws.FromSource(s, dist)
		for j := 0; j < 16 && len(pairs) < 600; j++ {
			u := int32(rng.Intn(g.NumVertices()))
			if u != s && dist[u] > 0 && dist[u] < sssp.Inf {
				pairs = append(pairs, metrics.Pair{S: s, T: u, Dist: dist[u]})
			}
		}
	}
	plain := metrics.Evaluate(metrics.EstimatorFunc(m.Estimate), pairs)
	clamped := metrics.Evaluate(metrics.EstimatorFunc(e.Estimate), pairs)
	if clamped.MaxRel > plain.MaxRel+1e-9 {
		t.Fatalf("clamping worsened max error: %v -> %v", plain.MaxRel, clamped.MaxRel)
	}
	if clamped.P99Rel > plain.P99Rel+1e-9 {
		t.Fatalf("clamping worsened p99: %v -> %v", plain.P99Rel, clamped.P99Rel)
	}
	if clamped.MeanRel > plain.MeanRel+1e-9 {
		t.Fatalf("clamping worsened mean: %v -> %v", plain.MeanRel, clamped.MeanRel)
	}
	if want := int64(24*g.NumVertices()) * 8; e.LandmarkBytes() != want {
		t.Fatalf("LandmarkBytes = %d, want the 24 x %d label matrix, %d", e.LandmarkBytes(), g.NumVertices(), want)
	}
}

// pathGraph builds the 3-vertex path 0 -1- 1 -2- 2 (weights 1 and 2).
func pathGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(3, 2)
	b.AddVertex(0, 0)
	b.AddVertex(1, 0)
	b.AddVertex(3, 0)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

// syntheticModel pins exact embedding rows by round-tripping through
// the public model codec: the RNEMODEL3 framing around a (p, scale,
// matrix) payload with its CRC-32 trailer.
func syntheticModel(t *testing.T, rows [][]float64, scale float64) *core.Model {
	t.Helper()
	mat := emb.NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(mat.Row(int32(i)), r)
	}
	var payload bytes.Buffer
	if err := binary.Write(&payload, binary.LittleEndian, []float64{1, scale}); err != nil {
		t.Fatal(err)
	}
	if _, err := mat.WriteTo(&payload); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString("RNEMODEL3\n")
	for _, v := range []any{int64(payload.Len()), payload.Bytes(), crc32.ChecksumIEEE(payload.Bytes())} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	m, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Guard edge cases: identical endpoints, forced clamp-low and
// clamp-high, and the degenerate lo==hi interval a single on-path
// landmark produces.
func TestGuardEdgeCases(t *testing.T) {
	g := pathGraph(t)

	// Landmark at vertex 0: labels 0, 1, 3 -> pair (1,2) gets [2, 4].
	lt, err := alt.BuildWithLandmarks(g, []int32{0})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("identical pair is exactly zero", func(t *testing.T) {
		m := syntheticModel(t, [][]float64{{0}, {10}, {20}}, 1)
		e, err := New(m, lt)
		if err != nil {
			t.Fatal(err)
		}
		if g := e.Guard(2, 2); g != (GuardResult{LoLandmark: -1, HiLandmark: -1}) {
			t.Fatalf("self guard: %+v, want all zero with landmarks -1", g)
		}
	})

	t.Run("clamp low", func(t *testing.T) {
		// Identical rows for 1 and 2: raw estimate 0, below lo=2.
		m := syntheticModel(t, [][]float64{{0}, {5}, {5}}, 1)
		e, err := New(m, lt)
		if err != nil {
			t.Fatal(err)
		}
		g := e.Guard(1, 2)
		if g.Lo != 2 || g.Hi != 4 {
			t.Fatalf("bounds [%v,%v], want [2,4]", g.Lo, g.Hi)
		}
		if !g.ClampedLow || g.ClampedHigh || g.Raw != 0 || g.Est != g.Lo {
			t.Fatalf("guard direction wrong: %+v", g)
		}
		if g.LoLandmark != 0 || g.HiLandmark != 0 {
			t.Fatalf("guard provenance wrong: %+v", g)
		}
	})

	t.Run("clamp high", func(t *testing.T) {
		// Rows 100 apart: raw estimate 100, above hi=4.
		m := syntheticModel(t, [][]float64{{0}, {0}, {100}}, 1)
		e, err := New(m, lt)
		if err != nil {
			t.Fatal(err)
		}
		g := e.Guard(1, 2)
		if g.Lo != 2 || g.Hi != 4 {
			t.Fatalf("bounds [%v,%v], want [2,4]", g.Lo, g.Hi)
		}
		if !g.ClampedHigh || g.ClampedLow || g.Raw != 100 || g.Est != g.Hi {
			t.Fatalf("guard direction wrong: %+v", g)
		}
	})

	t.Run("degenerate single-landmark interval", func(t *testing.T) {
		// A landmark on the (1,2) shortest path pins lo == hi == d(1,2):
		// every raw estimate collapses onto the exact distance.
		onPath, err := alt.BuildWithLandmarks(g, []int32{1})
		if err != nil {
			t.Fatal(err)
		}
		for _, raw := range []float64{0, 2, 9} {
			m := syntheticModel(t, [][]float64{{0}, {0}, {raw}}, 1)
			e, err := New(m, onPath)
			if err != nil {
				t.Fatal(err)
			}
			g := e.Guard(1, 2)
			if g.Lo != g.Hi || g.Lo != 2 {
				t.Fatalf("raw %v: interval [%v,%v], want degenerate [2,2]", raw, g.Lo, g.Hi)
			}
			if g.Est != 2 {
				t.Fatalf("raw %v: estimate %v, want exact 2", raw, g.Est)
			}
		}
	})
}

// Guard's interval and landmarks are the index's BoundsDetail, and
// every distinct pair of a trained model names real landmarks.
func TestGuardProvenance(t *testing.T) {
	_, e, _ := setup(t)
	rng := rand.New(rand.NewSource(8))
	n := int32(e.NumVertices())
	for trial := 0; trial < 300; trial++ {
		s, u := rng.Int31n(n), rng.Int31n(n)
		g := e.Guard(s, u)
		if s == u {
			if g.LoLandmark != -1 || g.HiLandmark != -1 {
				t.Fatalf("(%d,%d): identical pair names landmarks: %+v", s, u, g)
			}
			continue
		}
		b := e.lt.BoundsDetail(s, u)
		if g.Lo != b.Lo || g.Hi != b.Hi || g.LoLandmark != b.LoLandmark || g.HiLandmark != b.HiLandmark {
			t.Fatalf("(%d,%d): Guard %+v disagrees with BoundsDetail %+v", s, u, g, b)
		}
		if g.LoLandmark < 0 || g.HiLandmark < 0 {
			t.Fatalf("(%d,%d): missing landmark provenance: %+v", s, u, g)
		}
	}
}
