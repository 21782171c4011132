package sssp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pqueue"
)

// heapFromSource is the reference search: a full Dijkstra on the
// indexed binary heap, the loop every label-setting search ran before
// the bucket queue.
func heapFromSource(g *graph.Graph, s int32) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = Inf
	}
	h := pqueue.New(n)
	dist[s] = 0
	h.Push(s, 0)
	for h.Len() > 0 {
		v, d := h.Pop()
		ts, wts := g.Neighbors(v)
		for i, u := range ts {
			if nd := d + wts[i]; nd < dist[u] {
				dist[u] = nd
				h.Push(u, nd)
			}
		}
	}
	return dist
}

// checkSearch runs Distance, FromSource and DistanceToAll from every
// source on one reused Workspace and requires the reference's float64
// bits. The target lists carry duplicates, the source itself and, when
// the graph has more than one component, unreachable vertices; the
// stamp wraps halfway through.
func checkSearch(t *testing.T, g *graph.Graph, sources []int32, wantDial bool) {
	t.Helper()
	ws := NewWorkspace(g)
	if got := ws.dial != nil; got != wantDial {
		t.Fatalf("bucket queue chosen = %v, want %v", got, wantDial)
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(int64(n)))
	var full, out []float64
	for k, s := range sources {
		if k == len(sources)/2 {
			ws.stamp = ^uint32(0) // the next search wraps and clears the marks
		}
		want := heapFromSource(g, s)
		full = ws.FromSource(s, full)
		for v := range want {
			if math.Float64bits(full[v]) != math.Float64bits(want[v]) {
				t.Fatalf("FromSource(%d)[%d] = %v, heap %v", s, v, full[v], want[v])
			}
		}
		targets := make([]int32, 1+rng.Intn(24))
		for i := range targets {
			targets[i] = int32(rng.Intn(n))
		}
		targets = append(targets, s, targets[0])
		out = ws.DistanceToAll(s, targets, out)
		for i, tt := range targets {
			if math.Float64bits(out[i]) != math.Float64bits(want[tt]) {
				t.Fatalf("DistanceToAll(%d)[%d] = %v, heap %v", s, tt, out[i], want[tt])
			}
		}
		for _, tt := range targets[len(targets)-3:] {
			if got := ws.Distance(s, tt); math.Float64bits(got) != math.Float64bits(want[tt]) {
				t.Fatalf("Distance(%d, %d) = %v, heap %v", s, tt, got, want[tt])
			}
		}
	}
}

func sourcesOf(n, count int, seed int64) []int32 {
	if count >= n {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(rng.Intn(n))
	}
	return out
}

// weightedGrid builds a rows x cols lattice whose k-th edge, leaving
// vertex v rightward or downward, weighs weight(v, k).
func weightedGrid(rows, cols int, weight func(i, j int) float64) *graph.Graph {
	b := graph.NewBuilder(rows*cols, 2*rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddVertex(float64(c), float64(r))
		}
	}
	k := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				_ = b.AddEdge(int32(v), int32(v+1), weight(v, k))
				k++
			}
			if r+1 < rows {
				_ = b.AddEdge(int32(v), int32(v+cols), weight(v, k))
				k++
			}
		}
	}
	return b.Build()
}

// TestSearchMatchesHeap pins the bucket queue to the heap: the same
// labels, bit for bit, on the generator's graphs, on all-tie and
// disconnected graphs, and on a graph whose weight spread keeps the
// heap.
func TestSearchMatchesHeap(t *testing.T) {
	grid30, err := gen.Grid(30, 30, gen.DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	preset, err := gen.PresetByName("bj-mini")
	if err != nil {
		t.Fatal(err)
	}
	bj, err := preset.Build()
	if err != nil {
		t.Fatal(err)
	}
	regime, _ := gen.RegimeByName("incident", 3)
	incident, err := gen.Perturb(bj, regime)
	if err != nil {
		t.Fatal(err)
	}
	unit := weightedGrid(25, 25, func(int, int) float64 { return 1 })
	// Two components: a weighted lattice and a path, with no edge between.
	tb := graph.NewBuilder(160, 400)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 160; i++ {
		tb.AddVertex(float64(i), 0)
	}
	for i := 0; i < 100; i++ {
		_ = tb.AddEdge(int32(i), int32((i+1)%100), 3+rng.Float64())
		_ = tb.AddEdge(int32(i), int32(rng.Intn(100)), 3+2*rng.Float64())
	}
	for i := 100; i < 159; i++ {
		_ = tb.AddEdge(int32(i), int32(i+1), 1+0.5*rng.Float64())
	}
	twoComp := tb.Build()
	spread := weightedGrid(20, 20, func(_, k int) float64 {
		if k%7 == 0 {
			return 300
		}
		return 1 + float64(k%5)/4
	})

	cases := []struct {
		name     string
		g        *graph.Graph
		sources  int
		wantDial bool
	}{
		{"grid30", grid30, grid30.NumVertices(), true},
		{"bj-mini", bj, 200, true},
		{"bj-mini-incident", incident, 200, true},
		{"unit", unit, unit.NumVertices(), true},
		{"two-components", twoComp, twoComp.NumVertices(), true},
		{"spread", spread, spread.NumVertices(), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkSearch(t, c.g, sourcesOf(c.g.NumVertices(), c.sources, 1), c.wantDial)
		})
	}
}

// FuzzSearchMatchesHeap builds graphs of up to 64 vertices whose edges
// and weights come from the input and requires every source's labels to
// match the heap's. The second byte sets the weights' binary-exponent
// range, so inputs reach both queues.
func FuzzSearchMatchesHeap(f *testing.F) {
	f.Add([]byte{8, 0, 0, 1, 10, 1, 2, 20, 2, 3, 30, 3, 0, 40})
	f.Add([]byte{16, 3, 0, 5, 7, 5, 9, 200, 9, 2, 99, 2, 0, 1, 3, 4, 5})
	f.Add([]byte{40, 8, 1, 2, 255, 2, 3, 0, 3, 1, 128, 4, 5, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%63
		span := int(data[1]) % 9
		b := graph.NewBuilder(n, len(data)/3)
		for i := 0; i < n; i++ {
			b.AddVertex(float64(i), 0)
		}
		for i := 2; i+2 < len(data); i += 3 {
			u, v, wb := int32(int(data[i])%n), int32(int(data[i+1])%n), data[i+2]
			if u == v {
				continue
			}
			w := math.Ldexp(1+float64(wb&7)/8, int(wb>>3)%(span+1))
			if err := b.AddEdge(u, v, w); err != nil {
				t.Fatal(err)
			}
		}
		g := b.Build()
		ws := NewWorkspace(g)
		all := sourcesOf(n, n, 0)
		var full, out []float64
		for _, s := range all {
			want := heapFromSource(g, s)
			full = ws.FromSource(s, full)
			out = ws.DistanceToAll(s, append(all, s), out)
			for v := range want {
				if math.Float64bits(full[v]) != math.Float64bits(want[v]) ||
					math.Float64bits(out[v]) != math.Float64bits(want[v]) {
					t.Fatalf("source %d vertex %d: FromSource %v, DistanceToAll %v, heap %v", s, v, full[v], out[v], want[v])
				}
				if got := ws.Distance(s, int32(v)); math.Float64bits(got) != math.Float64bits(want[v]) {
					t.Fatalf("Distance(%d, %d) = %v, heap %v", s, v, got, want[v])
				}
			}
		}
	})
}

// BenchmarkSearch times the label-setting searches: a full FromSource
// and a DistanceToAll to 64 uniform targets (the shape of a hierarchy
// level's labeling group) on gen.Grid graphs of about 8k and 100k
// vertices, and a FromSource on a 90x90 lattice whose weight spread
// selects the heap.
func BenchmarkSearch(b *testing.B) {
	spread := weightedGrid(90, 90, func(_, k int) float64 {
		if k%7 == 0 {
			return 300
		}
		return 1 + float64(k%5)/4
	})
	for _, side := range []int{90, 317} {
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			if side > 90 && testing.Short() {
				b.Skip("large graph skipped under -short")
			}
			g, err := gen.Grid(side, side, gen.DefaultConfig(1))
			if err != nil {
				b.Fatal(err)
			}
			b.Run("FromSource", func(b *testing.B) { benchFromSource(b, g) })
			b.Run("DistanceToAll", func(b *testing.B) {
				ws := NewWorkspace(g)
				rng := rand.New(rand.NewSource(1))
				n := g.NumVertices()
				targets := make([]int32, 64)
				var out []float64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := range targets {
						targets[j] = int32(rng.Intn(n))
					}
					out = ws.DistanceToAll(int32(rng.Intn(n)), targets, out)
				}
			})
		})
	}
	b.Run("90x90-spread/FromSource", func(b *testing.B) { benchFromSource(b, spread) })
}

func benchFromSource(b *testing.B, g *graph.Graph) {
	ws := NewWorkspace(g)
	rng := rand.New(rand.NewSource(1))
	n := g.NumVertices()
	var out []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ws.FromSource(int32(rng.Intn(n)), out)
	}
}
