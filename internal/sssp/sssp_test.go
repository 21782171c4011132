package sssp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// bellmanFord is an independent reference implementation for testing.
func bellmanFord(g *graph.Graph, s int32) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[s] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for v := int32(0); v < int32(n); v++ {
			if dist[v] == Inf {
				continue
			}
			ts, ws := g.Neighbors(v)
			for i, u := range ts {
				if nd := dist[v] + ws[i]; nd < dist[u] {
					dist[u] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func randomGraph(t *testing.T, seed int64, rows, cols int) *graph.Graph {
	t.Helper()
	g, err := gen.Grid(rows, cols, gen.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	g := randomGraph(t, 11, 8, 9)
	ws := NewWorkspace(g)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		want := bellmanFord(g, s)
		got := ws.FromSource(s, nil)
		for v := range want {
			if math.Abs(want[v]-got[v]) > 1e-9 {
				t.Fatalf("source %d vertex %d: dijkstra %v, bellman-ford %v", s, v, got[v], want[v])
			}
		}
	}
}

func TestDistanceEarlyExitMatchesFull(t *testing.T) {
	g := randomGraph(t, 12, 10, 10)
	ws := NewWorkspace(g)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		tt := int32(rng.Intn(g.NumVertices()))
		full := ws.FromSource(s, nil)
		got := ws.Distance(s, tt)
		if math.Abs(full[tt]-got) > 1e-9 {
			t.Fatalf("(%d,%d): early-exit %v, full %v", s, tt, got, full[tt])
		}
	}
}

func TestDistanceSelf(t *testing.T) {
	g := randomGraph(t, 13, 5, 5)
	ws := NewWorkspace(g)
	if d := ws.Distance(3, 3); d != 0 {
		t.Fatalf("Distance(v,v) = %v, want 0", d)
	}
	if d := ws.BidirectionalDistance(2, 2); d != 0 {
		t.Fatalf("BidirectionalDistance(v,v) = %v, want 0", d)
	}
}

func TestBidirectionalMatchesDijkstra(t *testing.T) {
	g := randomGraph(t, 14, 12, 12)
	ws := NewWorkspace(g)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		tt := int32(rng.Intn(g.NumVertices()))
		want := ws.Distance(s, tt)
		got := ws.BidirectionalDistance(s, tt)
		if math.Abs(want-got) > 1e-9 {
			t.Fatalf("(%d,%d): bidirectional %v, dijkstra %v", s, tt, got, want)
		}
	}
}

func TestAStarWithEuclideanHeuristic(t *testing.T) {
	g := randomGraph(t, 15, 12, 12)
	ws := NewWorkspace(g)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		tt := int32(rng.Intn(g.NumVertices()))
		want := ws.Distance(s, tt)
		// Euclidean distance is admissible because edge weights are at
		// least the segment's Euclidean length.
		h := func(v int32) float64 { return g.Euclidean(v, tt) }
		got, settled := ws.AStarDistance(s, tt, h)
		if math.Abs(want-got) > 1e-9 {
			t.Fatalf("(%d,%d): A* %v, dijkstra %v", s, tt, got, want)
		}
		if s != tt && settled <= 0 {
			t.Fatalf("A* settled %d vertices", settled)
		}
	}
}

func TestAStarNilHeuristic(t *testing.T) {
	g := randomGraph(t, 16, 6, 6)
	ws := NewWorkspace(g)
	want := ws.Distance(0, int32(g.NumVertices()-1))
	got, _ := ws.AStarDistance(0, int32(g.NumVertices()-1), nil)
	if math.Abs(want-got) > 1e-9 {
		t.Fatalf("A* nil heuristic %v, dijkstra %v", got, want)
	}
}

func TestPathReconstruction(t *testing.T) {
	g := randomGraph(t, 17, 8, 8)
	ws := NewWorkspace(g)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		tt := int32(rng.Intn(g.NumVertices()))
		d := ws.Distance(s, tt)
		path := ws.Path(s, tt)
		if s == tt {
			if len(path) != 1 || path[0] != s {
				t.Fatalf("self path = %v", path)
			}
			continue
		}
		if d == Inf {
			if path != nil {
				t.Fatalf("unreachable pair returned path %v", path)
			}
			continue
		}
		if path[0] != s || path[len(path)-1] != tt {
			t.Fatalf("path endpoints %v..%v want %v..%v", path[0], path[len(path)-1], s, tt)
		}
		var sum float64
		for i := 1; i < len(path); i++ {
			w, ok := g.EdgeWeight(path[i-1], path[i])
			if !ok {
				t.Fatalf("path uses non-edge (%d,%d)", path[i-1], path[i])
			}
			sum += w
		}
		if math.Abs(sum-d) > 1e-9 {
			t.Fatalf("path length %v, distance %v", sum, d)
		}
	}
}

func TestUnreachable(t *testing.T) {
	// Two disconnected vertices (no edges): Distance should be Inf.
	b := graph.NewBuilder(3, 1)
	b.AddVertex(0, 0)
	b.AddVertex(1, 0)
	b.AddVertex(2, 0)
	_ = b.AddEdge(0, 1, 1)
	g := b.Build()
	ws := NewWorkspace(g)
	if d := ws.Distance(0, 2); d != Inf {
		t.Fatalf("Distance to isolated vertex = %v, want Inf", d)
	}
	if d := ws.BidirectionalDistance(0, 2); d != Inf {
		t.Fatalf("BidirectionalDistance to isolated vertex = %v, want Inf", d)
	}
	if d, _ := ws.AStarDistance(0, 2, nil); d != Inf {
		t.Fatalf("AStarDistance to isolated vertex = %v, want Inf", d)
	}
}

func TestWorkspaceReuse(t *testing.T) {
	g := randomGraph(t, 18, 10, 10)
	ws := NewWorkspace(g)
	// Interleave all query kinds and verify against fresh workspaces.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		tt := int32(rng.Intn(g.NumVertices()))
		fresh := NewWorkspace(g)
		want := fresh.Distance(s, tt)
		switch trial % 3 {
		case 0:
			if got := ws.Distance(s, tt); math.Abs(got-want) > 1e-9 {
				t.Fatalf("reused Distance = %v, want %v", got, want)
			}
		case 1:
			if got := ws.BidirectionalDistance(s, tt); math.Abs(got-want) > 1e-9 {
				t.Fatalf("reused BidirectionalDistance = %v, want %v", got, want)
			}
		case 2:
			if got, _ := ws.AStarDistance(s, tt, nil); math.Abs(got-want) > 1e-9 {
				t.Fatalf("reused AStarDistance = %v, want %v", got, want)
			}
		}
	}
}

// DistanceToAll is the labeler's search: each target's distance must be
// bit-identical to a full FromSource's, across calls that reuse one
// workspace (and so its target stamps), with duplicate targets, the
// source itself among them and targets in another component.
func TestDistanceToAllMatchesFromSource(t *testing.T) {
	const half = 60
	b := graph.NewBuilder(2*half, 8*half)
	rng := rand.New(rand.NewSource(21))
	for c := int32(0); c < 2; c++ {
		for i := int32(0); i < half; i++ {
			b.AddVertex(float64(i), float64(c))
		}
		for k := 0; k < 4*half; k++ {
			u, v := c*half+int32(rng.Intn(half)), c*half+int32(rng.Intn(half))
			if u == v {
				continue
			}
			if err := b.AddEdge(u, v, float64(1+rng.Intn(4))); err != nil { // small weights make ties
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	ws, full := NewWorkspace(g), NewWorkspace(g)
	var out, want []float64
	for call := 0; call < 300; call++ {
		s := int32(rng.Intn(2 * half))
		targets := make([]int32, 1+rng.Intn(12))
		for i := range targets {
			targets[i] = int32(rng.Intn(2 * half))
		}
		targets = append(targets, s, targets[0])
		if call == 150 {
			ws.stamp = ^uint32(0) // the next call wraps and clears the marks
		}
		out = ws.DistanceToAll(s, targets, out)
		want = full.FromSource(s, want)
		for i, tt := range targets {
			if out[i] != want[tt] {
				t.Fatalf("call %d: DistanceToAll(%d)[%d] = %v, FromSource = %v", call, s, tt, out[i], want[tt])
			}
		}
	}
}

func BenchmarkDijkstraPointToPoint(b *testing.B) {
	g, err := gen.Grid(60, 60, gen.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	ws := NewWorkspace(g)
	rng := rand.New(rand.NewSource(1))
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := int32(rng.Intn(n))
		t := int32(rng.Intn(n))
		ws.Distance(s, t)
	}
}

func BenchmarkBidirectionalPointToPoint(b *testing.B) {
	g, err := gen.Grid(60, 60, gen.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	ws := NewWorkspace(g)
	rng := rand.New(rand.NewSource(1))
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := int32(rng.Intn(n))
		t := int32(rng.Intn(n))
		ws.BidirectionalDistance(s, t)
	}
}

func TestDistanceToAll(t *testing.T) {
	g := randomGraph(t, 21, 10, 10)
	ws := NewWorkspace(g)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		targets := make([]int32, 8)
		for i := range targets {
			targets[i] = int32(rng.Intn(g.NumVertices()))
		}
		targets[3] = s          // self target
		targets[5] = targets[4] // duplicate target
		got := ws.DistanceToAll(s, targets, nil)
		full := NewWorkspace(g).FromSource(s, nil)
		for i, tg := range targets {
			if math.Abs(got[i]-full[tg]) > 1e-9 {
				t.Fatalf("trial %d target %d (%d): %v vs %v", trial, i, tg, got[i], full[tg])
			}
		}
	}
	// Reuse with an output buffer.
	buf := make([]float64, 0, 4)
	got := ws.DistanceToAll(0, []int32{1, 2}, buf)
	if len(got) != 2 {
		t.Fatalf("buffer reuse returned %d values", len(got))
	}
	// Empty target list.
	if got := ws.DistanceToAll(0, nil, nil); len(got) != 0 {
		t.Fatalf("empty targets returned %v", got)
	}
}

func TestDistanceToAllUnreachable(t *testing.T) {
	b := graph.NewBuilder(3, 1)
	b.AddVertex(0, 0)
	b.AddVertex(1, 0)
	b.AddVertex(2, 0)
	_ = b.AddEdge(0, 1, 1)
	g := b.Build()
	ws := NewWorkspace(g)
	got := ws.DistanceToAll(0, []int32{1, 2}, nil)
	if got[0] != 1 || got[1] != Inf {
		t.Fatalf("got %v, want [1 Inf]", got)
	}
}
