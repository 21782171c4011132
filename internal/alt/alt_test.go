package alt

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sssp"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Grid(14, 14, gen.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBoundsBracketTrueDistance(t *testing.T) {
	g := testGraph(t)
	idx, err := Build(g, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	ws := sssp.NewWorkspace(g)
	rng := rand.New(rand.NewSource(3))
	n := g.NumVertices()
	for trial := 0; trial < 200; trial++ {
		s := int32(rng.Intn(n))
		u := int32(rng.Intn(n))
		want := ws.Distance(s, u)
		lo, hi := idx.Bounds(s, u)
		if lo > want+1e-9 {
			t.Fatalf("(%d,%d): lower bound %v exceeds true %v", s, u, lo, want)
		}
		if hi < want-1e-9 {
			t.Fatalf("(%d,%d): upper bound %v below true %v", s, u, hi, want)
		}
	}
}

func TestEstimateErrorBoundedByGap(t *testing.T) {
	g := testGraph(t)
	idx, err := Build(g, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	ws := sssp.NewWorkspace(g)
	rng := rand.New(rand.NewSource(4))
	n := g.NumVertices()
	for trial := 0; trial < 100; trial++ {
		s := int32(rng.Intn(n))
		u := int32(rng.Intn(n))
		want := ws.Distance(s, u)
		lo, hi := idx.Bounds(s, u)
		got := idx.Estimate(s, u)
		if err := math.Abs(got - want); err > (hi-lo)/2+1e-9 {
			t.Fatalf("(%d,%d): estimate error %v exceeds half-gap %v", s, u, err, (hi-lo)/2)
		}
	}
	if idx.Estimate(3, 3) != 0 {
		t.Fatal("self estimate must be 0")
	}
}

func TestMoreLandmarksTightenEstimates(t *testing.T) {
	g := testGraph(t)
	small, err := Build(g, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Build(g, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	ws := sssp.NewWorkspace(g)
	rng := rand.New(rand.NewSource(6))
	n := g.NumVertices()
	var errSmall, errLarge float64
	count := 0
	for trial := 0; trial < 300; trial++ {
		s := int32(rng.Intn(n))
		u := int32(rng.Intn(n))
		want := ws.Distance(s, u)
		if want <= 0 {
			continue
		}
		errSmall += math.Abs(small.Estimate(s, u)-want) / want
		errLarge += math.Abs(large.Estimate(s, u)-want) / want
		count++
	}
	if errLarge >= errSmall {
		t.Fatalf("32 landmarks (%v) not better than 4 (%v)", errLarge/float64(count), errSmall/float64(count))
	}
}

func TestSearchDistanceExactAndFasterThanDijkstra(t *testing.T) {
	g := testGraph(t)
	idx, err := Build(g, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	ws := sssp.NewWorkspace(g)
	rng := rand.New(rand.NewSource(8))
	n := g.NumVertices()
	var altSettled, plainSettled int
	for trial := 0; trial < 50; trial++ {
		s := int32(rng.Intn(n))
		u := int32(rng.Intn(n))
		want := ws.Distance(s, u)
		got, settled := idx.SearchDistance(ws, s, u)
		if math.Abs(want-got) > 1e-9 {
			t.Fatalf("(%d,%d): ALT %v, Dijkstra %v", s, u, got, want)
		}
		altSettled += settled
		_, ds := ws.AStarDistance(s, u, nil)
		plainSettled += ds
	}
	if altSettled >= plainSettled {
		t.Fatalf("ALT settled %d vertices, plain Dijkstra %d: landmarks gave no pruning", altSettled, plainSettled)
	}
}

func TestBuildWithLandmarksAndValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := Build(g, 0, 1); err == nil {
		t.Error("zero landmarks accepted")
	}
	if _, err := BuildWithLandmarks(g, nil); err == nil {
		t.Error("empty landmark set accepted")
	}
	idx, err := BuildWithLandmarks(g, []int32{0, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumLandmarks() != 3 || len(idx.Landmarks()) != 3 {
		t.Fatal("landmark count wrong")
	}
	wantBytes := int64(3*g.NumVertices()) * 8
	if idx.IndexBytes() != wantBytes {
		t.Fatalf("IndexBytes = %d, want %d", idx.IndexBytes(), wantBytes)
	}
}

// BoundsDetail must agree with Bounds on the interval and name
// landmarks that actually produce it.
func TestBoundsDetailMatchesBounds(t *testing.T) {
	g := testGraph(t)
	idx, err := Build(g, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	inLandmarks := func(v int32) bool {
		for _, u := range idx.Landmarks() {
			if u == v {
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(7))
	n := int32(g.NumVertices())
	for trial := 0; trial < 300; trial++ {
		s, u := rng.Int31n(n), rng.Int31n(n)
		lo, hi := idx.Bounds(s, u)
		info := idx.BoundsDetail(s, u)
		if info.Lo != lo || info.Hi != hi {
			t.Fatalf("(%d,%d): BoundsDetail [%v,%v] != Bounds [%v,%v]", s, u, info.Lo, info.Hi, lo, hi)
		}
		if !inLandmarks(info.LoLandmark) || !inLandmarks(info.HiLandmark) {
			t.Fatalf("(%d,%d): provenance names non-landmarks %d/%d", s, u, info.LoLandmark, info.HiLandmark)
		}
	}
}

// refBounds, refBoundsDetail and refLowerBound are the three loops the
// one bound pass replaced, kept verbatim as its reference.
func refBounds(idx *Index, s, t int32) (lo, hi float64) {
	hi = sssp.Inf
	for i := 0; i < len(idx.landmarks); i++ {
		ds := idx.labels[i*idx.n+int(s)]
		dt := idx.labels[i*idx.n+int(t)]
		if ds == sssp.Inf || dt == sssp.Inf {
			continue
		}
		diff := ds - dt
		if diff < 0 {
			diff = -diff
		}
		if diff > lo {
			lo = diff
		}
		if sum := ds + dt; sum < hi {
			hi = sum
		}
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

func refBoundsDetail(idx *Index, s, t int32) BoundsInfo {
	info := BoundsInfo{Hi: sssp.Inf, LoLandmark: -1, HiLandmark: -1}
	for i := 0; i < len(idx.landmarks); i++ {
		ds := idx.labels[i*idx.n+int(s)]
		dt := idx.labels[i*idx.n+int(t)]
		if ds == sssp.Inf || dt == sssp.Inf {
			continue
		}
		diff := ds - dt
		if diff < 0 {
			diff = -diff
		}
		if diff > info.Lo || info.LoLandmark < 0 {
			info.Lo, info.LoLandmark = diff, idx.landmarks[i]
		}
		if sum := ds + dt; sum < info.Hi {
			info.Hi, info.HiLandmark = sum, idx.landmarks[i]
		}
	}
	if info.Lo > info.Hi {
		info.Lo = info.Hi
	}
	return info
}

func refLowerBound(idx *Index, v, t int32) float64 {
	var lo float64
	for i := 0; i < len(idx.landmarks); i++ {
		dv := idx.labels[i*idx.n+int(v)]
		dt := idx.labels[i*idx.n+int(t)]
		if dv == sssp.Inf || dt == sssp.Inf {
			continue
		}
		diff := dv - dt
		if diff < 0 {
			diff = -diff
		}
		if diff > lo {
			lo = diff
		}
	}
	return lo
}

// matchReference fails unless every bound query on (s,t) equals the
// reference loops' answer bit for bit. It reports whether the pair's
// raw lower bound exceeded its upper bound, the case the clip mends.
func matchReference(t testing.TB, idx *Index, s, u int32) (clipped bool) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	lo, hi := idx.Bounds(s, u)
	rlo, rhi := refBounds(idx, s, u)
	if !same(lo, rlo) || !same(hi, rhi) {
		t.Fatalf("(%d,%d): Bounds [%v,%v], reference [%v,%v]", s, u, lo, hi, rlo, rhi)
	}
	got, want := idx.BoundsDetail(s, u), refBoundsDetail(idx, s, u)
	if !same(got.Lo, want.Lo) || !same(got.Hi, want.Hi) || got.LoLandmark != want.LoLandmark || got.HiLandmark != want.HiLandmark {
		t.Fatalf("(%d,%d): BoundsDetail %+v, reference %+v", s, u, got, want)
	}
	if h, rh := idx.LowerBound(s, u), refLowerBound(idx, s, u); !same(h, rh) {
		t.Fatalf("(%d,%d): LowerBound %v, reference %v", s, u, h, rh)
	}
	return refLowerBound(idx, s, u) > rhi
}

// The one bound pass answers exactly what the three loops it replaced
// answered: the same bits for lo and hi, the same landmark on each side
// and the same A* heuristic, on every case where the loops could part.
func TestBoundsMatchReference(t *testing.T) {
	t.Run("grids", func(t *testing.T) {
		g, err := gen.Grid(20, 20, gen.DefaultConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		n := int32(g.NumVertices())
		ws := sssp.NewWorkspace(g)
		rng := rand.New(rand.NewSource(9))
		for _, count := range []int{1, 8, 16, 128} {
			idx, err := Build(g, count, 4)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 2000; trial++ {
				s, u := rng.Int31n(n), rng.Int31n(n)
				if trial%100 == 0 {
					u = s // s == t: lo 0 from the first landmark, hi twice the nearest
				}
				matchReference(t, idx, s, u)
			}
			// The heuristic steers A* to the same settled vertices.
			for trial := 0; trial < 20; trial++ {
				s, u := rng.Int31n(n), rng.Int31n(n)
				d, settled := idx.SearchDistance(ws, s, u)
				rd, rsettled := ws.AStarDistance(s, u, func(v int32) float64 { return refLowerBound(idx, v, u) })
				if d != rd || settled != rsettled {
					t.Fatalf("%d landmarks (%d,%d): A* %v after %d settled, reference %v after %d", count, s, u, d, settled, rd, rsettled)
				}
			}
		}
	})

	t.Run("two components", func(t *testing.T) {
		// Path 0-1-2 and path 3-4-5, landmarks in both: a cross pair has
		// only infinite labels on one side, so no landmark bounds it.
		b := graph.NewBuilder(6, 4)
		for v := 0; v < 6; v++ {
			b.AddVertex(float64(v), 0)
		}
		for _, e := range [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
			if err := b.AddEdge(e[0], e[1], 1.5); err != nil {
				t.Fatal(err)
			}
		}
		g := b.Build()
		for _, lms := range [][]int32{{0, 4}, {0}} {
			idx, err := BuildWithLandmarks(g, lms)
			if err != nil {
				t.Fatal(err)
			}
			for s := int32(0); s < 6; s++ {
				for u := int32(0); u < 6; u++ {
					matchReference(t, idx, s, u)
				}
			}
			if info := idx.BoundsDetail(1, 5); info.Lo != 0 || info.Hi != sssp.Inf || info.LoLandmark != -1 || info.HiLandmark != -1 {
				t.Fatalf("landmarks %v: cross pair (1,5) = %+v, want [0,+Inf] with landmarks -1", lms, info)
			}
		}
	})

	t.Run("landmark on the path", func(t *testing.T) {
		// Every vertex of a path with irregular weights is a landmark,
		// so one lies beyond t (lo = d(s,t)) and one between s and t
		// (hi = d(s,t)); their float sums round apart, and the clip must
		// meet some lo one ulp above hi.
		const n = 60
		rng := rand.New(rand.NewSource(11))
		b := graph.NewBuilder(n, n-1)
		lms := make([]int32, n)
		for v := 0; v < n; v++ {
			b.AddVertex(float64(v), 0)
			lms[v] = int32(v)
		}
		for v := 1; v < n; v++ {
			if err := b.AddEdge(int32(v-1), int32(v), 0.1+rng.Float64()/3); err != nil {
				t.Fatal(err)
			}
		}
		idx, err := BuildWithLandmarks(b.Build(), lms)
		if err != nil {
			t.Fatal(err)
		}
		clips := 0
		for s := int32(0); s < n; s++ {
			for u := int32(0); u < n; u++ {
				if matchReference(t, idx, s, u) {
					clips++
				}
			}
		}
		if clips == 0 {
			t.Fatal("no pair's lower bound rounded above its upper bound; the clip went unexercised")
		}
	})

	t.Run("ties", func(t *testing.T) {
		// Landmarks 2 and 0 carry identical labels, so every pair ties
		// on both sides and the first listed landmark must win.
		row := []float64{0, 1, 2.5, 4, sssp.Inf}
		idx := &Index{labels: append(append([]float64(nil), row...), row...), landmarks: []int32{2, 0}, n: len(row)}
		for s := int32(0); s < 5; s++ {
			for u := int32(0); u < 5; u++ {
				matchReference(t, idx, s, u)
			}
		}
		if info := idx.BoundsDetail(1, 3); info.LoLandmark != 2 || info.HiLandmark != 2 {
			t.Fatalf("tied pair (1,3) = %+v, want the first landmark, 2, on both sides", info)
		}
	})

	t.Run("negative zero labels", func(t *testing.T) {
		// min(+0, -0) is -0 where the reference's strict scan keeps the
		// first +0, so Read refuses -0 labels; the +0 file loads and
		// matches.
		labels := []float64{0, 0, 3, 0, 0, 1}
		var plus bytes.Buffer
		if _, err := (&Index{labels: labels, landmarks: []int32{0, 1}, n: 3}).WriteTo(&plus); err != nil {
			t.Fatal(err)
		}
		idx, err := Read(bytes.NewReader(plus.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for s := int32(0); s < 3; s++ {
			for u := int32(0); u < 3; u++ {
				matchReference(t, idx, s, u)
			}
		}
		negZero := math.Copysign(0, -1)
		var minus bytes.Buffer
		if _, err := (&Index{labels: []float64{0, 0, 3, negZero, negZero, 1}, landmarks: []int32{0, 1}, n: 3}).WriteTo(&minus); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(bytes.NewReader(minus.Bytes())); err == nil {
			t.Fatal("Read accepted -0 labels")
		}
	})
}
