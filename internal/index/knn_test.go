package index

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/vecmath"
)

// bruteHits scores every target from src with Model.Estimate and sorts
// them by (distance, id): the order KNN must reproduce exactly.
func bruteHits(m *core.Model, targets []int32, src int32) []hit {
	hs := make([]hit, len(targets))
	for i, v := range targets {
		hs[i] = hit{m.Estimate(src, v), v}
	}
	slices.SortFunc(hs, func(a, b hit) int {
		return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.v, b.v))
	})
	return hs
}

// checkKNN fails unless tr's k nearest targets of src, and the keys the
// traversal ranked them by, are want's first k, bit for bit.
func checkKNN(t *testing.T, tr *Tree, m *core.Model, src int32, k int, want []hit) {
	t.Helper()
	if k > len(want) {
		k = len(want)
	}
	sc := new(scratch)
	tr.nearest(sc, m.Vector(src), k)
	ids := tr.KNN(src, k)
	if len(sc.best) != k || len(ids) != k {
		t.Fatalf("KNN(%d,%d): %d hits, %d ids", src, k, len(sc.best), len(ids))
	}
	for i, w := range want[:k] {
		if h := sc.best[i]; h.v != w.v || ids[i] != w.v || math.Float64bits(h.dist) != math.Float64bits(w.dist) {
			t.Fatalf("KNN(%d,%d)[%d] = %d at %v (id %d), want %d at %v", src, k, i, h.v, h.dist, ids[i], w.v, w.dist)
		}
	}
}

// targetsOf lists tr's targets.
func targetsOf(tr *Tree) []int32 {
	var out []int32
	for _, vs := range tr.verts {
		out = append(out, vs...)
	}
	return out
}

// reload is tr saved and loaded back against m.
func reload(t *testing.T, tr *Tree, m *core.Model) *Tree {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, m)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// earlierBuild is tr with the centers and radii that builds before the
// median centers wrote: each slot's hierarchy node's global embedding,
// and a radius composed bottom-up as the largest of its own targets'
// distances and max(child-center distance + child radius).
func earlierBuild(t *testing.T, m *core.Model, tr *Tree) *Tree {
	t.Helper()
	h, inSet := m.Hierarchy(), make([]bool, m.NumVertices())
	for _, v := range targetsOf(tr) {
		inSet[v] = true
	}
	// Build numbers slots in preorder over the target-holding nodes.
	var node []int32
	var walk func(n int32)
	walk = func(n int32) {
		node = append(node, n)
		for _, c := range h.Children(n) {
			if !h.IsVertexNode(c) && subtreeHasTarget(h, c, inSet) {
				walk(c)
			}
		}
	}
	walk(0)
	if len(node) != len(tr.children) {
		t.Fatalf("hierarchy walk found %d slots, the tree has %d", len(node), len(tr.children))
	}
	old := *tr
	old.vectors = make([][]float64, len(node))
	old.radius = make([]float64, len(node))
	for slot := len(node) - 1; slot >= 0; slot-- { // children after parents
		c := m.Hier().NodeGlobalInto(make([]float64, m.Dim()), node[slot])
		var r float64
		for _, v := range tr.verts[slot] {
			r = max(r, vecmath.Lp(c, m.Vector(v), tr.p)*tr.scale)
		}
		for _, ch := range tr.children[slot] {
			r = max(r, vecmath.Lp(c, old.vectors[ch], tr.p)*tr.scale+old.radius[ch])
		}
		old.vectors[slot], old.radius[slot] = c, r
	}
	return &old
}

// KNN is exact from every source of the fixture, at k = 1, 10 and
// Size(): its ids are the targets sorted by (Model.Estimate, id), and
// the keys it ranked them by are those estimates bit for bit. Range
// equals bruteRange. Both hold on a built tree, on its Save→Load round
// trip, on a tree shaped like the files earlier builds wrote, and on a
// tree over the fixture trained under L2. Four pairs of targets share a
// row, so ties are broken by id and a bound equal to the k-th distance
// must not cut.
func TestKNNExactAgainstBruteForce(t *testing.T) {
	m, m2 := buildModel(t), buildModelP(t, 2)
	rng := rand.New(rand.NewSource(11))
	var targets []int32
	for v := int32(0); v < int32(m.NumVertices()); v++ {
		if rng.Intn(3) == 0 {
			targets = append(targets, v)
		}
	}
	for i := 0; i < 8; i += 2 {
		copy(m.Vector(targets[i*5+1]), m.Vector(targets[i*5]))
		copy(m2.Vector(targets[i*5+1]), m2.Vector(targets[i*5]))
	}
	built, err := Build(m, targets)
	if err != nil {
		t.Fatal(err)
	}
	builtL2, err := Build(m2, targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tr   *Tree
		m    *core.Model
	}{
		{"built", built, m},
		{"reloaded", reload(t, built, m), m},
		{"earlier build, reloaded", reload(t, earlierBuild(t, m, built), m), m},
		{"built under L2", builtL2, m2},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := c.m
			for src := int32(0); src < int32(m.NumVertices()); src++ {
				want := bruteHits(m, targets, src)
				for _, k := range []int{1, 10, c.tr.Size()} {
					checkKNN(t, c.tr, m, src, k, want)
				}
				for _, f := range []float64{0.05, 0.15, 0.3} {
					tau := f * m.Scale()
					if got, want := c.tr.Range(src, tau), bruteRange(m, targets, src, tau); !slices.Equal(got, want) {
						t.Fatalf("Range(%d, %v) = %v, want %v", src, tau, got, want)
					}
				}
			}
		})
	}
}

// A target whose row is NaN sorts after every finite distance: it never
// hides a finite neighbour and is returned only once k reaches it.
func TestKNNNaNRowSortsLast(t *testing.T) {
	m := buildModel(t)
	var targets, finite []int32
	for v := int32(0); v < int32(m.NumVertices()); v += 2 {
		targets = append(targets, v)
	}
	tree, err := Build(m, targets)
	if err != nil {
		t.Fatal(err)
	}
	bad := targets[3]
	for i := range m.Vector(bad) {
		m.Vector(bad)[i] = math.NaN()
	}
	for _, v := range targets {
		if v != bad {
			finite = append(finite, v)
		}
	}
	for src := int32(1); src < int32(m.NumVertices()); src += 7 {
		want := bruteHits(m, finite, src)
		for _, k := range []int{1, 10, len(finite)} {
			checkKNN(t, tree, m, src, k, want)
		}
		if all := tree.KNN(src, tree.Size()); all[len(all)-1] != bad {
			t.Fatalf("KNN(%d, Size()) ends in %d, want the NaN row %d", src, all[len(all)-1], bad)
		}
	}
}

// A kNN query allocates only the ids it returns.
func TestKNNAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	m := buildModel(t)
	var targets []int32
	for v := int32(0); v < int32(m.NumVertices()); v += 2 {
		targets = append(targets, v)
	}
	tree, err := Build(m, targets)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() { tree.KNN(3, 10) }); a > 1 {
		t.Fatalf("KNN(3,10) allocates %v times, want at most 1", a)
	}
}

// BenchmarkKNN times KNN(s, 10) on a tree of realistic shape: a 40x40
// grid's d=64 model with one vertex in ten a target, the knn workload's
// target share.
func BenchmarkKNN(b *testing.B) {
	g, err := gen.Grid(40, 40, gen.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions(1)
	opt.Epochs = 2
	opt.VertexSampleRatio = 10
	opt.FineTuneRounds = 1
	opt.HierSampleCap = 5000
	opt.ValidationPairs = 100
	m, _, err := core.Build(g, opt)
	if err != nil {
		b.Fatal(err)
	}
	n := m.NumVertices()
	targets := make([]int32, 0, n/10)
	for _, v := range rand.New(rand.NewSource(2)).Perm(n)[:n/10] {
		targets = append(targets, int32(v))
	}
	tree, err := Build(m, targets)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.KNN(int32(i%n), 10)
	}
}
