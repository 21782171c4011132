package sample

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/partition"
	"repro/internal/sssp"
)

// twoComponents overlays two jittered grids that share no edge, so
// grid cells, hierarchy nodes and random pairs all mix the components
// and every selector meets targets it must reject.
func twoComponents(t testing.TB) *graph.Graph {
	t.Helper()
	a, err := gen.Grid(12, 12, gen.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := gen.Grid(9, 9, gen.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(a.NumVertices()+c.NumVertices(), 0)
	for _, part := range []struct {
		g     *graph.Graph
		shift float64
	}{{a, 0}, {c, 50}} {
		base := int32(b.NumVertices())
		for v := int32(0); v < int32(part.g.NumVertices()); v++ {
			b.AddVertex(part.g.X(v)+part.shift, part.g.Y(v)+part.shift)
		}
		for v := int32(0); v < int32(part.g.NumVertices()); v++ {
			ts, ws := part.g.Neighbors(v)
			for i, u := range ts {
				if u > v {
					if err := b.AddEdge(base+v, base+u, ws[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	g := b.Build()
	if _, k := graph.ConnectedComponents(g); k != 2 {
		t.Fatalf("fixture has %d components, want 2", k)
	}
	return g
}

// refOracle labels the way the selectors did before they drew first:
// one full Dijkstra per source, read while drawing.
type refOracle struct {
	ws   *sssp.Workspace
	dist []float64
}

func (o *refOracle) FromSource(s int32) []float64 {
	o.dist = o.ws.FromSource(s, o.dist)
	return o.dist
}

// The ref* functions are the serial selectors as they were: the same
// code apart from the oracle type and comments.

func refSubgraphLevel(h *partition.Hierarchy, level, n, perSource int, oracle *refOracle, rng *rand.Rand) []Sample {
	if perSource < 1 {
		perSource = 1
	}
	nodes := h.CoverAtLevel(level)
	out := make([]Sample, 0, n)
	for attempts := 0; len(out) < n && attempts < 20*(n+1); attempts++ {
		a := nodes[rng.Intn(len(nodes))]
		va := h.SubgraphVertices(a)
		s := va[rng.Intn(len(va))]
		dist := oracle.FromSource(s)
		for j := 0; j < perSource && len(out) < n; j++ {
			b := nodes[rng.Intn(len(nodes))]
			vb := h.SubgraphVertices(b)
			t := vb[rng.Intn(len(vb))]
			if d := dist[t]; t != s && d < sssp.Inf {
				out = append(out, Sample{S: s, T: t, Dist: d})
			}
		}
	}
	return out
}

func refLandmarkBased(g *graph.Graph, landmarks []int32, n int, oracle *refOracle, rng *rand.Rand) []Sample {
	out := make([]Sample, 0, n)
	nv := g.NumVertices()
	for attempts := 0; len(out) < n && attempts < 20*(n+1); attempts++ {
		u := landmarks[rng.Intn(len(landmarks))]
		v := int32(rng.Intn(nv))
		dist := oracle.FromSource(u)
		if d := dist[v]; d < sssp.Inf && v != u {
			out = append(out, Sample{S: u, T: v, Dist: d})
		}
	}
	return out
}

func refRandomPairs(g *graph.Graph, n, perSource int, oracle *refOracle, rng *rand.Rand) []Sample {
	if perSource < 1 {
		perSource = 1
	}
	nv := g.NumVertices()
	out := make([]Sample, 0, n)
	for attempts := 0; len(out) < n && attempts < 20*(n+1); attempts++ {
		s := int32(rng.Intn(nv))
		dist := oracle.FromSource(s)
		for j := 0; j < perSource && len(out) < n; j++ {
			t := int32(rng.Intn(nv))
			if d := dist[t]; t != s && d < sssp.Inf {
				out = append(out, Sample{S: s, T: t, Dist: d})
			}
		}
	}
	return out
}

func refFromBucket(gb *GridBuckets, d, n, perSource int, oracle *refOracle, rng *rand.Rand) []Sample {
	if perSource < 1 {
		perSource = 1
	}
	out := make([]Sample, 0, n)
	if gb.BucketEmpty(d) {
		return out
	}
	for attempts := 0; len(out) < n && attempts < 20*(n+1); attempts++ {
		sa, sb, ok := gb.PickPair(d, rng)
		if !ok {
			break
		}
		s := sa[rng.Intn(len(sa))]
		dist := oracle.FromSource(s)
		for j := 0; j < perSource && len(out) < n; j++ {
			t := sb[rng.Intn(len(sb))]
			if dd := dist[t]; t != s && dd < sssp.Inf {
				out = append(out, Sample{S: s, T: t, Dist: dd})
			} else if len(sb) == 1 && t == s {
				break
			}
		}
	}
	return out
}

func refErrorBased(gb *GridBuckets, errors []float64, mode Mode, n, perSource int, oracle *refOracle, rng *rand.Rand) []Sample {
	R := gb.NumBuckets()
	if len(errors) != R {
		return nil
	}
	switch mode {
	case Local:
		best, bestErr := -1, math.Inf(-1)
		for d := 0; d < R; d++ {
			if !gb.BucketEmpty(d) && errors[d] > bestErr {
				best, bestErr = d, errors[d]
			}
		}
		if best < 0 {
			return nil
		}
		return refFromBucket(gb, best, n, perSource, oracle, rng)
	case Global:
		var total float64
		for d := 0; d < R; d++ {
			if !gb.BucketEmpty(d) && errors[d] > 0 {
				total += errors[d]
			}
		}
		if total <= 0 {
			return nil
		}
		out := make([]Sample, 0, n)
		for d := 0; d < R; d++ {
			if gb.BucketEmpty(d) || errors[d] <= 0 {
				continue
			}
			quota := int(math.Round(float64(n) * errors[d] / total))
			if quota == 0 {
				continue
			}
			out = append(out, refFromBucket(gb, d, quota, perSource, oracle, rng)...)
		}
		return out
	default:
		return nil
	}
}

func refProbeErrors(gb *GridBuckets, est func(s, t int32) float64, probesPerBucket, perSource int, oracle *refOracle, rng *rand.Rand) []float64 {
	R := gb.NumBuckets()
	out := make([]float64, R)
	for d := 0; d < R; d++ {
		probes := refFromBucket(gb, d, probesPerBucket, perSource, oracle, rng)
		if len(probes) == 0 {
			continue
		}
		var sum float64
		cnt := 0
		for _, p := range probes {
			if p.Dist > 0 {
				sum += math.Abs(est(p.S, p.T)-p.Dist) / p.Dist
				cnt++
			}
		}
		if cnt > 0 {
			out[d] = sum / float64(cnt)
		}
	}
	return out
}

// Drawing first and labeling in parallel must not change a selector's
// output: the same samples in the same order, labels bit-identical to a
// full Dijkstra's (refOracle's), and the RNG left where the serial
// selector left it, at any worker count.
func TestSelectorsMatchSerialReference(t *testing.T) {
	g := twoComponents(t)
	h, err := partition.BuildHierarchy(g, partition.DefaultHierConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	gb, err := NewGridBuckets(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := landmark.Random(g, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]float64, gb.NumBuckets())
	for d := range errs {
		errs[d] = float64(d%4) * 0.1 // some buckets skipped, uneven quotas
	}
	est := func(s, u int32) float64 { return g.Euclidean(s, u) }
	probes := func(v []float64) []Sample { // compare errors as pseudo-samples
		out := make([]Sample, len(v))
		for i, e := range v {
			out[i] = Sample{Dist: e}
		}
		return out
	}
	type selector struct {
		name string
		got  func(*Labeler, *rand.Rand) []Sample
		want func(*refOracle, *rand.Rand) []Sample
	}
	var cases []selector
	for _, lev := range []int{1, h.MaxDepth()} {
		cases = append(cases, selector{fmt.Sprintf("SubgraphLevel/%d", lev),
			func(l *Labeler, r *rand.Rand) []Sample { return SubgraphLevel(h, lev, 300, 16, l, r) },
			func(o *refOracle, r *rand.Rand) []Sample { return refSubgraphLevel(h, lev, 300, 16, o, r) }})
	}
	cases = append(cases,
		selector{"LandmarkBased",
			func(l *Labeler, r *rand.Rand) []Sample { return LandmarkBased(g, ls, 400, l, r) },
			func(o *refOracle, r *rand.Rand) []Sample { return refLandmarkBased(g, ls, 400, o, r) }},
		selector{"RandomPairs",
			func(l *Labeler, r *rand.Rand) []Sample { return RandomPairs(g, 250, 8, l, r) },
			func(o *refOracle, r *rand.Rand) []Sample { return refRandomPairs(g, 250, 8, o, r) }},
		selector{"ErrorBased/local",
			func(l *Labeler, r *rand.Rand) []Sample { return gb.ErrorBased(errs, Local, 100, 8, l, r) },
			func(o *refOracle, r *rand.Rand) []Sample { return refErrorBased(gb, errs, Local, 100, 8, o, r) }},
		selector{"ErrorBased/global",
			func(l *Labeler, r *rand.Rand) []Sample { return gb.ErrorBased(errs, Global, 300, 8, l, r) },
			func(o *refOracle, r *rand.Rand) []Sample { return refErrorBased(gb, errs, Global, 300, 8, o, r) }},
		selector{"ProbeErrors",
			func(l *Labeler, r *rand.Rand) []Sample { return probes(gb.ProbeErrors(est, 10, 4, l, r)) },
			func(o *refOracle, r *rand.Rand) []Sample { return probes(refProbeErrors(gb, est, 10, 4, o, r)) }},
	)
	for d := 0; d < gb.NumBuckets(); d += 3 {
		cases = append(cases, selector{fmt.Sprintf("FromBucket/%d", d),
			func(l *Labeler, r *rand.Rand) []Sample { return gb.FromBucket(d, 120, 8, l, r) },
			func(o *refOracle, r *rand.Rand) []Sample { return refFromBucket(gb, d, 120, 8, o, r) }})
	}

	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for seed := int64(1); seed <= 3; seed++ {
			lab := NewLabeler(g)
			ref := &refOracle{ws: sssp.NewWorkspace(g)}
			rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			// One RNG runs through every selector in turn, as a trainer's
			// does, so a drifted draw also shows in the next case.
			for _, c := range cases {
				got, want := c.got(lab, rngGot), c.want(ref, rngWant)
				if len(got) != len(want) {
					t.Fatalf("procs %d seed %d %s: %d samples, serial reference %d", procs, seed, c.name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("procs %d seed %d %s: sample %d = %+v, serial reference %+v", procs, seed, c.name, i, got[i], want[i])
					}
				}
				if a, b := rngGot.Int63(), rngWant.Int63(); a != b {
					t.Fatalf("procs %d seed %d %s: next draw %d, serial reference %d", procs, seed, c.name, a, b)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// benchGroups draws the two labeling shapes a build produces, 64
// targets per source: "hier" groups (100 sources, targets anywhere, as
// SubgraphLevel and RandomPairs draw them) and "finetune" groups (10
// per bucket of a 16x16 grid, targets in one cell, as FromBucket draws
// them).
func benchGroups(b *testing.B, g *graph.Graph, shape string) []Sample {
	rng := rand.New(rand.NewSource(1))
	var out []Sample
	add := func(s int32, pick func() int32) {
		for j := 0; j < 64; j++ {
			if t := pick(); t != s {
				out = append(out, Sample{S: s, T: t})
			}
		}
	}
	nv := g.NumVertices()
	switch shape {
	case "hier":
		for k := 0; k < 100; k++ {
			add(int32(rng.Intn(nv)), func() int32 { return int32(rng.Intn(nv)) })
		}
	case "finetune":
		gb, err := NewGridBuckets(g, 16)
		if err != nil {
			b.Fatal(err)
		}
		for d := 0; d < gb.NumBuckets(); d++ {
			for k := 0; k < 10; k++ {
				sa, sb, ok := gb.PickPair(d, rng)
				if !ok {
					break
				}
				add(sa[rng.Intn(len(sa))], func() int32 { return sb[rng.Intn(len(sb))] })
			}
		}
	}
	return out
}

// BenchmarkLabel times Labeler.Label alone on the two group shapes, on
// a 90x90 grid and (without -short) a 317x317 one: about 8k and 100k
// vertices.
func BenchmarkLabel(b *testing.B) {
	for _, side := range []int{90, 317} {
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			if side > 90 && testing.Short() {
				b.Skip("large graph skipped under -short")
			}
			g, err := gen.Grid(side, side, gen.DefaultConfig(1))
			if err != nil {
				b.Fatal(err)
			}
			for _, shape := range []string{"hier", "finetune"} {
				b.Run(shape, func(b *testing.B) {
					samples := benchGroups(b, g, shape)
					lab := NewLabeler(g)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						lab.Label(samples)
					}
				})
			}
		})
	}
}
