// Package sample implements the training-sample selection strategies
// of Algorithm 2: subgraph-level selection for the hierarchy phase,
// landmark-based selection for the vertex phase, and the grid-bucketed
// error-based selection that drives active fine-tuning (Section V).
//
// Every selector draws first and labels second: it makes all of its RNG
// calls, accepting a target when it is reachable from its source, and
// then a Labeler fills in the exact distances in one parallel fan-out.
// To keep labeling tractable every selector groups several samples per
// Dijkstra source: the per-sample marginal distribution matches the
// paper's, with the usual minibatch-style correlation between samples
// sharing a source.
package sample

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Sample is one training triple (v_s, v_t, φ(v_s, v_t)).
type Sample struct {
	S, T int32
	Dist float64
}

// SubgraphLevel draws n samples for hierarchy level `level`
// (Algorithm 2, lines 1–5): a uniformly random pair of level-`level`
// sub-graphs, then a uniformly random vertex from each. perSource
// samples share each Dijkstra source (its sub-graph pair partner is
// redrawn every sample).
func SubgraphLevel(h *partition.Hierarchy, level, n, perSource int, lab *Labeler, rng *rand.Rand) []Sample {
	if perSource < 1 {
		perSource = 1
	}
	nodes := h.CoverAtLevel(level)
	out := make([]Sample, 0, n)
	for attempts := 0; len(out) < n && attempts < 20*(n+1); attempts++ {
		a := nodes[rng.Intn(len(nodes))]
		va := h.SubgraphVertices(a)
		s := va[rng.Intn(len(va))]
		for j := 0; j < perSource && len(out) < n; j++ {
			b := nodes[rng.Intn(len(nodes))]
			vb := h.SubgraphVertices(b)
			t := vb[rng.Intn(len(vb))]
			if lab.Accepts(s, t) {
				out = append(out, Sample{S: s, T: t})
			}
		}
	}
	lab.Label(out)
	return out
}

// LandmarkBased draws n samples pairing a uniform landmark with a
// uniform vertex (Algorithm 2, lines 6–8). The labeler groups samples
// by source, so each landmark's tree is searched once.
func LandmarkBased(g *graph.Graph, landmarks []int32, n int, lab *Labeler, rng *rand.Rand) []Sample {
	out := make([]Sample, 0, n)
	nv := g.NumVertices()
	for attempts := 0; len(out) < n && attempts < 20*(n+1); attempts++ {
		u := landmarks[rng.Intn(len(landmarks))]
		v := int32(rng.Intn(nv))
		if lab.Accepts(u, v) {
			out = append(out, Sample{S: u, T: v})
		}
	}
	lab.Label(out)
	return out
}

// RandomPairs draws n uniformly random vertex pairs with exact labels,
// grouping perSource samples per Dijkstra source. It backs both the
// naive selection baseline and validation sets.
func RandomPairs(g *graph.Graph, n, perSource int, lab *Labeler, rng *rand.Rand) []Sample {
	if perSource < 1 {
		perSource = 1
	}
	nv := g.NumVertices()
	out := make([]Sample, 0, n)
	for attempts := 0; len(out) < n && attempts < 20*(n+1); attempts++ {
		s := int32(rng.Intn(nv))
		for j := 0; j < perSource && len(out) < n; j++ {
			t := int32(rng.Intn(nv))
			if lab.Accepts(s, t) {
				out = append(out, Sample{S: s, T: t})
			}
		}
	}
	lab.Label(out)
	return out
}
