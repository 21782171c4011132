// Package index implements the tree-structured embedding index of
// Section VI: the partition hierarchy annotated, per node, with the
// node's global embedding vector and a covering radius (the maximum
// embedding distance to any indexed vertex underneath). Range and kNN
// queries prune subtrees through the triangle inequality, which the
// L_p embedding metric guarantees by construction.
package index

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/pqueue"
	"repro/internal/vecmath"
)

// Tree is an embedding-space index over a set of target vertices
// (e.g. taxis, POIs). Build once, query many times; queries are
// read-only and safe for concurrent use.
type Tree struct {
	model *core.Model
	p     float64
	scale float64

	// Pruned mirror of the hierarchy: only nodes with >= 1 target.
	children [][]int32 // child slot ids per node slot
	vectors  [][]float64
	radius   []float64
	// verts[slot] lists target vertex ids directly under a leaf slot.
	verts [][]int32
	root  int32
	size  int
}

// Build constructs the index over targets. The model must retain its
// hierarchy (freshly built hierarchical models do; loaded models do
// not).
func Build(m *core.Model, targets []int32) (*Tree, error) {
	hh := m.Hier()
	if hh == nil {
		return nil, fmt.Errorf("index: model has no hierarchy (naive or deserialized model)")
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("index: empty target set")
	}
	n := m.NumVertices()
	inSet := make([]bool, n)
	size := 0 // distinct targets: a repeated one is indexed once
	for _, v := range targets {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("index: target %d outside [0,%d)", v, n)
		}
		if !inSet[v] {
			inSet[v] = true
			size++
		}
	}

	h := hh.H
	t := &Tree{model: m, p: m.P(), scale: m.Scale(), size: size}

	// Recursively clone the subtree containing targets. Vertex nodes are
	// folded into their parent slot's vertex list.
	d := m.Dim()
	var clone func(node int32) int32
	clone = func(node int32) int32 {
		slot := int32(len(t.children))
		t.children = append(t.children, nil)
		t.verts = append(t.verts, nil)
		vec := make([]float64, d)
		hh.NodeGlobalInto(vec, node)
		t.vectors = append(t.vectors, vec)
		t.radius = append(t.radius, 0)

		for _, c := range h.Children(node) {
			if h.IsVertexNode(c) {
				if v := h.VertexID(c); inSet[v] {
					t.verts[slot] = append(t.verts[slot], v)
				}
				continue
			}
			if !subtreeHasTarget(h, c, inSet) {
				continue
			}
			cs := clone(c)
			t.children[slot] = append(t.children[slot], cs)
		}
		return slot
	}
	// Handle degenerate single-vertex hierarchies where the root is a
	// vertex node itself.
	if h.IsVertexNode(0) {
		slot := int32(0)
		t.children = append(t.children, nil)
		vec := make([]float64, d)
		hh.NodeGlobalInto(vec, 0)
		t.vectors = append(t.vectors, vec)
		t.radius = append(t.radius, 0)
		t.verts = append(t.verts, []int32{h.VertexID(0)})
		t.root = slot
	} else {
		t.root = clone(0)
	}

	t.computeRadii(t.root)
	return t, nil
}

// subtreeHasTarget reports whether any target vertex lives under node.
func subtreeHasTarget(h interface {
	SubgraphVertices(int32) []int32
}, node int32, inSet []bool) bool {
	for _, v := range h.SubgraphVertices(node) {
		if inSet[v] {
			return true
		}
	}
	return false
}

// computeRadii fills radius[slot] = max scaled L_p distance from the
// slot's vector to any indexed vertex in its subtree, returning the
// maximum for the parent.
func (t *Tree) computeRadii(slot int32) float64 {
	var r float64
	for _, v := range t.verts[slot] {
		d := vecmath.Lp(t.vectors[slot], t.model.Vector(v), t.p) * t.scale
		if d > r {
			r = d
		}
	}
	for _, c := range t.children[slot] {
		_ = t.computeRadii(c)
		// Bound the child's farthest vertex through the child center.
		d := vecmath.Lp(t.vectors[slot], t.vectors[c], t.p)*t.scale + t.radius[c]
		if d > r {
			r = d
		}
	}
	t.radius[slot] = r
	return r
}

// Size returns the number of indexed targets.
func (t *Tree) Size() int { return t.size }

// IndexBytes reports the tree's own resident size (vectors, radii,
// child and vertex lists), excluding the model it references, for
// per-component memory accounting.
func (t *Tree) IndexBytes() int64 {
	var b int64
	for slot := range t.children {
		b += int64(len(t.children[slot]))*4 +
			int64(len(t.vectors[slot]))*8 +
			int64(len(t.verts[slot]))*4 + 8 // radius entry
	}
	return b + 64
}

// QueryStats counts the work one tree traversal did, for query
// explainability: how much of the index the triangle-inequality
// pruning actually skipped.
type QueryStats struct {
	// NodesVisited counts tree slots expanded (their vertices scored
	// and children considered).
	NodesVisited int `json:"nodes_visited"`
	// NodesPruned counts subtrees never expanded: cut by the radius
	// lower bound on Range, or still queued when KNN's best-first
	// search terminated.
	NodesPruned int `json:"nodes_pruned"`
	// VertsScanned counts candidate target vertices whose embedding
	// distance was evaluated.
	VertsScanned int `json:"verts_scanned"`
}

// Range returns all indexed targets whose estimated network distance to
// source is at most tau, sorted by vertex id. A negative tau yields an
// empty result.
func (t *Tree) Range(source int32, tau float64) []int32 {
	out, _ := t.RangeStats(source, tau)
	return out
}

// RangeStats is Range plus traversal counters; NodesPruned counts
// subtrees cut by the radius lower bound (the Section VI prune).
func (t *Tree) RangeStats(source int32, tau float64) ([]int32, QueryStats) {
	var st QueryStats
	if tau < 0 {
		return nil, st
	}
	q := t.model.Vector(source)
	var out []int32
	var walk func(slot int32)
	walk = func(slot int32) {
		center := vecmath.Lp(q, t.vectors[slot], t.p) * t.scale
		if center-t.radius[slot] > tau {
			st.NodesPruned++
			return // triangle-inequality prune
		}
		st.NodesVisited++
		st.VertsScanned += len(t.verts[slot])
		for _, v := range t.verts[slot] {
			if vecmath.Lp(q, t.model.Vector(v), t.p)*t.scale <= tau {
				out = append(out, v)
			}
		}
		for _, c := range t.children[slot] {
			walk(c)
		}
	}
	walk(t.root)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, st
}

// payload encoding for the kNN frontier: vertices have the low bit set.
func nodePayload(slot int32) int64        { return int64(slot) << 1 }
func vertPayload(v int32) int64           { return int64(v)<<1 | 1 }
func decodePayload(p int64) (int32, bool) { return int32(p >> 1), p&1 == 1 }

// KNN returns up to k indexed targets closest to source by estimated
// network distance, nearest first (best-first tree traversal with
// lower-bound keys, the Section VI algorithm).
func (t *Tree) KNN(source int32, k int) []int32 {
	out, _ := t.KNNStats(source, k)
	return out
}

// KNNStats is KNN plus traversal counters; NodesPruned counts tree
// nodes whose lower bound kept them queued, unexpanded, when the
// best-first search found its k results (the work the radius cutoff
// avoided).
func (t *Tree) KNNStats(source int32, k int) ([]int32, QueryStats) {
	var st QueryStats
	if k <= 0 {
		return nil, st
	}
	q := t.model.Vector(source)
	var pq pqueue.FloatHeap
	lower := vecmath.Lp(q, t.vectors[t.root], t.p)*t.scale - t.radius[t.root]
	if lower < 0 {
		lower = 0
	}
	pq.Push(lower, nodePayload(t.root))
	queuedNodes := 1
	out := make([]int32, 0, k)
	for pq.Len() > 0 && len(out) < k {
		_, payload := pq.Pop()
		id, isVert := decodePayload(payload)
		if isVert {
			out = append(out, id)
			continue
		}
		st.NodesVisited++
		queuedNodes--
		st.VertsScanned += len(t.verts[id])
		for _, v := range t.verts[id] {
			pq.Push(vecmath.Lp(q, t.model.Vector(v), t.p)*t.scale, vertPayload(v))
		}
		for _, c := range t.children[id] {
			lb := vecmath.Lp(q, t.vectors[c], t.p)*t.scale - t.radius[c]
			if lb < 0 {
				lb = 0
			}
			pq.Push(lb, nodePayload(c))
			queuedNodes++
		}
	}
	st.NodesPruned = queuedNodes
	return out, st
}
