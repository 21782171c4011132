// Package index implements the tree-structured embedding index of
// Section VI: the partition hierarchy, pruned to the nodes that hold a
// target, annotated per node with a center and a covering radius (the
// largest scaled embedding distance from the center to a target
// underneath). Range and kNN queries prune a node by the lower bound
// ‖q−c‖·scale − r, which the triangle inequality of the L_p metric
// (p ≥ 1) makes sound; below p = 1 L_p is not a metric, and the index
// refuses such a model.
//
// Build sets each node's center to the per-dimension median of the
// targets under it and its radius to the exact largest distance from
// that center to one of them. Files from earlier builds, whose centers
// are the hierarchy nodes' global embeddings and whose radii were
// composed from their children's, keep the same layout and stay valid:
// their radii also cover every target beneath, which is all Load checks
// and all the queries rely on.
package index

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
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

// metricErr refuses a metric order below 1 (or NaN): there L_p breaks
// the triangle inequality, so a radius prune could cut a slot that
// holds an answer.
func metricErr(p float64) error {
	if p >= 1 {
		return nil
	}
	return fmt.Errorf("index: L_p with p = %v is not a metric (p < 1), so radius pruning would drop answers", p)
}

// Build constructs the index over targets. The model must retain its
// hierarchy (freshly built hierarchical models do; loaded models do
// not) and use a metric order p >= 1.
func Build(m *core.Model, targets []int32) (*Tree, error) {
	h := m.Hierarchy()
	if h == nil {
		return nil, fmt.Errorf("index: model has no hierarchy (naive or deserialized model)")
	}
	if err := metricErr(m.P()); err != nil {
		return nil, err
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

	t := &Tree{model: m, p: m.P(), scale: m.Scale(), size: size}

	// Recursively clone the subtree containing targets, numbering slots
	// in preorder. Vertex nodes are folded into their parent slot's
	// vertex list.
	var clone func(node int32) int32
	clone = func(node int32) int32 {
		slot := int32(len(t.children))
		t.children = append(t.children, nil)
		t.verts = append(t.verts, nil)
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
		t.children = append(t.children, nil)
		t.verts = append(t.verts, []int32{h.VertexID(0)})
	} else {
		t.root = clone(0)
	}

	// Fit each slot's ball post-order, when under[start:] holds every
	// target beneath it.
	t.vectors = make([][]float64, len(t.children))
	t.radius = make([]float64, len(t.children))
	col := make([]float64, size)
	under := make([]int32, 0, size)
	var fit func(slot int32)
	fit = func(slot int32) {
		start := len(under)
		under = append(under, t.verts[slot]...)
		for _, c := range t.children[slot] {
			fit(c)
		}
		t.vectors[slot], t.radius[slot] = t.ball(under[start:], col)
	}
	fit(t.root)
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

// ball returns the center and covering radius of the targets vs: the
// per-dimension median of their vectors (the mean of the two middle
// values for an even count) and the largest scaled L_p distance from it
// to one of them. col is scratch of at least len(vs).
func (t *Tree) ball(vs []int32, col []float64) ([]float64, float64) {
	center := make([]float64, t.model.Dim())
	col = col[:len(vs)]
	for j := range center {
		for i, v := range vs {
			col[i] = t.model.Vector(v)[j]
		}
		slices.Sort(col)
		center[j] = (col[(len(col)-1)/2] + col[len(col)/2]) / 2
	}
	var r float64
	for _, v := range vs {
		if d := vecmath.Lp(center, t.model.Vector(v), t.p) * t.scale; d > r {
			r = d
		}
	}
	return center, r
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
	// NodesPruned counts slots that were considered but never
	// expanded: cut by their radius lower bound, or, on KNN, left
	// queued when the best-first search stopped.
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

// KNN returns up to k indexed targets closest to source by estimated
// network distance, nearest first, ties in vertex id order (best-first
// tree traversal with lower-bound keys, the Section VI algorithm).
func (t *Tree) KNN(source int32, k int) []int32 {
	out, _ := t.KNNStats(source, k)
	return out
}

// KNNStats is KNN plus traversal counters; NodesPruned counts slots
// cut by their lower bound and slots still queued when the search
// stopped. Its working memory is pooled, so a query allocates only the
// ids it returns.
func (t *Tree) KNNStats(source int32, k int) ([]int32, QueryStats) {
	out, _, st := t.knn(source, k, false, nil)
	return out, st
}

// KNNDistances is KNNStats that also appends each returned target's
// estimated distance to dist: the score the traversal gave it,
// bit-identical to Model.Estimate(source, id).
func (t *Tree) KNNDistances(source int32, k int, dist []float64) ([]int32, []float64, QueryStats) {
	return t.knn(source, k, true, dist)
}

// knn runs the search on pooled scratch and returns the ids it found
// and, when withDist is set, dist with their distances appended.
func (t *Tree) knn(source int32, k int, withDist bool, dist []float64) ([]int32, []float64, QueryStats) {
	if k <= 0 {
		return nil, dist, QueryStats{}
	}
	sc := scratchPool.Get().(*scratch)
	st := t.nearest(sc, t.model.Vector(source), k)
	out := make([]int32, len(sc.best))
	for i, h := range sc.best {
		out[i] = h.v
		if withDist {
			dist = append(dist, h.dist)
		}
	}
	scratchPool.Put(sc)
	return out, dist, st
}

// scratch is one kNN query's working memory.
type scratch struct {
	queue []queued // slots to expand: a binary min-heap on bound
	best  []hit    // the nearest targets so far: at most k, in hit order
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// A queued slot carries the lower bound on its targets' distances.
type queued struct {
	bound float64
	slot  int32
}

// A hit is a scored target.
type hit struct {
	dist float64
	v    int32
}

// before orders hits by distance, then by vertex id. A NaN distance
// sorts after every number, so it never hides a finite neighbour.
func (a hit) before(b hit) bool {
	if a.dist < b.dist || (a.dist == b.dist && a.v < b.v) {
		return true
	}
	return b.dist != b.dist && (a.dist == a.dist || a.v < b.v)
}

// nearest leaves in sc.best the k targets nearest to q, in hit order,
// by best-first search over the slots. Once k targets are found, their
// k-th distance cuts every slot whose bound exceeds it, abandons every
// candidate whose partial sum passes it, and stops the search when the
// smallest queued bound exceeds it. A NaN bound or k-th distance cuts
// nothing.
func (t *Tree) nearest(sc *scratch, q []float64, k int) QueryStats {
	var st QueryStats
	best, queue := sc.best[:0], sc.queue[:0]
	kth := math.Inf(1)
	b, _ := t.bound(q, t.vectors[t.root], t.radius[t.root], kth)
	queue = push(queue, queued{b, t.root})
	for len(queue) > 0 && !(queue[0].bound > kth) {
		var slot int32
		queue, slot = pop(queue)
		st.NodesVisited++
		st.VertsScanned += len(t.verts[slot])
		for _, v := range t.verts[slot] {
			d, ok := t.bound(q, t.model.Vector(v), 0, kth)
			if h := (hit{d, v}); ok && (len(best) < k || h.before(best[k-1])) {
				best = insert(best, h, k)
				if len(best) == k {
					kth = best[k-1].dist
				}
			}
		}
		for _, c := range t.children[slot] {
			if b, ok := t.bound(q, t.vectors[c], t.radius[c], kth); ok {
				queue = push(queue, queued{b, c})
			} else {
				st.NodesPruned++
			}
		}
	}
	st.NodesPruned += len(queue)
	sc.best, sc.queue = best, queue
	return st
}

// boundBlock is how many coordinates bound sums between checks of its
// limit.
const boundBlock = 16

// bound returns Lp(q, x)·scale − r and whether it is at most limit (or
// NaN). With r = 0 it is the distance between the vectors, and at p = 1
// it sums in vecmath.L1's order, so a target's distance is
// bit-identical to Model.Estimate's. The terms are non-negative, so the
// partial sums only grow: at p = 1 bound gives up at the first block
// whose partial sum already puts the result past limit.
func (t *Tree) bound(q, x []float64, r, limit float64) (float64, bool) {
	if t.p != 1 {
		d := vecmath.Lp(q, x, t.p)*t.scale - r
		return d, !(d > limit)
	}
	x = x[:len(q)]
	var s float64
	for i := 0; i < len(q); {
		for end := min(i+boundBlock, len(q)); i < end; i++ {
			s += math.Abs(q[i] - x[i])
		}
		if s*t.scale-r > limit {
			return 0, false
		}
	}
	return s*t.scale - r, true
}

// insert puts h into best, which holds at most k hits in hit order and,
// when full, ends in one that h comes before.
func insert(best []hit, h hit, k int) []hit {
	lo, hi := 0, len(best)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); h.before(best[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if len(best) < k {
		best = append(best, hit{})
	}
	copy(best[lo+1:], best[lo:len(best)-1])
	best[lo] = h
	return best
}

// push adds e to the heap queue. A negative or NaN bound is queued as
// 0: no distance is below it, and the heap never compares a NaN.
func push(queue []queued, e queued) []queued {
	if !(e.bound > 0) {
		e.bound = 0
	}
	queue = append(queue, e)
	for i := len(queue) - 1; i > 0; {
		parent := (i - 1) / 2
		if queue[parent].bound <= queue[i].bound {
			break
		}
		queue[parent], queue[i] = queue[i], queue[parent]
		i = parent
	}
	return queue
}

// pop removes the slot with the smallest bound from the heap queue.
func pop(queue []queued) ([]queued, int32) {
	slot := queue[0].slot
	last := len(queue) - 1
	queue[0] = queue[last]
	queue = queue[:last]
	for i := 0; ; {
		small, l := i, 2*i+1
		if l < last && queue[l].bound < queue[small].bound {
			small = l
		}
		if l+1 < last && queue[l+1].bound < queue[small].bound {
			small = l + 1
		}
		if small == i {
			return queue, slot
		}
		queue[i], queue[small] = queue[small], queue[i]
		i = small
	}
}
