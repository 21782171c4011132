// Package sssp implements the exact shortest-path searches the rest of
// the repository depends on: classic Dijkstra (the paper's slow
// baseline), early-exit and bidirectional point-to-point variants, and
// A* with a pluggable admissible heuristic.
//
// All searches run inside a reusable Workspace so the high-volume
// callers — ground-truth labeling of millions of training samples —
// do not allocate per query.
//
// Distance, FromSource and DistanceToAll share one label-setting loop
// (settle). It runs on Dial's bucket queue when the graph's edge
// weights allow one, and on the indexed binary heap otherwise; A* and
// bidirectional search keep the heap. Both queues yield the same
// float64 distances, bit for bit. The floating-point Dijkstra labels D
// form the one function with D(s) = 0, D(v) ≤ fl(D(u)+w) on every edge
// (u,v,w), and, for every reached v ≠ s, a witness edge with
// D(v) = fl(D(u)+w). (Given two such functions, the vertex of least
// label where they differ has a witness from a vertex of smaller label,
// since fl(x+w) > x, on which they agree: a contradiction.) A search
// that scans only final vertices, in any order, computes it.
package sssp

import (
	"math"

	"repro/internal/graph"
	"repro/internal/pqueue"
)

// Inf is the distance reported for unreachable vertices.
const Inf = math.MaxFloat64

// maxBuckets caps the bucket queue's circular array, and so the empty
// buckets one pop may step over. A graph whose weights spread wider
// (w_max/w_min above about 127) searches on the indexed heap.
const maxBuckets = 256

// Workspace holds the scratch state for searches over one graph.
// It is not safe for concurrent use; create one Workspace per goroutine.
type Workspace struct {
	g       *graph.Graph
	dist    []float64
	parent  []int32
	touched []int32
	heap    *pqueue.IndexedHeap

	// dial is settle's bucket queue, nil when the weights select the
	// heap. It is chosen once, from the graph's weights.
	dial *buckets

	// A search's pending targets: mark[v] == stamp. Allocated on first
	// use, since FromSource reads no marks.
	mark  []uint32
	stamp uint32

	// second search side for bidirectional queries
	distB    []float64
	touchedB []int32
	heapB    *pqueue.IndexedHeap
}

// NewWorkspace returns a Workspace for searches over g.
func NewWorkspace(g *graph.Graph) *Workspace {
	n := g.NumVertices()
	ws := &Workspace{
		g:      g,
		dist:   make([]float64, n),
		parent: make([]int32, n),
		heap:   pqueue.New(n),
		dial:   newBuckets(g),
		distB:  make([]float64, n),
		heapB:  pqueue.New(n),
	}
	for i := 0; i < n; i++ {
		ws.dist[i] = Inf
		ws.distB[i] = Inf
		ws.parent[i] = -1
	}
	return ws
}

// Graph returns the graph this workspace searches.
func (ws *Workspace) Graph() *graph.Graph { return ws.g }

func (ws *Workspace) reset() {
	for _, v := range ws.touched {
		ws.dist[v] = Inf
		ws.parent[v] = -1
	}
	ws.touched = ws.touched[:0]
	ws.heap.Reset()
	if ws.dial != nil {
		ws.dial.reset()
	}
}

func (ws *Workspace) resetB() {
	for _, v := range ws.touchedB {
		ws.distB[v] = Inf
	}
	ws.touchedB = ws.touchedB[:0]
	ws.heapB.Reset()
}

// Distance runs a point-to-point Dijkstra from s, stopping as soon as t
// is settled. It returns Inf if t is unreachable.
func (ws *Workspace) Distance(s, t int32) float64 {
	if s == t {
		return 0
	}
	ws.settle(s, ws.pend(t))
	return ws.dist[t]
}

// FromSource runs a full single-source Dijkstra from s and copies the
// distance array into out (allocating if out is nil or too small).
// Unreachable vertices get Inf.
func (ws *Workspace) FromSource(s int32, out []float64) []float64 {
	ws.settle(s, -1)
	n := ws.g.NumVertices()
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	copy(out, ws.dist)
	return out
}

// DistanceToAll runs Dijkstra from s until every target is settled (or
// the graph is exhausted) and returns the distances in target order —
// far cheaper than a full SSSP when the targets cluster near s, the
// overfetch-and-rerank shape of dispatch workloads and of training-
// sample labeling. A target's distance is bit-identical to FromSource's:
// the search is a prefix of the full one. Unreachable targets get Inf.
func (ws *Workspace) DistanceToAll(s int32, targets []int32, out []float64) []float64 {
	if cap(out) < len(targets) {
		out = make([]float64, len(targets))
	}
	out = out[:len(targets)]
	if len(targets) == 0 {
		return out
	}
	ws.settle(s, ws.pend(targets...))
	for i, t := range targets {
		out[i] = ws.dist[t]
	}
	return out
}

// pend marks targets as the next search's pending set and returns how
// many distinct vertices it marked. Each call takes a fresh stamp, so
// marking costs no clearing pass (but one when the stamp wraps).
func (ws *Workspace) pend(targets ...int32) int {
	if ws.mark == nil {
		ws.mark = make([]uint32, ws.g.NumVertices())
	}
	ws.stamp++
	if ws.stamp == 0 {
		clear(ws.mark)
		ws.stamp = 1
	}
	n := 0
	for _, t := range targets {
		if ws.mark[t] != ws.stamp {
			ws.mark[t] = ws.stamp
			n++
		}
	}
	return n
}

// settle is the one label-setting loop. It runs Dijkstra from s until
// pending marked targets have been scanned, or the component is
// exhausted; pending < 0 never stops early and reads no marks. Every
// vertex the queue hands out is final, so a scanned target's label is
// already its FromSource value.
func (ws *Workspace) settle(s int32, pending int) {
	ws.reset()
	ws.dist[s] = 0
	ws.touched = append(ws.touched, s)
	q := ws.dial
	if q != nil {
		q.push(s, 0, Inf)
	} else {
		ws.heap.Push(s, 0)
	}
	for {
		var v int32
		if q != nil {
			var ok bool
			if v, ok = q.pop(ws.dist); !ok {
				return
			}
		} else {
			if ws.heap.Len() == 0 {
				return
			}
			v, _ = ws.heap.Pop()
		}
		if pending > 0 && ws.mark[v] == ws.stamp {
			if pending--; pending == 0 {
				return
			}
		}
		d := ws.dist[v]
		ts, wts := ws.g.Neighbors(v)
		for i, u := range ts {
			nd := d + wts[i]
			if old := ws.dist[u]; nd < old {
				if old == Inf {
					ws.touched = append(ws.touched, u)
				}
				ws.dist[u] = nd
				ws.parent[u] = v
				if q != nil {
					q.push(u, nd, old)
				} else {
					ws.heap.Push(u, nd)
				}
			}
		}
	}
}

// buckets is Dial's queue: a vertex labeled d waits in bucket ⌊d/Δ⌋,
// with Δ = w_min/2. Every edge adds at least 2Δ, so a vertex relaxed
// from bucket c lands in bucket c+1 or later even after rounding, and
// no scan can lower a label in the current bucket or an earlier one: a
// vertex taken from the lowest non-empty bucket is final, whatever the
// order within it. Every edge adds at most w_max, so live buckets span
// fewer than ⌈w_max/Δ⌉+2, and a circular array of that many slots,
// rounded up to a power of two, holds them.
//
// A label lowered within its bucket keeps its one entry there; a label
// lowered into an earlier bucket leaves a stale entry behind, which
// pop discards because the label no longer indexes that bucket.
type buckets struct {
	slot [][]int32 // absolute bucket k lives in slot[k&mask]
	mask int
	inv  float64 // 1/Δ
	cur  int     // the bucket being scanned
	n    int     // queued entries, stale ones included
}

// newBuckets sizes a bucket queue for g's weights, or returns nil when
// g has no edges, when w_min is subnormal (rounding no longer keeps
// relaxations a bucket ahead) or when the spread needs more than
// maxBuckets buckets.
func newBuckets(g *graph.Graph) *buckets {
	wmin, wmax := math.Inf(1), 0.0
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		_, wts := g.Neighbors(v)
		for _, w := range wts {
			wmin = min(wmin, w)
			wmax = max(wmax, w)
		}
	}
	if wmax == 0 || !(wmin >= 0x1p-1022) {
		return nil
	}
	delta := wmin / 2
	span := math.Ceil(wmax/delta) + 2
	if span > maxBuckets {
		return nil
	}
	size := 1
	for float64(size) < span {
		size <<= 1
	}
	return &buckets{slot: make([][]int32, size), mask: size - 1, inv: 1 / delta}
}

func (q *buckets) index(d float64) int { return int(d * q.inv) }

func (q *buckets) reset() {
	if q.n > 0 {
		for i := range q.slot {
			q.slot[i] = q.slot[i][:0]
		}
	}
	q.cur, q.n = 0, 0
}

func (q *buckets) push(u int32, d, old float64) {
	k := q.index(d)
	if old != Inf && q.index(old) == k {
		return
	}
	b := &q.slot[k&q.mask]
	*b = append(*b, u)
	q.n++
}

func (q *buckets) pop(dist []float64) (int32, bool) {
	for q.n > 0 {
		b := &q.slot[q.cur&q.mask]
		if len(*b) == 0 {
			q.cur++
			continue
		}
		v := (*b)[len(*b)-1]
		*b = (*b)[:len(*b)-1]
		q.n--
		if q.index(dist[v]) == q.cur {
			return v, true
		}
	}
	return 0, false
}

// Path reconstructs, after a Distance call that settled t, the vertex
// sequence of the shortest path s..t found. It returns nil if t was not
// reached. The result is ordered source-first.
func (ws *Workspace) Path(s, t int32) []int32 {
	if s == t {
		return []int32{s}
	}
	if ws.dist[t] == Inf {
		return nil
	}
	var rev []int32
	for v := t; v != -1; v = ws.parent[v] {
		rev = append(rev, v)
		if v == s {
			break
		}
	}
	if rev[len(rev)-1] != s {
		return nil
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// BidirectionalDistance runs Dijkstra from both endpoints
// simultaneously, alternating the side with the smaller frontier key,
// and stops when the sides' radii prove the best meeting distance
// optimal. It returns Inf if t is unreachable.
func (ws *Workspace) BidirectionalDistance(s, t int32) float64 {
	if s == t {
		return 0
	}
	ws.reset()
	ws.resetB()
	ws.dist[s] = 0
	ws.touched = append(ws.touched, s)
	ws.heap.Push(s, 0)
	ws.distB[t] = 0
	ws.touchedB = append(ws.touchedB, t)
	ws.heapB.Push(t, 0)

	best := Inf
	for ws.heap.Len() > 0 || ws.heapB.Len() > 0 {
		var fKey, bKey float64 = Inf, Inf
		if ws.heap.Len() > 0 {
			_, fKey = ws.heap.Peek()
		}
		if ws.heapB.Len() > 0 {
			_, bKey = ws.heapB.Peek()
		}
		if fKey+bKey >= best {
			break
		}
		if fKey <= bKey {
			v, d := ws.heap.Pop()
			if d > ws.dist[v] {
				continue
			}
			if db := ws.distB[v]; db < Inf && d+db < best {
				best = d + db
			}
			ts, wts := ws.g.Neighbors(v)
			for i, u := range ts {
				nd := d + wts[i]
				if nd < ws.dist[u] {
					if ws.dist[u] == Inf {
						ws.touched = append(ws.touched, u)
					}
					ws.dist[u] = nd
					ws.heap.Push(u, nd)
				}
			}
		} else {
			v, d := ws.heapB.Pop()
			if d > ws.distB[v] {
				continue
			}
			if df := ws.dist[v]; df < Inf && d+df < best {
				best = d + df
			}
			ts, wts := ws.g.Neighbors(v)
			for i, u := range ts {
				nd := d + wts[i]
				if nd < ws.distB[u] {
					if ws.distB[u] == Inf {
						ws.touchedB = append(ws.touchedB, u)
					}
					ws.distB[u] = nd
					ws.heapB.Push(u, nd)
				}
			}
		}
	}
	return best
}

// Heuristic is an admissible lower bound on the remaining distance from
// v to the (implicit) target of an A* search.
type Heuristic func(v int32) float64

// AStarDistance runs A* from s to t with the given admissible
// heuristic. With a nil heuristic it degenerates to Dijkstra.
// It returns Inf if t is unreachable and the number of settled vertices
// (a proxy for search effort used by the ALT experiments).
func (ws *Workspace) AStarDistance(s, t int32, h Heuristic) (float64, int) {
	if s == t {
		return 0, 0
	}
	if h == nil {
		h = func(int32) float64 { return 0 }
	}
	ws.reset()
	ws.dist[s] = 0
	ws.touched = append(ws.touched, s)
	ws.heap.Push(s, h(s))
	settled := 0
	for ws.heap.Len() > 0 {
		// IndexedHeap uses decrease-key, so every popped entry is current.
		v, _ := ws.heap.Pop()
		settled++
		if v == t {
			return ws.dist[v], settled
		}
		d := ws.dist[v]
		ts, wts := ws.g.Neighbors(v)
		for i, u := range ts {
			nd := d + wts[i]
			if nd < ws.dist[u] {
				if ws.dist[u] == Inf {
					ws.touched = append(ws.touched, u)
				}
				ws.dist[u] = nd
				ws.parent[u] = v
				ws.heap.Push(u, nd+h(u))
			}
		}
	}
	return Inf, settled
}
