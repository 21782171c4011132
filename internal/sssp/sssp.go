// Package sssp implements the exact shortest-path searches the rest of
// the repository depends on: classic Dijkstra (the paper's slow
// baseline), early-exit and bidirectional point-to-point variants, and
// A* with a pluggable admissible heuristic.
//
// All searches run inside a reusable Workspace so the high-volume
// callers — ground-truth labeling of millions of training samples —
// do not allocate per query.
package sssp

import (
	"math"

	"repro/internal/graph"
	"repro/internal/pqueue"
)

// Inf is the distance reported for unreachable vertices.
const Inf = math.MaxFloat64

// Workspace holds the scratch state for searches over one graph.
// It is not safe for concurrent use; create one Workspace per goroutine.
type Workspace struct {
	g       *graph.Graph
	dist    []float64
	parent  []int32
	touched []int32
	heap    *pqueue.IndexedHeap

	// DistanceToAll's pending targets: mark[v] == stamp. Allocated on
	// first use.
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
	ws.reset()
	ws.dist[s] = 0
	ws.touched = append(ws.touched, s)
	ws.heap.Push(s, 0)
	for ws.heap.Len() > 0 {
		v, d := ws.heap.Pop()
		if d > ws.dist[v] {
			continue
		}
		if v == t {
			return d
		}
		ts, wts := ws.g.Neighbors(v)
		for i, u := range ts {
			nd := d + wts[i]
			if nd < ws.dist[u] {
				if ws.dist[u] == Inf {
					ws.touched = append(ws.touched, u)
				}
				ws.dist[u] = nd
				ws.parent[u] = v
				ws.heap.Push(u, nd)
			}
		}
	}
	return Inf
}

// FromSource runs a full single-source Dijkstra from s and copies the
// distance array into out (allocating if out is nil or too small).
// Unreachable vertices get Inf.
func (ws *Workspace) FromSource(s int32, out []float64) []float64 {
	ws.reset()
	ws.dist[s] = 0
	ws.touched = append(ws.touched, s)
	ws.heap.Push(s, 0)
	for ws.heap.Len() > 0 {
		v, d := ws.heap.Pop()
		if d > ws.dist[v] {
			continue
		}
		ts, wts := ws.g.Neighbors(v)
		for i, u := range ts {
			nd := d + wts[i]
			if nd < ws.dist[u] {
				if ws.dist[u] == Inf {
					ws.touched = append(ws.touched, u)
				}
				ws.dist[u] = nd
				ws.parent[u] = v
				ws.heap.Push(u, nd)
			}
		}
	}
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
	ws.reset()
	// Pending targets carry the current stamp (a target listed twice
	// counts once), so marking them costs no clearing pass and no
	// allocation after the first call.
	if ws.mark == nil {
		ws.mark = make([]uint32, ws.g.NumVertices())
	}
	ws.stamp++
	if ws.stamp == 0 {
		clear(ws.mark)
		ws.stamp = 1
	}
	remaining := 0
	for _, t := range targets {
		if t != s && ws.mark[t] != ws.stamp {
			ws.mark[t] = ws.stamp
			remaining++
		}
	}
	ws.dist[s] = 0
	ws.touched = append(ws.touched, s)
	ws.heap.Push(s, 0)
	for ws.heap.Len() > 0 && remaining > 0 {
		v, d := ws.heap.Pop()
		if ws.mark[v] == ws.stamp {
			ws.mark[v] = 0
			remaining--
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
	}
	for i, t := range targets {
		out[i] = ws.dist[t]
	}
	return out
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
