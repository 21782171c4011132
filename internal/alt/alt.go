// Package alt implements the ALT machinery of Goldberg & Harrelson: a
// landmark set U with a precomputed |U| x |V| distance label matrix.
// Two query modes are provided:
//
//   - LT estimation (the paper's "LT" comparator): combine the
//     triangle-inequality lower bound max_u |d(u,s)-d(u,t)| and the
//     upper bound min_u d(u,s)+d(u,t) into an O(|U|) distance estimate
//     with no graph search.
//   - ALT A* search: exact point-to-point search guided by the landmark
//     lower bound.
package alt

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/sssp"
)

// Index holds the landmark label matrix.
type Index struct {
	g *graph.Graph
	// labels is |U| x |V| row-major: labels[u*n+v] = d(U[u], v).
	labels    []float64
	landmarks []int32
	n         int
}

// Build selects count landmarks by farthest selection and runs one
// Dijkstra per landmark to fill the label matrix.
func Build(g *graph.Graph, count int, seed int64) (*Index, error) {
	if count < 1 {
		return nil, fmt.Errorf("alt: need at least one landmark, got %d", count)
	}
	lms, err := landmark.Farthest(g, count, seed)
	if err != nil {
		return nil, err
	}
	return BuildWithLandmarks(g, lms)
}

// BuildWithLandmarks builds the label matrix for a caller-chosen
// landmark set.
func BuildWithLandmarks(g *graph.Graph, landmarks []int32) (*Index, error) {
	if len(landmarks) == 0 {
		return nil, fmt.Errorf("alt: empty landmark set")
	}
	n := g.NumVertices()
	idx := &Index{
		g:         g,
		labels:    make([]float64, len(landmarks)*n),
		landmarks: append([]int32(nil), landmarks...),
		n:         n,
	}
	ws := sssp.NewWorkspace(g)
	for i, u := range landmarks {
		row := idx.labels[i*n : (i+1)*n]
		ws.FromSource(u, row)
	}
	return idx, nil
}

// NumLandmarks returns |U|.
func (idx *Index) NumLandmarks() int { return len(idx.landmarks) }

// Landmarks returns the landmark ids (aliasing internal storage).
func (idx *Index) Landmarks() []int32 { return idx.landmarks }

// IndexBytes reports the label matrix size in bytes (the Table IV
// metric for LT).
func (idx *Index) IndexBytes() int64 {
	return int64(len(idx.labels)) * 8
}

// Restrict returns a new index holding only the landmarks at the
// given positions (indices into Landmarks(), not vertex ids). The
// label matrix keeps its full |V| columns, so the restricted index
// still bounds every vertex pair — any landmark subset yields valid,
// merely looser, triangle-inequality bounds. This is how a shard
// carries a region-sized guard that stays correct for cross-region
// pairs.
func (idx *Index) Restrict(keep []int) (*Index, error) {
	if len(keep) == 0 {
		return nil, fmt.Errorf("alt: restricting to an empty landmark set")
	}
	out := &Index{
		g:         idx.g,
		labels:    make([]float64, len(keep)*idx.n),
		landmarks: make([]int32, len(keep)),
		n:         idx.n,
	}
	for j, i := range keep {
		if i < 0 || i >= len(idx.landmarks) {
			return nil, fmt.Errorf("alt: landmark position %d out of range [0,%d)", i, len(idx.landmarks))
		}
		out.landmarks[j] = idx.landmarks[i]
		copy(out.labels[j*idx.n:(j+1)*idx.n], idx.labels[i*idx.n:(i+1)*idx.n])
	}
	return out, nil
}

// BoundsInfo is one landmark interval and its provenance: the bounds
// plus the landmark vertex that produced each (the tightest of the |U|
// candidates, the first one on a tie). Landmark fields are -1 when no
// landmark had finite labels for both endpoints (disconnected
// components).
type BoundsInfo struct {
	Lo, Hi                 float64
	LoLandmark, HiLandmark int32
}

// span is the one pass over the landmark labels of a and b behind every
// bound query: Lo = max_u |d(u,a)-d(u,b)|, not yet clipped to Hi, and
// Hi = min_u d(u,a)+d(u,b), each with the first landmark that attains
// it. A landmark missing either endpoint bounds nothing and is skipped.
//
// Every label is finite and carries no sign bit (Read refuses anything
// else, and a search writes +0 at its source), so each |difference| and
// sum is a non-negative float, and the IEEE bits of non-negative floats
// order exactly as their values do. The pass takes math.Abs on the
// floats, then max and min on their bits as integers, and follows the
// landmark ids through integer-only conditionals. All of it compiles to
// conditional moves, so a connected pair takes no data-dependent branch,
// and the bits it keeps are the ones a scan comparing floats keeps.
func (idx *Index) span(a, b int32) BoundsInfo {
	// lo starts below every key, so the first landmark that reaches
	// both endpoints names the lower side even at 0; it is raised to 0
	// when none does.
	lo, hi := int64(-1), key(sssp.Inf)
	loLm, hiLm := int32(-1), int32(-1)
	for i, u := range idx.landmarks {
		da := idx.labels[i*idx.n+int(a)]
		db := idx.labels[i*idx.n+int(b)]
		if da == sssp.Inf || db == sssp.Inf {
			continue
		}
		diff, sum := key(math.Abs(da-db)), key(da+db)
		if diff > lo {
			loLm = u
		}
		if sum < hi {
			hiLm = u
		}
		lo, hi = max(lo, diff), min(hi, sum)
	}
	return BoundsInfo{Lo: unkey(max(lo, 0)), Hi: unkey(hi), LoLandmark: loLm, HiLandmark: hiLm}
}

// key maps a non-negative float to an integer that orders as it does:
// its IEEE bits. unkey is its inverse.
func key(f float64) int64   { return int64(math.Float64bits(f)) }
func unkey(k int64) float64 { return math.Float64frombits(uint64(k)) }

// BoundsDetail returns the landmark bounds on d(s,t) together with the
// landmark responsible for each side of the interval, for query
// explainability and the guard.
func (idx *Index) BoundsDetail(s, t int32) BoundsInfo {
	info := idx.span(s, t)
	// When a landmark lies on the s-t shortest path lo equals hi
	// mathematically; floating-point rounding can leave lo one ulp
	// above. Keep the interval well-formed.
	if info.Lo > info.Hi {
		info.Lo = info.Hi
	}
	return info
}

// Bounds returns the landmark lower and upper bounds on d(s,t).
func (idx *Index) Bounds(s, t int32) (lo, hi float64) {
	info := idx.BoundsDetail(s, t)
	return info.Lo, info.Hi
}

// Estimate returns the LT distance estimate: the midpoint of the
// landmark lower and upper bounds. The true distance always lies within
// [lo, hi], so the midpoint's error is at most (hi-lo)/2.
func (idx *Index) Estimate(s, t int32) float64 {
	if s == t {
		return 0
	}
	lo, hi := idx.Bounds(s, t)
	if hi == sssp.Inf {
		return lo
	}
	return (lo + hi) / 2
}

// LowerBound returns the admissible A* heuristic to target t at vertex
// v: the lower bound, not clipped to the upper one.
func (idx *Index) LowerBound(v, t int32) float64 { return idx.span(v, t).Lo }

// SearchDistance runs the exact ALT A* search from s to t using the
// landmark heuristic, returning the distance and the number of settled
// vertices.
func (idx *Index) SearchDistance(ws *sssp.Workspace, s, t int32) (float64, int) {
	return ws.AStarDistance(s, t, func(v int32) float64 { return idx.LowerBound(v, t) })
}
