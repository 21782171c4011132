package sample

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// GridBuckets approximates the R equal-length distance intervals of
// Section V-C. The road network is cut into K x K spatial grid cells;
// the distance of a cell pair is the least number of cells to cross
// (the Manhattan cell distance, in [0, 2K-2]), and the R = 2K-1 cell
// pair buckets stand in for vertex-pair distance intervals. Storage is
// O(K^4) and drawing a sample is O(log) via cumulative weights.
type GridBuckets struct {
	k     int
	cells [][]int32 // vertices per cell, row-major; empty cells allowed

	// buckets[d] lists cell pairs at cell distance d; cum[d] holds the
	// cumulative |g_s|*|g_t| weights for weighted pair selection.
	buckets [][2]int32
	offsets []int       // bucket d occupies buckets[offsets[d]:offsets[d+1]]
	cum     [][]float64 // per bucket, cumulative pair weights
}

// NewGridBuckets partitions g's bounding box into k x k cells.
func NewGridBuckets(g *graph.Graph, k int) (*GridBuckets, error) {
	if k < 2 {
		return nil, fmt.Errorf("sample: grid needs k >= 2, got %d", k)
	}
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("sample: empty graph")
	}
	minX, minY, maxX, maxY := g.BoundingBox()
	spanX := maxX - minX
	spanY := maxY - minY
	if spanX <= 0 {
		spanX = 1
	}
	if spanY <= 0 {
		spanY = 1
	}
	gb := &GridBuckets{k: k, cells: make([][]int32, k*k)}
	for v := int32(0); v < int32(n); v++ {
		cx := int(float64(k) * (g.X(v) - minX) / spanX)
		cy := int(float64(k) * (g.Y(v) - minY) / spanY)
		if cx >= k {
			cx = k - 1
		}
		if cy >= k {
			cy = k - 1
		}
		c := cy*k + cx
		gb.cells[c] = append(gb.cells[c], v)
	}

	// Group non-empty cell pairs by Manhattan cell distance.
	type pairRec struct {
		d    int
		a, b int32
		w    float64
	}
	var recs []pairRec
	for a := 0; a < k*k; a++ {
		if len(gb.cells[a]) == 0 {
			continue
		}
		ay, ax := a/k, a%k
		for b := a; b < k*k; b++ {
			if len(gb.cells[b]) == 0 {
				continue
			}
			by, bx := b/k, b%k
			d := abs(ay-by) + abs(ax-bx)
			w := float64(len(gb.cells[a])) * float64(len(gb.cells[b]))
			recs = append(recs, pairRec{d: d, a: int32(a), b: int32(b), w: w})
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].d != recs[j].d {
			return recs[i].d < recs[j].d
		}
		if recs[i].a != recs[j].a {
			return recs[i].a < recs[j].a
		}
		return recs[i].b < recs[j].b
	})
	R := gb.NumBuckets()
	gb.offsets = make([]int, R+1)
	gb.cum = make([][]float64, R)
	gb.buckets = make([][2]int32, len(recs))
	idx := 0
	for d := 0; d < R; d++ {
		gb.offsets[d] = idx
		var running float64
		for idx < len(recs) && recs[idx].d == d {
			gb.buckets[idx] = [2]int32{recs[idx].a, recs[idx].b}
			running += recs[idx].w
			gb.cum[d] = append(gb.cum[d], running)
			idx++
		}
	}
	gb.offsets[R] = idx
	return gb, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// K returns the grid resolution.
func (gb *GridBuckets) K() int { return gb.k }

// NumBuckets returns R = 2K-1, the number of cell-distance buckets.
func (gb *GridBuckets) NumBuckets() int { return 2*gb.k - 1 }

// BucketEmpty reports whether bucket d holds no cell pairs.
func (gb *GridBuckets) BucketEmpty(d int) bool {
	return d < 0 || d >= gb.NumBuckets() || gb.offsets[d] == gb.offsets[d+1]
}

// PickPair draws a cell pair from bucket d with probability
// proportional to |g_s|*|g_t| and returns the two cell vertex lists.
// ok is false when the bucket is empty.
func (gb *GridBuckets) PickPair(d int, rng *rand.Rand) (sa, sb []int32, ok bool) {
	if gb.BucketEmpty(d) {
		return nil, nil, false
	}
	cum := gb.cum[d]
	total := cum[len(cum)-1]
	x := rng.Float64() * total
	i := sort.SearchFloat64s(cum, x)
	if i >= len(cum) {
		i = len(cum) - 1
	}
	pair := gb.buckets[gb.offsets[d]+i]
	return gb.cells[pair[0]], gb.cells[pair[1]], true
}

// FromBucket draws n labeled samples from bucket d, grouping perSource
// samples per Dijkstra source. It may return fewer than n samples if
// the bucket is empty.
func (gb *GridBuckets) FromBucket(d, n, perSource int, lab *Labeler, rng *rand.Rand) []Sample {
	out := gb.draw(make([]Sample, 0, n), d, n, perSource, lab, rng)
	lab.Label(out)
	return out
}

// draw appends up to n unlabeled samples from bucket d to out.
func (gb *GridBuckets) draw(out []Sample, d, n, perSource int, lab *Labeler, rng *rand.Rand) []Sample {
	if perSource < 1 {
		perSource = 1
	}
	if gb.BucketEmpty(d) {
		return out
	}
	want := len(out) + n
	// Attempt cap prevents spinning when a bucket only contains
	// singleton cells paired with themselves (no valid s != t pairs).
	for attempts := 0; len(out) < want && attempts < 20*(n+1); attempts++ {
		sa, sb, ok := gb.PickPair(d, rng)
		if !ok {
			break
		}
		s := sa[rng.Intn(len(sa))]
		for j := 0; j < perSource && len(out) < want; j++ {
			t := sb[rng.Intn(len(sb))]
			if lab.Accepts(s, t) {
				out = append(out, Sample{S: s, T: t})
			} else if len(sb) == 1 && t == s {
				break // singleton cell paired with itself; try a new pair
			}
		}
	}
	return out
}

// Mode selects how the error-based sampler spreads samples over
// buckets (Figure 8b).
type Mode int

const (
	// Local draws all samples from the single bucket with the highest
	// error.
	Local Mode = iota
	// Global assigns samples to every bucket proportionally to its
	// error.
	Global
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Local:
		return "local"
	case Global:
		return "global"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrorBased draws n samples according to the per-bucket relative
// errors from the last validation round (Algorithm 2, lines 9–17).
// Buckets with no cell pairs are ignored.
func (gb *GridBuckets) ErrorBased(errors []float64, mode Mode, n, perSource int, lab *Labeler, rng *rand.Rand) []Sample {
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
		return gb.FromBucket(best, n, perSource, lab, rng)
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
			out = gb.draw(out, d, quota, perSource, lab, rng)
		}
		lab.Label(out)
		return out
	default:
		return nil
	}
}

// ProbeErrors estimates the mean relative error of est on each bucket
// using probesPerBucket fresh labeled pairs. Empty buckets report zero.
// Every bucket's probes are drawn before any is labeled.
func (gb *GridBuckets) ProbeErrors(est func(s, t int32) float64, probesPerBucket, perSource int, lab *Labeler, rng *rand.Rand) []float64 {
	R := gb.NumBuckets()
	var probes []Sample
	ends := make([]int, R)
	for d := 0; d < R; d++ {
		probes = gb.draw(probes, d, probesPerBucket, perSource, lab, rng)
		ends[d] = len(probes)
	}
	lab.Label(probes)
	out := make([]float64, R)
	begin := 0
	for d := 0; d < R; d++ {
		var sum float64
		cnt := 0
		for _, p := range probes[begin:ends[d]] {
			if p.Dist > 0 {
				sum += math.Abs(est(p.S, p.T)-p.Dist) / p.Dist
				cnt++
			}
		}
		begin = ends[d]
		if cnt > 0 {
			out[d] = sum / float64(cnt)
		}
	}
	return out
}
