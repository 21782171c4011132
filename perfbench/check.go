package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/index"
	"repro/internal/shard"
)

// answer is one decoded response: a distance per pair (point: one,
// matrix: one per batch pair, knn: one per returned target) and kNN ids.
type answer struct {
	dist []float64
	ids  []int32
}

// expPair is the reference for one matrix pair.
type expPair struct {
	est, lo, hi float64
	cross       bool
}

// expectations holds the reference answer for every request of one
// stream, computed in process from the same artifacts the replicas
// serve.
type expectations struct {
	point   []float64
	matrix  [][]expPair
	knnIDs  [][]int32
	knnDist [][]float64
}

// checker compares served answers with in-process references. The
// relation checked is the one each answer path declares:
//
//   - point, and intra-shard matrix pairs: bit-identical to the serving
//     set's Estimator.Guard(s,t).Est;
//   - cross-shard matrix pairs: inside the certified [lo,hi] of the
//     owning shard's guard;
//   - knn: ids equal Tree.KNN(s,k), distances bit-identical to the
//     model's estimate.
type checker struct {
	workload string
	guards   []*hybrid.Estimator // point/knn: the full replica's; matrix: one per shard id
	shards   []*shard.Model      // matrix
	owner    *shard.Map          // matrix
	model    *core.Model         // knn
	tree     *index.Tree         // knn

	attempted, failed atomic.Int64
	errOnce           sync.Once
	firstErr          error
}

func newChecker(st *stack) *checker {
	c := &checker{workload: st.workload, owner: st.shardMap}
	for _, rp := range st.replicas {
		c.guards = append(c.guards, rp.guard)
		if rp.set.Shard != nil {
			c.shards = append(c.shards, rp.set.Shard)
		}
	}
	if st.workload == wlKNN {
		c.model = st.replicas[0].set.Model
		c.tree = st.replicas[0].set.Index
	}
	return c
}

// expect computes the references for every request of s.
func (c *checker) expect(s *stream) *expectations {
	e := &expectations{}
	switch c.workload {
	case wlPoint:
		e.point = make([]float64, len(s.pairs))
		for i, p := range s.pairs {
			e.point[i] = c.guards[0].Guard(p[0], p[1]).Est
		}
	case wlMatrix:
		e.matrix = make([][]expPair, len(s.batches))
		for b, pairs := range s.batches {
			e.matrix[b] = c.expectPairs(pairs)
		}
	case wlKNN:
		e.knnIDs = make([][]int32, len(s.sources))
		e.knnDist = make([][]float64, len(s.sources))
		for i, src := range s.sources {
			ids := c.tree.KNN(src, knnK)
			d := make([]float64, len(ids))
			for j, v := range ids {
				d[j] = c.model.Estimate(src, v)
			}
			e.knnIDs[i], e.knnDist[i] = ids, d
		}
	}
	return e
}

func (c *checker) expectPairs(pairs [][2]int32) []expPair {
	out := make([]expPair, len(pairs))
	for i, p := range pairs {
		k, _ := c.owner.ShardOf(p[0])
		g := c.guards[k].Guard(p[0], p[1])
		out[i] = expPair{est: g.Est, lo: g.Lo, hi: g.Hi, cross: c.shards[k].CrossShard(p[0], p[1])}
	}
	return out
}

// verify checks answer a to request i of the stream e was computed for.
func (c *checker) verify(e *expectations, i int, a answer) error {
	switch c.workload {
	case wlPoint:
		if len(a.dist) != 1 {
			return fmt.Errorf("point: %d distances in answer", len(a.dist))
		}
		if math.Float64bits(a.dist[0]) != math.Float64bits(e.point[i]) {
			return fmt.Errorf("point request %d: served %v, reference %v", i, a.dist[0], e.point[i])
		}
	case wlMatrix:
		exp := e.matrix[i]
		if len(a.dist) != len(exp) {
			return fmt.Errorf("matrix request %d: %d distances for %d pairs", i, len(a.dist), len(exp))
		}
		for j, x := range exp {
			got := a.dist[j]
			if x.cross {
				if !(got >= x.lo && got <= x.hi) {
					return fmt.Errorf("matrix request %d pair %d (cross-shard): served %v outside certified [%v,%v]",
						i, j, got, x.lo, x.hi)
				}
			} else if math.Float64bits(got) != math.Float64bits(x.est) {
				return fmt.Errorf("matrix request %d pair %d (intra-shard): served %v, reference %v", i, j, got, x.est)
			}
		}
	case wlKNN:
		if !slices.Equal(a.ids, e.knnIDs[i]) {
			return fmt.Errorf("knn request %d: served ids %v, reference %v", i, a.ids, e.knnIDs[i])
		}
		if len(a.dist) != len(e.knnDist[i]) {
			return fmt.Errorf("knn request %d: %d distances for %d ids", i, len(a.dist), len(a.ids))
		}
		for j, d := range e.knnDist[i] {
			if math.Float64bits(a.dist[j]) != math.Float64bits(d) {
				return fmt.Errorf("knn request %d target %d: served %v, reference %v", i, a.ids[j], a.dist[j], d)
			}
		}
	}
	return nil
}

// record counts one attempted request and, when err is non-nil, one
// failure; the first failure is kept for the report.
func (c *checker) record(err error) {
	c.attempted.Add(1)
	if err != nil {
		c.failed.Add(1)
		c.errOnce.Do(func() { c.firstErr = err })
	}
}
