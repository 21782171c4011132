package main

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/sssp"
)

// accuracy scores the answers served for the accuracy sample against
// exact Dijkstra.
//
// meanRelErr is the mean relative error of every served distance
// (point: the pair; matrix: every batch pair; knn: each returned
// target).
//
// recall is recall@knnK of the served ranking: of the exact knnK nearest
// among a request's candidates, the share the served answer also puts
// among its knnK nearest. The candidates are the accPointPerSrc targets
// of one point source, the batchSide destinations of one matrix origin,
// or the indexed targets for knn (whose answer is its ranking).
func accuracy(g *graph.Graph, sample *stream, answers []answer, targets []int32) (meanRelErr, recall float64) {
	ws := sssp.NewWorkspace(g)
	var dist []float64
	var errSum float64
	var errN, hits, want int
	addErr := func(served, truth float64) {
		if truth > 0 && truth < sssp.Inf {
			errSum += math.Abs(served-truth) / truth
			errN++
		}
	}
	// addGroup scores one source's candidate group: the exact distances
	// of cands against the served ones, by position.
	addGroup := func(cands []int32, served []float64) {
		for j, v := range cands {
			addErr(served[j], dist[v])
		}
		exact := nearest(len(cands), func(j int) float64 { return dist[cands[j]] })
		got := nearest(len(cands), func(j int) float64 { return served[j] })
		hits += overlap(exact, got)
		want += len(exact)
	}
	switch sample.workload {
	case wlPoint:
		cands := make([]int32, accPointPerSrc)
		served := make([]float64, accPointPerSrc)
		for i := 0; i < len(sample.pairs); i += accPointPerSrc {
			dist = ws.FromSource(sample.pairs[i][0], dist)
			for j := range cands {
				cands[j] = sample.pairs[i+j][1]
				served[j] = answers[i+j].dist[0]
			}
			addGroup(cands, served)
		}
	case wlMatrix:
		cands := make([]int32, batchSide)
		for b, pairs := range sample.batches {
			for row := 0; row < len(pairs); row += batchSide {
				dist = ws.FromSource(pairs[row][0], dist)
				for j := range cands {
					cands[j] = pairs[row+j][1]
				}
				addGroup(cands, answers[b].dist[row:row+batchSide])
			}
		}
	case wlKNN:
		for i, src := range sample.sources {
			dist = ws.FromSource(src, dist)
			a := answers[i]
			for j, v := range a.ids {
				addErr(a.dist[j], dist[v])
			}
			exact := make([]int32, 0, knnK)
			for _, j := range nearest(len(targets), func(j int) float64 { return dist[targets[j]] }) {
				exact = append(exact, targets[j])
			}
			hits += overlap(exact, a.ids)
			want += len(exact)
		}
	}
	if errN > 0 {
		meanRelErr = errSum / float64(errN)
	}
	if want > 0 {
		recall = float64(hits) / float64(want)
	}
	return meanRelErr, recall
}

// nearest returns the positions of the knnK smallest of n distances,
// ties broken by position, so equal inputs rank the same way.
func nearest(n int, d func(j int) float64) []int {
	idx := make([]int, n)
	for j := range idx {
		idx[j] = j
	}
	sort.SliceStable(idx, func(a, b int) bool { return d(idx[a]) < d(idx[b]) })
	return idx[:min(knnK, n)]
}

// overlap counts the members of b that are in a.
func overlap[T comparable](a, b []T) int {
	in := make(map[T]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	n := 0
	for _, v := range b {
		if in[v] {
			n++
		}
	}
	return n
}
