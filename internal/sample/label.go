package sample

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/sssp"
)

// Labeler fills in the exact network distances of drawn samples. It
// groups the samples by source and runs one target-pruned Dijkstra per
// group (sssp.Workspace.DistanceToAll), which stops once the group's
// last target settles. The groups fan out over GOMAXPROCS workers, the
// calling goroutine among them, each with its own Workspace. A group's
// labels do not depend on which worker ran it, so the result is the
// same at any worker count. A Labeler is not safe for concurrent use.
type Labeler struct {
	g    *graph.Graph
	comp []int32 // connected-component label per vertex

	workers []*labelWorker // grown to GOMAXPROCS on demand

	// slot[v] is 1 + the group index of source v while Label groups
	// samples, and 0 otherwise.
	slot []int32

	searches int64
	elapsed  time.Duration
}

type labelWorker struct {
	ws      *sssp.Workspace
	targets []int32
	dists   []float64
}

// NewLabeler returns a Labeler over g.
func NewLabeler(g *graph.Graph) *Labeler {
	comp, _ := graph.ConnectedComponents(g)
	return &Labeler{g: g, comp: comp, slot: make([]int32, g.NumVertices())}
}

// Accepts reports whether (s, t) makes a training sample: t differs
// from s and is reachable from it. graph.Builder makes undirected
// graphs with positive finite weights, so reachable means "in the same
// connected component" and needs no search.
func (l *Labeler) Accepts(s, t int32) bool {
	return t != s && l.comp[s] == l.comp[t]
}

// Searches reports how many Dijkstra searches Label has run.
func (l *Labeler) Searches() int64 { return l.searches }

// Elapsed reports the wall time spent in Label.
func (l *Labeler) Elapsed() time.Duration { return l.elapsed }

// Label sets every sample's Dist to the exact distance from S to T,
// bit-identical to sssp.Workspace.FromSource's value.
func (l *Labeler) Label(samples []Sample) {
	if len(samples) == 0 {
		return
	}
	began := time.Now()
	srcs, start, idx := l.group(samples)
	var next atomic.Int64
	run := func(w *labelWorker) {
		for {
			k := int(next.Add(1) - 1)
			if k >= len(srcs) {
				return
			}
			members := idx[start[k]:start[k+1]]
			w.targets = w.targets[:0]
			for _, i := range members {
				w.targets = append(w.targets, samples[i].T)
			}
			w.dists = w.ws.DistanceToAll(srcs[k], w.targets, w.dists)
			for j, i := range members {
				samples[i].Dist = w.dists[j]
			}
		}
	}
	n := min(runtime.GOMAXPROCS(0), len(srcs))
	for len(l.workers) < n {
		l.workers = append(l.workers, &labelWorker{ws: sssp.NewWorkspace(l.g)})
	}
	var wg sync.WaitGroup
	for _, w := range l.workers[1:n] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(l.workers[0])
	wg.Wait()
	l.searches += int64(len(srcs))
	l.elapsed += time.Since(began)
}

// group counting-sorts the sample indices by source, keeping draw order
// within each source: group k has source srcs[k] and members
// idx[start[k]:start[k+1]].
func (l *Labeler) group(samples []Sample) (srcs, start, idx []int32) {
	for _, smp := range samples {
		if l.slot[smp.S] == 0 {
			srcs = append(srcs, smp.S)
			l.slot[smp.S] = int32(len(srcs))
		}
	}
	start = make([]int32, len(srcs)+1)
	for _, smp := range samples {
		start[l.slot[smp.S]-1]++
	}
	for k := 1; k < len(srcs); k++ {
		start[k] += start[k-1]
	}
	start[len(srcs)] = int32(len(samples))
	// start[k] is group k's end; filling from the back moves it to the
	// group's first member.
	idx = make([]int32, len(samples))
	for i := len(samples) - 1; i >= 0; i-- {
		k := l.slot[samples[i].S] - 1
		start[k]--
		idx[start[k]] = int32(i)
	}
	for _, s := range srcs {
		l.slot[s] = 0
	}
	return srcs, start, idx
}
