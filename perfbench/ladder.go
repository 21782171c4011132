package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"
)

// ladder holds the in-process rungs: each public call of the request
// path replayed alone, on one goroutine, over the run's request stream.
type ladder struct {
	coreNS      float64 // core.Model.Estimate per pair (point, knn)
	guardNS     float64 // hybrid.Estimator.Guard per pair (point, matrix)
	clampRatio  float64
	shardNS     float64 // shard.Model.Estimate per pair (matrix)
	crossRatio  float64
	knnUS       float64 // index.Tree.KNNStats per query (knn)
	visited     float64
	prunedRatio float64
	handlerUS   float64 // Server.Handler().ServeHTTP per request, all legs summed
	allocs      float64
	bytes       float64
	selfUS      float64 // handler minus the guard or index work it wraps
}

// sink keeps the compiler from discarding timed calls.
var sink float64

// Replay sizes: enough calls that each rung runs for tens of
// milliseconds or more.
const (
	kernelReps     = 4
	handlerPerLoop = 500
	handlerLoops   = 20
	matrixHandler  = 64 // batches replayed through the shard handlers
)

func perCall(reps, n int, f func(i int)) float64 {
	start := time.Now()
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			f(i)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps*n)
}

func runLadder(st *stack, chk *checker, s *stream, e *expectations) ladder {
	var l ladder
	switch st.workload {
	case wlPoint:
		m, g := st.replicas[0].set.Model, st.replicas[0].guard
		l.coreNS = perCall(kernelReps, len(s.pairs), func(i int) { sink += m.Estimate(s.pairs[i][0], s.pairs[i][1]) })
		l.guardNS = perCall(kernelReps, len(s.pairs), func(i int) { sink += g.Guard(s.pairs[i][0], s.pairs[i][1]).Est })
		clamped := 0
		for _, p := range s.pairs {
			if r := g.Guard(p[0], p[1]); r.ClampedLow || r.ClampedHigh {
				clamped++
			}
		}
		l.clampRatio = float64(clamped) / float64(len(s.pairs))
	case wlMatrix:
		var flat [][2]int32
		for _, b := range s.batches {
			flat = append(flat, b...)
		}
		owner := make([]int, len(flat))
		cross, clamped := 0, 0
		for i, p := range flat {
			owner[i], _ = st.shardMap.ShardOf(p[0])
			sm := st.replicas[owner[i]].set.Shard
			if sm.CrossShard(p[0], p[1]) {
				cross++
			}
			if r := st.replicas[owner[i]].guard.Guard(p[0], p[1]); r.ClampedLow || r.ClampedHigh {
				clamped++
			}
		}
		l.shardNS = perCall(kernelReps, len(flat), func(i int) {
			sink += st.replicas[owner[i]].set.Shard.Estimate(flat[i][0], flat[i][1])
		})
		l.guardNS = perCall(kernelReps, len(flat), func(i int) {
			sink += st.replicas[owner[i]].guard.Guard(flat[i][0], flat[i][1]).Est
		})
		l.crossRatio = float64(cross) / float64(len(flat))
		l.clampRatio = float64(clamped) / float64(len(flat))
	case wlKNN:
		rp := st.replicas[0]
		visited, pruned := 0, 0
		start := time.Now()
		for _, src := range s.sources {
			_, qs := rp.set.Index.KNNStats(src, knnK)
			visited += qs.NodesVisited
			pruned += qs.NodesPruned
		}
		l.knnUS = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(s.sources))
		l.visited = float64(visited) / float64(len(s.sources))
		if visited+pruned > 0 {
			l.prunedRatio = float64(pruned) / float64(visited+pruned)
		}
		var pairs [][2]int32
		for i, src := range s.sources {
			for _, v := range e.knnIDs[i] {
				pairs = append(pairs, [2]int32{src, v})
			}
		}
		m := rp.set.Model
		l.coreNS = perCall(kernelReps, len(pairs), func(i int) { sink += m.Estimate(pairs[i][0], pairs[i][1]) })
	}

	if st.workload == wlMatrix {
		l.replayMatrixHandlers(st, chk, s, e)
	} else {
		l.replayHandler(st, chk, s, e)
	}
	switch st.workload {
	case wlPoint:
		l.selfUS = l.handlerUS - l.guardNS/1e3
	case wlMatrix:
		l.selfUS = l.handlerUS - float64(batchSide*batchSide)*l.guardNS/1e3
	case wlKNN:
		l.selfUS = l.handlerUS - l.knnUS - float64(knnK)*l.coreNS/1e3
	}
	return l
}

// replayHandler serves point or knn requests through the replica's
// Handler() with a recorder, timing and counting allocations of the
// handler call alone.
func (l *ladder) replayHandler(st *stack, chk *checker, s *stream, e *expectations) {
	h := st.replicas[0].srv.Handler()
	var elapsed time.Duration
	var mallocs, allocBytes uint64
	n := 0
	for loop := 0; loop < handlerLoops; loop++ {
		idx := make([]int, handlerPerLoop)
		reqs := make([]*http.Request, handlerPerLoop)
		recs := make([]*httptest.ResponseRecorder, handlerPerLoop)
		for j := range reqs {
			i := (loop*handlerPerLoop + j) % s.len()
			idx[j] = i
			reqs[j] = httptest.NewRequest(http.MethodGet, s.path()+"?"+s.queries[i], nil)
			recs[j] = httptest.NewRecorder()
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for j := range reqs {
			h.ServeHTTP(recs[j], reqs[j])
		}
		elapsed += time.Since(start)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		n += len(reqs)
		for j, rec := range recs {
			chk.record(checkRecorded(chk, e, idx[j], s.workload, rec))
		}
	}
	l.handlerUS = float64(elapsed.Nanoseconds()) / 1e3 / float64(n)
	l.allocs = float64(mallocs) / float64(n)
	l.bytes = float64(allocBytes) / float64(n)
}

func checkRecorded(chk *checker, e *expectations, i int, workload string, rec *httptest.ResponseRecorder) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process handler: status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	a, err := decodeAnswer(workload, rec.Body.Bytes())
	if err != nil {
		return err
	}
	return chk.verify(e, i, a)
}

// replayMatrixHandlers splits each batch by owning shard exactly as the
// gateway does and serves every leg through its shard replica's
// Handler(); a batch's handler time is the sum of its legs.
func (l *ladder) replayMatrixHandlers(st *stack, chk *checker, s *stream, e *expectations) {
	handlers := make([]http.Handler, len(st.replicas))
	for k, rp := range st.replicas {
		handlers[k] = rp.srv.Handler()
	}
	var elapsed time.Duration
	var mallocs, allocBytes uint64
	n := min(matrixHandler, len(s.batches))
	for i := 0; i < n; i++ {
		pairs := s.batches[i]
		legIdx := make([][]int, len(handlers))
		legPairs := make([][][2]int32, len(handlers))
		for j, p := range pairs {
			k, _ := st.shardMap.ShardOf(p[0])
			legIdx[k] = append(legIdx[k], j)
			legPairs[k] = append(legPairs[k], p)
		}
		reqs := make([]*http.Request, len(handlers))
		recs := make([]*httptest.ResponseRecorder, len(handlers))
		for k := range handlers {
			if len(legPairs[k]) == 0 {
				continue
			}
			var body bytes.Buffer
			writeBatch(&body, legPairs[k])
			reqs[k] = httptest.NewRequest(http.MethodPost, "/batch", &body)
			reqs[k].Header.Set("Content-Type", "application/json")
			recs[k] = httptest.NewRecorder()
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for k, h := range handlers {
			if reqs[k] != nil {
				h.ServeHTTP(recs[k], reqs[k])
			}
		}
		elapsed += time.Since(start)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc

		merged := answer{dist: make([]float64, len(pairs))}
		var err error
		for k, rec := range recs {
			if rec == nil {
				continue
			}
			if rec.Code != http.StatusOK {
				err = fmt.Errorf("in-process shard %d handler: status %d: %s", k, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
				break
			}
			a, derr := decodeAnswer(wlMatrix, rec.Body.Bytes())
			if derr != nil || len(a.dist) != len(legIdx[k]) {
				err = fmt.Errorf("in-process shard %d handler: bad answer (%v)", k, derr)
				break
			}
			for j, orig := range legIdx[k] {
				merged.dist[orig] = a.dist[j]
			}
		}
		if err == nil {
			err = chk.verify(e, i, merged)
		}
		chk.record(err)
	}
	l.handlerUS = float64(elapsed.Nanoseconds()) / 1e3 / float64(n)
	l.allocs = float64(mallocs) / float64(n)
	l.bytes = float64(allocBytes) / float64(n)
}
