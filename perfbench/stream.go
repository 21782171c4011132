package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
)

// The three workloads. Each stresses a different layer of the serving
// stack; see NOTES.md for why each was chosen.
const (
	wlPoint  = "point"  // GET /distance, uniform pairs, one guarded full replica
	wlMatrix = "matrix" // POST /batch 32x32 through the region gateway to K=2 shards
	wlKNN    = "knn"    // GET /knn?k=10 on the full replica's spatial index
)

var workloads = []string{wlPoint, wlMatrix, wlKNN}

// Request-stream shape. The stream is generated once per run from the
// seed and cycled by the clients; its length only has to exceed the
// working set the caches could otherwise memorise.
const (
	pointStream  = 1 << 16 // pairs
	matrixStream = 256     // batches
	knnStream    = 1 << 13 // sources
	batchSide    = 32      // a batch is batchSide origins x batchSide destinations
	knnK         = 10
	// targetFraction of the vertices are indexed for /knn (the "taxis").
	targetFraction = 0.1
)

// Accuracy-sample shape: served answers on these requests are scored
// against exact Dijkstra, one full search per source (point: 1024,
// matrix: 1024 origins, knn: 1024). Sizes are set so mean_rel_err and
// recall_at_k move by well under their bounds from one seed to another.
const (
	accPointSources  = 1024
	accPointPerSrc   = batchSide // a point source's candidate group, like a matrix row
	accMatrixBatches = 32
	accKNNSources    = 1024
)

// Fixed seeds of the system under test. The request seed comes from the
// command line; these fix the dataset, the model and the indexed target
// set, so runs with different request seeds serve the same artifacts.
const (
	trainSeed   = 1
	altSeed     = 3
	targetsSeed = 7
)

// stream is one workload's seeded request sequence.
type stream struct {
	workload string
	pairs    [][2]int32   // point
	batches  [][][2]int32 // matrix: batchSide*batchSide pairs each, origin-major
	sources  []int32      // knn

	// The wire form of each request, encoded once when the stream is
	// drawn so timed requests only send stored bytes.
	queries []string // point and knn: the URL query
	bodies  [][]byte // matrix: the /batch body
}

// path returns the workload's request path.
func (s *stream) path() string {
	switch s.workload {
	case wlPoint:
		return "/distance"
	case wlMatrix:
		return "/batch"
	default:
		return "/knn"
	}
}

// encode fills in the wire form of every request.
func (s *stream) encode() {
	switch s.workload {
	case wlPoint:
		s.queries = make([]string, len(s.pairs))
		for i, p := range s.pairs {
			s.queries[i] = "s=" + strconv.Itoa(int(p[0])) + "&t=" + strconv.Itoa(int(p[1]))
		}
	case wlMatrix:
		s.bodies = make([][]byte, len(s.batches))
		for i, b := range s.batches {
			var buf bytes.Buffer
			writeBatch(&buf, b)
			s.bodies[i] = buf.Bytes()
		}
	case wlKNN:
		s.queries = make([]string, len(s.sources))
		for i, src := range s.sources {
			s.queries[i] = "s=" + strconv.Itoa(int(src)) + "&k=" + strconv.Itoa(knnK)
		}
	}
}

// len returns the number of requests in the stream.
func (s *stream) len() int {
	switch s.workload {
	case wlPoint:
		return len(s.pairs)
	case wlMatrix:
		return len(s.batches)
	default:
		return len(s.sources)
	}
}

// rngFor derives an independent generator for one purpose from the
// run seed, so the request stream and the accuracy sample do not share
// draws.
func rngFor(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}

// genStream draws the workload's request stream over n vertices.
func genStream(workload string, n int, seed int64) (*stream, error) {
	return genRequests(workload, n, rngFor(seed, 1), 0)
}

// genAccuracySample draws the requests whose served answers are scored
// against exact shortest-path distances. Point pairs are grouped by
// source so each source costs one Dijkstra.
func genAccuracySample(workload string, n int, seed int64) (*stream, error) {
	rng := rngFor(seed, 2)
	if workload == wlPoint {
		s := &stream{workload: workload}
		for i := 0; i < accPointSources; i++ {
			src := int32(rng.Intn(n))
			for j := 0; j < accPointPerSrc; j++ {
				s.pairs = append(s.pairs, [2]int32{src, int32(rng.Intn(n))})
			}
		}
		s.encode()
		return s, nil
	}
	count := accMatrixBatches
	if workload == wlKNN {
		count = accKNNSources
	}
	return genRequests(workload, n, rng, count)
}

// genRequests draws count requests (the workload's stream length when
// count is 0) with uniform endpoints.
func genRequests(workload string, n int, rng *rand.Rand, count int) (*stream, error) {
	s := &stream{workload: workload}
	switch workload {
	case wlPoint:
		if count == 0 {
			count = pointStream
		}
		s.pairs = make([][2]int32, count)
		for i := range s.pairs {
			s.pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		}
	case wlMatrix:
		if count == 0 {
			count = matrixStream
		}
		s.batches = make([][][2]int32, count)
		for b := range s.batches {
			var org, dst [batchSide]int32
			for i := range org {
				org[i] = int32(rng.Intn(n))
			}
			for i := range dst {
				dst[i] = int32(rng.Intn(n))
			}
			pairs := make([][2]int32, 0, batchSide*batchSide)
			for _, o := range org {
				for _, d := range dst {
					pairs = append(pairs, [2]int32{o, d})
				}
			}
			s.batches[b] = pairs
		}
	case wlKNN:
		if count == 0 {
			count = knnStream
		}
		s.sources = make([]int32, count)
		for i := range s.sources {
			s.sources[i] = int32(rng.Intn(n))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloads)
	}
	s.encode()
	return s, nil
}

// hash fingerprints the stream, so a result records exactly which
// requests it measured and two runs can be checked for the same input.
func (s *stream) hash() string {
	h := fnv.New64a()
	h.Write([]byte(s.workload))
	var buf [4]byte
	put := func(v int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	for _, p := range s.pairs {
		put(p[0])
		put(p[1])
	}
	for _, b := range s.batches {
		for _, p := range b {
			put(p[0])
			put(p[1])
		}
	}
	for _, v := range s.sources {
		put(v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// knnTargets returns the fixed, sorted set of indexed vertices: a
// seeded targetFraction of all n.
func knnTargets(n int) []int32 {
	perm := rand.New(rand.NewSource(targetsSeed)).Perm(n)
	k := int(float64(n) * targetFraction)
	out := make([]int32, k)
	for i := range out {
		out[i] = int32(perm[i])
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
