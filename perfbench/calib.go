package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// The calibration pass is fixed work of the benchmark's own, run on
// every core while the stack is idle: before the first set-up and after
// each one, and before the first measurement window and after each one.
// It does the kinds of work serving does: JSON encoding and decoding of
// batch-sized arrays with the standard library, and distances between
// random rows of an embedding-sized table. The program under test never
// runs inside it and the GC is off during it, so its time follows only
// the host's speed, which on a shared VM steps between levels that last
// seconds. Time metrics are reported at a reference speed: a time
// measured next to passes that took c is scaled by calibRef / c.
const (
	calibJSONRounds = 24
	calibRows       = 8192 // x calibDim float64s: 4 MiB, like one d=64 embedding
	calibDim        = 64
	calibPairs      = 8000

	// calibRef is the pass's time at the reference speed, about what it
	// takes on an unloaded 2-vCPU Xeon guest.
	calibRef = 20 * time.Millisecond
)

var (
	calibOnce  sync.Once
	calibTable []float64
	calibBody  []byte    // a /batch body of batchSide x batchSide pairs
	calibDists []float64 // a batch answer's distances
	calibSink  float64   // keeps the passes' results live
)

func calibInit() {
	rng := rand.New(rand.NewSource(1))
	calibTable = make([]float64, calibRows*calibDim)
	for i := range calibTable {
		calibTable[i] = rng.Float64() * 1e4
	}
	pairs := make([][2]int32, batchSide*batchSide)
	calibDists = make([]float64, len(pairs))
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(calibRows)), int32(rng.Intn(calibRows))}
		calibDists[i] = rng.Float64() * 1e4
	}
	var b bytes.Buffer
	writeBatch(&b, pairs)
	calibBody = b.Bytes()
}

// calibrate runs one calibration pass on each of GOMAXPROCS goroutines
// and returns its wall time. The garbage it leaves is collected after
// the timed part, so the next window does not pay for it.
func calibrate() time.Duration {
	calibOnce.Do(calibInit)
	procs := runtime.GOMAXPROCS(0)
	gc := debug.SetGCPercent(-1)
	out := make([]float64, procs)
	start := time.Now()
	var wg sync.WaitGroup
	for p := range out {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			out[p] = calibWork(int64(p))
		}(p)
	}
	wg.Wait()
	d := time.Since(start)
	for _, v := range out {
		calibSink += v
	}
	debug.SetGCPercent(gc)
	runtime.GC()
	return d
}

// atRef scales v, measured while calibration passes took c, to the
// reference speed.
func atRef(v float64, c time.Duration) float64 {
	return v * float64(calibRef) / float64(c)
}

func calibWork(seed int64) float64 {
	acc := 0.0
	for r := 0; r < calibJSONRounds; r++ {
		var req struct {
			Pairs [][2]int32 `json:"pairs"`
		}
		if err := json.Unmarshal(calibBody, &req); err != nil {
			panic(err)
		}
		out, err := json.Marshal(map[string][]float64{"distances": calibDists})
		if err != nil {
			panic(err)
		}
		acc += float64(len(req.Pairs) + len(out))
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < calibPairs; i++ {
		a := calibTable[rng.Intn(calibRows)*calibDim:][:calibDim]
		b := calibTable[rng.Intn(calibRows)*calibDim:][:calibDim]
		d := 0.0
		for j := range a {
			x := a[j] - b[j]
			if x < 0 {
				x = -x
			}
			d += x
		}
		acc += d
	}
	return acc
}
