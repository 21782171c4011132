package core

import (
	"runtime"
	"testing"
)

func TestEstimateBatch(t *testing.T) {
	g := testGraph(t, 12)
	m, _, err := Build(g, fastOptions(24))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	ss := make([]int32, n)
	ts := make([]int32, n)
	for i := range ss {
		ss[i] = int32(i % m.NumVertices())
		ts[i] = int32((i*31 + 17) % m.NumVertices())
	}
	for _, workers := range []int{0, 1, 2, runtime.GOMAXPROCS(0) * 2, n + 5} {
		out := make([]float64, n)
		if err := m.EstimateBatch(ss, ts, out, workers); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if want := m.Estimate(ss[i], ts[i]); out[i] != want {
				t.Fatalf("workers=%d pair %d: %v vs %v", workers, i, out[i], want)
			}
		}
	}
	// Mismatched slice lengths rejected.
	if err := m.EstimateBatch(ss, ts[:10], make([]float64, n), 2); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}
