package rne_test

import (
	"fmt"
	"log"

	rne "repro"
)

// ExampleBuild trains a model over a synthetic network and estimates a
// distance. (Training takes seconds; the example is compile-checked.)
func ExampleBuild() {
	g, err := rne.Preset("bj-mini")
	if err != nil {
		log.Fatal(err)
	}
	model, stats, err := rne.Build(g, rne.DefaultOptions(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("validation mean relative error: %.2f%%\n", stats.Validation.MeanRel*100)
	fmt.Printf("d(0, 100) ≈ %.1f\n", model.Estimate(0, 100))
}

// ExampleNewSpatialIndex answers a k-nearest-taxis query through the
// Section VI tree index.
func ExampleNewSpatialIndex() {
	g, _ := rne.Preset("bj-mini")
	model, _, err := rne.Build(g, rne.DefaultOptions(1))
	if err != nil {
		log.Fatal(err)
	}
	taxis := []int32{10, 200, 3000, 4500, 6000}
	idx, err := rne.NewSpatialIndex(model, taxis)
	if err != nil {
		log.Fatal(err)
	}
	rider := int32(1234)
	fmt.Println("closest taxis:", idx.KNN(rider, 2))
	fmt.Println("within 2km:", idx.Range(rider, 2000))
}

// ExampleModel_EstimateBatch estimates many pairs in parallel — the
// batched dispatch workload of the paper's introduction.
func ExampleModel_EstimateBatch() {
	g, _ := rne.Preset("bj-mini")
	model, _, err := rne.Build(g, rne.DefaultOptions(7))
	if err != nil {
		log.Fatal(err)
	}
	ss := []int32{0, 1, 2, 3}
	ts := []int32{100, 101, 102, 103}
	out := make([]float64, len(ss))
	if err := model.EstimateBatch(ss, ts, out, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Println(out)
}

// ExampleNewBoundedEstimator returns estimates with certified error
// intervals by clamping RNE into landmark bounds.
func ExampleNewBoundedEstimator() {
	g, _ := rne.Preset("bj-mini")
	model, _, err := rne.Build(g, rne.DefaultOptions(3))
	if err != nil {
		log.Fatal(err)
	}
	be, err := rne.NewBoundedEstimator(g, model, 64, 1)
	if err != nil {
		log.Fatal(err)
	}
	r := be.Guard(5, 4242)
	fmt.Printf("d ≈ %.0f, certainly within [%.0f, %.0f]\n", r.Est, r.Lo, r.Hi)
}
