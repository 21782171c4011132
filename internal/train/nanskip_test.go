package train

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/emb"
	"repro/internal/sample"
)

func finiteMatrix(t *testing.T, m *emb.Matrix, when string) {
	t.Helper()
	for i, v := range m.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s: non-finite value %v at parameter %d", when, v, i)
		}
	}
}

func poisonedSamples() []sample.Sample {
	return []sample.Sample{
		{S: 0, T: 1, Dist: 1},
		{S: 1, T: 2, Dist: math.NaN()},
		{S: 0, T: 2, Dist: math.Inf(1)},
		{S: 2, T: 3, Dist: math.Inf(-1)},
		{S: 0, T: 3, Dist: 4},
	}
}

// One NaN label used to poison both endpoint rows and spread from
// there; FlatStep must skip and count non-finite samples instead.
func TestFlatStepSkipsNonFiniteSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := emb.NewMatrix(4, 8)
	m.RandomInit(rng, 0.01)
	ref := m.Clone()

	if got := FlatStep(m, nil, poisonedSamples(), 0.01, 1, 1); got != 3 {
		t.Fatalf("skipped = %d, want 3", got)
	}
	finiteMatrix(t, m, "after FlatStep over poisoned batch")

	// The finite samples must still have trained: same result as a batch
	// with the poisoned entries removed.
	clean := []sample.Sample{{S: 0, T: 1, Dist: 1}, {S: 0, T: 3, Dist: 4}}
	if got := FlatStep(ref, nil, clean, 0.01, 1, 1); got != 0 {
		t.Fatalf("clean batch skipped %d", got)
	}
	for i, v := range m.Data() {
		if v != ref.Data()[i] {
			t.Fatalf("parameter %d: poisoned-batch result %v != clean-batch result %v", i, v, ref.Data()[i])
		}
	}
}

func TestFlatStepAdamSkipsNonFiniteSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := emb.NewMatrix(4, 8)
	m.RandomInit(rng, 0.01)
	adam := NewAdam(4, 8)
	if got := FlatStep(m, adam, poisonedSamples(), 0.01, 1, 1); got != 3 {
		t.Fatalf("skipped = %d, want 3", got)
	}
	finiteMatrix(t, m, "after FlatStep with Adam over poisoned batch")
}

func TestAdamResetClearsMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := emb.NewMatrix(4, 8)
	m.RandomInit(rng, 0.01)
	adam := NewAdam(4, 8)
	samples := []sample.Sample{{S: 0, T: 1, Dist: 1}, {S: 1, T: 2, Dist: 2}}
	FlatStep(m, adam, samples, 0.01, 1, 1)

	fresh := NewAdam(4, 8)
	adam.Reset()
	m2 := m.Clone()
	FlatStep(m, adam, samples, 0.01, 1, 1)
	FlatStep(m2, fresh, samples, 0.01, 1, 1)
	for i, v := range m.Data() {
		if v != m2.Data()[i] {
			t.Fatalf("parameter %d: reset Adam stepped to %v, fresh Adam to %v", i, v, m2.Data()[i])
		}
	}
}
