package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

func newTestSentinel(t *testing.T) (*Trainer, *sentinel, *BuildStats) {
	t.Helper()
	g := ckptTestGraph(t)
	opt, err := ckptTestOptions("").withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	var st BuildStats
	sen, err := newSentinel(tr, tr.Options(), &st)
	if err != nil {
		t.Fatal(err)
	}
	return tr, sen, &st
}

// A healthy state passes the check and becomes the new rollback target.
func TestSentinelHealthyStateSnapshots(t *testing.T) {
	_, sen, st := newTestSentinel(t)
	if _, err := sen.check("vertex epoch 0", ckptPhaseVertex, 0, 1); err != nil {
		t.Fatalf("healthy check failed: %v", err)
	}
	if st.Recoveries != 0 {
		t.Fatalf("Recoveries = %d after healthy check", st.Recoveries)
	}
	if math.IsInf(sen.best, 1) {
		t.Fatal("best validation error not updated by healthy check")
	}
}

// A NaN planted in the embedding is detected, rolled back (restoring
// finite values), and the learning rate halved.
func TestSentinelRollsBackEmbeddingNaN(t *testing.T) {
	tr, sen, st := newTestSentinel(t)
	lr0 := tr.LR()
	tr.ckptMatrix().Data()[3] = math.NaN()

	_, err := sen.check("hierarchy level 1", ckptPhaseHier, 1, 0)
	if !errors.Is(err, errRetryUnit) {
		t.Fatalf("check over NaN embedding returned %v, want errRetryUnit", err)
	}
	if st.Recoveries != 1 || len(st.Rollbacks) != 1 {
		t.Fatalf("Recoveries=%d Rollbacks=%v, want one recovery", st.Recoveries, st.Rollbacks)
	}
	if !strings.Contains(st.Rollbacks[0], "hierarchy level 1") {
		t.Fatalf("rollback record %q does not name the unit", st.Rollbacks[0])
	}
	if got := tr.LR(); got != lr0/2 {
		t.Fatalf("LR = %v after rollback, want halved %v", got, lr0/2)
	}
	for i, v := range tr.ckptMatrix().Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite value %v at parameter %d survived rollback", v, i)
		}
	}
}

// A finite but spiking validation error triggers the divergence branch.
func TestSentinelRollsBackValidationSpike(t *testing.T) {
	_, sen, st := newTestSentinel(t)
	if _, err := sen.check("vertex epoch 0", ckptPhaseVertex, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Pretend the best seen was vastly better than the current state.
	sen.best = sen.tr.Validate().MeanRel / (2 * divergenceFactor)
	_, err := sen.check("vertex epoch 1", ckptPhaseVertex, 0, 2)
	if !errors.Is(err, errRetryUnit) {
		t.Fatalf("spiking validation returned %v, want errRetryUnit", err)
	}
	if st.Recoveries != 1 || !strings.Contains(st.Rollbacks[0], "spiked") {
		t.Fatalf("Recoveries=%d Rollbacks=%v, want one spike rollback", st.Recoveries, st.Rollbacks)
	}
}

// The recovery budget is a hard cap: MaxRecoveries rollbacks succeed,
// the next failure is terminal and descriptive.
func TestSentinelBudgetExhaustion(t *testing.T) {
	tr, sen, st := newTestSentinel(t)
	sen.opt.MaxRecoveries = 2
	for i := 0; i < 2; i++ {
		tr.ckptMatrix().Data()[0] = math.Inf(1)
		if _, err := sen.check("vertex epoch 0", ckptPhaseVertex, 0, 1); !errors.Is(err, errRetryUnit) {
			t.Fatalf("recovery %d: got %v, want errRetryUnit", i+1, err)
		}
	}
	tr.ckptMatrix().Data()[0] = math.Inf(1)
	_, err := sen.check("vertex epoch 0", ckptPhaseVertex, 0, 1)
	if err == nil || errors.Is(err, errRetryUnit) {
		t.Fatalf("third failure returned %v, want terminal error", err)
	}
	if !strings.Contains(err.Error(), "2/2 recoveries") {
		t.Fatalf("terminal error %q does not report the spent budget", err)
	}
	if st.Recoveries != 2 {
		t.Fatalf("Recoveries = %d, want exactly the budget 2", st.Recoveries)
	}
}

// MaxRecoveries < 0 normalizes to zero recoveries: first divergence is
// immediately fatal.
func TestSentinelNegativeBudgetIsFatal(t *testing.T) {
	tr, sen, _ := newTestSentinel(t)
	sen.opt.MaxRecoveries = 0
	tr.ckptMatrix().Data()[0] = math.NaN()
	_, err := sen.check("hierarchy level 1", ckptPhaseHier, 1, 0)
	if err == nil || errors.Is(err, errRetryUnit) {
		t.Fatalf("zero-budget divergence returned %v, want terminal error", err)
	}
}

// An injected all-NaN sample batch is skipped by SGD, not trained on:
// the embedding stays finite and the skip counter records the batch.
func TestNaNSampleBatchSkippedNotTrained(t *testing.T) {
	g := ckptTestGraph(t)
	defer faultinject.Reset()
	faultinject.Enable(FailpointVertexSamplesNaN, faultinject.Fault{})
	faultinject.Enable(FailpointHierSamplesNaN, faultinject.Fault{})
	faultinject.Enable(FailpointFineTuneSamplesNaN, faultinject.Fault{})

	opt := chaosOptions("")
	_, st, err := Build(g, opt)
	if err != nil {
		t.Fatalf("build with NaN batches failed: %v", err)
	}
	if st.SamplesSkipped == 0 {
		t.Fatal("SamplesSkipped = 0, want injected NaN batches counted")
	}
	if st.Recoveries != 0 {
		t.Fatalf("Recoveries = %d; skipped batches must not corrupt the embedding", st.Recoveries)
	}
	if !finiteVal(st.Validation.MeanRel) {
		t.Fatalf("validation error %v not finite", st.Validation.MeanRel)
	}
}
