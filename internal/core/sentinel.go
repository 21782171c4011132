package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"repro/internal/faultinject"
	"repro/internal/sample"
)

// Chaos-test hooks for the training path. The sample hooks poison a
// whole generated batch with NaN distances (exercising the skip
// counters in internal/train); the embedding hook flips one trained
// parameter to NaN (simulating the exploding-step corruption the
// sentinel exists to catch).
const (
	FailpointHierSamplesNaN     = "core/samples-hier-nan"
	FailpointVertexSamplesNaN   = "core/samples-vertex-nan"
	FailpointFineTuneSamplesNaN = "core/samples-finetune-nan"
	FailpointEmbeddingCorrupt   = "core/embedding-corrupt"
)

// poisonIfInjected replaces every sample distance in the batch with NaN
// when the named chaos failpoint fires.
func poisonIfInjected(name string, samples []sample.Sample) {
	if faultinject.Fires(name) {
		for i := range samples {
			samples[i].Dist = math.NaN()
		}
	}
}

// errRetryUnit is returned through the build callbacks to request that
// the just-completed training unit (hierarchy level, vertex epoch or
// fine-tune round) be re-run after a sentinel rollback.
var errRetryUnit = errors.New("core: retry training unit after rollback")

// divergenceFactor is the sentinel's spike threshold: a validation
// error worse than divergenceFactor times the best seen so far triggers
// a rollback.
const divergenceFactor float64 = 4

// sentinel is the divergence watchdog of Build. SGD over exact labels
// can fail silently — one non-finite sample or one exploding step
// corrupts the embedding and every later phase trains on garbage — so
// after each completed unit of work the sentinel (a) scans the live
// embedding for non-finite values and (b) compares the held-out
// validation error against the best seen. On either trigger it restores
// the last good state from an in-memory snapshot, halves the learning
// rate, and asks the build loop to retry the unit; after
// Options.MaxRecoveries rollbacks the build fails with a descriptive
// error instead of persisting a corrupt model.
//
// Snapshots use the RNECKPT1 checkpoint encoding (writeCheckpoint /
// readCheckpoint), so rollback restores exercise exactly the code path
// -resume uses, and a rolled-back build keeps composing with on-disk
// checkpointing: the checkpointer only ever runs after a healthy
// sentinel verdict, so checkpoints never capture a diverged state.
type sentinel struct {
	tr   *Trainer
	opt  Options
	st   *BuildStats
	best float64      // best validation MeanRel seen so far
	snap bytes.Buffer // last-good trainer state, checkpoint-encoded
}

// newSentinel snapshots the trainer's current (post-init or
// post-resume) state as the first rollback target.
func newSentinel(tr *Trainer, opt Options, st *BuildStats) (*sentinel, error) {
	s := &sentinel{tr: tr, opt: opt, st: st, best: math.Inf(1)}
	if err := s.capture(ckptPhaseNone, 0, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// capture re-snapshots the trainer as the new last-good state.
func (s *sentinel) capture(phase, level, epoch int) error {
	s.snap.Reset()
	if err := s.tr.writeCheckpoint(&s.snap, phase, level, epoch); err != nil {
		return fmt.Errorf("core: sentinel snapshot: %w", err)
	}
	return nil
}

// check audits the trainer after the unit of work described by label
// completed, leaving training at the given checkpoint cursor. It
// returns the held-out validation error and nil when the state is
// healthy (and snapshots it), errRetryUnit when the unit must be
// re-run after a rollback, or a terminal error once the recovery
// budget is spent.
func (s *sentinel) check(label string, phase, level, epoch int) (float64, error) {
	if faultinject.Fires(FailpointEmbeddingCorrupt) {
		s.tr.ckptMatrix().Data()[0] = math.NaN()
	}
	for i, v := range s.tr.ckptMatrix().Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, s.rollback(label, fmt.Sprintf("non-finite embedding value at parameter %d", i))
		}
	}
	val := s.tr.Validate().MeanRel
	if math.IsNaN(val) || math.IsInf(val, 0) {
		return 0, s.rollback(label, fmt.Sprintf("non-finite validation error %v", val))
	}
	// Divergence spike: markedly worse than the best state seen. The
	// epsilon keeps near-zero validation errors on trivial graphs from
	// flagging numeric noise.
	if val > divergenceFactor*s.best+1e-9 {
		return 0, s.rollback(label, fmt.Sprintf(
			"validation error %.4g spiked past %g x best %.4g", val, divergenceFactor, s.best))
	}
	if val < s.best {
		s.best = val
	}
	return val, s.capture(phase, level, epoch)
}

// rollback restores the last good snapshot, halves the learning rate
// and spends one recovery, or fails the build once the budget is gone.
func (s *sentinel) rollback(label, reason string) error {
	if s.st.Recoveries >= s.opt.MaxRecoveries {
		return fmt.Errorf(
			"core: training diverged at %s (%s) with %d/%d recoveries spent; "+
				"best validation error %.4g at lr %.4g — lower Options.LR or raise Options.MaxRecoveries",
			label, reason, s.st.Recoveries, s.opt.MaxRecoveries, s.best, s.tr.LR())
	}
	if _, _, _, err := s.tr.readCheckpoint(bytes.NewReader(s.snap.Bytes())); err != nil {
		return fmt.Errorf("core: sentinel rollback at %s: %w", label, err)
	}
	s.tr.ScaleLR(0.5)
	s.tr.resetAdam()
	s.st.Recoveries++
	s.st.Rollbacks = append(s.st.Rollbacks, label+": "+reason)
	s.opt.logger().Warn("sentinel rollback: restored last good state, lr halved",
		"unit", label, "reason", reason, "lr", s.tr.LR(),
		"recovery", s.st.Recoveries, "max_recoveries", s.opt.MaxRecoveries)
	return errRetryUnit
}
