package core

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// BuildStats records what Build did, mirroring the quantities of
// Tables III/IV: wall-clock time per phase, total samples consumed and
// the final validation error, plus the self-healing counters of the
// divergence sentinel.
type BuildStats struct {
	// Setup covers hierarchy construction, landmark selection, grid and
	// validation-set preparation.
	Setup time.Duration
	// HierPhase, VertexPhase and FineTune time phases ①–③.
	HierPhase, VertexPhase, FineTune time.Duration
	// Labeling is the wall time spent labeling samples with exact
	// distances, summed over Setup and the three phases (whose times
	// include it).
	Labeling time.Duration
	// Total is the end-to-end build time (the Table IV "building time").
	Total time.Duration
	// SamplesUsed counts SGD sample presentations across all epochs.
	// On a resumed build this includes the samples restored from the
	// checkpoint, so it matches an uninterrupted build.
	SamplesUsed int64
	// SamplesSkipped counts presentations skipped because the sample
	// carried a non-finite target distance. Nonzero means a sample
	// source produced garbage labels that SGD refused to train on.
	SamplesSkipped int64
	// Resumed reports whether the build restored state from a
	// checkpoint instead of starting from scratch.
	Resumed bool
	// CheckpointDiscarded reports that Options.Resume found a
	// checkpoint that was corrupt or from a different build and
	// (without StrictResume) restarted training from scratch.
	CheckpointDiscarded bool
	// CheckpointFailures counts checkpoint writes that failed and were
	// tolerated (without StrictCheckpoints): the build continued, only
	// resumability was degraded until a later write succeeded.
	CheckpointFailures int
	// Recoveries counts divergence-sentinel rollbacks: each one
	// restored the last good training state and halved the learning
	// rate before retrying the failed unit of work.
	Recoveries int
	// Rollbacks describes each recovery ("vertex epoch 3: non-finite
	// embedding value at parameter 17"), in order.
	Rollbacks []string
	// FinalLR is the dimension-normalized base learning rate training
	// finished with; it is below the starting rate exactly when the
	// sentinel recovered from a divergence.
	FinalLR float64
	// Validation is the final held-out error.
	Validation metrics.ErrorStats
}

// Build runs the full Algorithm 1 pipeline over g and returns the
// query model together with build statistics.
//
// Training runs under a divergence sentinel: after every hierarchy
// level, vertex epoch and fine-tune round the embedding is scanned for
// non-finite values and the held-out validation error is compared
// against the best seen; a corrupt or diverged state is rolled back to
// an in-memory last-good snapshot, the learning rate halved, and the
// unit retried, up to Options.MaxRecoveries times.
//
// With Options.CheckpointPath set, training state is checkpointed
// atomically as phases complete; with Options.Resume also set and an
// existing checkpoint on disk, the build restarts from the last
// completed hierarchy level / vertex epoch / fine-tune round instead
// of from scratch.
func Build(g *graph.Graph, opt Options) (*Model, BuildStats, error) {
	return run(g, opt, "build", nil)
}

// run is the phase loop Build and FineTune share: setup and resume,
// then the hierarchy, vertex and fine-tune phases under the divergence
// sentinel and checkpointer, then finalize, each recorded as a child
// span of opt.Trace and logged when it ends. warmStart, when non-nil,
// seeds the fresh trainer before any checkpoint is restored; what
// ("build" or "fine-tune") names the run in resume errors and warnings.
func run(g *graph.Graph, opt Options, what string, warmStart func(*Trainer)) (_ *Model, st BuildStats, err error) {
	start := time.Now()
	root, log := opt.Trace, opt.logger()
	ph := startPhase(root, "setup", log)
	defer func() {
		if err != nil {
			ph.end(err) // the phase that failed
		}
	}()

	opt.Trace = ph.span // NewTrainer's steps nest under setup
	tr, err := NewTrainer(g, opt)
	if err != nil {
		return nil, st, err
	}
	opt = tr.Options() // defaults applied
	if warmStart != nil {
		warmStart(tr)
	}

	phase, level, epoch := ckptPhaseNone, 0, 0
	if opt.Resume {
		if _, statErr := os.Stat(opt.CheckpointPath); statErr == nil {
			phase, level, epoch, err = tr.RestoreCheckpoint(opt.CheckpointPath)
			switch {
			case err == nil:
				st.Resumed = true
			case opt.StrictResume:
				return nil, st, fmt.Errorf("core: resuming %s: %w", what, err)
			default:
				// An unusable checkpoint costs a restart, not the run:
				// warn, restart from the initial state, and let the first
				// healthy checkpoint write replace the bad file.
				log.Warn("discarding unusable checkpoint; "+what+" restarts from its initial state",
					"path", opt.CheckpointPath, "error", err)
				st.CheckpointDiscarded = true
				phase, level, epoch = ckptPhaseNone, 0, 0
			}
		}
	}
	sen, err := newSentinel(tr, opt, &st)
	if err != nil {
		return nil, st, err
	}
	ck := &checkpointer{
		path:   opt.CheckpointPath,
		every:  opt.CheckpointEvery,
		strict: opt.StrictCheckpoints,
		logger: opt.Logger,
		stats:  &st,
	}
	// guard runs after each completed unit of work of the current phase:
	// sentinel audit first (nil, errRetryUnit, or terminal), checkpoint
	// tick only on a healthy verdict — checkpoints never capture a
	// diverged state. The unit's span starts where the previous unit (or
	// its phase) ended, so a retried unit is timed from its rollback, not
	// its first attempt.
	var unitStart time.Time
	guard := func(label string, epochs, phase, level, epoch int) error {
		u := ph.span.Child(label, unitStart)
		dur := time.Since(unitStart)
		loss, err := sen.check(label, phase, level, epoch)
		switch {
		case errors.Is(err, errRetryUnit):
			u.Event("rollback", st.Rollbacks[len(st.Rollbacks)-1])
		case err == nil:
			u.SetAttrFloat("loss_mean_rel", loss)
			u.SetAttrFloat("lr", tr.LR())
			u.SetAttrInt("recoveries", int64(st.Recoveries))
			log.Info("training unit done", "phase", ph.name, "unit", label,
				"loss_mean_rel", loss, "lr", tr.LR(), "recoveries", st.Recoveries, "duration", dur)
			err = ck.tick(tr, u, epochs, phase, level, epoch)
		}
		u.SetError(err)
		u.End()
		unitStart = time.Now()
		return err
	}
	st.Setup = ph.end(nil)

	if tr.hier != nil {
		ph = startPhase(root, "hier-phase", log)
		if phase <= ckptPhaseHier {
			fromLevel := 1
			if phase == ckptPhaseHier {
				fromLevel = level + 1
			}
			unitStart = time.Now()
			if err := tr.RunHierPhaseFrom(fromLevel, func(lev int) error {
				return guard(fmt.Sprintf("hierarchy level %d", lev), opt.Epochs, ckptPhaseHier, lev, 0)
			}); err != nil {
				return nil, st, err
			}
		}
		st.HierPhase = ph.end(nil)
	}

	ph = startPhase(root, "vertex-phase", log)
	if phase <= ckptPhaseVertex {
		fromEpoch := 0
		if phase == ckptPhaseVertex {
			fromEpoch = epoch
		}
		unitStart = time.Now()
		if err := tr.RunVertexPhaseFrom(fromEpoch, func(e int) error {
			return guard(fmt.Sprintf("vertex epoch %d", e), 1, ckptPhaseVertex, 0, e+1)
		}); err != nil {
			return nil, st, err
		}
	}
	st.VertexPhase = ph.end(nil)

	if opt.ActiveFineTune {
		ph = startPhase(root, "finetune-phase", log)
		fromRound := 0
		if phase == ckptPhaseFineTune {
			fromRound = epoch
		}
		unitStart = time.Now()
		for k := fromRound; k < opt.FineTuneRounds; {
			tr.RunFineTuneRound(k)
			switch err := guard(fmt.Sprintf("fine-tune round %d", k), 1, ckptPhaseFineTune, 0, k+1); {
			case errors.Is(err, errRetryUnit):
				continue // rolled back: redo this round at the reduced rate
			case err != nil:
				return nil, st, err
			}
			k++
		}
		st.FineTune = ph.end(nil)
	}

	ph = startPhase(root, "finalize", log)
	st.SamplesUsed = tr.SamplesUsed()
	st.SamplesSkipped = tr.SamplesSkipped()
	st.Labeling = tr.lab.Elapsed()
	st.FinalLR = tr.LR()
	st.Validation = tr.Validate()
	m := tr.Finalize()
	ph.end(nil)
	st.Total = time.Since(start)
	return m, st, nil
}

// phaseSpan is one timed child of a run's span: setup, a training
// phase or finalize.
type phaseSpan struct {
	name  string
	span  *telemetry.ReqSpan
	start time.Time
	log   *slog.Logger
}

func startPhase(parent *telemetry.ReqSpan, name string, log *slog.Logger) phaseSpan {
	start := time.Now()
	return phaseSpan{name: name, span: parent.Child(name, start), start: start, log: log}
}

// end closes the phase, failed when err is non-nil, logs it when it
// succeeded, and returns its duration.
func (p phaseSpan) end(err error) time.Duration {
	d := time.Since(p.start)
	p.span.SetError(err)
	p.span.End()
	if err == nil {
		p.log.Info("phase done", "phase", p.name, "duration", d)
	}
	return d
}
