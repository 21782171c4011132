// Package core assembles the paper's contribution: the full RNE build
// pipeline of Algorithm 1 (partition hierarchy → hierarchy embedding →
// vertex embedding → active fine-tuning → flatten) and the resulting
// query model whose L1 lookups approximate shortest-path distances.
package core

import (
	"fmt"
	"log/slog"

	"repro/internal/sample"
	"repro/internal/telemetry"
)

// VertexStrategy selects how phase ② training pairs are drawn.
type VertexStrategy string

const (
	// VertexLandmark is the paper's landmark-based selection (best).
	VertexLandmark VertexStrategy = "landmark"
	// VertexRandom draws uniform pairs (the Figure 12 baseline).
	VertexRandom VertexStrategy = "random"
)

// perSource is how many targets a selector draws per source. Samples
// that share a source are labeled by one Dijkstra search, which stops
// once the last of them settles.
const perSource = 64

// probesPerBucket is the number of validation probes per fine-tuning
// grid bucket that estimate the bucket's error each round.
const probesPerBucket = 30

// Options configures an RNE build. Zero values are replaced by the
// defaults documented on each field; DefaultOptions returns them all.
type Options struct {
	// Dim is the embedding dimension d (default 64; the paper uses 64
	// for BJ and 128 for FLA/US-W).
	Dim int
	// P is the metric order of the representation (default 1, the
	// paper's recommendation; other values back the Figure 9 ablation).
	P float64
	// Hierarchical selects RNE-Hier (true, default) or RNE-Naive.
	Hierarchical bool
	// ActiveFineTune enables phase ③ (default true).
	ActiveFineTune bool

	// Fanout and Leaf are the partition-hierarchy κ and δ (defaults 4, 64).
	Fanout, Leaf int

	// LR is the base learning rate α0 (default 0.25). Distances are
	// normalized by the graph diameter and the rate by the embedding
	// dimension during training, making LR graph- and d-independent.
	LR float64
	// Optimizer selects the SGD flavor: "sgd" (default, the paper's
	// Function Training) or "adam" (per-parameter adaptive steps,
	// closer to the paper's TensorFlow setup).
	Optimizer string
	// Epochs is the number of SGD passes per phase (default 10).
	Epochs int

	// HierSampleCap bounds the samples per hierarchy level in phase ①
	// (default 40000; small levels use 150·|P_l|² if lower).
	HierSampleCap int
	// VertexSampleRatio sets phase ② volume as a multiple of |V|
	// (default 150).
	VertexSampleRatio float64
	// VertexStrategy picks phase ② sample selection (default landmark).
	VertexStrategy VertexStrategy
	// Landmarks is |U| for landmark-based selection (default 100, the
	// paper's LM10² sweet spot).
	Landmarks int
	// LandmarkStrategy picks how landmarks are chosen: "farthest"
	// (default, the paper's recommendation), "random" or "degree".
	LandmarkStrategy string

	// FineTuneRounds is the number of phase ③ rounds (default 12).
	FineTuneRounds int
	// FineTuneSampleRatio sets per-round volume as a multiple of |V|
	// (default 5).
	FineTuneSampleRatio float64
	// FineTuneMode picks Local or Global bucket selection (default Global).
	FineTuneMode sample.Mode
	// GridK is the fine-tuning grid resolution K (default 16, giving
	// R = 2K-1 distance buckets).
	GridK int

	// ValidationPairs sizes the held-out exact validation set
	// (default 2000).
	ValidationPairs int

	// CheckpointPath, when non-empty, makes Build write an atomic,
	// checksummed training checkpoint there (embedding state plus a
	// phase/level/epoch cursor) as training progresses, so an
	// interrupted build can resume instead of restarting. The file is
	// left in place when Build finishes; callers owning the lifecycle
	// (e.g. rnebuild) remove it after persisting the final model.
	CheckpointPath string
	// CheckpointEvery is the number of completed training epochs
	// between checkpoint writes (default 1: every completed hierarchy
	// level, vertex epoch and fine-tune round).
	CheckpointEvery int
	// Resume restores training state from CheckpointPath when that
	// file exists (a missing file starts a fresh build). The
	// checkpoint must match the graph and options; resumed builds are
	// statistically equivalent to uninterrupted ones but not
	// bit-identical (the sampling RNG restarts at the resume point).
	// A checkpoint that is corrupt or belongs to a different build is
	// discarded with a warning and training restarts from scratch,
	// unless StrictResume is set.
	Resume bool
	// StrictResume makes an unusable checkpoint (corrupt, truncated,
	// or taken under different options) a fatal error instead of a
	// warn-and-restart.
	StrictResume bool
	// StrictCheckpoints makes a failed checkpoint write abort the
	// build. By default a failed write only costs resumability: it is
	// counted in BuildStats.CheckpointFailures, logged, and retried at
	// the next checkpoint tick, while training continues.
	StrictCheckpoints bool

	// MaxRecoveries bounds how many times the divergence sentinel may
	// roll training back to the last good snapshot (halving the
	// learning rate each time) before the build fails (default 3;
	// negative makes any divergence immediately fatal).
	MaxRecoveries int

	// Logger, when non-nil, receives structured build progress: one
	// Info line per phase and per training unit, and a Warn line for
	// each sentinel rollback, tolerated checkpoint-write failure and
	// discarded resume checkpoint.
	Logger *slog.Logger

	// Trace, when non-nil, is the span the build or fine-tune records
	// under. Its children are setup (with partition, landmarks, grid
	// and validation-set under it), hier-phase, vertex-phase,
	// finetune-phase and finalize. Each training unit ("hierarchy level
	// N", "vertex epoch N", "fine-tune round k") is a child of its phase
	// carrying loss_mean_rel, lr and recoveries; a rolled-back unit
	// instead has a rollback event and an error. Each checkpoint write
	// is a "checkpoint" child of its unit. rnebuild's build-report.json
	// holds these spans.
	Trace *telemetry.ReqSpan

	// Seed makes the build deterministic.
	Seed int64
}

// logger returns the configured logger, or a discarding one.
func (o Options) logger() *slog.Logger { return telemetry.OrNop(o.Logger) }

// DefaultOptions returns the paper-style defaults for dimension d.
func DefaultOptions(seed int64) Options {
	return Options{
		Dim:                 64,
		P:                   1,
		Hierarchical:        true,
		ActiveFineTune:      true,
		Fanout:              4,
		Leaf:                64,
		LR:                  0.25,
		Optimizer:           "sgd",
		Epochs:              10,
		HierSampleCap:       40000,
		VertexSampleRatio:   150,
		VertexStrategy:      VertexLandmark,
		Landmarks:           100,
		LandmarkStrategy:    "farthest",
		FineTuneRounds:      12,
		FineTuneSampleRatio: 5,
		FineTuneMode:        sample.Global,
		GridK:               16,
		ValidationPairs:     2000,
		MaxRecoveries:       3,
		Seed:                seed,
	}
}

// withDefaults fills zero fields and validates the result.
func (o Options) withDefaults() (Options, error) {
	def := DefaultOptions(o.Seed)
	if o.Dim == 0 {
		o.Dim = def.Dim
	}
	if o.P == 0 {
		o.P = def.P
	}
	if o.Fanout == 0 {
		o.Fanout = def.Fanout
	}
	if o.Leaf == 0 {
		o.Leaf = def.Leaf
	}
	if o.LR == 0 {
		o.LR = def.LR
	}
	if o.Optimizer == "" {
		o.Optimizer = def.Optimizer
	}
	if o.Epochs == 0 {
		o.Epochs = def.Epochs
	}
	if o.HierSampleCap == 0 {
		o.HierSampleCap = def.HierSampleCap
	}
	if o.VertexSampleRatio == 0 {
		o.VertexSampleRatio = def.VertexSampleRatio
	}
	if o.VertexStrategy == "" {
		o.VertexStrategy = def.VertexStrategy
	}
	if o.Landmarks == 0 {
		o.Landmarks = def.Landmarks
	}
	if o.LandmarkStrategy == "" {
		o.LandmarkStrategy = def.LandmarkStrategy
	}
	if o.FineTuneRounds == 0 {
		o.FineTuneRounds = def.FineTuneRounds
	}
	if o.FineTuneSampleRatio == 0 {
		o.FineTuneSampleRatio = def.FineTuneSampleRatio
	}
	if o.GridK == 0 {
		o.GridK = def.GridK
	}
	if o.ValidationPairs == 0 {
		o.ValidationPairs = def.ValidationPairs
	}
	if o.CheckpointPath != "" && o.CheckpointEvery == 0 {
		o.CheckpointEvery = 1
	}
	if o.MaxRecoveries == 0 {
		o.MaxRecoveries = def.MaxRecoveries
	}
	if o.MaxRecoveries < 0 {
		o.MaxRecoveries = 0 // any divergence is fatal
	}
	switch {
	case o.CheckpointEvery < 0:
		return o, fmt.Errorf("core: CheckpointEvery must be >= 0, got %d", o.CheckpointEvery)
	case o.Resume && o.CheckpointPath == "":
		return o, fmt.Errorf("core: Resume requires CheckpointPath")
	case o.Dim < 1:
		return o, fmt.Errorf("core: Dim must be >= 1, got %d", o.Dim)
	case o.P <= 0:
		return o, fmt.Errorf("core: P must be positive, got %v", o.P)
	case o.LR <= 0:
		return o, fmt.Errorf("core: LR must be positive, got %v", o.LR)
	case o.Epochs < 1:
		return o, fmt.Errorf("core: Epochs must be >= 1, got %d", o.Epochs)
	case o.VertexStrategy != VertexLandmark && o.VertexStrategy != VertexRandom:
		return o, fmt.Errorf("core: unknown VertexStrategy %q", o.VertexStrategy)
	case o.LandmarkStrategy != "farthest" && o.LandmarkStrategy != "random" && o.LandmarkStrategy != "degree":
		return o, fmt.Errorf("core: unknown LandmarkStrategy %q", o.LandmarkStrategy)
	case o.Optimizer != "sgd" && o.Optimizer != "adam":
		return o, fmt.Errorf("core: unknown Optimizer %q", o.Optimizer)
	}
	return o, nil
}
