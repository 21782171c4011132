// Command rnebuild trains an RNE model over a road network and saves
// it to disk.
//
// Usage:
//
//	rnebuild -graph bj.txt -o bj.rne
//	rnebuild -preset bj-mini -dim 64 -o bj.rne
//
// Long builds can be made restartable with -checkpoint: training state
// is written atomically as phases complete, and a killed build rerun
// with -resume restarts from the last completed hierarchy level /
// epoch instead of from scratch. The checkpoint file is removed once
// the final model has been saved.
//
//	rnebuild -preset usw-mini -o usw.rne -checkpoint usw.ckpt
//	rnebuild -preset usw-mini -o usw.rne -checkpoint usw.ckpt -resume
//
// Training runs under a divergence sentinel: a non-finite embedding or
// a validation-error spike rolls training back to the last good state,
// halves the learning rate, and retries, up to -max-recoveries times.
// An unusable -resume checkpoint is discarded with a warning unless
// -strict-resume is set. -alt-out additionally saves an ALT landmark
// index for rneserver's guard mode.
//
// With -registry and -publish the built artifacts are additionally
// published as a new immutable version in a model registry, which
// rneserver -registry replicas hot-swap to on SIGHUP or /admin/reload:
//
//	rnebuild -preset bj-mini -registry ./models -publish bj
//
// Every build is traced as one span tree rooted at a "build" span:
// setup and its steps, the hierarchy, vertex and fine-tune phases with
// one span per training unit (its loss, learning rate and recovery
// count) and per checkpoint write, and finalize. -report
// (build-report.json by default) writes the BuildStats figures and
// those spans, as the same JSON records a span JSONL holds; progress
// is logged in structured form (-log-level, -log-format), one line per
// phase and per unit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	rne "repro"
	"repro/internal/fsx"
	"repro/internal/telemetry"
)

// report is the machine-readable record of one rnebuild run: the build
// inputs, the BuildStats quantities of Tables III/IV, and the build's
// spans.
type report struct {
	Graph    string `json:"graph"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Dim      int    `json:"dim"`
	Seed     int64  `json:"seed"`

	TotalMS       float64 `json:"total_ms"`
	SetupMS       float64 `json:"setup_ms"`
	HierPhaseMS   float64 `json:"hier_phase_ms"`
	VertexPhaseMS float64 `json:"vertex_phase_ms"`
	FineTuneMS    float64 `json:"finetune_ms"`
	// LabelingMS is the part of the setup and phase times spent
	// labeling samples with exact distances.
	LabelingMS float64 `json:"labeling_ms"`

	SamplesUsed    int64 `json:"samples_used"`
	SamplesSkipped int64 `json:"samples_skipped"`

	Resumed             bool     `json:"resumed"`
	CheckpointDiscarded bool     `json:"checkpoint_discarded"`
	CheckpointFailures  int      `json:"checkpoint_failures"`
	Recoveries          int      `json:"recoveries"`
	Rollbacks           []string `json:"rollbacks,omitempty"`
	FinalLR             float64  `json:"final_lr"`

	ValidationMeanRel float64 `json:"validation_mean_rel"`
	ValidationP50Rel  float64 `json:"validation_p50_rel"`
	ValidationP99Rel  float64 `json:"validation_p99_rel"`
	ValidationMaxRel  float64 `json:"validation_max_rel"`

	Trace []telemetry.SpanRecord `json:"trace"`
}

func main() {
	graphPath := flag.String("graph", "", "input graph in edge-list format")
	preset := flag.String("preset", "", "built-in preset instead of -graph")
	out := flag.String("o", "model.rne", "output model file")
	dim := flag.Int("dim", 64, "embedding dimension d")
	seed := flag.Int64("seed", 42, "training seed")
	epochs := flag.Int("epochs", 0, "SGD epochs per phase (0 = default)")
	naive := flag.Bool("naive", false, "flat vertex embedding instead of hierarchical")
	noAFT := flag.Bool("no-finetune", false, "disable active fine-tuning")
	indexOut := flag.String("index-out", "", "also build and save a spatial index here")
	targetFrac := flag.Float64("target-frac", 0.1, "fraction of vertices indexed (with -index-out)")
	checkpoint := flag.String("checkpoint", "", "write training checkpoints to this file (removed on success)")
	ckptEvery := flag.Int("checkpoint-every", 1, "epochs between checkpoint writes (with -checkpoint)")
	resume := flag.Bool("resume", false, "resume from -checkpoint if it exists")
	strictResume := flag.Bool("strict-resume", false, "fail instead of restarting when the -resume checkpoint is unusable")
	maxRecoveries := flag.Int("max-recoveries", 3, "divergence-sentinel rollbacks before the build fails")
	altOut := flag.String("alt-out", "", "also build and save an ALT landmark index here (for rneserver -alt-index)")
	altLandmarks := flag.Int("alt-landmarks", 16, "landmark count for -alt-out")
	registryRoot := flag.String("registry", "", "versioned model registry root (see rneserver -registry)")
	publishName := flag.String("publish", "", "publish the built artifacts to -registry as a new version under this model name")
	publishShards := flag.Bool("publish-shards", false, "with -publish: also cut the model into region shards and store them (for rneserver -shard / rnegate -shard-map)")
	shardLevel := flag.Int("shard-level", 1, "hierarchy depth to cut shards at (with -publish-shards)")
	shardCount := flag.Int("shard-count", 0, "shard count K for -publish-shards (0 = one shard per cut-level region)")
	reportPath := flag.String("report", "build-report.json", "write the machine-readable build report here (empty disables)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	flag.Parse()

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rnebuild:", err)
		os.Exit(2)
	}
	logger := telemetry.NewLogger(os.Stderr, level, *logFormat)
	fail := func(err error) {
		logger.Error("build failed", "error", err)
		os.Exit(1)
	}
	usage := func(msg string) {
		fmt.Fprintln(os.Stderr, "rnebuild: "+msg)
		os.Exit(2)
	}
	if *resume && *checkpoint == "" {
		usage("-resume requires -checkpoint")
	}
	if *strictResume && !*resume {
		usage("-strict-resume requires -resume")
	}
	if *altOut != "" && *altLandmarks < 1 {
		usage(fmt.Sprintf("-alt-landmarks must be >= 1, got %d", *altLandmarks))
	}
	if *targetFrac < 0 || math.IsNaN(*targetFrac) {
		usage(fmt.Sprintf("-target-frac must be non-negative, got %v", *targetFrac))
	}
	if *publishName != "" && *registryRoot == "" {
		usage("-publish requires -registry")
	}
	if *registryRoot != "" && *publishName == "" {
		usage("-registry requires -publish (the model name to publish as)")
	}
	if *publishShards && *publishName == "" {
		usage("-publish-shards requires -publish")
	}
	if *publishShards && *naive {
		usage("-publish-shards requires hierarchical training (drop -naive)")
	}
	if *publishShards && *shardLevel < 1 {
		usage(fmt.Sprintf("-shard-level must be >= 1, got %d", *shardLevel))
	}

	var g *rne.Graph
	source := *graphPath
	switch {
	case *graphPath != "":
		g, err = rne.LoadGraph(*graphPath)
	case *preset != "":
		g, err = rne.Preset(*preset)
		source = "preset:" + *preset
	default:
		err = fmt.Errorf("need -graph or -preset")
	}
	if err != nil {
		usage(err.Error())
	}

	opt := rne.DefaultOptions(*seed)
	opt.Dim = *dim
	if *epochs > 0 {
		opt.Epochs = *epochs
	}
	opt.Hierarchical = !*naive
	opt.ActiveFineTune = !*noAFT
	if *naive {
		opt.VertexStrategy = rne.VertexRandom
	}
	opt.CheckpointPath = *checkpoint
	opt.CheckpointEvery = *ckptEvery
	opt.Resume = *resume
	opt.StrictResume = *strictResume
	opt.MaxRecoveries = *maxRecoveries
	opt.Logger = logger
	tracer, err := telemetry.NewRequestTracer(telemetry.TraceConfig{Service: "rnebuild"})
	if err != nil {
		fail(err)
	}
	_, opt.Trace = tracer.StartSpanForced(context.Background(), "build")

	logger.Info("training", "dim", opt.Dim, "vertices", g.NumVertices(), "edges", g.NumEdges(), "seed", *seed)
	model, stats, err := rne.Build(g, opt)
	opt.Trace.SetError(err)
	opt.Trace.End()
	if err != nil {
		fail(err)
	}
	if stats.Resumed {
		logger.Info("resumed from checkpoint", "path", *checkpoint)
	}
	logger.Info("build done",
		"total", stats.Total.Round(time.Millisecond), "labeling", stats.Labeling.Round(time.Millisecond),
		"samples", stats.SamplesUsed, "validation", stats.Validation.String())
	if stats.SamplesSkipped > 0 {
		logger.Warn("skipped samples with non-finite distances", "count", stats.SamplesSkipped)
	}
	if stats.Recoveries > 0 {
		logger.Warn("sentinel recovered", "count", stats.Recoveries, "final_lr", stats.FinalLR)
	}
	if stats.CheckpointFailures > 0 {
		logger.Warn("tolerated failed checkpoint writes", "count", stats.CheckpointFailures)
	}

	if *reportPath != "" {
		rep := report{
			Graph:    source,
			Vertices: g.NumVertices(),
			Edges:    g.NumEdges(),
			Dim:      opt.Dim,
			Seed:     *seed,

			TotalMS:       float64(stats.Total.Nanoseconds()) / 1e6,
			SetupMS:       float64(stats.Setup.Nanoseconds()) / 1e6,
			HierPhaseMS:   float64(stats.HierPhase.Nanoseconds()) / 1e6,
			VertexPhaseMS: float64(stats.VertexPhase.Nanoseconds()) / 1e6,
			FineTuneMS:    float64(stats.FineTune.Nanoseconds()) / 1e6,
			LabelingMS:    float64(stats.Labeling.Nanoseconds()) / 1e6,

			SamplesUsed:    stats.SamplesUsed,
			SamplesSkipped: stats.SamplesSkipped,

			Resumed:             stats.Resumed,
			CheckpointDiscarded: stats.CheckpointDiscarded,
			CheckpointFailures:  stats.CheckpointFailures,
			Recoveries:          stats.Recoveries,
			Rollbacks:           stats.Rollbacks,
			FinalLR:             stats.FinalLR,

			ValidationMeanRel: stats.Validation.MeanRel,
			ValidationP50Rel:  stats.Validation.P50Rel,
			ValidationP99Rel:  stats.Validation.P99Rel,
			ValidationMaxRel:  stats.Validation.MaxRel,

			Trace: tracer.Spans(),
		}
		err := fsx.WriteAtomic(*reportPath, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		})
		if err != nil {
			fail(err)
		}
		logger.Info("wrote build report", "path", *reportPath)
	}

	if err := model.SaveFile(*out); err != nil {
		fail(err)
	}
	logger.Info("saved model", "path", *out, "bytes", model.IndexBytes())
	if *checkpoint != "" {
		if err := os.Remove(*checkpoint); err == nil {
			logger.Info("removed checkpoint", "path", *checkpoint)
		} else if !os.IsNotExist(err) {
			logger.Warn("could not remove checkpoint", "path", *checkpoint, "error", err)
		}
	}

	var idx *rne.SpatialIndex
	if *indexOut != "" {
		targets, err := rne.SampleTargets(g, *targetFrac, *seed+1)
		if err != nil {
			fail(err)
		}
		idx, err = rne.NewSpatialIndex(model, targets)
		if err != nil {
			fail(err)
		}
		if err := idx.SaveFile(*indexOut); err != nil {
			fail(err)
		}
		logger.Info("saved spatial index", "path", *indexOut, "targets", idx.Size())
	}

	var lt *rne.ALTIndex
	if *altOut != "" {
		lt, err = rne.BuildALTIndex(g, *altLandmarks, *seed+2)
		if err != nil {
			fail(err)
		}
		if err := lt.SaveFile(*altOut); err != nil {
			fail(err)
		}
		logger.Info("saved ALT index", "path", *altOut,
			"landmarks", lt.NumLandmarks(), "bytes", lt.IndexBytes())
	}

	// Publishing is additive to the file outputs: the registry version
	// carries the model plus whatever siblings this run built (-alt-out's
	// guard index, -index-out's spatial index, and the geo-shard
	// artifacts with -publish-shards). rneserver -registry replicas
	// pick the new version up on their next SIGHUP or POST
	// /admin/reload.
	if *publishName != "" {
		var split *rne.ShardSplit
		if *publishShards {
			split, err = rne.CutShards(model, lt, rne.ShardConfig{
				CutLevel: *shardLevel,
				Shards:   *shardCount,
			})
			if err != nil {
				fail(err)
			}
			for _, sm := range split.Shards {
				logger.Info("cut shard", "shard", sm.ShardID(), "of", sm.NumShards(),
					"owned", sm.OwnedVertices(), "embedding_bytes", sm.EmbeddingBytes())
			}
		}
		store, err := rne.OpenModelRegistry(*registryRoot)
		if err != nil {
			fail(err)
		}
		version, err := store.Publish(*publishName, rne.RegistryArtifacts{
			Model:  model,
			ALT:    lt,
			Index:  idx,
			Shards: split,
		})
		if err != nil {
			fail(err)
		}
		logger.Info("published to registry", "root", *registryRoot,
			"name", *publishName, "version", version,
			"guard", lt != nil, "spatial", idx != nil,
			"shards", *publishShards)
	}
}
