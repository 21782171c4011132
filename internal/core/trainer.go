package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/emb"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sample"
	"repro/internal/sssp"
	"repro/internal/train"
	"repro/internal/vecmath"
)

// Trainer drives the three training phases of Algorithm 1 and exposes
// them individually so the ablation experiments (Figures 11 and 12)
// can interleave training with validation.
type Trainer struct {
	g   *graph.Graph
	opt Options

	hier *emb.Hier   // hierarchical mode
	flat *emb.Matrix // naive mode

	lab       *sample.Labeler
	rng       *rand.Rand
	scale     float64
	landmarks []int32
	gb        *sample.GridBuckets
	val       []metrics.Pair
	lr        float64     // dimension-normalized base rate α0
	adam      *train.Adam // non-nil when Options.Optimizer == "adam"

	samplesUsed    int64
	samplesSkipped int64 // non-finite sample distances skipped by SGD steps
}

// NewTrainer prepares a trainer: it builds the partition hierarchy (in
// hierarchical mode), estimates the distance scale, selects landmarks,
// constructs the fine-tuning grid and draws the exact validation set.
func NewTrainer(g *graph.Graph, opt Options) (*Trainer, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if g.NumVertices() < 2 {
		return nil, fmt.Errorf("core: graph needs at least 2 vertices")
	}
	t := &Trainer{
		g:   g,
		opt: opt,
		lab: sample.NewLabeler(g),
		rng: rand.New(rand.NewSource(opt.Seed)),
		// For the L1 metric every coordinate of both endpoints moves by
		// lr*2*err per update, shifting the estimate by ~4*d*lr*err, so
		// the stable step size scales as 1/d. Normalizing here keeps
		// Options.LR dimension-independent.
		lr: opt.LR / float64(opt.Dim),
	}
	if opt.P < 1 {
		// Sub-metric orders (the Figure 9 L0.5 point) amplify per-
		// coordinate jitter super-linearly: dist = (Σ|δ|^p)^(1/p) grows
		// as d^(1/p)·δ, so the stable step shrinks by another d^(1/p-1).
		t.lr /= math.Pow(float64(opt.Dim), 1/opt.P-1)
	}
	t.scale = estimateDiameter(g, opt.Seed)
	if t.scale <= 0 {
		return nil, fmt.Errorf("core: could not estimate graph diameter")
	}

	if opt.Hierarchical {
		sp := opt.Trace.Child("partition", time.Now())
		h, err := partition.BuildHierarchy(g, partition.HierConfig{
			Fanout: opt.Fanout, Leaf: opt.Leaf, Seed: opt.Seed,
		})
		sp.End()
		if err != nil {
			return nil, err
		}
		t.hier = emb.NewHier(h, opt.Dim)
		initScale := 1.0 / (float64(opt.Dim) * float64(h.MaxDepth()+1))
		t.hier.Local.RandomInit(t.rng, initScale)
		if opt.Optimizer == "adam" {
			t.adam = train.NewAdam(h.NumNodes(), opt.Dim)
		}
	} else {
		t.flat = emb.NewMatrix(g.NumVertices(), opt.Dim)
		t.flat.RandomInit(t.rng, 1.0/float64(opt.Dim))
		if opt.Optimizer == "adam" {
			t.adam = train.NewAdam(g.NumVertices(), opt.Dim)
		}
	}
	if t.adam != nil {
		// Adam's per-parameter normalization replaces the 1/d scaling;
		// map the default LR=0.25 onto the canonical Adam rate 1e-3.
		t.lr = opt.LR * 0.004
	}

	nLandmarks := opt.Landmarks
	if nLandmarks > g.NumVertices() {
		nLandmarks = g.NumVertices()
	}
	selectLandmarks := landmark.Farthest
	switch opt.LandmarkStrategy {
	case "random":
		selectLandmarks = landmark.Random
	case "degree":
		selectLandmarks = landmark.ByDegree
	}
	sp := opt.Trace.Child("landmarks", time.Now())
	t.landmarks, err = selectLandmarks(g, nLandmarks, opt.Seed+1)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = opt.Trace.Child("grid", time.Now())
	t.gb, err = sample.NewGridBuckets(g, opt.GridK)
	sp.End()
	if err != nil {
		return nil, err
	}

	sp = opt.Trace.Child("validation-set", time.Now())
	valSamples := sample.RandomPairs(g, opt.ValidationPairs, perSource, t.lab, t.rng)
	t.val = make([]metrics.Pair, len(valSamples))
	for i, s := range valSamples {
		t.val[i] = metrics.Pair{S: s.S, T: s.T, Dist: s.Dist}
	}
	sp.End()
	return t, nil
}

// estimateDiameter runs the classic double-sweep lower bound: SSSP from
// a fixed vertex, then SSSP from the farthest vertex found.
func estimateDiameter(g *graph.Graph, seed int64) float64 {
	ws := sssp.NewWorkspace(g)
	rng := rand.New(rand.NewSource(seed))
	start := int32(rng.Intn(g.NumVertices()))
	dist := ws.FromSource(start, nil)
	far, best := start, 0.0
	for v, d := range dist {
		if d < sssp.Inf && d > best {
			far, best = int32(v), d
		}
	}
	dist = ws.FromSource(far, dist)
	for _, d := range dist {
		if d < sssp.Inf && d > best {
			best = d
		}
	}
	return best
}

// Graph returns the graph being embedded.
func (t *Trainer) Graph() *graph.Graph { return t.g }

// Options returns the effective (defaulted) options.
func (t *Trainer) Options() Options { return t.opt }

// Scale returns the distance normalizer.
func (t *Trainer) Scale() float64 { return t.scale }

// Landmarks returns the selected landmark set.
func (t *Trainer) Landmarks() []int32 { return t.landmarks }

// SamplesUsed reports the cumulative number of training samples
// consumed (counting each epoch pass once, matching the paper's
// sample-count x-axes).
func (t *Trainer) SamplesUsed() int64 { return t.samplesUsed }

// SamplesSkipped reports how many sample presentations were skipped for
// carrying non-finite target distances — a nonzero value means a
// sample source produced garbage labels that SGD refused to train on.
func (t *Trainer) SamplesSkipped() int64 { return t.samplesSkipped }

// LR returns the current dimension-normalized base learning rate; the
// divergence sentinel halves it on every rollback, so a build that
// recovered reports a lower final rate than it started with.
func (t *Trainer) LR() float64 { return t.lr }

// ScaleLR multiplies the base learning rate by f (sentinel rollbacks
// use f = 0.5).
func (t *Trainer) ScaleLR(f float64) { t.lr *= f }

// resetAdam clears optimizer moments after a rollback: moments
// accumulated on the diverged trajectory must not steer the retry.
func (t *Trainer) resetAdam() {
	if t.adam != nil {
		t.adam.Reset()
	}
}

// Hierarchy returns the partition hierarchy (nil in naive mode).
func (t *Trainer) Hierarchy() *partition.Hierarchy {
	if t.hier == nil {
		return nil
	}
	return t.hier.H
}

// Estimate returns the current model's distance estimate, usable
// mid-training for validation probes.
func (t *Trainer) Estimate(s, u int32) float64 {
	if t.hier != nil {
		d := t.opt.Dim
		vs := make([]float64, d)
		vt := make([]float64, d)
		t.hier.GlobalInto(vs, s)
		t.hier.GlobalInto(vt, u)
		return vecmath.Lp(vs, vt, t.opt.P) * t.scale
	}
	return t.flat.Distance(s, u, t.opt.P) * t.scale
}

// Validate evaluates the current model on the held-out exact pairs.
func (t *Trainer) Validate() metrics.ErrorStats {
	return metrics.Evaluate(metrics.EstimatorFunc(t.Estimate), t.val)
}

// ValidationPairs exposes the held-out set for experiment harnesses.
func (t *Trainer) ValidationPairs() []metrics.Pair { return t.val }

// RunHierPhase executes phase ① of Algorithm 1: level-by-level training
// of the hierarchy embedding with the |l-lev|-decayed learning rates.
// It is a no-op in naive mode.
func (t *Trainer) RunHierPhase() {
	_ = t.RunHierPhaseFrom(1, nil)
}

// RunHierPhaseFrom runs phase ① starting at fromLevel (levels below it
// are assumed already trained, e.g. restored from a checkpoint),
// invoking afterLevel — when non-nil — after each completed level. An
// afterLevel error aborts the phase (it is how Build propagates fatal
// checkpoint errors), except errRetryUnit, which re-runs the level —
// the divergence sentinel's rollback path. No-op in naive mode.
func (t *Trainer) RunHierPhaseFrom(fromLevel int, afterLevel func(lev int) error) error {
	if t.hier == nil {
		return nil
	}
	h := t.hier.H
	maxLevel := h.MaxDepth()
	if fromLevel < 1 {
		fromLevel = 1
	}
	for lev := fromLevel; lev <= maxLevel; {
		nNodes := len(h.CoverAtLevel(lev))
		n := 150 * nNodes * nNodes
		if n > t.opt.HierSampleCap {
			n = t.opt.HierSampleCap
		}
		if n < 500 {
			n = 500
		}
		samples := sample.SubgraphLevel(h, lev, n, perSource, t.lab, t.rng)
		poisonIfInjected(FailpointHierSamplesNaN, samples)
		rates := train.LevelRates(t.lr, lev, maxLevel)
		for e := 0; e < t.opt.Epochs; e++ {
			t.samplesSkipped += int64(train.HierStep(t.hier, t.adam, rates, samples, t.opt.P, t.scale))
			t.samplesUsed += int64(len(samples))
		}
		if afterLevel != nil {
			switch err := afterLevel(lev); {
			case errors.Is(err, errRetryUnit):
				continue // rolled back: redo this level at the reduced rate
			case err != nil:
				return err
			}
		}
		lev++
	}
	return nil
}

// GenVertexSamples draws n phase-② samples using the configured
// strategy.
func (t *Trainer) GenVertexSamples(n int) []sample.Sample {
	var out []sample.Sample
	switch t.opt.VertexStrategy {
	case VertexRandom:
		out = sample.RandomPairs(t.g, n, perSource, t.lab, t.rng)
	default:
		out = sample.LandmarkBased(t.g, t.landmarks, n, t.lab, t.rng)
	}
	poisonIfInjected(FailpointVertexSamplesNaN, out)
	return out
}

// VertexStep applies one training pass over samples touching only the
// vertex-level embeddings (phases ② and ③). In naive mode it trains
// the flat matrix.
func (t *Trainer) VertexStep(samples []sample.Sample, lr float64) {
	var skipped int
	if t.hier != nil {
		skipped = train.VertexStep(t.hier, t.adam, lr, samples, t.opt.P, t.scale)
	} else {
		skipped = train.FlatStep(t.flat, t.adam, samples, lr, t.opt.P, t.scale)
	}
	t.samplesSkipped += int64(skipped)
	t.samplesUsed += int64(len(samples))
}

// RunVertexPhase executes phase ②: landmark-based (or random) samples
// training the vertex-level embeddings for the configured epochs.
func (t *Trainer) RunVertexPhase() {
	_ = t.RunVertexPhaseFrom(0, nil)
}

// RunVertexPhaseFrom runs phase ② starting at epoch fromEpoch (earlier
// epochs are assumed already trained, e.g. restored from a
// checkpoint), invoking afterEpoch — when non-nil — after each
// completed epoch. The per-epoch learning-rate decay keys off the
// absolute epoch number, so a resumed run continues the schedule
// rather than restarting it. An afterEpoch error aborts the phase,
// except errRetryUnit, which re-runs the epoch after a sentinel
// rollback.
func (t *Trainer) RunVertexPhaseFrom(fromEpoch int, afterEpoch func(epoch int) error) error {
	if fromEpoch >= t.opt.Epochs {
		return nil
	}
	n := int(t.opt.VertexSampleRatio * float64(t.g.NumVertices()))
	if n < 1000 {
		n = 1000
	}
	samples := t.GenVertexSamples(n)
	for e := fromEpoch; e < t.opt.Epochs; {
		lr := t.lr / (1 + 0.5*float64(e))
		t.VertexStep(samples, lr)
		if afterEpoch != nil {
			switch err := afterEpoch(e); {
			case errors.Is(err, errRetryUnit):
				continue // rolled back: redo this epoch at the reduced rate
			case err != nil:
				return err
			}
		}
		e++
	}
	return nil
}

// BucketErrors probes the current model's per-bucket relative errors
// on the fine-tuning grid.
func (t *Trainer) BucketErrors() []float64 {
	return t.gb.ProbeErrors(t.Estimate, probesPerBucket, perSource, t.lab, t.rng)
}

// RunFineTuneRound executes one phase-③ round: probe bucket errors,
// draw error-based samples (Local or Global), and train the vertex
// level at a decayed rate. round counts from 0.
func (t *Trainer) RunFineTuneRound(round int) {
	errs := t.BucketErrors()
	n := int(t.opt.FineTuneSampleRatio * float64(t.g.NumVertices()))
	if n < 500 {
		n = 500
	}
	samples := t.gb.ErrorBased(errs, t.opt.FineTuneMode, n, perSource, t.lab, t.rng)
	if len(samples) == 0 {
		return
	}
	poisonIfInjected(FailpointFineTuneSamplesNaN, samples)
	lr := t.lr / (2 + float64(round))
	t.VertexStep(samples, lr)
}

// Finalize flattens the trained embedding into a query Model.
func (t *Trainer) Finalize() *Model {
	var mat *emb.Matrix
	if t.hier != nil {
		mat = t.hier.Flatten()
	} else {
		mat = t.flat.Clone()
	}
	return &Model{m: mat, p: t.opt.P, scale: t.scale, hier: t.hier}
}
