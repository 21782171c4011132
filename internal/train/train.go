// Package train implements the SGD procedures of the paper: Function
// Training (flat vertex embedding, Section III-D) and Function
// TrainingHier (hierarchical local embeddings with per-level learning
// rates, Section IV-B), plus the level learning-rate schedule of
// Algorithm 1. Each model shape has one step: FlatStep for the flat
// matrix, HierStep for the hierarchy and VertexStep for HierStep's
// vertex-only schedule. Each takes an optional *Adam; nil means plain
// SGD.
//
// Distances are normalized by a caller-supplied scale (typically the
// network diameter) so learning rates are graph-independent; the model
// multiplies the scale back at query time. The paper trains raw
// distances under TensorFlow's adaptive optimizers — plain SGD needs
// the normalization to stay stable, and the substitution is
// value-preserving because the L1 metric is positively homogeneous.
package train

import (
	"math"

	"repro/internal/emb"
	"repro/internal/sample"
	"repro/internal/vecmath"
)

// errClamp bounds the residual fed into an update. Normalized target
// distances live in [0, 1], so residuals beyond ±4 only occur when the
// iterate has wandered; clamping lets SGD recover instead of
// overshooting into divergence.
const errClamp = 4.0

func clampErr(err float64) float64 {
	if err > errClamp {
		return errClamp
	}
	if err < -errClamp {
		return -errClamp
	}
	return err
}

// usable reports whether a sample carries a finite target distance. A
// single NaN or Inf label would poison both endpoint rows (NaN
// residuals pass the clamp untouched) and from there spread through
// every later update, so non-finite samples are skipped and counted
// rather than trained on; callers surface the count through build
// statistics.
func usable(smp sample.Sample) bool {
	return !math.IsNaN(smp.Dist) && !math.IsInf(smp.Dist, 0)
}

// FlatStep performs one pass of Function Training over samples on the
// flat vertex matrix m: for each (v_s, v_t, φ) it descends the squared
// error of the L_p estimate with learning rate lr, by plain SGD when
// adam is nil and by Adam otherwise. scale divides the target
// distances. It returns the number of samples skipped for carrying
// non-finite distances.
func FlatStep(m *emb.Matrix, adam *Adam, samples []sample.Sample, lr, p, scale float64) (skipped int) {
	d := m.Dim()
	grad := make([]float64, d)
	for _, smp := range samples {
		if !usable(smp) {
			skipped++
			continue
		}
		rs := m.Row(smp.S)
		rt := m.Row(smp.T)
		phiHat := vecmath.Lp(rs, rt, p)
		err := clampErr(phiHat - smp.Dist/scale)
		if err == 0 {
			continue
		}
		vecmath.LpGrad(grad, rs, rt, p, phiHat)
		// dL/drs = 2*err*grad, dL/drt = -2*err*grad
		if adam != nil {
			adam.t++
			adam.update(rs, int(smp.S)*d, grad, 2*err, lr)
			adam.update(rt, int(smp.T)*d, grad, -2*err, lr)
			continue
		}
		step := lr * 2 * err
		vecmath.AddScaled(rs, grad, -step)
		vecmath.AddScaled(rt, grad, step)
	}
	return skipped
}

// HierStep performs one pass of Function TrainingHier over samples on
// the hierarchical model hh, by plain SGD when adam is nil and by Adam
// otherwise. lrByLevel[l] is α_l, the learning rate applied to local
// embeddings at tree depth l; levels with zero rate are frozen, their
// rows and Adam moments untouched. scale divides the target distances.
//
// Ancestors shared by both endpoints receive exactly cancelling
// gradients in the paper's formulation, so they are skipped here — the
// resulting parameters are identical, with less work.
//
// It returns the number of samples skipped for carrying non-finite
// distances.
func HierStep(hh *emb.Hier, adam *Adam, lrByLevel []float64, samples []sample.Sample, p, scale float64) (skipped int) {
	d := hh.Local.Dim()
	vs := make([]float64, d)
	vt := make([]float64, d)
	grad := make([]float64, d)
	h := hh.H
	for _, smp := range samples {
		if !usable(smp) {
			skipped++
			continue
		}
		ancS := h.Ancestors(smp.S)
		ancT := h.Ancestors(smp.T)
		hh.GlobalInto(vs, smp.S)
		hh.GlobalInto(vt, smp.T)
		phiHat := vecmath.Lp(vs, vt, p)
		err := clampErr(phiHat - smp.Dist/scale)
		if err == 0 {
			continue
		}
		vecmath.LpGrad(grad, vs, vt, p, phiHat)
		if adam != nil {
			adam.t++
		}
		step := 2 * err

		// Skip the common ancestor prefix (cancelled gradients).
		common := 0
		for common < len(ancS) && common < len(ancT) && ancS[common] == ancT[common] {
			common++
		}
		for _, node := range ancS[common:] {
			if lr := nodeRate(h, node, lrByLevel); lr != 0 {
				if adam != nil {
					adam.update(hh.Local.Row(node), int(node)*d, grad, step, lr)
				} else {
					vecmath.AddScaled(hh.Local.Row(node), grad, -lr*step)
				}
			}
		}
		for _, node := range ancT[common:] {
			if lr := nodeRate(h, node, lrByLevel); lr != 0 {
				if adam != nil {
					adam.update(hh.Local.Row(node), int(node)*d, grad, -2*err, lr)
				} else {
					vecmath.AddScaled(hh.Local.Row(node), grad, lr*step)
				}
			}
		}
	}
	return skipped
}

// nodeRate resolves the learning rate of a tree node. The hierarchy
// can be ragged (small branches bottom out early), so vertex nodes
// always take the deepest level's rate regardless of their depth: the
// "vertices level" of the paper is the set of vertex nodes, not a
// geometric depth.
func nodeRate(h hierLike, node int32, lrByLevel []float64) float64 {
	lvl := int(h.Depth(node))
	if h.IsVertexNode(node) {
		lvl = len(lrByLevel) - 1
	}
	if lvl < 0 || lvl >= len(lrByLevel) {
		return 0
	}
	return lrByLevel[lvl]
}

// hierLike is the slice of partition.Hierarchy behaviour nodeRate needs.
type hierLike interface {
	Depth(node int32) int32
	IsVertexNode(node int32) bool
}

// LevelRates returns the Algorithm 1 learning-rate schedule for the
// step focused on level lev: α_l = α0 / (|l - lev| + 1) for levels
// 0..maxLevel. Level 0 (the root, whose local embedding cancels in
// every distance) is zeroed.
func LevelRates(alpha0 float64, lev, maxLevel int) []float64 {
	out := make([]float64, maxLevel+1)
	for l := 1; l <= maxLevel; l++ {
		diff := l - lev
		if diff < 0 {
			diff = -diff
		}
		out[l] = alpha0 / float64(diff+1)
	}
	return out
}

// VertexOnlyRates returns the phase-②/③ schedule: every level frozen
// except the deepest (vertex) level, trained at alpha. VertexStep runs
// HierStep under this schedule without re-summing frozen ancestors.
func VertexOnlyRates(alpha float64, maxLevel int) []float64 {
	out := make([]float64, maxLevel+1)
	out[maxLevel] = alpha
	return out
}
