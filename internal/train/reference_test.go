package train

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/emb"
	"repro/internal/sample"
	"repro/internal/vecmath"
)

// TestStepsMatchReference holds FlatStep and HierStep, each one loop
// for plain SGD and Adam, to the separate SGD and Adam steps they
// replaced, kept verbatim below. Over two passes of vertexSamples
// (NaN, Inf, s == t and zero-residual pairs among them) on a flat
// matrix and on raggedHier under LevelRates at every focus level (with
// the zero-rate root, and again with the levels shallower than the
// focus frozen) and under VertexOnlyRates, at p = 1, 2 and 0.5, every row
// must be bit-identical to the reference's, with equal skip counts
// and, under Adam, an equal step counter and moments.
func TestStepsMatchReference(t *testing.T) {
	const d, lr, scale = 16, 0.05, 1.5
	base := raggedHier(t, d)
	h := base.H
	maxLevel := h.MaxDepth()
	samples := vertexSamples(h.Graph().NumVertices(), 600, 3)
	flat := emb.NewMatrix(h.Graph().NumVertices(), d)
	flat.RandomInit(rand.New(rand.NewSource(9)), 0.3)

	// A step trains m under adam (nil for SGD) at order p.
	type step func(m *emb.Matrix, adam *Adam, p float64) (skipped int)
	type stepCase struct {
		name     string
		init     *emb.Matrix
		ref, got step
	}
	cases := []stepCase{{
		name: "FlatStep",
		init: flat,
		ref: func(m *emb.Matrix, adam *Adam, p float64) int {
			if adam == nil {
				return refFlatStep(m, samples, lr, p, scale)
			}
			return refFlatStepAdam(m, adam, samples, lr, p, scale)
		},
		got: func(m *emb.Matrix, adam *Adam, p float64) int {
			return FlatStep(m, adam, samples, lr, p, scale)
		},
	}}
	hierCase := func(name string, rates []float64) stepCase {
		on := func(m *emb.Matrix) *emb.Hier { return &emb.Hier{H: h, Local: m} }
		return stepCase{
			name: "HierStep " + name,
			init: base.Local,
			ref: func(m *emb.Matrix, adam *Adam, p float64) int {
				if adam == nil {
					return refHierStep(on(m), rates, samples, p, scale)
				}
				return refHierStepAdam(on(m), adam, rates, samples, p, scale)
			},
			got: func(m *emb.Matrix, adam *Adam, p float64) int {
				return HierStep(on(m), adam, rates, samples, p, scale)
			},
		}
	}
	for lev := 0; lev <= maxLevel; lev++ {
		rates := LevelRates(lr, lev, maxLevel)
		cases = append(cases, hierCase(fmt.Sprintf("LevelRates(%d)", lev), rates))
		frozen := LevelRates(lr, lev, maxLevel)
		for l := 0; l < lev; l++ {
			frozen[l] = 0
		}
		cases = append(cases, hierCase(fmt.Sprintf("LevelRates(%d) shallower frozen", lev), frozen))
	}
	cases = append(cases, hierCase("VertexOnlyRates", VertexOnlyRates(lr, maxLevel)))

	for _, c := range cases {
		for _, p := range []float64{1, 2, 0.5} {
			for _, withAdam := range []bool{false, true} {
				name := fmt.Sprintf("%s p=%v adam=%v", c.name, p, withAdam)
				want, got := c.init.Clone(), c.init.Clone()
				var aw, ag *Adam
				if withAdam {
					aw, ag = NewAdam(want.Rows(), d), NewAdam(got.Rows(), d)
				}
				for pass := 0; pass < 2; pass++ {
					if sw, sg := c.ref(want, aw, p), c.got(got, ag, p); sw != sg {
						t.Fatalf("%s pass %d: skipped %d, reference %d", name, pass, sg, sw)
					}
				}
				sameRows(t, name, want, got)
				if withAdam {
					sameAdam(t, name, aw, ag)
				}
				moved := false
				for i, x := range got.Data() {
					moved = moved || x != c.init.Data()[i]
				}
				if !moved {
					t.Fatalf("%s: no parameter moved", name)
				}
			}
		}
	}
}

// The steps as they were before one loop served both optimizers.

func refFlatStep(m *emb.Matrix, samples []sample.Sample, lr, p, scale float64) (skipped int) {
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
		step := lr * 2 * err
		vecmath.AddScaled(rs, grad, -step)
		vecmath.AddScaled(rt, grad, step)
	}
	return skipped
}

func refFlatStepAdam(m *emb.Matrix, adam *Adam, samples []sample.Sample, lr, p, scale float64) (skipped int) {
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
		adam.t++
		adam.update(rs, int(smp.S)*d, grad, 2*err, lr)
		adam.update(rt, int(smp.T)*d, grad, -2*err, lr)
	}
	return skipped
}

func refHierStep(hh *emb.Hier, lrByLevel []float64, samples []sample.Sample, p, scale float64) (skipped int) {
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
		step := 2 * err

		// Skip the common ancestor prefix (cancelled gradients).
		common := 0
		for common < len(ancS) && common < len(ancT) && ancS[common] == ancT[common] {
			common++
		}
		for _, node := range ancS[common:] {
			if lr := nodeRate(h, node, lrByLevel); lr != 0 {
				vecmath.AddScaled(hh.Local.Row(node), grad, -lr*step)
			}
		}
		for _, node := range ancT[common:] {
			if lr := nodeRate(h, node, lrByLevel); lr != 0 {
				vecmath.AddScaled(hh.Local.Row(node), grad, lr*step)
			}
		}
	}
	return skipped
}

func refHierStepAdam(hh *emb.Hier, adam *Adam, lrByLevel []float64, samples []sample.Sample, p, scale float64) (skipped int) {
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
		adam.t++
		common := 0
		for common < len(ancS) && common < len(ancT) && ancS[common] == ancT[common] {
			common++
		}
		for _, node := range ancS[common:] {
			if lr := nodeRate(h, node, lrByLevel); lr != 0 {
				adam.update(hh.Local.Row(node), int(node)*d, grad, 2*err, lr)
			}
		}
		for _, node := range ancT[common:] {
			if lr := nodeRate(h, node, lrByLevel); lr != 0 {
				adam.update(hh.Local.Row(node), int(node)*d, grad, -2*err, lr)
			}
		}
	}
	return skipped
}
