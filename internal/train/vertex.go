package train

import (
	"math"

	"repro/internal/emb"
	"repro/internal/sample"
	"repro/internal/vecmath"
)

// VertexStep performs one SGD pass over samples that trains only the
// vertex-node rows of hh, at rate lr: phases ② and ③ of Algorithm 1.
// It leaves hh bit-identical to HierStep under
// VertexOnlyRates(lr, hh.H.MaxDepth()), and returns the same skip
// count, without re-summing every endpoint's frozen ancestors.
//
// Vertex nodes are the tree's leaves, so no vertex row is an ancestor
// of another node, and a vertex-only pass never changes an internal
// node's global position. The pass forms each internal node's
// root-first prefix once (emb.Hier.NodeGlobalInto); an endpoint's
// global vector is then its parent's prefix plus its own row, the
// additions GlobalInto makes, in the same order. At p = 1 one loop
// forms the difference of the two endpoints and its L1 norm, and a
// second applies the sign updates with AddScaled's arithmetic.
func VertexStep(hh *emb.Hier, lr float64, samples []sample.Sample, p, scale float64) (skipped int) {
	return vertexPass(hh, nil, lr, samples, p, scale)
}

// VertexStepAdam is VertexStep with Adam updates: bit-identical to
// HierStepAdam under VertexOnlyRates(lr, hh.H.MaxDepth()).
func VertexStepAdam(hh *emb.Hier, adam *Adam, lr float64, samples []sample.Sample, p, scale float64) (skipped int) {
	return vertexPass(hh, adam, lr, samples, p, scale)
}

func vertexPass(hh *emb.Hier, adam *Adam, lr float64, samples []sample.Sample, p, scale float64) (skipped int) {
	f := freeze(hh)
	d := hh.Local.Dim()
	vs := make([]float64, d)
	vt := make([]float64, d)
	grad := make([]float64, d)
	for _, smp := range samples {
		if !usable(smp) {
			skipped++
			continue
		}
		ps, ns := f.endpoint(smp.S)
		pt, nt := f.endpoint(smp.T)
		rs, rt := hh.Local.Row(ns), hh.Local.Row(nt)
		// HierStep moves no row when s == t (the endpoints share every
		// ancestor) or when the vertex rate is zero.
		moves := ns != nt && lr != 0
		if p == 1 && adam == nil {
			phiHat := diffL1(vs, ps, rs, pt, rt)
			err := clampErr(phiHat - smp.Dist/scale)
			if err == 0 || !moves {
				continue
			}
			step := 2 * err
			addSigns(rs, vs, -lr*step)
			addSigns(rt, vs, lr*step)
			continue
		}
		copy(vs, ps) // GlobalInto's sums but the last, then the last
		vecmath.Sum(vs, rs)
		copy(vt, pt)
		vecmath.Sum(vt, rt)
		phiHat := vecmath.Lp(vs, vt, p)
		err := clampErr(phiHat - smp.Dist/scale)
		if err == 0 {
			continue
		}
		vecmath.LpGrad(grad, vs, vt, p, phiHat)
		if adam != nil {
			adam.t++
			if moves {
				adam.update(rs, int(ns)*d, grad, 2*err, lr)
				adam.update(rt, int(nt)*d, grad, -2*err, lr)
			}
			continue
		}
		if moves {
			step := 2 * err
			vecmath.AddScaled(rs, grad, -lr*step)
			vecmath.AddScaled(rt, grad, lr*step)
		}
	}
	return skipped
}

// frozen holds the root-first global position of every internal tree
// node, which a vertex-only pass never changes.
type frozen struct {
	hh     *emb.Hier
	d      int
	prefix []float64 // row k >= 1: the k-th internal node's prefix; row 0 is zero
	slot   []int32   // slot[v] is the prefix row of v's parent node
}

func freeze(hh *emb.Hier) *frozen {
	h := hh.H
	d := hh.Local.Dim()
	n := h.Graph().NumVertices()
	// Every vertex has one vertex node; the other nodes are internal.
	// Row 0 stays zero: the parent prefix of a root that is a vertex node.
	prefix := make([]float64, d*(1+h.NumNodes()-n))
	row := make([]int32, h.NumNodes())
	next := 1
	for node := int32(0); node < int32(h.NumNodes()); node++ {
		if !h.IsVertexNode(node) {
			row[node] = int32(next)
			hh.NodeGlobalInto(prefix[next*d:(next+1)*d], node)
			next++
		}
	}
	slot := make([]int32, n)
	for v := range slot {
		if parent := h.Parent(h.VertexNode(int32(v))); parent >= 0 {
			slot[v] = row[parent]
		}
	}
	return &frozen{hh: hh, d: d, prefix: prefix, slot: slot}
}

// endpoint returns v's frozen parent prefix and its vertex node.
func (f *frozen) endpoint(v int32) ([]float64, int32) {
	off := int(f.slot[v]) * f.d
	return f.prefix[off : off+f.d], f.hh.H.VertexNode(v)
}

// diffL1 sets diff to the difference of the endpoints' global vectors
// ps+rs and pt+rt and returns its L1 norm, summed in L1's order.
func diffL1(diff, ps, rs, pt, rt []float64) float64 {
	n := len(diff)
	ps, rs, pt, rt = ps[:n], rs[:n], pt[:n], rt[:n]
	var sum float64
	for i := range diff {
		x := (ps[i] + rs[i]) - (pt[i] + rt[i])
		diff[i] = x
		sum += math.Abs(x)
	}
	return sum
}

// addSigns adds step·Sign(diff[i]) to row[i]: AddScaled over L1's
// subgradient, which LpGrad would write as Sign(diff[i]) (all zeros
// when the norm is zero, where every Sign is already zero). The three
// possible addends are formed once, by AddScaled's multiplications,
// and picked without a branch: the signs of a difference are a coin
// toss that a branch predictor loses.
func addSigns(row, diff []float64, step float64) {
	addend := [4]float64{step * signs[0], step * signs[1], step * signs[2]}
	diff = diff[:len(row)]
	for i := range row {
		x := diff[i]
		row[i] += addend[(b2i(x > 0)-b2i(x < 0)+1)&3]
	}
}

// signs are the values Sign returns. Multiplying by a variable keeps
// the compiler from rewriting step*-1 as a negation, which differs from
// a multiplication in the sign bit of a NaN.
var signs = [3]float64{-1, 0, 1}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
