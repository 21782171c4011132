package train

import "math"

// Adam holds per-parameter first/second moment estimates for an
// embedding matrix. The paper trains under TensorFlow, whose adaptive
// optimizers tolerate raw-scale gradients; this repository's plain SGD
// replaces that with explicit normalization, and Adam is provided as a
// faithful alternative (compared by the ablation-optimizer experiment).
// FlatStep, HierStep and VertexStep each take a *Adam: nil means plain
// SGD, and an Adam replaces every SGD row update with an Adam step on
// the same gradient.
type Adam struct {
	m, v []float64
	t    int
	// Beta1, Beta2 and Eps are the standard Adam constants.
	Beta1, Beta2, Eps float64
}

// NewAdam returns Adam state sized for matrix rows*dim parameters.
func NewAdam(rows, dim int) *Adam {
	return &Adam{
		m: make([]float64, rows*dim), v: make([]float64, rows*dim),
		Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
	}
}

// Reset zeroes the moment estimates and step counter. The divergence
// sentinel calls it after rolling an embedding back to a snapshot:
// moments accumulated from the diverged trajectory (possibly non-finite
// themselves) must not steer the retried epochs.
func (a *Adam) Reset() {
	for i := range a.m {
		a.m[i] = 0
		a.v[i] = 0
	}
	a.t = 0
}

// update applies one Adam step to row (starting at parameter offset
// off) given the row gradient scaled by gscale.
func (a *Adam) update(row []float64, off int, grad []float64, gscale, lr float64) {
	corr1 := 1 - math.Pow(a.Beta1, float64(a.t))
	corr2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i := range row {
		g := grad[i] * gscale
		k := off + i
		a.m[k] = a.Beta1*a.m[k] + (1-a.Beta1)*g
		a.v[k] = a.Beta2*a.v[k] + (1-a.Beta2)*g*g
		row[i] -= lr * (a.m[k] / corr1) / (math.Sqrt(a.v[k]/corr2) + a.Eps)
	}
}
