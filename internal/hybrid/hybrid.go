// Package hybrid combines the RNE embedding with ALT landmark bounds:
// each estimate is clamped into the triangle-inequality interval
// [max_u |d(u,s)-d(u,t)|, min_u d(u,s)+d(u,t)], which provably contains
// the true distance. The ensemble keeps RNE's accuracy in the common
// case and caps its rare tail errors at the LT gap — and, unlike either
// component alone, every answer carries a certified error interval.
//
// This is an extension beyond the paper (its Section VII-C discussion
// of RNE vs LT invites exactly this combination). Query cost is
// O(|U| + d): LT-speed rather than RNE-speed.
package hybrid

import (
	"fmt"

	"repro/internal/alt"
)

// Distancer is the model side of the ensemble: any embedding queryable
// for point estimates. Both core.Model and shard.Model satisfy it, so
// guard mode works unchanged on full and geo-shard replicas.
type Distancer interface {
	Estimate(s, t int32) float64
	NumVertices() int
}

// Estimator is the clamped ensemble.
type Estimator struct {
	m  Distancer
	lt *alt.Index
}

// New combines a trained model with a landmark index over the same
// graph. The two must agree on the vertex count — mixing a model and an
// index from different graphs would silently produce wrong "certified"
// bounds, so the mismatch is rejected here.
func New(m Distancer, lt *alt.Index) (*Estimator, error) {
	if m == nil || lt == nil {
		return nil, fmt.Errorf("hybrid: need both a model and a landmark index")
	}
	if m.NumVertices() != lt.NumVertices() {
		return nil, fmt.Errorf("hybrid: model covers %d vertices but landmark index covers %d (built from different graphs?)",
			m.NumVertices(), lt.NumVertices())
	}
	return &Estimator{m: m, lt: lt}, nil
}

// GuardResult is one guarded estimate: the clamped value, the raw
// model estimate before clamping, the certified interval it was
// clamped into with the landmark behind each side, and whether
// clamping actually occurred (i.e. the raw estimate violated a bound).
// Raw is what accuracy monitors want: the clamp delta |Raw - Est| and
// the deviation of Raw from the interval midpoint are label-free error
// signals available on every query. The landmarks are the provenance
// an operator needs to see why an estimate was clamped; they are -1
// for identical endpoints and for pairs no landmark reaches.
type GuardResult struct {
	Est                    float64
	Raw                    float64
	Lo, Hi                 float64
	LoLandmark, HiLandmark int32
	ClampedLow             bool // raw estimate was below the certified lower bound
	ClampedHigh            bool // raw estimate was above the certified upper bound
}

// Guard evaluates one pair under the guardrail: the raw RNE estimate is
// clamped into the landmark interval and the clamp directions reported,
// so servers can both bound degradation and count how often the model
// needed correcting. Identical endpoints answer exactly 0.
func (e *Estimator) Guard(s, t int32) GuardResult {
	if s == t {
		return GuardResult{LoLandmark: -1, HiLandmark: -1}
	}
	b := e.lt.BoundsDetail(s, t)
	raw := e.m.Estimate(s, t)
	r := GuardResult{Est: raw, Raw: raw, Lo: b.Lo, Hi: b.Hi, LoLandmark: b.LoLandmark, HiLandmark: b.HiLandmark}
	if r.Est < r.Lo {
		r.Est, r.ClampedLow = r.Lo, true
	}
	if r.Est > r.Hi {
		r.Est, r.ClampedHigh = r.Hi, true
	}
	return r
}

// Estimate returns the guarded estimate alone.
func (e *Estimator) Estimate(s, t int32) float64 { return e.Guard(s, t).Est }

// LandmarkBytes reports the guard's own label-matrix footprint, for
// per-component memory accounting (rne_model_bytes{component=guard}).
func (e *Estimator) LandmarkBytes() int64 { return e.lt.IndexBytes() }

// NumVertices returns the vertex count both components cover.
func (e *Estimator) NumVertices() int { return e.m.NumVertices() }
