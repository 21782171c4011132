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
	IndexBytes() int64
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

// Estimate returns the RNE estimate clamped into the landmark bounds.
func (e *Estimator) Estimate(s, t int32) float64 {
	if s == t {
		return 0
	}
	est := e.m.Estimate(s, t)
	lo, hi := e.lt.Bounds(s, t)
	if est < lo {
		return lo
	}
	if est > hi {
		return hi
	}
	return est
}

// EstimateWithBounds additionally returns the certified interval
// [lo, hi] containing the true distance.
func (e *Estimator) EstimateWithBounds(s, t int32) (est, lo, hi float64) {
	if s == t {
		return 0, 0, 0
	}
	lo, hi = e.lt.Bounds(s, t)
	est = e.m.Estimate(s, t)
	if est < lo {
		est = lo
	}
	if est > hi {
		est = hi
	}
	return est, lo, hi
}

// GuardResult is one guarded estimate: the clamped value, the raw
// model estimate before clamping, the certified interval it was
// clamped into, and whether clamping actually occurred (i.e. the raw
// estimate violated a bound). Raw is what accuracy monitors want: the
// clamp delta |Raw - Est| and the deviation of Raw from the interval
// midpoint are label-free error signals available on every query.
type GuardResult struct {
	Est         float64
	Raw         float64
	Lo, Hi      float64
	ClampedLow  bool // raw estimate was below the certified lower bound
	ClampedHigh bool // raw estimate was above the certified upper bound
}

// Guard evaluates one pair under the guardrail: the raw RNE estimate is
// clamped into the landmark interval and the clamp directions reported,
// so servers can both bound degradation and count how often the model
// needed correcting.
func (e *Estimator) Guard(s, t int32) GuardResult {
	if s == t {
		return GuardResult{}
	}
	lo, hi := e.lt.Bounds(s, t)
	raw := e.m.Estimate(s, t)
	r := GuardResult{Est: raw, Raw: raw, Lo: lo, Hi: hi}
	if r.Est < lo {
		r.Est, r.ClampedLow = lo, true
	}
	if r.Est > hi {
		r.Est, r.ClampedHigh = hi, true
	}
	return r
}

// Provenance is the full guard-side explanation of one estimate: the
// guarded result plus which landmark produced each side of the
// certified interval. Landmark fields are -1 for identical pairs and
// endpoint pairs no landmark reaches.
type Provenance struct {
	GuardResult
	LoLandmark, HiLandmark int32
}

// Explain evaluates one pair like Guard and additionally reports the
// tightest landmarks: the provenance an operator needs to see *why* an
// estimate was clamped, not just that it was.
func (e *Estimator) Explain(s, t int32) Provenance {
	if s == t {
		return Provenance{LoLandmark: -1, HiLandmark: -1}
	}
	info := e.lt.BoundsDetail(s, t)
	raw := e.m.Estimate(s, t)
	p := Provenance{
		GuardResult: GuardResult{Est: raw, Raw: raw, Lo: info.Lo, Hi: info.Hi},
		LoLandmark:  info.LoLandmark,
		HiLandmark:  info.HiLandmark,
	}
	if p.Est < p.Lo {
		p.Est, p.ClampedLow = p.Lo, true
	}
	if p.Est > p.Hi {
		p.Est, p.ClampedHigh = p.Hi, true
	}
	return p
}

// Bounds exposes the landmark interval for (s, t) without evaluating
// the model.
func (e *Estimator) Bounds(s, t int32) (lo, hi float64) {
	if s == t {
		return 0, 0
	}
	return e.lt.Bounds(s, t)
}

// IndexBytes reports the combined index footprint.
func (e *Estimator) IndexBytes() int64 {
	return e.m.IndexBytes() + e.lt.IndexBytes()
}

// LandmarkBytes reports the guard's own label-matrix footprint, for
// per-component memory accounting (rne_model_bytes{component=guard}).
func (e *Estimator) LandmarkBytes() int64 { return e.lt.IndexBytes() }

// NumVertices returns the vertex count both components cover.
func (e *Estimator) NumVertices() int { return e.m.NumVertices() }
