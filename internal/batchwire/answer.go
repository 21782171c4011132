package batchwire

import (
	"fmt"
	"math"
	"slices"
	"strconv"
)

// Answer is a replica's /batch answer.
type Answer struct {
	Distances []float64
	// Guarded answers carry the certified bounds Lo[i] and Hi[i] of
	// each Distances[i] and the number of estimates the guard clamped
	// into them.
	Guarded      bool
	Lo, Hi       []float64
	ClampedCount int
	// Sharded answers, from a geo-shard replica, carry the number of
	// pairs whose target lies outside the shard's region.
	Sharded    bool
	CrossCount int
	// Explain, when non-nil, is the encoded per-pair provenance array.
	Explain []byte
}

// AppendAnswer appends a's encoding and a newline to dst: the bytes
// json.NewEncoder(w).Encode writes for the equivalent map[string]any.
// JSON has no form for NaN or an infinity, so a non-finite number is
// refused with an error rather than written, naming the first one the
// encoder meets: in distances, then hi, then lo.
//
// A guarded answer's bounds are formatted once, into b. A distance the
// guard clamped to its lo or hi has that bound's float64 bits, so it is
// written as a copy of the bound's text: one float64 has one shortest
// form.
func (b *Buffers) AppendAnswer(dst []byte, a *Answer) ([]byte, error) {
	if err := checkFinite("distances", a.Distances); err != nil {
		return dst, err
	}
	split := 0 // b.bound[:split] is hi's array, b.bound[split:] lo's
	if a.Guarded {
		if err := checkFinite("hi", a.Hi); err != nil {
			return dst, err
		}
		if err := checkFinite("lo", a.Lo); err != nil {
			return dst, err
		}
		// Sized once, so a fresh Buffers does not grow them by doubling.
		n := len(a.Hi) + len(a.Lo)
		b.bound = slices.Grow(b.bound[:0], n*(maxNumberLen+1)+4)
		b.boundAt = slices.Grow(b.boundAt[:0], n)
		b.appendBounds(a.Hi)
		split = len(b.bound)
		b.appendBounds(a.Lo)
	}
	dst = append(dst, '{')
	if a.Guarded {
		dst = append(dst, `"clamped_count":`...)
		dst = strconv.AppendInt(dst, int64(a.ClampedCount), 10)
		dst = append(dst, ',')
	}
	if a.Sharded {
		dst = append(dst, `"cross_count":`...)
		dst = strconv.AppendInt(dst, int64(a.CrossCount), 10)
		dst = append(dst, ',')
	}
	dst = append(dst, `"distances":`...)
	if a.Guarded {
		dst = b.appendClamped(dst, a.Distances, a.Lo, a.Hi)
	} else {
		dst = appendFloats(dst, a.Distances)
	}
	if a.Explain != nil {
		dst = append(dst, `,"explain":`...)
		dst = append(dst, a.Explain...)
	}
	if a.Guarded {
		dst = append(dst, `,"hi":`...)
		dst = append(dst, b.bound[:split]...)
		dst = append(dst, `,"lo":`...)
		dst = append(dst, b.bound[split:]...)
	}
	return append(dst, "}\n"...), nil
}

// appendBounds appends the JSON array of finite fs to b.bound and the
// span of each number to b.boundAt.
func (b *Buffers) appendBounds(fs []float64) {
	b.bound = append(b.bound, '[')
	for i, f := range fs {
		if i > 0 {
			b.bound = append(b.bound, ',')
		}
		off := int32(len(b.bound))
		b.bound = AppendFloat(b.bound, f)
		b.boundAt = append(b.boundAt, Span{Off: off, End: int32(len(b.bound))})
	}
	b.bound = append(b.bound, ']')
}

// appendClamped appends the JSON array of finite dist, copying the text
// appendBounds wrote for a bound a distance equals.
func (b *Buffers) appendClamped(dst []byte, dist, lo, hi []float64) []byte {
	dst = append(dst, '[')
	for i, f := range dist {
		if i > 0 {
			dst = append(dst, ',')
		}
		var sp Span
		switch math.Float64bits(f) {
		case math.Float64bits(lo[i]):
			sp = b.boundAt[len(hi)+i]
		case math.Float64bits(hi[i]):
			sp = b.boundAt[i]
		default:
			dst = AppendFloat(dst, f)
			continue
		}
		dst = append(dst, b.bound[sp.Off:sp.End]...)
	}
	return append(dst, ']')
}

// AppendFloats appends fs as a JSON array. JSON has no form for NaN or
// an infinity, so a non-finite element is refused with an error naming
// it as name[i].
func AppendFloats(dst []byte, name string, fs []float64) ([]byte, error) {
	if err := checkFinite(name, fs); err != nil {
		return dst, err
	}
	return appendFloats(dst, fs), nil
}

// checkFinite refuses the first NaN or infinity in fs, naming it as
// name[i].
func checkFinite(name string, fs []float64) error {
	for i, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%s[%d] is %v, which JSON cannot carry", name, i, f)
		}
	}
	return nil
}

// appendFloats appends the JSON array of finite fs.
func appendFloats(dst []byte, fs []float64) []byte {
	dst = append(dst, '[')
	for i, f := range fs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendFloat(dst, f)
	}
	return append(dst, ']')
}
