package batchwire

import (
	"fmt"
	"math"
	"strconv"
)

// Answer is a replica's /batch answer.
type Answer struct {
	Distances []float64
	// Guarded answers carry every pair's certified bounds Lo and Hi and
	// the number of estimates the guard clamped into them.
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
// refused with an error rather than written.
func AppendAnswer(dst []byte, a *Answer) ([]byte, error) {
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
	var err error
	dst = append(dst, `"distances":`...)
	if dst, err = AppendFloats(dst, "distances", a.Distances); err != nil {
		return dst, err
	}
	if a.Explain != nil {
		dst = append(dst, `,"explain":`...)
		dst = append(dst, a.Explain...)
	}
	if a.Guarded {
		dst = append(dst, `,"hi":`...)
		if dst, err = AppendFloats(dst, "hi", a.Hi); err != nil {
			return dst, err
		}
		dst = append(dst, `,"lo":`...)
		if dst, err = AppendFloats(dst, "lo", a.Lo); err != nil {
			return dst, err
		}
	}
	return append(dst, "}\n"...), nil
}

// AppendFloats appends fs as a JSON array. JSON has no form for NaN or
// an infinity, so a non-finite element is refused with an error naming
// it as name[i].
func AppendFloats(dst []byte, name string, fs []float64) ([]byte, error) {
	dst = append(dst, '[')
	for i, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, fmt.Errorf("%s[%d] is %v, which JSON cannot carry", name, i, f)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendFloat(dst, f)
	}
	return append(dst, ']'), nil
}

// AppendFloat writes a finite f as encoding/json does: the shortest
// decimal that reads back as f, in exponent form only below 1e-6 or
// from 1e21 up, with a two-digit negative exponent trimmed to one.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
