package batchwire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// strconvFloat is what AppendFloat's doc promises: strconv's shortest
// form, 'f' from 1e-6 up to 1e21 and for zero, 'e' elsewhere, with a
// two-digit negative exponent trimmed to one.
func strconvFloat(dst []byte, f float64) []byte {
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

// floatSweep calls check on a fixed set of doubles, over 10M of them:
// random mantissas with random signs at every binary exponent of the 'f'
// range, the powers of two, the neighbours of the powers of ten and of
// the range edges, integers around 2^53, zeros, and random bit patterns
// over the whole double range.
func floatSweep(check func(float64)) {
	rng := rand.New(rand.NewSource(23))
	sign := func(f float64) float64 {
		if rng.Intn(2) == 0 {
			return -f
		}
		return f
	}
	// 2^-20 ≤ |f| < 2^70 covers the 'f' range, [1e-6, 1e21).
	for exp := -20; exp <= 69; exp++ {
		for range 110_000 {
			check(sign(math.Float64frombits(uint64(exp+1023)<<52 | rng.Uint64()&(1<<52-1))))
		}
	}
	// Powers of two, where the gap below is half the gap above.
	for exp := -25; exp <= 75; exp++ {
		check(math.Ldexp(1, exp))
		check(-math.Ldexp(1, exp))
	}
	neighbours := func(x float64, n int) {
		up, down := x, x
		check(x)
		for range n {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, 0)
			check(up)
			check(down)
			check(-up)
		}
	}
	for p := -6; p <= 20; p++ {
		neighbours(math.Pow10(p), 50)
	}
	neighbours(1e-6, 1000)
	neighbours(1e21, 1000)
	for i := int64(-100_000); i <= 100_000; i++ {
		check(float64(1<<53 + i))
	}
	check(0)
	check(math.Copysign(0, -1))
	for range 200_000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			check(f)
		}
	}
}

// TestAppendFloatMatchesStrconv holds AppendFloat to strconvFloat byte
// for byte over floatSweep.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	var got, want []byte
	n, bad := 0, 0
	floatSweep(func(f float64) {
		n++
		got, want = AppendFloat(got[:0], f), strconvFloat(want[:0], f)
		if !bytes.Equal(got, want) {
			if bad++; bad <= 10 {
				t.Errorf("%016x (%v): got %s, want %s", math.Float64bits(f), f, got, want)
			}
		}
	})
	if bad > 0 {
		t.Fatalf("%d of %d doubles formatted differently", bad, n)
	}
	if n < 10_000_000 {
		t.Fatalf("the sweep checked %d doubles, want at least 10M", n)
	}
}

func FuzzAppendFloat(f *testing.F) {
	for _, x := range []float64{0, 1, -1, 0.1, 1e-6, 1e21, 5e-324, math.MaxFloat64,
		1234.5678901234567, 9007199254740993, math.Nextafter(1e21, 0), math.Inf(1), math.NaN()} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		x := math.Float64frombits(b)
		got := AppendFloat(nil, x)
		if want := strconvFloat(nil, x); !bytes.Equal(got, want) {
			t.Fatalf("%016x: got %s, strconv writes %s", b, got, want)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		if want, err := json.Marshal(x); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%016x: got %s, json.Marshal writes %s (%v)", b, got, want, err)
		}
	})
}

// BenchmarkAppendFloat formats one seeded distance per op, as strconv
// and as AppendFloat write it.
func BenchmarkAppendFloat(b *testing.B) {
	dist, _, _ := benchFloats(512)
	for _, bc := range []struct {
		name   string
		append func([]byte, float64) []byte
	}{{"strconv", strconvFloat}, {"batchwire", AppendFloat}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := range b.N {
				sinkBytes = bc.append(sinkBytes[:0], dist[i%len(dist)])
			}
		})
	}
}
