package batchwire

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strconv"
)

// AppendFloat writes a finite f as encoding/json does: the shortest
// decimal that reads back as f, in exponent form only below 1e-6 or
// from 1e21 up, with a two-digit negative exponent trimmed to one. The
// bytes are strconv.AppendFloat's at precision -1, format 'f' inside
// that range and 'e' outside it.
//
// In the 'f' range, 1e-6 ≤ |f| < 1e21, where distances fall, shortest
// finds the digits and appendPlain lays them out; zero and the 'e'
// range go to strconv. TestAppendFloatMatchesStrconv (over 10M values)
// and FuzzAppendFloat hold both ranges to strconv's bytes.
func AppendFloat(dst []byte, f float64) []byte {
	if abs := math.Abs(f); abs >= 1e-6 && abs < 1e21 {
		if f < 0 {
			dst = append(dst, '-')
		}
		m, e := shortest(math.Float64bits(abs))
		return appendPlain(dst, m, e)
	}
	if f == 0 {
		return strconv.AppendFloat(dst, f, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// A double in the 'f' range is c·2^q with c in [2^52, 2^53) and q in
// [-72, 17], since 1e-6 lies in [2^-20, 2^-19) and 1e21 in [2^69, 2^70).
// shortest scales it by 10^-k for k = ⌊log10 2^q⌋, or ⌊log10 ¾·2^q⌋ when
// c = 2^52, so k spans [kMin, kMax].
const (
	kMin = -22
	kMax = 5
)

// pow10Scaled[k-kMin] holds g(k) = ⌊10^-k · 2^(125 - ⌊log2 10^-k⌋)⌋ + 1,
// a 126-bit number: its bits from 63 up, then its low 63 bits.
var pow10Scaled = func() (table [kMax - kMin + 1][2]uint64) {
	ten := big.NewInt(10)
	for k := kMin; k <= kMax; k++ {
		num, den := big.NewInt(1), big.NewInt(1)
		if k <= 0 {
			num.Exp(ten, big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(k)), nil)
		}
		num.Lsh(num, uint(125-flog2pow10(-k)))
		g := num.Add(num.Quo(num, den), big.NewInt(1))
		low := new(big.Int).And(g, big.NewInt(math.MaxInt64))
		table[k-kMin] = [2]uint64{g.Rsh(g, 63).Uint64(), low.Uint64()}
	}
	return table
}()

// flog10pow2 is ⌊log10 2^e⌋, flog10ThreeQuartersPow2 is ⌊log10 ¾·2^e⌋
// and flog2pow10 is ⌊log2 10^e⌋, in fixed point, exact far beyond the
// exponents used here.
func flog10pow2(e int) int {
	return int(int64(e) * 661_971_961_083 >> 41)
}

func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int {
	return int(int64(e) * 913_124_641_741 >> 38)
}

// shortest returns the shortest decimal m·10^e that reads back as the
// double with bits b, a positive value in the 'f' range; of two equally
// short ones it returns the nearer, and the one with even m on a tie.
// That is strconv's choice. m has 16 or 17 digits, trailing zeros
// included.
//
// This is Giulietti's Schubfach ("The Schubfach way to render doubles",
// 2020), the algorithm of Java's DoubleToDecimal. The rounding interval
// of v = c·2^q, whose ends are halfway to v's neighbours, is at least
// 10^k wide and narrower than 10^(k+1). So it holds at most one
// multiple of 10^(k+1), which is then the shortest decimal in it, and
// else one or both of the multiples of 10^k on either side of v. The
// scaled value vb and ends vbl and vbr are v/10^k and the interval's
// ends over 10^k, times 4, rounded to odd, which keeps every
// comparison with a multiple of 4 exact.
func shortest(b uint64) (m uint64, e int) {
	c := b&(1<<52-1) | 1<<52
	q := int(b>>52) - 1075
	out := c & 1 // an odd c does not own the ends of its interval
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 {
		cbl = cb - 2
		k = flog10pow2(q)
	} else { // a power of two: the gap below it is half the gap above
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2 // in [2, 5]: cb<<h stays under 2^60
	g := &pow10Scaled[k-kMin]
	vb := roundToOdd(g, cb<<h)
	vbl := roundToOdd(g, cbl<<h)
	vbr := roundToOdd(g, cbr<<h)

	s := vb >> 2 // ⌊v/10^k⌋
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both lie in the interval: the nearer, or the even one on a tie.
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// roundToOdd returns ⌊cp·g / 2^127⌋ with its lowest bit set when the
// quotient is inexact, for cp < 2^63 and g as pow10Scaled holds it.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	const low63 = 1<<63 - 1
	sticky := ((z & low63) + low63) >> 63 // 1 when z's low 63 bits are not all 0
	return (y1 + z>>63) | sticky
}

// appendPlain appends m·10^e, for 10^15 ≤ m < 10^17 and a value in the
// 'f' range, as strconv's 'f' form writes the shortest decimal: m's
// digits without its trailing zeros, the point placed among them, or
// "0." and zeros before them, or zeros after them up to the units.
//
// The text moves in 8-byte stores, so appendPlain writes up to 31 bytes
// past dst's length and keeps the ones the text needs.
func appendPlain(dst []byte, m uint64, e int) []byte {
	hi := m / 1e8
	upper, lower := digits8(uint32(hi%1e8)), digits8(uint32(m-hi*1e8))
	// w0, w1 and w2 hold m's digit values a byte each, from the top
	// byte of w0, and zero bytes after the last digit.
	n := 16
	w0, w1, w2 := upper, lower, uint64(0)
	if lead := hi / 1e8; lead != 0 {
		n = 17
		w0, w1, w2 = lead<<56|upper>>8, upper<<56|lower>>8, lower<<56
	}
	point := n + e // digits before the point: in [-5, 21]
	// The text keeps m's digits up to its last non-zero one.
	switch {
	case w2 != 0:
		n = 24 - bits.TrailingZeros64(w2)/8
	case w1 != 0:
		n = 16 - bits.TrailingZeros64(w1)/8
	default:
		n = 8 - bits.TrailingZeros64(w0)/8
	}
	var d [24]byte
	binary.BigEndian.PutUint64(d[0:], w0+zeros8)
	binary.BigEndian.PutUint64(d[8:], w1+zeros8)
	binary.BigEndian.PutUint64(d[16:], w2+zeros8)

	l := len(dst)
	dst = slices.Grow(dst, 32)
	out := dst[l : l+32]
	switch {
	case point <= 0:
		binary.BigEndian.PutUint64(out, zeroPoint)
		for j := 0; j < n; j += 8 {
			copy8(out[2-point+j:], d[j:])
		}
		return dst[:l+2-point+n]
	case point < n:
		copy8(out, d[:])
		copy8(out[8:], d[8:])
		out[point] = '.'
		for j := point; j < n; j += 8 {
			copy8(out[j+1:], d[j:])
		}
		return dst[:l+n+1]
	default:
		for j := 0; j < n; j += 8 {
			copy8(out[j:], d[j:])
		}
		for j := n; j < point; j += 8 {
			binary.BigEndian.PutUint64(out[j:], zeros8)
		}
		return dst[:l+point]
	}
}

// copy8 copies src[:8] to dst[:8].
func copy8(dst, src []byte) {
	binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(src))
}

// zeros8 is "00000000" and zeroPoint is "0.000000" as big-endian words.
const (
	zeros8    = 0x3030303030303030
	zeroPoint = 0x302e303030303030
)

// digits8 returns x < 10^8 as eight decimal digit values, one a byte,
// the most significant digit in the top byte. It splits x in halves
// of four digits, of two and of one, each step in every lane at once
// (a division by 100 or 10 as a multiply and shift, exact for the
// lanes' ranges).
func digits8(x uint32) uint64 {
	hi4 := x / 10000
	v := uint64(hi4)<<32 | uint64(x-hi4*10000)  // two lanes < 10^4
	q := (v * 5243 >> 19) & 0x0000007f_0000007f // lane / 100
	v = q<<16 | (v - q*100)                     // four lanes < 100
	q = (v * 103 >> 10) & 0x000f_000f_000f_000f // lane / 10
	return q<<8 | (v - q*10)                    // eight lanes < 10
}
