package batchwire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// oldRequest and oldReply are the structs the replica and the gateway
// decoded /batch bodies into with encoding/json before this package;
// the tests keep them as the reference.
type oldRequest struct {
	Pairs [][2]int32 `json:"pairs"`
}

type oldReply struct {
	Distances    []float64 `json:"distances"`
	Lo           []float64 `json:"lo"`
	Hi           []float64 `json:"hi"`
	ClampedCount *int      `json:"clamped_count"`
}

// encodeRef is what the handlers wrote before this package.
func encodeRef(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodePairsAccepts(t *testing.T) {
	for _, tc := range []struct {
		body string
		want [][2]int32
	}{
		{`{"pairs":[[1,2],[3,4]]}`, [][2]int32{{1, 2}, {3, 4}}},
		{" \t\r\n{ \"pairs\" : [ [ 1 , 2 ] ,\n[3,4] ] } \n", [][2]int32{{1, 2}, {3, 4}}},
		{`{"pairs":[]}`, [][2]int32{}},
		{`{"pairs":[[2147483647,-2147483648],[0,-0]]}`, [][2]int32{{math.MaxInt32, math.MinInt32}, {0, 0}}},
	} {
		ss, ts, err := DecodePairs([]byte(tc.body), nil, nil)
		if err != nil {
			t.Fatalf("%q: %v", tc.body, err)
		}
		var ref oldRequest
		if err := json.Unmarshal([]byte(tc.body), &ref); err != nil {
			t.Fatalf("%q: reference decoder refused it: %v", tc.body, err)
		}
		if len(ss) != len(tc.want) || len(ref.Pairs) != len(tc.want) {
			t.Fatalf("%q: got %d pairs, reference %d, want %d", tc.body, len(ss), len(ref.Pairs), len(tc.want))
		}
		for i, p := range tc.want {
			if ss[i] != p[0] || ts[i] != p[1] || ref.Pairs[i] != p {
				t.Fatalf("%q: pair %d = (%d,%d), reference %v, want %v", tc.body, i, ss[i], ts[i], ref.Pairs[i], p)
			}
		}
	}
}

// malformedBodies are bodies encoding/json coerced into a batch (the
// first five) or refused; DecodePairs refuses all of them.
var malformedBodies = []string{
	`{"pairs":[[5]]}`,
	`{"pairs":[[5,7,9]]}`,
	`{"pairs":[null]}`,
	`{"Pairs":[[5,7]]}`,
	`{"pairs":[[5,7]]} trailing`,
	`{"pairs":[[5,7]]}{}`,
	`{"pairs":null}`,
	`{}`,
	`{"pairs":[[5,7]],"pairs":[[1,2]]}`,
	`{"pairs":[[5,7]],"extra":1}`,
	`{"pairs":[[5,7.0]]}`,
	`{"pairs":[[5,7e0]]}`,
	`{"pairs":[[05,7]]}`,
	`{"pairs":[[5,2147483648]]}`,
	`{"pairs":[[-2147483649,7]]}`,
	`{"pairs":[["5",7]]}`,
	`{"pairs":[[5,7],]}`,
	`{"pairs":[[5,7]]`,
	`{"pairs":[[5,7`,
	"\ufeff{\"pairs\":[[5,7]]}",
	`[[5,7]]`,
	``,
}

func TestDecodePairsRefusesMalformed(t *testing.T) {
	for _, body := range malformedBodies {
		_, _, err := DecodePairs([]byte(body), nil, nil)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Fatalf("%q: err = %v, want a *SyntaxError", body, err)
		}
	}
}

func TestAppendRequestMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pairs := randomPairs(rng, 100)
	ss, ts := columns(pairs)
	want, _ := json.Marshal(oldRequest{Pairs: pairs})
	if got := AppendRequest(nil, ss, ts); !bytes.Equal(got, want) {
		t.Fatalf("AppendRequest = %s\nwant %s", got, want)
	}
}

func columns(pairs [][2]int32) (ss, ts []int32) {
	for _, p := range pairs {
		ss, ts = append(ss, p[0]), append(ts, p[1])
	}
	return ss, ts
}

func randomPairs(rng *rand.Rand, n int) [][2]int32 {
	pairs := make([][2]int32, n)
	for i := range pairs {
		for j := range pairs[i] {
			switch rng.Intn(3) {
			case 0:
				pairs[i][j] = rng.Int31n(10000)
			case 1:
				pairs[i][j] = int32(rng.Uint32())
			default:
				pairs[i][j] = []int32{0, math.MaxInt32, math.MinInt32, -1}[rng.Intn(4)]
			}
		}
	}
	return pairs
}

// testFloats returns n finite floats: the forms encoding/json treats
// specially first, then random values across magnitudes.
func testFloats(rng *rand.Rand, n int) []float64 {
	out := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, 1e-10, 1e20, 1e21, 1.5e21,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		-1.2345678901234567e-06, -1.2345678901234567e-100, 123456.789, 1234.5678901234567,
	}
	for len(out) < n {
		switch rng.Intn(3) {
		case 0:
			out = append(out, rng.Float64()*5000)
		case 1:
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				out = append(out, f)
			}
		default:
			out = append(out, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
		}
	}
	return out[:n]
}

// clampedFloats returns n guarded answers' distances and bounds where
// two in three distances equal a bound, as the guard's clamps leave
// them: a third equal lo, a quarter hi, and one pair in twelve is
// s == t (all three zero). The rest, and every bound, come from
// testFloats, so the copied text covers its special forms.
func clampedFloats(rng *rand.Rand, n int) (dist, lo, hi []float64) {
	dist, lo, hi = testFloats(rng, n), testFloats(rng, n), testFloats(rng, n)
	for i := range dist {
		switch r := rng.Intn(12); {
		case r < 4:
			dist[i] = lo[i]
		case r < 7:
			dist[i] = hi[i]
		case r < 8:
			dist[i], lo[i], hi[i] = 0, 0, 0
		}
	}
	return dist, lo, hi
}

// numberSet is one set of number columns a byte-identity test encodes.
type numberSet struct {
	name         string
	dist, lo, hi []float64
}

// answerSets returns n independent floats per column, and n clamped
// pairs.
func answerSets(rng *rand.Rand, n int) []numberSet {
	dist, lo, hi := clampedFloats(rng, n)
	return []numberSet{
		{"independent", testFloats(rng, n), testFloats(rng, n), testFloats(rng, n)},
		{"clamped", dist, lo, hi},
	}
}

// refExplanation mirrors the replica's per-pair ?explain=1 block.
type refExplanation struct {
	Guard *struct {
		Raw        float64 `json:"raw"`
		Lo         float64 `json:"lo"`
		Hi         float64 `json:"hi"`
		Clamp      string  `json:"clamp,omitempty"`
		LoLandmark int32   `json:"lo_landmark"`
		HiLandmark int32   `json:"hi_landmark"`
	} `json:"guard"`
}

// TestAnswerBytesMatchEncodingJSON checks every answer shape against
// json.NewEncoder(w).Encode of the map[string]any the handlers built
// before this package, with independent and with clamped numbers.
func TestAnswerBytesMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var b Buffers // reused across answers, as the pool reuses it
	for _, set := range answerSets(rng, 300) {
		dist, lo, hi := set.dist, set.lo, set.hi
		expl := make([]refExplanation, len(dist))
		for i := range expl {
			expl[i].Guard = &struct {
				Raw        float64 `json:"raw"`
				Lo         float64 `json:"lo"`
				Hi         float64 `json:"hi"`
				Clamp      string  `json:"clamp,omitempty"`
				LoLandmark int32   `json:"lo_landmark"`
				HiLandmark int32   `json:"hi_landmark"`
			}{Raw: dist[i], Lo: lo[i], Hi: hi[i], Clamp: []string{"", "low", "high"}[i%3], LoLandmark: 3, HiLandmark: -1}
		}
		explBytes, err := json.Marshal(expl)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			ans  Answer
			ref  map[string]any
		}{
			{"unguarded", Answer{Distances: dist},
				map[string]any{"distances": dist}},
			{"guarded", Answer{Distances: dist, Guarded: true, Lo: lo, Hi: hi, ClampedCount: 17},
				map[string]any{"distances": dist, "lo": lo, "hi": hi, "clamped_count": 17}},
			{"shard", Answer{Distances: dist, Sharded: true, CrossCount: 5},
				map[string]any{"distances": dist, "cross_count": 5}},
			{"shard guarded", Answer{Distances: dist, Guarded: true, Lo: lo, Hi: hi, ClampedCount: 2, Sharded: true, CrossCount: 9},
				map[string]any{"distances": dist, "lo": lo, "hi": hi, "clamped_count": 2, "cross_count": 9}},
			{"explain", Answer{Distances: dist, Explain: explBytes},
				map[string]any{"distances": dist, "explain": expl}},
			{"explain guarded shard", Answer{Distances: dist, Guarded: true, Lo: lo, Hi: hi, Sharded: true, Explain: explBytes},
				map[string]any{"distances": dist, "lo": lo, "hi": hi, "clamped_count": 0, "cross_count": 0, "explain": expl}},
			{"guarded single", Answer{Distances: dist[:1], Guarded: true, Lo: lo[:1], Hi: hi[:1]},
				map[string]any{"distances": dist[:1], "lo": lo[:1], "hi": hi[:1], "clamped_count": 0}},
			{"guarded empty", Answer{Distances: []float64{}, Guarded: true, Lo: []float64{}, Hi: []float64{}},
				map[string]any{"distances": []float64{}, "lo": []float64{}, "hi": []float64{}, "clamped_count": 0}},
		} {
			got, err := b.AppendAnswer(nil, &tc.ans)
			if err != nil {
				t.Fatalf("%s %s: %v", set.name, tc.name, err)
			}
			if want := encodeRef(t, tc.ref); !bytes.Equal(got, want) {
				t.Fatalf("%s %s: bytes differ at %d\n got %.200s\nwant %.200s", set.name, tc.name, firstDiff(got, want), got, want)
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestAppendAnswerRefusesNonFinite: a NaN or infinity anywhere is
// refused, naming the first one the encoder meets in distances, then
// hi, then lo, also where a distance has a non-finite bound's bits.
func TestAppendAnswerRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range []struct {
			a    Answer
			want string
		}{
			{Answer{Distances: []float64{1, bad}}, "distances[1]"},
			{Answer{Distances: []float64{1, bad}, Guarded: true, Lo: []float64{bad, bad}, Hi: []float64{bad, bad}}, "distances[1]"},
			{Answer{Distances: []float64{1, 2}, Guarded: true, Lo: []float64{0, bad}, Hi: []float64{bad, 3}}, "hi[0]"},
			{Answer{Distances: []float64{1, 2}, Guarded: true, Lo: []float64{0, bad}, Hi: []float64{2, 3}}, "lo[1]"},
			{Answer{Distances: []float64{1, 2}, Guarded: true, Lo: []float64{1, 2}, Hi: []float64{1, bad}}, "hi[1]"},
		} {
			out, err := new(Buffers).AppendAnswer(nil, &tc.a)
			if err == nil {
				t.Fatalf("%v encoded as %s", bad, out)
			}
			if want := fmt.Sprintf("%s is %v, which JSON cannot carry", tc.want, bad); err.Error() != want {
				t.Fatalf("error %q, want %q", err, want)
			}
		}
	}
}

func TestMaxNumberLenBoundsEveryFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, f := range testFloats(rng, 100000) {
		if n := len(AppendFloat(nil, f)); n > maxNumberLen {
			t.Fatalf("%v encodes in %d bytes, over maxNumberLen %d", f, n, maxNumberLen)
		}
	}
	if n := len(AppendFloat(nil, -1.2345678901234567e-06)); n != maxNumberLen {
		t.Fatalf("longest form takes %d bytes, maxNumberLen says %d", n, maxNumberLen)
	}
}

// twoLegs splits n pairs over two legs by a random assignment, encodes
// each leg's answer, and scans it back as the gateway would.
func twoLegs(t testing.TB, rng *rand.Rand, dist, lo, hi []float64, guarded bool) (*Merge, [2][]int, int) {
	t.Helper()
	var index [2][]int
	for i := range dist {
		k := rng.Intn(2)
		index[k] = append(index[k], i)
	}
	m := NewMerge(len(dist))
	clamped := 0
	for k, idx := range index {
		a := Answer{Guarded: guarded, ClampedCount: 3 + k}
		for _, i := range idx {
			a.Distances = append(a.Distances, dist[i])
			a.Lo, a.Hi = append(a.Lo, lo[i]), append(a.Hi, hi[i])
		}
		body, err := new(Buffers).AppendAnswer(nil, &a)
		if err != nil {
			t.Fatal(err)
		}
		var r Reply
		if err := r.Scan(body); err != nil {
			t.Fatalf("leg %d: %v", k, err)
		}
		m.Add(&r, idx)
		clamped += a.ClampedCount
	}
	return m, index, clamped
}

// TestMergeBytesMatchEncodingJSON: the gateway's merged 200 and partial
// 206, assembled from copied number bytes, equal what decoding each
// leg and encoding the merged map[string]any wrote before, with
// independent and with clamped numbers.
func TestMergeBytesMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 400
	for _, set := range answerSets(rng, n) {
		dist, lo, hi := set.dist, set.lo, set.hi
		m, _, clamped := twoLegs(t, rng, dist, lo, hi, true)
		want := encodeRef(t, map[string]any{"distances": dist, "lo": lo, "hi": hi, "clamped_count": clamped})
		if got := m.AppendOK(nil, true, clamped); !bytes.Equal(got, want) {
			t.Fatalf("%s: guarded merge differs at %d", set.name, firstDiff(got, want))
		}
		want = encodeRef(t, map[string]any{"distances": dist})
		if got := m.AppendOK(nil, false, 0); !bytes.Equal(got, want) {
			t.Fatalf("%s: unguarded merge differs at %d", set.name, firstDiff(got, want))
		}

		// Partial: leg 1 failed, its pairs become nulls with sorted
		// errors; leg 0 answered guarded.
		_, index, _ := twoLegs(t, rng, dist, lo, hi, false)
		m = NewMerge(n)
		var r Reply
		a := Answer{Guarded: true}
		for _, i := range index[0] {
			a.Distances = append(a.Distances, dist[i])
			a.Lo, a.Hi = append(a.Lo, lo[i]), append(a.Hi, hi[i])
		}
		body, err := new(Buffers).AppendAnswer(nil, &a)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Scan(body); err != nil {
			t.Fatal(err)
		}
		m.Add(&r, index[0])
		var errs []PairError
		for _, i := range index[1] {
			errs = append(errs, PairError{Index: i, Error: `backend "b:1" said <no> & went away ` + " \xff"})
		}
		nullable := make([]*float64, n)
		for _, i := range index[0] {
			nullable[i] = &dist[i]
		}
		want = encodeRef(t, map[string]any{"distances": nullable, "partial": true, "errors": errs})
		if got := m.AppendPartial(nil, errs); !bytes.Equal(got, want) {
			t.Fatalf("%s: partial merge differs at %d\n got %.300s\nwant %.300s", set.name, firstDiff(got, want), got, want)
		}
	}
}

func TestReplyScan(t *testing.T) {
	body := []byte(` { "clamped_count" : 2, "cross_count":1, "distances":[1.5, -0 ,2e-7],"explain":[{"a":[true,false,null,"x\"é"]}],` +
		`"hi":[3,4,5E+2],"lo":[0.5,1,2]} ` + "\n")
	var r Reply
	if err := r.Scan(body); err != nil {
		t.Fatal(err)
	}
	text := func(spans []Span) string {
		var parts []string
		for _, sp := range spans {
			parts = append(parts, string(body[sp.Off:sp.End]))
		}
		return strings.Join(parts, " ")
	}
	if got := text(r.Distances) + "|" + text(r.Lo) + "|" + text(r.Hi); got != "1.5 -0 2e-7|0.5 1 2|3 4 5E+2" {
		t.Fatalf("spans = %s", got)
	}
	if !r.HasClamped || r.ClampedCount != 2 {
		t.Fatalf("clamped_count = %v %d", r.HasClamped, r.ClampedCount)
	}
	for _, bad := range []string{
		`{"distances":[1,2]`,
		`{"distances":[1,2]} x`,
		`{"distances":[1,NaN]}`,
		`{"distances":[1,1e400]}`,
		`{"distances":[1,01]}`,
		`{"distances":[1,]}`,
		`{"distances":null}`,
		`{"distances":[1,null]}`,
		`{"distances":[1],"distances":[2]}`,
		`{"Distances":[1]}`,
		"{\"di\u017ftances\":[1]}",
		`{"distances":[1],"clamped_count":1.5}`,
		`{"distances":[1],"other":[1,}`,
		`{"distances":[1],"other":"\x"}`,
		`{"distances":[1],"other":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}`,
	} {
		if err := r.Scan([]byte(bad)); err == nil {
			t.Fatalf("Scan accepted %q", bad)
		}
	}
	// At the edges of the float64 range, Scan takes what ParseFloat
	// reads without error (an underflow reads as 0) and refuses the rest.
	for _, num := range []string{
		"1.7976931348623157e308", "-17976931348623157e292", "10e307", "1e-400", "0.000e400",
	} {
		if err := r.Scan([]byte(`{"distances":[` + num + `]}`)); err != nil || len(r.Distances) != 1 {
			t.Fatalf("Scan refused %s: %v", num, err)
		}
	}
	for _, num := range []string{
		"1.7976931348623159e308", "1e309", "0.1e310", "-1e99999999999999999999",
	} {
		err := r.Scan([]byte(`{"hi":[1,` + num + `]}`))
		var se *SyntaxError
		if !errors.As(err, &se) || se.Offset != len(`{"hi":[1,`) || !strings.Contains(se.Msg, "outside the float64 range") {
			t.Fatalf("Scan of %s: %v, want a range error at its first byte", num, err)
		}
	}
}

// rangeCases are numbers at the places number's range verdict turns:
// around m = 308, where digits and the exponent trade off, and where
// ParseFloat's exponent (10000) and integer-digit (800) saturations set
// its verdict apart from the number's true size.
func rangeCases() []string {
	zeros := strings.Repeat
	return []string{
		"0", "-0", "0.0", "0e99999", "0.000e400", "1e-400", "-1e-99999999999",
		"1e307", "9.999e307", "1e308", "1.7976931348623157e308", "1.7976931348623158e308",
		"1.7976931348623159e308", "-1.79769313486231580793728971405301e308", "1e309", "0.1e310", "0.01e310",
		"10e307", "100e306", "-17976931348623157e292", "17976931348623159e292",
		"1" + zeros("0", 308), "1" + zeros("0", 309), "0." + zeros("0", 400) + "1e709", "0." + zeros("0", 400) + "1e710",
		"-1e99999999999999999999", "1e0000000000000000000308", "1E+308", "1E-0",
		"1" + zeros("0", 1999) + "e-1600", "1" + zeros("0", 799) + "e-491", "1" + zeros("0", 800) + "e-492",
		"0." + zeros("0", 100000) + "1e99999999", "0." + zeros("0", 9690) + "1e99999",
		"1" + zeros("0", 20000) + "e-99999", "1" + zeros("0", 20000) + "." + zeros("9", 900) + "e-20001",
	}
}

// checkRange asserts that number's verdict on s, a JSON number, is
// strconv.ParseFloat's.
func checkRange(t *testing.T, s string) {
	t.Helper()
	sc := scanner{b: []byte(s)}
	sp, finite, err := sc.number()
	if err != nil || int(sp.End) != len(s) {
		t.Fatalf("%.60q: span %v, %v", s, sp, err)
	}
	_, perr := strconv.ParseFloat(s, 64)
	if finite != (perr == nil) {
		t.Fatalf("%.60q (%d bytes): finite = %v, ParseFloat: %v", s, len(s), finite, perr)
	}
}

func TestNumberRangeMatchesParseFloat(t *testing.T) {
	for _, s := range rangeCases() {
		checkRange(t, s)
	}
	rng := rand.New(rand.NewSource(8))
	for range 20000 {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		for _, s := range []string{
			string(AppendFloat(nil, f)),
			strconv.FormatFloat(f, 'e', rng.Intn(20), 64),
			strconv.FormatFloat(f, 'e', -1, 64) + strings.Repeat("7", rng.Intn(3)),
		} {
			checkRange(t, s)
		}
	}
}

// FuzzNumberRange: for every number number() accepts, its range
// verdict is strconv.ParseFloat's.
func FuzzNumberRange(f *testing.F) {
	for _, s := range rangeCases() {
		if len(s) < 1000 {
			f.Add([]byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		sc := scanner{b: b}
		sp, finite, err := sc.number()
		if err != nil {
			return
		}
		s := string(b[sp.Off:sp.End])
		if _, perr := strconv.ParseFloat(s, 64); finite != (perr == nil) {
			t.Fatalf("%q: finite = %v, ParseFloat: %v", s, finite, perr)
		}
	})
}

func TestReadReplyCap(t *testing.T) {
	body := strings.Repeat("x", 100)
	if got, err := ReadReply(strings.NewReader(body), -1, 100); err != nil || len(got) != 100 {
		t.Fatalf("at the cap: %d bytes, %v", len(got), err)
	}
	if _, err := ReadReply(strings.NewReader(body), -1, 99); !errors.Is(err, ErrReplyTooLarge) {
		t.Fatalf("undeclared over-cap reply: %v", err)
	}
	if _, err := ReadReply(strings.NewReader(body), 100, 99); !errors.Is(err, ErrReplyTooLarge) {
		t.Fatalf("declared over-cap reply: %v", err)
	}
}

// sprinkle inserts random JSON whitespace around every structural byte
// of a compact encoding, which is always between two tokens.
func sprinkle(rng *rand.Rand, enc []byte) []byte {
	ws := func(out []byte) []byte {
		for range rng.Intn(3) {
			out = append(out, " \t\n\r"[rng.Intn(4)])
		}
		return out
	}
	out := ws(nil)
	for _, c := range enc {
		structural := strings.IndexByte("{}[],:", c) >= 0
		if structural {
			out = ws(out)
		}
		out = append(out, c)
		if structural {
			out = ws(out)
		}
	}
	return out
}

// FuzzBatchRequest: whatever DecodePairs accepts, json.Unmarshal into
// the old request struct accepts with the same pairs; and every
// json.Marshal of random pairs, spaced with random whitespace between
// tokens, is accepted with its pairs.
func FuzzBatchRequest(f *testing.F) {
	f.Add([]byte(`{"pairs":[[1,2],[3,4]]}`), int64(1))
	f.Add([]byte(" {\"pairs\" :[ [0 ,-0]\n]}\t"), int64(2))
	for i, body := range malformedBodies {
		f.Add([]byte(body), int64(i))
	}
	f.Fuzz(func(t *testing.T, body []byte, seed int64) {
		ss, ts, err := DecodePairs(body, nil, nil)
		if err == nil {
			var ref oldRequest
			if err := json.Unmarshal(body, &ref); err != nil {
				t.Fatalf("DecodePairs accepted %q, json.Unmarshal: %v", body, err)
			}
			if len(ref.Pairs) != len(ss) {
				t.Fatalf("%q: %d pairs, reference %d", body, len(ss), len(ref.Pairs))
			}
			for i, p := range ref.Pairs {
				if p != [2]int32{ss[i], ts[i]} {
					t.Fatalf("%q: pair %d = (%d,%d), reference %v", body, i, ss[i], ts[i], p)
				}
			}
		}

		rng := rand.New(rand.NewSource(seed))
		pairs := randomPairs(rng, rng.Intn(16))
		enc, _ := json.Marshal(oldRequest{Pairs: pairs})
		spaced := sprinkle(rng, enc)
		ss, ts, err = DecodePairs(spaced, ss, ts)
		if err != nil {
			t.Fatalf("refused %q: %v", spaced, err)
		}
		if len(ss) != len(pairs) {
			t.Fatalf("%q: %d pairs, want %d", spaced, len(ss), len(pairs))
		}
		for i, p := range pairs {
			if p != [2]int32{ss[i], ts[i]} {
				t.Fatalf("%q: pair %d = (%d,%d), want %v", spaced, i, ss[i], ts[i], p)
			}
		}
	})
}

// FuzzBatchReply: the gateway's reply scanner never panics, and
// whatever it accepts json.Unmarshal into the old reply struct also
// accepts, with the same numbers.
func FuzzBatchReply(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	fs := testFloats(rng, 6)
	for _, a := range []Answer{
		{Distances: fs[:3]},
		{Distances: fs[:3], Guarded: true, Lo: fs[3:], Hi: fs[3:], ClampedCount: 1},
		{Distances: fs[:2], Sharded: true, CrossCount: 2, Explain: []byte(`[{"guard":{"raw":1.5,"clamp":"low"}}]`)},
	} {
		body, _ := new(Buffers).AppendAnswer(nil, &a)
		f.Add(body)
	}
	f.Add([]byte(`{"distances":[1,2],"x":{"y":[null,true,"é"]},"clamped_count":-3}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var r Reply
		if r.Scan(body) != nil {
			return
		}
		var ref oldReply
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("Scan accepted %q, json.Unmarshal: %v", body, err)
		}
		for _, col := range []struct {
			spans []Span
			ref   []float64
		}{{r.Distances, ref.Distances}, {r.Lo, ref.Lo}, {r.Hi, ref.Hi}} {
			if len(col.spans) != len(col.ref) {
				t.Fatalf("%q: %d numbers, reference %d", body, len(col.spans), len(col.ref))
			}
			for i, sp := range col.spans {
				v, err := strconv.ParseFloat(string(body[sp.Off:sp.End]), 64)
				if err != nil || math.Float64bits(v) != math.Float64bits(col.ref[i]) {
					t.Fatalf("%q: number %d = %v (%v), reference %v", body, i, v, err, col.ref[i])
				}
			}
		}
		if r.HasClamped != (ref.ClampedCount != nil) || (r.HasClamped && r.ClampedCount != *ref.ClampedCount) {
			t.Fatalf("%q: clamped_count %v %d, reference %v", body, r.HasClamped, r.ClampedCount, ref.ClampedCount)
		}
	})
}

// The benchmarks time each step of the /batch path against the
// encoding/json code it replaced, at the matrix workload's shapes: a
// 32x32 batch arrives at the gateway as 1,024 pairs and leaves to each
// of two shard replicas as about 512.

var sinkBytes []byte

// benchFloats returns n independent distances, lo and hi in [0, 5000):
// no distance equals its bounds.
func benchFloats(n int) (dist, lo, hi []float64) {
	rng := rand.New(rand.NewSource(6))
	cols := make([]float64, 3*n)
	for i := range cols {
		cols[i] = rng.Float64() * 5000
	}
	return cols[:n], cols[n : 2*n], cols[2*n:]
}

// benchClamped returns n guarded pairs in the shape the guard leaves
// on the matrix workload: lo <= hi, and 59% of distances (its ladder's
// hybrid.clamp_ratio) clamped to lo or hi, the rest between them.
func benchClamped(n int) (dist, lo, hi []float64) {
	rng := rand.New(rand.NewSource(9))
	dist, lo, hi = make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range dist {
		lo[i] = rng.Float64() * 5000
		hi[i] = lo[i] + rng.Float64()*2000
		switch r := rng.Float64(); {
		case r < 0.30:
			dist[i] = lo[i]
		case r < 0.59:
			dist[i] = hi[i]
		default:
			dist[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
	}
	return dist, lo, hi
}

func BenchmarkDecodePairs1024(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pairs := make([][2]int32, 1024)
	for i := range pairs {
		pairs[i] = [2]int32{rng.Int31n(8098), rng.Int31n(8098)}
	}
	body, _ := json.Marshal(oldRequest{Pairs: pairs})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var req oldRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batchwire", func(b *testing.B) {
		b.ReportAllocs()
		var ss, ts []int32
		for range b.N {
			var err error
			if ss, ts, err = DecodePairs(body, ss, ts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEncodeAnswer512(b *testing.B) {
	dist, lo, hi := benchFloats(512)
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for range b.N {
			buf.Reset()
			resp := map[string]any{"distances": dist, "lo": lo, "hi": hi, "clamped_count": 7}
			if err := json.NewEncoder(&buf).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	encode := func(dist, lo, hi []float64) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			a := Answer{Distances: dist, Guarded: true, Lo: lo, Hi: hi, ClampedCount: 7}
			var bufs Buffers
			for range b.N {
				var err error
				if sinkBytes, err = bufs.AppendAnswer(sinkBytes[:0], &a); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("batchwire", encode(dist, lo, hi))
	b.Run("batchwire_clamped", encode(benchClamped(512)))
}

// legBodies encodes the two legs' guarded answers to a batch, pair i
// going to leg i%2.
func legBodies(dist, lo, hi []float64) (bodies [2][]byte, index [2][]int) {
	for k := range bodies {
		a := Answer{Guarded: true, ClampedCount: 1}
		for i := k; i < len(dist); i += 2 {
			index[k] = append(index[k], i)
			a.Distances, a.Lo, a.Hi = append(a.Distances, dist[i]), append(a.Lo, lo[i]), append(a.Hi, hi[i])
		}
		bodies[k], _ = new(Buffers).AppendAnswer(nil, &a)
	}
	return bodies, index
}

func BenchmarkMergeTwoLegs(b *testing.B) {
	dist, lo, hi := benchFloats(1024)
	bodies, index := legBodies(dist, lo, hi)
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for range b.N {
			d, l, h := make([]float64, len(dist)), make([]float64, len(dist)), make([]float64, len(dist))
			clamped := 0
			for k, body := range bodies {
				var rp oldReply
				if err := json.Unmarshal(body, &rp); err != nil {
					b.Fatal(err)
				}
				for j, i := range index[k] {
					d[i], l[i], h[i] = rp.Distances[j], rp.Lo[j], rp.Hi[j]
				}
				clamped += *rp.ClampedCount
			}
			buf.Reset()
			resp := map[string]any{"distances": d, "lo": l, "hi": h, "clamped_count": clamped}
			if err := json.NewEncoder(&buf).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	merge := func(bodies [2][]byte, index [2][]int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var legs [2]Reply
			for range b.N {
				m := NewMerge(len(dist))
				clamped := 0
				for k, body := range bodies {
					if err := legs[k].Scan(body); err != nil {
						b.Fatal(err)
					}
					m.Add(&legs[k], index[k])
					clamped += legs[k].ClampedCount
				}
				sinkBytes = m.AppendOK(sinkBytes[:0], true, clamped)
			}
		}
	}
	b.Run("batchwire", merge(bodies, index))
	b.Run("batchwire_clamped", merge(legBodies(benchClamped(1024))))
}
