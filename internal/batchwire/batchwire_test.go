package batchwire

import (
	"bytes"
	"encoding/json"
	"errors"
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

// refExplanation mirrors the replica's per-pair ?explain=1 block.
type refExplanation struct {
	DominantLevel int `json:"dominant_level"`
	Guard         *struct {
		Raw        float64 `json:"raw"`
		Lo         float64 `json:"lo"`
		Hi         float64 `json:"hi"`
		Clamp      string  `json:"clamp,omitempty"`
		LoLandmark int32   `json:"lo_landmark"`
		HiLandmark int32   `json:"hi_landmark"`
	} `json:"guard,omitempty"`
}

// TestAnswerBytesMatchEncodingJSON checks every answer shape against
// json.NewEncoder(w).Encode of the map[string]any the handlers built
// before this package.
func TestAnswerBytesMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 300
	dist, lo, hi := testFloats(rng, n), testFloats(rng, n), testFloats(rng, n)
	expl := make([]refExplanation, n)
	for i := range expl {
		expl[i].DominantLevel = i % 4
		if i%2 == 0 {
			expl[i].Guard = &struct {
				Raw        float64 `json:"raw"`
				Lo         float64 `json:"lo"`
				Hi         float64 `json:"hi"`
				Clamp      string  `json:"clamp,omitempty"`
				LoLandmark int32   `json:"lo_landmark"`
				HiLandmark int32   `json:"hi_landmark"`
			}{Raw: dist[i], Lo: lo[i], Hi: hi[i], Clamp: []string{"", "low", "high"}[i%3], LoLandmark: 3, HiLandmark: -1}
		}
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
	} {
		got, err := AppendAnswer(nil, &tc.ans)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := encodeRef(t, tc.ref); !bytes.Equal(got, want) {
			t.Fatalf("%s: bytes differ at %d\n got %.200s\nwant %.200s", tc.name, firstDiff(got, want), got, want)
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

func TestAppendAnswerRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, a := range []Answer{
			{Distances: []float64{1, bad}},
			{Distances: []float64{1, 2}, Guarded: true, Lo: []float64{0, 0}, Hi: []float64{bad, 3}},
			{Distances: []float64{1, 2}, Guarded: true, Lo: []float64{0, bad}, Hi: []float64{2, 3}},
		} {
			if out, err := AppendAnswer(nil, &a); err == nil {
				t.Fatalf("%v encoded as %s", bad, out)
			}
		}
	}
}

func TestMaxNumberLenBoundsEveryFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, f := range testFloats(rng, 100000) {
		if n := len(appendFloat(nil, f)); n > maxNumberLen {
			t.Fatalf("%v encodes in %d bytes, over maxNumberLen %d", f, n, maxNumberLen)
		}
	}
	if n := len(appendFloat(nil, -1.2345678901234567e-06)); n != maxNumberLen {
		t.Fatalf("longest form takes %d bytes, maxNumberLen says %d", n, maxNumberLen)
	}
}

// legs splits n pairs over two legs by a random assignment, encodes
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
		body, err := AppendAnswer(nil, &a)
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
// leg and encoding the merged map[string]any wrote before.
func TestMergeBytesMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 400
	dist, lo, hi := testFloats(rng, n), testFloats(rng, n), testFloats(rng, n)

	m, _, clamped := twoLegs(t, rng, dist, lo, hi, true)
	want := encodeRef(t, map[string]any{"distances": dist, "lo": lo, "hi": hi, "clamped_count": clamped})
	if got := m.AppendOK(nil, true, clamped); !bytes.Equal(got, want) {
		t.Fatalf("guarded merge differs at %d", firstDiff(got, want))
	}
	want = encodeRef(t, map[string]any{"distances": dist})
	if got := m.AppendOK(nil, false, 0); !bytes.Equal(got, want) {
		t.Fatalf("unguarded merge differs at %d", firstDiff(got, want))
	}

	// Partial: leg 1 failed, its pairs become nulls with sorted errors.
	m, index, _ := twoLegs(t, rng, dist, lo, hi, false)
	m = NewMerge(n)
	var r Reply
	a := Answer{}
	for _, i := range index[0] {
		a.Distances = append(a.Distances, dist[i])
	}
	body, _ := AppendAnswer(nil, &a)
	if err := r.Scan(body); err != nil {
		t.Fatal(err)
	}
	m.Add(&r, index[0])
	var errs []PairError
	for _, i := range index[1] {
		errs = append(errs, PairError{Index: i, Error: `backend "b:1" said <no> & went away ` + " \xff"})
	}
	nullable := make([]*float64, n)
	for _, i := range index[0] {
		nullable[i] = &dist[i]
	}
	want = encodeRef(t, map[string]any{"distances": nullable, "partial": true, "errors": errs})
	if got := m.AppendPartial(nil, errs); !bytes.Equal(got, want) {
		t.Fatalf("partial merge differs at %d\n got %.300s\nwant %.300s", firstDiff(got, want), got, want)
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
		{Distances: fs[:2], Sharded: true, CrossCount: 2, Explain: []byte(`[{"dominant_level":1,"guard":{"raw":1.5,"clamp":"low"}}]`)},
	} {
		body, _ := AppendAnswer(nil, &a)
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

func benchFloats(n int) []float64 {
	rng := rand.New(rand.NewSource(6))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * 5000
	}
	return out
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
	dist, lo, hi := benchFloats(512), benchFloats(512), benchFloats(512)
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
	b.Run("batchwire", func(b *testing.B) {
		b.ReportAllocs()
		a := Answer{Distances: dist, Guarded: true, Lo: lo, Hi: hi, ClampedCount: 7}
		for range b.N {
			var err error
			if sinkBytes, err = AppendAnswer(sinkBytes[:0], &a); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMergeTwoLegs(b *testing.B) {
	dist, lo, hi := benchFloats(1024), benchFloats(1024), benchFloats(1024)
	var bodies [2][]byte
	var index [2][]int
	for k := range bodies {
		a := Answer{Guarded: true, ClampedCount: 1}
		for i := k; i < len(dist); i += 2 {
			index[k] = append(index[k], i)
			a.Distances, a.Lo, a.Hi = append(a.Distances, dist[i]), append(a.Lo, lo[i]), append(a.Hi, hi[i])
		}
		bodies[k], _ = AppendAnswer(nil, &a)
	}
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
	b.Run("batchwire", func(b *testing.B) {
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
	})
}
