package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hybrid"
	"repro/internal/index"
)

// wantJSON is what the routes wrote when they encoded a map with
// encoding/json: the marshalled map and a newline.
func wantJSON(t *testing.T, v map[string]any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// serve runs one GET through h and returns its 200 body.
func serve(t *testing.T, h http.Handler, target string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", target, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

func guardFields(g hybrid.GuardResult) map[string]any {
	return map[string]any{"distance": g.Est, "lo": g.Lo, "hi": g.Hi, "clamped": g.ClampedLow || g.ClampedHigh}
}

// The /distance and /knn answers are byte for byte what encoding/json
// wrote for the maps the routes used to build: guarded, unguarded,
// explained and on a shard replica, and /knn with and without
// explain=1.
func TestAnswersMatchEncodingJSON(t *testing.T) {
	srv, m, guard := guardedIndexServer(t)
	h := srv.Handler()
	n := int32(m.NumVertices())
	plain, err := NewFromSet(ModelSet{Model: m, Index: srv.active.Load().idx}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ph := plain.Handler()
	for s := int32(0); s < n; s += 3 {
		for dst := int32(0); dst < n; dst += 7 {
			target := fmt.Sprintf("/distance?s=%d&t=%d", s, dst)
			want := guardFields(guard.Guard(s, dst))
			want["s"], want["t"] = s, dst
			if got := serve(t, h, target); !bytes.Equal(got, wantJSON(t, want)) {
				t.Fatalf("guarded %s:\n got %s\nwant %s", target, got, wantJSON(t, want))
			}
			want = map[string]any{"s": s, "t": dst, "distance": m.Estimate(s, dst)}
			if got := serve(t, ph, target); !bytes.Equal(got, wantJSON(t, want)) {
				t.Fatalf("unguarded %s:\n got %s\nwant %s", target, got, wantJSON(t, want))
			}
		}
		// explain=1 keeps the encoding/json path.
		g := guard.Guard(s, 0)
		want := guardFields(g)
		want["s"], want["t"] = s, int32(0)
		want["guard"] = guardExplanation{Raw: g.Raw, Lo: g.Lo, Hi: g.Hi, Clamp: clampDirection(g),
			LoLandmark: g.LoLandmark, HiLandmark: g.HiLandmark}
		target := fmt.Sprintf("/distance?s=%d&t=0&explain=1", s)
		if got := serve(t, h, target); !bytes.Equal(got, wantJSON(t, want)) {
			t.Fatalf("%s:\n got %s\nwant %s", target, got, wantJSON(t, want))
		}
		idx := srv.active.Load().idx
		for _, k := range []int{1, 10, idx.Size()} {
			results, st := idx.KNNStats(s, k)
			dists := make([]float64, len(results))
			for i, v := range results {
				dists[i] = m.Estimate(s, v)
			}
			want := map[string]any{"targets": results, "distances": dists}
			target := fmt.Sprintf("/knn?s=%d&k=%d", s, k)
			if got := serve(t, h, target); !bytes.Equal(got, wantJSON(t, want)) {
				t.Fatalf("%s:\n got %s\nwant %s", target, got, wantJSON(t, want))
			}
			want["stats"] = st
			if got := serve(t, h, target+"&explain=1"); !bytes.Equal(got, wantJSON(t, want)) {
				t.Fatalf("%s&explain=1:\n got %s\nwant %s", target, got, wantJSON(t, want))
			}
		}
	}

	// Shard replicas, guarded and not, flag targets outside their region.
	sp := cutFleet(t, swapGraph(t), 1)
	guarded := shardSet(t, sp, 0, "v1")
	for _, set := range []ModelSet{guarded, {Shard: sp.Shards[0], Version: "v1"}} {
		ssrv, err := NewFromSet(set, Config{})
		if err != nil {
			t.Fatal(err)
		}
		sh := ssrv.Handler()
		cross := 0
		for s := int32(0); int(s) < sp.Map.NumVertices(); s++ {
			if !sp.Shards[0].Owns(s) {
				continue
			}
			for dst := int32(0); int(dst) < sp.Map.NumVertices(); dst += 5 {
				want := map[string]any{"distance": sp.Shards[0].Estimate(s, dst)}
				if set.Guard != nil {
					want = guardFields(set.Guard.Guard(s, dst))
				}
				want["s"], want["t"] = s, dst
				if sp.Shards[0].CrossShard(s, dst) {
					want["cross_shard"] = true
					cross++
				}
				target := fmt.Sprintf("/distance?s=%d&t=%d", s, dst)
				if got := serve(t, sh, target); !bytes.Equal(got, wantJSON(t, want)) {
					t.Fatalf("shard %s:\n got %s\nwant %s", target, got, wantJSON(t, want))
				}
			}
		}
		if cross == 0 {
			t.Fatal("no cross-shard pair exercised")
		}
	}
}

// /knn answers each target's distance from the index traversal; it
// must be Model.Estimate's float64, bit for bit, under the L1 kernel's
// blocked sum (d = 40 leaves a partial block) and under L2.
func TestKNNDistancesMatchEstimate(t *testing.T) {
	g, err := gen.Grid(8, 8, gen.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{1, 2} {
		opt := core.DefaultOptions(4)
		opt.Dim, opt.P = 40, p
		opt.Epochs, opt.VertexSampleRatio, opt.FineTuneRounds = 2, 10, 1
		opt.HierSampleCap, opt.ValidationPairs = 2000, 50
		m, _, err := core.Build(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		var targets []int32
		for v := int32(0); v < int32(g.NumVertices()); v += 3 {
			targets = append(targets, v)
		}
		idx, err := index.Build(m, targets)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewFromSet(ModelSet{Model: m, Index: idx}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		checked := 0
		for s := int32(0); s < int32(g.NumVertices()); s++ {
			for _, k := range []int{1, 10, idx.Size()} {
				var ans struct {
					Distances []float64 `json:"distances"`
					Targets   []int32   `json:"targets"`
				}
				if err := json.Unmarshal(serve(t, h, fmt.Sprintf("/knn?s=%d&k=%d", s, k)), &ans); err != nil {
					t.Fatal(err)
				}
				if len(ans.Targets) != k || len(ans.Distances) != k {
					t.Fatalf("p=%v s=%d k=%d: %d targets, %d distances", p, s, k, len(ans.Targets), len(ans.Distances))
				}
				for i, v := range ans.Targets {
					if want := m.Estimate(s, v); math.Float64bits(ans.Distances[i]) != math.Float64bits(want) {
						t.Fatalf("p=%v /knn?s=%d&k=%d: target %d at %v, Estimate gives %v", p, s, k, v, ans.Distances[i], want)
					}
					checked++
				}
			}
		}
		srv.Close()
		if checked == 0 {
			t.Fatalf("p=%v: no distance checked", p)
		}
	}
}

// The appended numbers take encoding/json's form at every magnitude:
// exponent form only below 1e-6 and from 1e21 up, negative zero kept.
func TestDistanceAnswerFloatForms(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, 0.1, 1e-6, 9.99e-7, 1e-7, 5e-324,
		123456789.125, 1e20, 1e21, 1.5e300, math.MaxFloat64, -42.5} {
		a := distanceAnswer{S: 7, T: 300, Distance: f, Guarded: true, Lo: f / 2, Hi: f * 0.75, Clamped: true, CrossShard: true}
		got, err := a.appendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := wantJSON(t, a.fields()); !bytes.Equal(got, want) {
			t.Fatalf("%v:\n got %s\nwant %s", f, got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := distanceAnswer{Distance: 1, Guarded: true, Lo: f, Hi: 2}
		if _, err := a.appendJSON(nil); err == nil {
			t.Fatalf("bound %v encoded without an error", f)
		}
	}
}

// The one-pass parser reads the first value of every parameter the
// routes use exactly as r.URL.Query().Get does.
func FuzzQuery(f *testing.F) {
	for _, raw := range []string{
		"s=17&t=4242", "%73=1&t=2", "s=1+2&t=%2B3", "s=1;t=2&t=3", "s=1&s=2&k=3&k=4",
		"explain=1&explain=0", "s=%zz&s=4", "t=5&%zz=1&t=6", "=1&&s=&s=9",
		"tau=0.5&k=%31%30", "s", "s&s=2", "explain=%74rue", "k=1=2",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want := (&url.URL{RawQuery: raw}).Query()
		q := parseQuery(raw)
		for _, p := range []struct{ name, got string }{
			{"s", q.s}, {"t", q.t}, {"k", q.k}, {"tau", q.tau}, {"explain", q.explain},
		} {
			if p.got != want.Get(p.name) {
				t.Fatalf("%q: %s = %q, url.Values has %q", raw, p.name, p.got, want.Get(p.name))
			}
		}
	})
}

// maxDistanceAllocs bounds one guarded, untraced /distance through
// Server.Handler(): 18 allocations were measured with the recorder's
// own, plus a margin of 3.
const maxDistanceAllocs = 18 + 3

func TestHandlerDistanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	srv, _, _ := guardedIndexServer(t)
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/distance?s=3&t=42", nil)
	allocs := testing.AllocsPerRun(200, func() {
		h.ServeHTTP(httptest.NewRecorder(), req)
	})
	if allocs > maxDistanceAllocs {
		t.Fatalf("/distance allocates %v times per request, want at most %d", allocs, maxDistanceAllocs)
	}
}
