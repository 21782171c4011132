package main

import (
	"encoding/json"
	"math"
	"regexp"
	"testing"

	"repro/internal/gen"
)

func TestStreamSameSeedSameHash(t *testing.T) {
	const n = 8098
	for _, w := range workloads {
		a, err := genStream(w, n, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genStream(w, n, 42)
		if err != nil {
			t.Fatal(err)
		}
		c, err := genStream(w, n, 43)
		if err != nil {
			t.Fatal(err)
		}
		if a.hash() != b.hash() {
			t.Errorf("%s: same seed, hashes %s and %s", w, a.hash(), b.hash())
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: seeds 42 and 43 give the same stream %s", w, a.hash())
		}
		s1, err := genAccuracySample(w, n, 42)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := genAccuracySample(w, n, 42)
		if err != nil {
			t.Fatal(err)
		}
		if s1.hash() != s2.hash() || s1.hash() == a.hash() {
			t.Errorf("%s: accuracy sample not a seeded draw of its own", w)
		}
	}
	if _, err := genStream("nope", n, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestMetricsMatchBenchmarkFile keeps the declared metrics, their names
// and units, and BENCHMARK.json in step.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.name) {
			t.Errorf("metric name %q", m.name)
		}
		if !unit.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %s declared twice", m.name)
		}
		seen[m.name] = true
	}

	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricSpec
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit})
	}
	sameSpecs(t, "end_to_end", e2e, endToEnd)
	sameSpecs(t, "per_layer", layer, perLayer)
	var wls []string
	for _, w := range bf.Workloads {
		wls = append(wls, w.Name)
	}
	if len(wls) != len(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", wls, workloads)
	}
	for i := range wls {
		if wls[i] != workloads[i] {
			t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", wls, workloads)
		}
	}
}

func sameSpecs(t *testing.T, what string, file, code []metricSpec) {
	t.Helper()
	if len(file) != len(code) {
		t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark declares %d", what, len(file), len(code))
	}
	for i := range file {
		if file[i] != code[i] {
			t.Errorf("%s[%d]: BENCHMARK.json %v, benchmark %v", what, i, file[i], code[i])
		}
	}
}

// TestCheckerRejectsPerturbedAnswers builds each workload's real stack on
// a small grid, checks a served answer passes, then perturbs it the
// smallest way each relation can notice and checks it fails.
func TestCheckerRejectsPerturbedAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three models")
	}
	g, err := gen.Grid(24, 24, gen.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			s, err := genRequests(w, n, rngFor(5, 1), 4)
			if err != nil {
				t.Fatal(err)
			}
			var targets []int32
			if w == wlKNN {
				targets = knnTargets(n)
			}
			first := firstAnswer(s)
			defer first.close()
			st, err := setupStack(w, g, t.TempDir(), targets, nil, first.check)
			if err != nil {
				t.Fatal(err)
			}
			defer st.close()

			chk := newChecker(st)
			exp := chk.expect(s)
			c, err := newClient(st.url)
			if err != nil {
				t.Fatal(err)
			}
			defer c.close()
			a, err := c.send(s, 1, "")
			if err != nil {
				t.Fatal(err)
			}
			if err := chk.verify(exp, 1, a); err != nil {
				t.Fatalf("served answer rejected: %v", err)
			}

			bad := perturb(t, w, a, exp.matrixOrNil(1))
			if err := chk.verify(exp, 1, bad); err == nil {
				t.Fatal("perturbed answer accepted")
			}
			chk.record(chk.verify(exp, 1, bad))
			if chk.failed.Load() != 1 || chk.firstErr == nil {
				t.Fatalf("failure not counted: failed=%d err=%v", chk.failed.Load(), chk.firstErr)
			}
		})
	}
}

func (e *expectations) matrixOrNil(i int) []expPair {
	if e.matrix == nil {
		return nil
	}
	return e.matrix[i]
}

// perturb returns a copy of a with one value moved: the first point
// distance by one ulp, a cross-shard matrix pair just outside its
// certified bound (an intra-shard pair by one ulp when there is none),
// or the last kNN id replaced.
func perturb(t *testing.T, workload string, a answer, pairs []expPair) answer {
	t.Helper()
	b := answer{
		dist: append([]float64(nil), a.dist...),
		ids:  append([]int32(nil), a.ids...),
	}
	switch workload {
	case wlPoint:
		b.dist[0] = math.Nextafter(b.dist[0], math.Inf(1))
	case wlMatrix:
		for j, p := range pairs {
			if p.cross {
				b.dist[j] = math.Nextafter(p.hi, math.Inf(1))
				return b
			}
		}
		b.dist[0] = math.Nextafter(b.dist[0], math.Inf(1))
	case wlKNN:
		if len(b.ids) == 0 {
			t.Fatal("empty kNN answer")
		}
		b.ids[len(b.ids)-1] = -1
	}
	return b
}

func TestBatchDistancesRoundTrip(t *testing.T) {
	rng := rngFor(9, 9)
	want := make([]float64, 300)
	for i := range want {
		want[i] = rng.ExpFloat64() * 1e4
	}
	want[0], want[1] = 0, 1e-300
	body, err := json.Marshal(map[string][]float64{"distances": want, "hi": want, "lo": want})
	if err != nil {
		t.Fatal(err)
	}
	got, err := batchDistances(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d distances, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("distance %d: %v, want %v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{`{}`, `{"distances":3}`, `{"distances":[1,2`, `{"distances":[1,x]}`} {
		if _, err := batchDistances([]byte(bad)); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
	if d, err := batchDistances([]byte(`{"distances": [ ]}`)); err != nil || len(d) != 0 {
		t.Errorf("empty array: %v %v", d, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0}
	cases := []struct {
		name     string
		old, new []float64
		higher   bool
		want     string
	}{
		{"same", base, base, false, verdictOK},
		{"slower", base, scale(1.2), false, verdictRegressed},
		{"faster", base, scale(0.8), false, verdictOK},
		{"lower recall", base, scale(0.8), true, verdictRegressed},
		{"noisy", base, noisy, false, verdictUnresolved},
		{"missing", base, nil, false, verdictMissing},
	}
	for _, c := range cases {
		if got := verdict(c.old, c.new, 0.1, c.higher); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestResultLineShape(t *testing.T) {
	r := result{Correct: true, Attempted: 3, Metrics: map[string]metricValue{"p50_ms": {Value: 0.5, Unit: "ms"}}}
	line, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := back[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}
	if len(back) != 4 {
		t.Errorf("result line has extra keys: %s", line)
	}
}
