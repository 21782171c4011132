//go:build smoke

package smoke

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/batchwire"
	"repro/internal/telemetry"
)

// TestSwap is the model lifecycle: publish v1 to a fresh registry,
// serve it with rneserver -registry, publish v2 and SIGHUP the server.
// The serving version must flip to v2 while a request hammer sees zero
// failed requests, and v1's build report must carry the build's span
// tree: the root, setup, the three training phases, finalize, and
// units carrying their loss. At each version rnequery must print the
// replica's /distance answer, and rneserver without -registry must
// refuse to start.
func TestSwap(t *testing.T) {
	f := newFleet(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	noReg := exec.CommandContext(ctx, filepath.Join(binDir, "rneserver"), "-addr", "127.0.0.1:0")
	noReg.Dir = f.dir
	if out, err := noReg.CombinedOutput(); err == nil || !strings.Contains(string(out), "-registry") {
		t.Fatalf("rneserver without -registry: %v, output %q; want a non-zero exit naming -registry", err, out)
	}
	// A mistyped root is refused by name, and not created.
	typo := exec.CommandContext(ctx, filepath.Join(binDir, "rneserver"), "-registry", "typo-reg", "-name", "demo", "-addr", "127.0.0.1:0")
	typo.Dir = f.dir
	if out, err := typo.CombinedOutput(); err == nil || !strings.Contains(string(out), "typo-reg") {
		t.Fatalf("rneserver -registry typo-reg: %v, output %q; want a non-zero exit naming typo-reg", err, out)
	}
	if _, err := os.Stat(filepath.Join(f.dir, "typo-reg")); !os.IsNotExist(err) {
		t.Fatalf("rneserver -registry typo-reg left a directory behind (stat: %v)", err)
	}

	f.run("genroad", "-rows", "10", "-cols", "10", "-seed", "7", "-o", "g.txt")
	f.run("rnebuild", "-graph", "g.txt", "-dim", "8", "-epochs", "2", "-seed", "1", "-report", "report.json",
		"-registry", "reg", "-publish", "demo")
	var rep struct{ Trace []telemetry.SpanRecord }
	if err := json.Unmarshal(f.readFile("report.json"), &rep); err != nil {
		t.Fatal(err)
	}
	spans := map[string]bool{}
	for _, s := range rep.Trace {
		spans[s.Name] = true
		spans["loss_mean_rel"] = spans["loss_mean_rel"] || s.Attrs["loss_mean_rel"] != ""
	}
	for _, want := range []string{"build", "setup", "hier-phase", "vertex-phase", "finetune-phase", "finalize", "loss_mean_rel"} {
		if !spans[want] {
			t.Errorf("build report has no %s span", want)
		}
	}

	srv := f.start("server", "rneserver", "-registry", "reg", "-name", "demo")
	if v := version(srv); v != "v1" {
		t.Fatalf("serving %q, want registry v1", v)
	}
	// query checks rnequery's answer for 3→77, read from the registry,
	// against the replica's /distance at the version it serves.
	query := func() {
		t.Helper()
		var d struct{ Distance float64 }
		if code := getJSON(srv.url+"/distance?s=3&t=77", &d); code != http.StatusOK {
			t.Fatalf("/distance = %d", code)
		}
		got := strings.TrimSpace(f.run("rnequery", "-registry", "reg", "-name", "demo", "-s", "3", "-t", "77"))
		if want := fmt.Sprintf("3 77 %.2f", d.Distance); got != want {
			t.Fatalf("rnequery at %s = %q, replica /distance = %q", version(srv), got, want)
		}
	}
	query()
	stop := hammer(t, srv.url+"/distance?s=3&t=77")
	f.run("rnebuild", "-graph", "g.txt", "-dim", "8", "-epochs", "2", "-seed", "2", "-report", "",
		"-registry", "reg", "-publish", "demo")
	srv.cmd.Process.Signal(syscall.SIGHUP)
	waitFor(t, "the serving version to flip to v2", 100, func() bool { return version(srv) == "v2" })
	if n := stop(); n > 0 {
		t.Fatalf("%d requests failed during the hot swap", n)
	}
	if n := metrics(srv.url)["rne_model_swaps_total"]; n != 1 {
		t.Fatalf("rne_model_swaps_total = %v, want 1", n)
	}
	query()
}

// TestGate is the scale-out tier: rnegate over two replicas. A
// fanned-out /batch merges to a full answer, and after one replica is
// killed /batch keeps serving (the dead backend's sub-batch fails over
// to the survivor), /readyz reports degraded and /metrics counts the
// ejection.
func TestGate(t *testing.T) {
	f := newFleet(t)
	f.grid()
	a := f.start("a", "rneserver", "-registry", "reg", "-name", "demo")
	b := f.start("b", "rneserver", "-registry", "reg", "-name", "demo")
	gate := f.start("gate", "rnegate", "-backends", a.url+","+b.url,
		"-health-interval", "100ms", "-eject-after", "1", "-backoff-base", "100ms")
	batch := func(when string) {
		t.Helper()
		var ans struct{ Distances []float64 }
		code, out := fetch(gate.url+"/batch", []byte(`{"pairs":[[0,99],[17,42],[3,61],[88,5]]}`))
		if code >= 400 || json.Unmarshal(out, &ans) != nil || ans.Distances == nil {
			t.Fatalf("/batch %s = %d %s", when, code, out)
		}
	}
	batch("with both backends up")
	f.stop(b)
	batch("with one backend down") // may hit the dead backend first
	waitFor(t, "the ejection on /readyz", 100, func() bool {
		var r struct{ Status string }
		getJSON(gate.url+"/readyz", &r)
		return r.Status == "degraded"
	})
	batch("after the ejection")
	if n := metrics(gate.url)["rne_gateway_ejections_total"]; n != 1 {
		t.Fatalf("rne_gateway_ejections_total = %v, want 1", n)
	}
}

// TestHeal is the chaos drill of the autoheal loop. v1 serves with
// rneserver -autoheal watching the live graph file, which is replaced
// mid-serve by its rush-am regime variant while a request hammer runs.
// An armed checkpoint-save failpoint kills the first retrain; the
// controller must roll back, cool down, retrain, publish v2 and
// hot-swap it, converging back under the error budget with zero failed
// requests. HEAL_SMOKE_PRESET serves a genroad preset in place of the
// 10×10 grid.
func TestHeal(t *testing.T) {
	const budget = 2
	f := newFleet(t)
	dataset, graph := "grid-10x10", []string{"-rows", "10", "-cols", "10", "-seed", "7"}
	if preset := os.Getenv("HEAL_SMOKE_PRESET"); preset != "" {
		dataset, graph = preset, []string{"-preset", preset}
	}
	f.run("genroad", append(graph, "-o", "g.txt")...)
	f.run("genroad", append(graph, "-regime", "rush-am", "-regime-seed", "9", "-o", "g2.txt")...)
	f.run("rnebuild", "-graph", "g.txt", "-dim", "8", "-epochs", "2", "-seed", "1", "-report", "",
		"-registry", "reg", "-publish", "demo")
	srv := f.start("server", "rneserver", "-registry", "reg", "-name", "demo", "-autoheal", "-heal-graph", "g.txt",
		"-heal-interval", "100ms", "-heal-probes", "16", "-heal-budget", fmt.Sprint(budget), "-heal-dwell", "2",
		"-heal-cooldown", "500ms", "-heal-warmup", "24", "-heal-epochs", "2", "-heal-rounds", "2",
		"-faults", "core/checkpoint-save")
	if v := version(srv); v != "v1" {
		t.Fatalf("serving %q, want registry v1", v)
	}
	warm := func() bool { return metrics(srv.url)["rne_autoheal_warm"] == 1 }
	// The probe monitor must freeze its healthy baseline before the shift.
	waitFor(t, "the probe baseline warmup", 200, warm)
	stop := hammer(t, srv.url+"/distance?s=3&t=77")
	if err := os.Rename(filepath.Join(f.dir, "g2.txt"), filepath.Join(f.dir, "g.txt")); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	var detect *float64
	var healed, maxScore float64
	// Drift is detected (a transition to triggered), the injected fault
	// kills the first retrain, and a later one heals.
	waitFor(t, "the controller to converge", 1200, func() bool {
		m, since := metrics(srv.url), time.Since(t0).Seconds()
		maxScore = max(maxScore, m["rne_autoheal_score"])
		if detect == nil && m[`rne_autoheal_transitions_total{state="triggered"}`] >= 1 {
			detect = &since
		}
		healed = since
		return m["rne_autoheal_heals_total"] >= 1
	})
	fails := metrics(srv.url)["rne_autoheal_heal_failures_total"]
	if fails < 1 {
		t.Fatalf("the injected checkpoint fault never failed a retrain (failures=%v)", fails)
	}
	waitFor(t, "the serving version to flip to v2", 100, func() bool { return version(srv) == "v2" })
	// The rebuilt probe monitor re-warms against the healed model and
	// must score back under the error budget.
	waitFor(t, "the post-heal re-warmup", 600, warm)
	if s := metrics(srv.url)["rne_autoheal_score"]; !(s < budget) {
		t.Fatalf("post-heal score %v not under budget %d", s, budget)
	}
	if n := stop(); n > 0 {
		t.Fatalf("%d requests failed during the chaos storm", n)
	}
	t.Logf("healed v1 -> v2 in %.2fs (max drift score %.2f)", healed, maxScore)
	writeBench(t, "heal", struct {
		Experiment   string   `json:"experiment"`
		Dataset      string   `json:"dataset"`
		Regime       string   `json:"regime"`
		ErrorBudget  int      `json:"error_budget"`
		Detect       *float64 `json:"time_to_detect_seconds"`
		Healed       float64  `json:"time_to_recover_seconds"`
		MaxScore     float64  `json:"max_drift_score"`
		FailInjected float64  `json:"heal_failures_injected"`
		Failed       int      `json:"requests_failed"`
	}{"heal-smoke", dataset, "rush-am", budget, detect, healed, maxScore, fails, 0})
}

// TestOverload hammers three capacity-starved replicas (-max-inflight
// 1) behind rnegate past fleet capacity, killing one mid-run:
//
//  1. every answer is 200, 206, 429 or 504: overload and a crashed
//     replica degrade service, never into other 5xx or dropped
//     connections;
//  2. shedding fired (at least one 429) and goodput survived the kill;
//  3. a /batch aimed at the dead shard through a no-retry gateway
//     degrades to a partial 206: surviving pairs bit-identical to the
//     healthy fleet's answer, failed pairs null with per-pair errors.
func TestOverload(t *testing.T) {
	f := newFleet(t)
	f.grid()
	var replicas []*proc
	for _, name := range []string{"a", "b", "c"} {
		replicas = append(replicas, f.start(name, "rneserver", "-registry", "reg", "-name", "demo", "-max-inflight", "1", "-request-timeout", "5s"))
	}
	backends := replicas[0].url + "," + replicas[1].url + "," + replicas[2].url
	gate := f.start("gate", "rnegate", "-backends", backends,
		"-health-interval", "100ms", "-eject-after", "2", "-backoff-base", "100ms",
		"-retry-budget", "0.2", "-backend-timeout", "2s", "-request-timeout", "5s")
	// With retries disabled and ejection effectively off, a batch whose
	// shard is dead must come back 206, not fail over silently.
	noretry := f.start("noretry", "rnegate", "-backends", backends,
		"-health-interval", "10s", "-eject-after", "1000", "-retry-budget", "-1")

	// The burst's batches are heavy (4000 pairs): estimates are
	// microsecond-fast, so saturation needs requests that hold a
	// replica slot for measurable time.
	big := bytes.NewBufferString(`{"pairs":[`)
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(big, "[%d,%d],", i*7%100, (i*13+3)%100)
	}
	big.Truncate(big.Len() - 1)
	big.WriteString("]}")
	type result struct {
		code int
		took float64
	}
	// burst sends requests 1..n from 24 parallel clients, the even ones
	// heavy fan-out /batch requests.
	burst := func(n int) []result {
		out := make([]result, n)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 24; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)); i <= n; i = int(next.Add(1)) {
					start, r := time.Now(), &out[i-1]
					if i%2 == 0 {
						r.code, _ = fetch(gate.url+"/batch", big.Bytes())
					} else {
						r.code, _ = fetch(fmt.Sprintf("%s/distance?s=%d&t=%d", gate.url, i*7%100, i*13%100), nil)
					}
					r.took = time.Since(start).Seconds()
				}
			}()
		}
		wg.Wait()
		return out
	}
	phaseA := burst(150) // full fleet, saturated
	f.stop(replicas[2])
	phaseB := burst(150) // one replica dead, same load
	count, goodB, took := map[int]int{}, 0, []float64{}
	for i, r := range append(phaseA, phaseB...) {
		count[r.code]++
		took = append(took, r.took)
		if i >= len(phaseA) && (r.code == 200 || r.code == 206) {
			goodB++
		}
	}
	for code := range count {
		if code != 200 && code != 206 && code != 429 && code != 504 {
			t.Fatalf("forbidden status %d under overload (all: %v)", code, count)
		}
	}
	if count[429] < 1 || goodB < 1 {
		t.Fatalf("want shedding and goodput after the kill: %d 429s, %d served after the kill", count[429], goodB)
	}

	// The healthy-path answer (retries on, the dead shard ejected by now)
	// is the reference: the no-retry gateway's 206 must null exactly the
	// dead pairs and carry the reference bytes everywhere else. The
	// batch's sources span the fleet, so one dead shard only degrades it.
	body := []byte(`{"pairs":[[0,99],[9,42],[17,4],[25,61],[33,88],[41,5],[49,70],[57,12],[65,30],[73,96],[81,22],[89,55]]}`)
	var full, part struct {
		Distances []json.RawMessage
		Partial   bool
		Errors    []batchwire.PairError
	}
	if _, raw := fetch(gate.url+"/batch", body); json.Unmarshal(raw, &full) != nil {
		t.Fatalf("healthy-path batch: %s", raw)
	}
	code, raw := fetch(noretry.url+"/batch", body)
	if code != http.StatusPartialContent || json.Unmarshal(raw, &part) != nil || !part.Partial || len(part.Errors) == 0 {
		t.Fatalf("dead-shard batch = %d %s, want a partial 206 with per-pair errors", code, raw)
	}
	if len(part.Distances) != len(full.Distances) {
		t.Fatalf("partial merge wrong shape: %d of %d pairs", len(part.Distances), len(full.Distances))
	}
	nulls := 0
	for i, d := range part.Distances {
		if string(d) == "null" {
			nulls++
		} else if !bytes.Equal(d, full.Distances[i]) {
			t.Fatalf("partial merge corrupted pair %d: %s want %s", i, d, full.Distances[i])
		}
	}
	if nulls == 0 || nulls == len(part.Distances) {
		t.Fatalf("%d of %d pairs dropped: want the dead shard's pairs only", nulls, len(part.Distances))
	}

	sort.Float64s(took)
	p99 := took[max(int(float64(len(took))*0.99), 1)-1]
	t.Logf("%d offered, %d shed, p99 %.3fs; partial 206 merge verified", len(took), count[429], p99)
	writeBench(t, "overload", struct {
		Experiment  string   `json:"experiment"`
		Dataset     string   `json:"dataset"`
		Replicas    int      `json:"replicas"`
		MaxInflight int      `json:"replica_max_inflight"`
		Clients     int      `json:"parallel_clients"`
		Offered     int      `json:"offered"`
		Goodput     int      `json:"goodput"`
		Shed        int      `json:"shed_429"`
		Partial     int      `json:"partial_206"`
		Timeout     int      `json:"timeout_504"`
		GoodB       int      `json:"goodput_after_kill"`
		P99         float64  `json:"client_p99_seconds"`
		Env         benchEnv `json:"env"`
	}{"overload-smoke", "grid-10x10", 3, 1, 24, len(took), count[200] + count[206],
		count[429], count[206], count[504], goodB, p99, newBenchEnv()})
}

// TestShard serves a bj-mini model cut into two level-1 region shards,
// one rneserver -shard replica each plus a full replica, behind
// rnegate -shard-map, and asserts:
//
//  1. intra-shard /distance answers through the gateway are
//     bit-identical to the full replica's whenever that answer is
//     unclamped (the shard's restricted guard is never tighter);
//  2. cross-shard answers are flagged and inside their certified
//     [lo, hi] guard interval;
//  3. each shard replica holds strictly fewer embedding bytes
//     (rne_model_bytes{component="embeddings"}) than the full one;
//  4. killing one shard's replica degrades exactly its region: its
//     vertices answer 503, the other region keeps answering 200, and
//     /readyz lists the dead shard;
//  5. a short rneload ramp against the full replica and the sharded
//     gateway lands in one BENCH_shard.json;
//  6. rnequery -explain on the guarded version prints the full
//     replica's answer and the certified guard interval.
func TestShard(t *testing.T) {
	f := newFleet(t)
	f.boot = 200
	// One build, one publish: the version carries the full model, the
	// ALT guard and the two shard artifacts cut at level 1.
	f.run("rnebuild", "-preset", "bj-mini", "-dim", "16", "-epochs", "2", "-seed", "1", "-report", "",
		"-alt-landmarks", "16", "-registry", "models", "-publish", "bj",
		"-publish-shards", "-shard-level", "1", "-shard-count", "2")
	shardMap := "models/bj/v1/shards/shardmap.rnemap"
	if _, err := os.Stat(filepath.Join(f.dir, shardMap)); err != nil {
		t.Fatalf("shard map not published: %v", err)
	}
	full := f.start("full", "rneserver", "-registry", "models", "-name", "bj")
	s0 := f.start("s0", "rneserver", "-registry", "models", "-name", "bj", "-shard", "0")
	s1 := f.start("s1", "rneserver", "-registry", "models", "-name", "bj", "-shard", "1")
	gate := f.start("gate", "rnegate", "-backends", s0.url+","+s1.url, "-shard-map", shardMap,
		"-health-interval", "100ms", "-eject-after", "1", "-backoff-base", "100ms")

	// 1 + 2: walk a seeded workload through the gateway, classifying
	// each answer by its own cross_shard flag.
	sources := []int{0, 7, 123, 512, 1024, 2048, 3000, 4095, 5000, 6000, 7000, 8097}
	type answer struct {
		Distance   json.Number // compared as text: bit-identical
		Lo, Hi     *float64
		CrossShard bool `json:"cross_shard"`
		Clamped    *bool
	}
	intra, cross := 0, 0
	for _, s := range sources {
		for _, tgt := range []int{3, 4050, 8001, 8096} {
			var g, fa answer
			q := fmt.Sprintf("/distance?s=%d&t=%d", s, tgt)
			if code := getJSON(gate.url+q, &g); code == 0 || code >= 400 {
				t.Fatalf("gateway %s = %d", q, code)
			}
			if d, err := g.Distance.Float64(); err != nil || g.Lo == nil || g.Hi == nil {
				t.Fatalf("unguarded gateway answer to %s: %+v", q, g)
			} else if !(*g.Lo <= d && d <= *g.Hi) {
				t.Fatalf("%s: answer %v outside certified [%v,%v]", q, d, *g.Lo, *g.Hi)
			}
			if g.CrossShard {
				cross++
				continue
			}
			if code := getJSON(full.url+q, &fa); code == 0 || code >= 400 {
				t.Fatalf("full replica %s = %d", q, code)
			}
			if fa.Clamped != nil && !*fa.Clamped {
				intra++
				if g.Distance != fa.Distance {
					t.Fatalf("intra-shard %s: gateway %s != full replica %s (must be bit-identical)", q, g.Distance, fa.Distance)
				}
			}
		}
	}
	if intra < 1 || cross < 1 {
		t.Fatalf("workload did not exercise both regimes (intra=%d cross=%d)", intra, cross)
	}
	// rnequery applies the version's guard as the full replica does.
	var fd struct{ Distance float64 }
	if code := getJSON(full.url+"/distance?s=7&t=4050", &fd); code != http.StatusOK {
		t.Fatalf("full replica /distance = %d", code)
	}
	q := f.run("rnequery", "-registry", "models", "-name", "bj", "-s", "7", "-t", "4050", "-explain")
	want := fmt.Sprintf("7 4050 %.2f", fd.Distance)
	if first, _, _ := strings.Cut(q, "\n"); first != want || !strings.Contains(q, "guard: certified") {
		t.Fatalf("rnequery -explain:\n%s\nwant first line %q and a guard: certified line", q, want)
	}

	// 3: each shard's resident embedding rows are below the full replica's.
	const emb = `rne_model_bytes{component="embeddings"}`
	fb := metrics(full.url)[emb]
	for _, s := range []*proc{s0, s1} {
		if b, ok := metrics(s.url)[emb]; !ok || !(b < fb) {
			t.Fatalf("%s %s = %v (exported: %v), want below the full replica's %v", s.name, emb, b, ok, fb)
		}
	}

	// 5 (before the kill): full-vs-sharded comparison in one report.
	f.run("rneload", "-target", full.url, "-steps", "c=2,qps=0,d=1s,w=300ms", "-mix", "distance=1",
		"-name", "full", "-tags", "mode=full", "-out", "BENCH_shard.json")
	f.run("rneload", "-target", gate.url, "-vertices", "8098", "-steps", "c=2,qps=0,d=1s,w=300ms", "-mix", "distance=1",
		"-scrape", "gate="+gate.url+",s0="+s0.url+",s1="+s1.url,
		"-name", "sharded", "-tags", "mode=sharded,shards=2", "-append", "-out", "BENCH_shard.json")
	out, joined := f.checkLoadReport("BENCH_shard.json", "full", "sharded")
	if !strings.Contains(joined, "\nrne_go_heap_bytes") {
		t.Fatal("BENCH_shard.json joins no rne_go_heap_bytes")
	}

	// 4: kill shard 1's only replica; its region degrades, shard 0's
	// keeps serving, and the gateway names the dead shard.
	f.stop(s1)
	dead, alive := -1, -1
	waitFor(t, "the regions to split into dead and alive", 100, func() bool {
		for _, s := range sources {
			code, _ := fetch(fmt.Sprintf("%s/distance?s=%d&t=%d", gate.url, s, s), nil)
			switch code {
			case http.StatusOK:
				alive = s
			case http.StatusServiceUnavailable:
				dead = s
			}
			if dead >= 0 && alive >= 0 {
				return true
			}
		}
		return false
	})
	if _, body := fetch(fmt.Sprintf("%s/distance?s=%d&t=%d", gate.url, dead, alive), nil); !strings.Contains(string(body), "degraded") {
		t.Fatalf("dead region's answer does not say degraded: %s", body)
	}
	waitFor(t, "/readyz to list shard 1 down", 100, func() bool {
		var r struct {
			ShardsDown []int `json:"shards_down"`
		}
		getJSON(gate.url+"/readyz", &r)
		return len(r.ShardsDown) == 1 && r.ShardsDown[0] == 1
	})
	if code, _ := fetch(fmt.Sprintf("%s/distance?s=%d&t=%d", gate.url, alive, dead), nil); code != http.StatusOK {
		t.Fatalf("surviving region answered %d after the kill", code)
	}
	t.Logf("intra bit-identical (%d pairs), cross in bounds (%d pairs), shed only the dead region", intra, cross)
	writeBench(t, "shard", out)
}
