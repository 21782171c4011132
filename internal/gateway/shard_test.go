package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/alt"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sssp"
)

// cutTestModel cuts the test model at level 1 into two shards.
func cutTestModel(tb testing.TB) (*graph.Graph, *core.Model, *shard.Split) {
	tb.Helper()
	g, m := buildModel(tb)
	lt, err := alt.Build(g, 8, 1)
	if err != nil {
		tb.Fatal(err)
	}
	sp, err := shard.Cut(m, lt, shard.Config{CutLevel: 1, Shards: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return g, m, sp
}

// newShardReplica boots one guarded replica of shard k.
func newShardReplica(t *testing.T, sp *shard.Split, k int) *httptest.Server {
	t.Helper()
	guard, err := hybrid.New(sp.Shards[k], sp.Guards[k])
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewFromSet(server.ModelSet{
		Shard: sp.Shards[k], Guard: guard, Version: "v1",
	}, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// buildShardedFleet cuts the test model at level 1 into two shards and
// boots one guarded replica per shard.
func buildShardedFleet(t *testing.T) (*graph.Graph, *core.Model, *shard.Split, []*httptest.Server) {
	t.Helper()
	g, m, sp := cutTestModel(t)
	replicas := make([]*httptest.Server, len(sp.Shards))
	for k := range sp.Shards {
		replicas[k] = newShardReplica(t, sp, k)
	}
	return g, m, sp, replicas
}

// discover runs one probe round so every backend's shard identity is
// known before the test routes.
func discover(t *testing.T, gw *Gateway) {
	t.Helper()
	for _, b := range gw.backends {
		if err := gw.probe(b); err != nil {
			t.Fatalf("probe %s: %v", b.id, err)
		}
	}
}

func regionGateway(t *testing.T, sp *shard.Split, replicas []*httptest.Server) (*Gateway, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(replicas))
	for i, r := range replicas {
		urls[i] = r.URL
	}
	gw := newGateway(t, Config{
		Backends:       urls,
		ShardMap:       sp.Map,
		HealthInterval: time.Hour, // probes driven by hand
		EjectAfter:     1,
	})
	discover(t, gw)
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return gw, ts
}

func getBody(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, out
}

// The router equivalence property: over a seeded workload, intra-shard
// answers through the gateway are bit-identical to the full unsharded
// model (when unclamped — the guard only ever moves an estimate into
// its certified interval), and cross-shard answers carry certified
// bounds that bracket the true network distance.
func TestRegionRoutingEquivalence(t *testing.T) {
	g, m, sp, replicas := buildShardedFleet(t)
	_, ts := regionGateway(t, sp, replicas)
	ws := sssp.NewWorkspace(g)

	n := m.NumVertices()
	rng := rand.New(rand.NewSource(42))
	intra, cross := 0, 0
	for trial := 0; trial < 200; trial++ {
		s := int32(rng.Intn(n))
		u := int32(rng.Intn(n))
		code, out := getBody(t, fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, s, u))
		if code != http.StatusOK {
			t.Fatalf("(%d,%d): status %d: %v", s, u, code, out)
		}
		d := out["distance"].(float64)
		lo, hi := out["lo"].(float64), out["hi"].(float64)
		if d < lo || d > hi {
			t.Fatalf("(%d,%d): %v outside certified [%v,%v]", s, u, d, lo, hi)
		}
		owner, _ := sp.Map.ShardOf(s)
		if sp.Shards[owner].CrossShard(s, u) {
			cross++
			if out["cross_shard"] != true {
				t.Fatalf("(%d,%d): cross-shard pair unflagged: %v", s, u, out)
			}
			if want := ws.Distance(s, u); lo > want+1e-9 || hi < want-1e-9 {
				t.Fatalf("(%d,%d): certified [%v,%v] misses true %v", s, u, lo, hi, want)
			}
		} else {
			intra++
			if _, flagged := out["cross_shard"]; flagged {
				t.Fatalf("(%d,%d): intra-shard pair flagged cross: %v", s, u, out)
			}
			if out["clamped"] == false && d != m.Estimate(s, u) {
				t.Fatalf("(%d,%d): intra answer %v != full model %v (must be bit-identical)",
					s, u, d, m.Estimate(s, u))
			}
		}
	}
	if intra == 0 || cross == 0 {
		t.Fatalf("workload did not exercise both sides: intra=%d cross=%d", intra, cross)
	}
}

// /batch splits per shard and merges in order; every answer must equal
// what the owning shard's guarded estimator serves directly.
func TestRegionBatchSplitsAndMerges(t *testing.T) {
	_, m, sp, replicas := buildShardedFleet(t)
	_, ts := regionGateway(t, sp, replicas)

	guards := make([]*hybrid.Estimator, len(sp.Shards))
	for k := range sp.Shards {
		e, err := hybrid.New(sp.Shards[k], sp.Guards[k])
		if err != nil {
			t.Fatal(err)
		}
		guards[k] = e
	}

	n := m.NumVertices()
	rng := rand.New(rand.NewSource(7))
	pairs := make([][2]int32, 40)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	resp, out := postBatch(t, ts, batchBody(pairs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %v", resp.StatusCode, out)
	}
	distances := out["distances"].([]any)
	if len(distances) != len(pairs) {
		t.Fatalf("merged %d distances for %d pairs", len(distances), len(pairs))
	}
	for i, p := range pairs {
		owner, _ := sp.Map.ShardOf(p[0])
		want := guards[owner].Estimate(p[0], p[1])
		if got := distances[i].(float64); got != want {
			t.Fatalf("pair %d (%d,%d): merged %v, owner shard serves %v", i, p[0], p[1], got, want)
		}
	}
	if _, ok := out["lo"]; !ok {
		t.Fatal("merged guard bounds dropped from an all-guarded batch")
	}
}

// Killing one shard's only replica degrades exactly that region: its
// vertices answer 503 with the shard named, other regions keep serving,
// and /readyz reports degraded-not-down.
func TestShardDownDegradesOnlyThatRegion(t *testing.T) {
	_, m, sp, replicas := buildShardedFleet(t)
	gw, ts := regionGateway(t, sp, replicas)

	// Find one vertex per shard.
	verts := make([]int32, 2)
	for i := range verts {
		verts[i] = -1
	}
	for v := int32(0); int(v) < m.NumVertices(); v++ {
		owner, _ := sp.Map.ShardOf(v)
		if verts[owner] < 0 {
			verts[owner] = v
		}
	}

	// Kill shard 1's replica and eject it (EjectAfter=1).
	replicas[1].Close()
	for _, b := range gw.backends {
		if int(b.shardID.Load()) == 1 {
			gw.markFailure(b, fmt.Errorf("killed"))
		}
	}

	code, out := getBody(t, fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, verts[1], verts[0]))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("dead region answered %d: %v", code, out)
	}
	if !strings.Contains(out["error"].(string), "shard 1 degraded") {
		t.Fatalf("503 does not name the dead shard: %v", out)
	}

	code, _ = getBody(t, fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, verts[0], verts[1]))
	if code != http.StatusOK {
		t.Fatalf("surviving region answered %d", code)
	}

	code, ready := getBody(t, ts.URL+"/readyz")
	if code != http.StatusOK || ready["status"] != "degraded" {
		t.Fatalf("readyz = %d %v, want 200 degraded", code, ready)
	}
	down, ok := ready["shards_down"].([]any)
	if !ok || len(down) != 1 || down[0].(float64) != 1 {
		t.Fatalf("shards_down = %v, want [1]", ready["shards_down"])
	}

	// A batch touching both regions degrades partially, not fatally.
	resp, bout := postBatch(t, ts, batchBody([][2]int32{{verts[0], verts[1]}, {verts[1], verts[0]}}))
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("mixed batch status %d, want 206: %v", resp.StatusCode, bout)
	}
	errs := bout["errors"].([]any)
	if len(errs) != 1 {
		t.Fatalf("want exactly the dead region's pair failed: %v", errs)
	}
	if msg := errs[0].(map[string]any)["error"].(string); !strings.Contains(msg, "shard 1") {
		t.Fatalf("pair error does not name the shard: %q", msg)
	}

	// Kill the other region too: now nothing is coverable.
	replicas[0].Close()
	for _, b := range gw.backends {
		gw.markFailure(b, fmt.Errorf("killed"))
	}
	code, ready = getBody(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || ready["status"] != "unavailable" {
		t.Fatalf("all-dead readyz = %d %v", code, ready)
	}
}

// GET /knn and /range proxy to the region owner; a shard replica's 501
// (no spatial index) is relayed as a capability statement, never
// counted toward ejection.
func TestSpatialProxyRelays501WithoutEjection(t *testing.T) {
	_, m, sp, replicas := buildShardedFleet(t)
	gw, ts := regionGateway(t, sp, replicas)

	var v int32
	for ; int(v) < m.NumVertices(); v++ {
		if owner, _ := sp.Map.ShardOf(v); owner == 0 {
			break
		}
	}
	for _, path := range []string{
		fmt.Sprintf("/knn?s=%d&k=3", v),
		fmt.Sprintf("/range?s=%d&tau=10", v),
	} {
		code, out := getBody(t, ts.URL+path)
		if code != http.StatusNotImplemented {
			t.Fatalf("GET %s: %d %v, want relayed 501", path, code, out)
		}
	}
	for _, b := range gw.backends {
		if !b.healthy.Load() {
			t.Fatalf("backend %s ejected by 501 answers", b.id)
		}
	}
}

// A gateway holding yesterday's shard map routes some vertices to a
// replica that has since disowned them: the replica's 421 is relayed
// with its owner hint and counted as a stale route.
func TestStaleShardMapRelays421(t *testing.T) {
	g, m, sp, replicas := buildShardedFleet(t)

	// The "stale" map: the same K=2 topology cut from yesterday's build
	// of the network, trained with a different partition fanout, so the
	// level-1 regions group vertices differently than the fleet's cut.
	opt := core.DefaultOptions(99)
	opt.Dim = 8
	opt.Epochs = 2
	opt.VertexSampleRatio = 10
	opt.FineTuneRounds = 1
	opt.HierSampleCap = 2000
	opt.ValidationPairs = 50
	opt.Fanout = 2
	opt.Leaf = 16
	m2, _, err := core.Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	lt2, err := alt.Build(g, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := shard.Cut(m2, lt2, shard.Config{CutLevel: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var victim int32 = -1
	for v := int32(0); int(v) < m.NumVertices(); v++ {
		staleOwner, _ := stale.Map.ShardOf(v)
		liveOwner, _ := sp.Map.ShardOf(v)
		if staleOwner != liveOwner {
			victim = v
			break
		}
	}
	if victim < 0 {
		t.Skip("the two cuts agree on every vertex; no staleness to exercise")
	}
	_ = g

	gw, ts := regionGateway(t, stale, replicas)
	code, out := getBody(t, fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, victim, (victim+1)%int32(m.NumVertices())))
	if code != http.StatusMisdirectedRequest {
		t.Fatalf("stale route answered %d: %v", code, out)
	}
	if _, ok := out["owner_shard"]; !ok {
		t.Fatalf("relayed 421 lost the owner hint: %v", out)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "rne_gateway_stale_routes_total 1") {
		t.Fatal("stale route not counted on /metrics")
	}
	_ = gw
}

// A sharded fleet refuses to route through a backend that has not
// declared a shard identity yet, and the shard map's resident size is
// exported.
func TestRegionModeRequiresDiscovery(t *testing.T) {
	_, m, sp, replicas := buildShardedFleet(t)
	urls := make([]string, len(replicas))
	for i, r := range replicas {
		urls[i] = r.URL
	}
	gw := newGateway(t, Config{
		Backends:       urls,
		ShardMap:       sp.Map,
		HealthInterval: time.Hour,
	})
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)

	// No probes yet: every backend's shard is unknown, so routing holds off.
	code, _ := getBody(t, fmt.Sprintf("%s/distance?s=0&t=1", ts.URL))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("undiscovered fleet answered %d, want 503", code)
	}
	code, ready := getBody(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("undiscovered readyz = %d %v", code, ready)
	}

	discover(t, gw)
	code, _ = getBody(t, fmt.Sprintf("%s/distance?s=0&t=1", ts.URL))
	if code != http.StatusOK {
		t.Fatalf("post-discovery distance = %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := fmt.Sprintf(`rne_model_bytes{component="shardmap"} %d`, sp.Map.IndexBytes())
	if !strings.Contains(string(body), want) {
		t.Fatalf("shard map bytes gauge missing: want %q", want)
	}

	// A vertex outside the map is the client's error, not a routing one.
	code, _ = getBody(t, fmt.Sprintf("%s/distance?s=%d&t=0", ts.URL, m.NumVertices()))
	if code != http.StatusBadRequest {
		t.Fatalf("out-of-map vertex answered %d, want 400", code)
	}
	_ = m
}

// A shard with two replicas gives each of its sources one owner, shares
// the sources between both, and fails an ejected replica's sources over
// to its sibling with answers still bit-identical to the full model.
func TestReplicatedShardStableOwnerAndFailover(t *testing.T) {
	_, m, sp, replicas := buildShardedFleet(t)
	replicas = append(replicas, newShardReplica(t, sp, 0))
	gw, ts := regionGateway(t, sp, replicas)

	var siblings []*backend
	for _, b := range gw.backends {
		if b.shardID.Load() == 0 {
			siblings = append(siblings, b)
		}
	}
	if len(siblings) != 2 {
		t.Fatalf("%d backends discovered as shard 0, want 2", len(siblings))
	}
	owners := make(map[int32]*backend)
	owned := make(map[*backend]int)
	for v := int32(0); int(v) < m.NumVertices(); v++ {
		if region, _ := sp.Map.ShardOf(v); region != 0 {
			continue
		}
		owners[v] = gw.route(v, nil)
		for i := 0; i < 3; i++ {
			if b := gw.route(v, nil); b != owners[v] {
				t.Fatalf("source %d routed to %s, then to %s", v, owners[v].id, b.id)
			}
		}
		owned[owners[v]]++
	}
	for _, b := range siblings {
		if owned[b] == 0 {
			t.Fatalf("replica %s owns none of shard 0's %d sources", b.id, len(owners))
		}
	}

	gone, sibling := siblings[0], siblings[1]
	for _, r := range replicas {
		if strings.TrimPrefix(r.URL, "http://") == gone.id {
			r.Close()
		}
	}
	gw.markFailure(gone, fmt.Errorf("killed")) // EjectAfter=1
	compared := 0
	for v, owner := range owners {
		if b := gw.route(v, nil); b != sibling {
			t.Fatalf("source %d (owner %s) routed to %v after the ejection, want the sibling", v, owner.id, b)
		}
		if owner != gone {
			continue
		}
		for u := int32(0); int(u) < m.NumVertices(); u += 7 {
			if sp.Shards[0].CrossShard(v, u) {
				continue
			}
			code, out := getBody(t, fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, v, u))
			if code != http.StatusOK {
				t.Fatalf("(%d,%d) after failover: status %d: %v", v, u, code, out)
			}
			if out["clamped"] == false {
				compared++
				if out["distance"].(float64) != m.Estimate(v, u) {
					t.Fatalf("(%d,%d): failover answer %v != full model %v", v, u, out["distance"], m.Estimate(v, u))
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no unclamped intra-shard answer to compare after the failover")
	}

	code, ready := getBody(t, ts.URL+"/readyz")
	if code != http.StatusOK || ready["status"] != "degraded" {
		t.Fatalf("readyz = %d %v, want 200 degraded", code, ready)
	}
	if down, ok := ready["shards_down"]; ok {
		t.Fatalf("every shard is still covered, yet shards_down = %v", down)
	}
}

// A gateway without a shard map is a one-region fleet of full-model
// replicas: a shard replica behind it fails its probe and is never
// routed to, so the other region's vertices are answered by the full
// replica instead of drawing 421s.
func TestOneRegionFleetRefusesShardReplica(t *testing.T) {
	_, m, sp, replicas := buildShardedFleet(t)
	full := newBackend(t, m, nil, "v1")
	gw := newGateway(t, Config{
		Backends:       []string{full.URL, replicas[0].URL},
		HealthInterval: time.Hour, // probes driven by hand
	})
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)

	fullB, shardB := gw.backends[0], gw.backends[1]
	if err := gw.probe(fullB); err != nil {
		t.Fatalf("probe of the full replica: %v", err)
	}
	if err := gw.probe(shardB); err == nil {
		t.Fatal("a one-region gateway accepted a replica serving shard 0 of 2")
	}
	for v := int32(0); int(v) < m.NumVertices(); v++ {
		if b := gw.route(v, nil); b != fullB {
			t.Fatalf("source %d routed to %v, want the full replica", v, b)
		}
		if region, _ := sp.Map.ShardOf(v); region != 1 {
			continue
		}
		code, out := getBody(t, fmt.Sprintf("%s/distance?s=%d&t=0", ts.URL, v))
		if code != http.StatusOK || out["distance"].(float64) != m.Estimate(v, 0) {
			t.Fatalf("source %d: %d %v, want the full model's %v", v, code, out, m.Estimate(v, 0))
		}
	}
	if n := shardB.requests.Value(); n != 0 {
		t.Fatalf("the shard replica was sent %d requests", n)
	}
}
