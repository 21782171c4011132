package shard

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/alt"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sssp"
)

// quickBuild trains a small but real hierarchical model so cuts
// exercise genuine prefix-summed embeddings.
func quickBuild(t *testing.T, seed int64) (*graph.Graph, *core.Model) {
	t.Helper()
	g, err := gen.Grid(8, 8, gen.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(seed)
	opt.Dim = 8
	opt.Epochs = 2
	opt.VertexSampleRatio = 10
	opt.FineTuneRounds = 1
	opt.HierSampleCap = 2000
	opt.ValidationPairs = 50
	m, _, err := core.Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

func quickCut(t *testing.T, seed int64, k int) (*graph.Graph, *core.Model, *alt.Index, *Split) {
	t.Helper()
	g, m := quickBuild(t, seed)
	lt, err := alt.Build(g, 8, seed)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Cut(m, lt, Config{CutLevel: 1, Shards: k})
	if err != nil {
		t.Fatal(err)
	}
	return g, m, lt, sp
}

func TestCutPartitionsEveryVertex(t *testing.T) {
	_, m, _, sp := quickCut(t, 1, 2)
	n := m.NumVertices()
	if sp.Map.NumVertices() != n {
		t.Fatalf("map covers %d vertices, want %d", sp.Map.NumVertices(), n)
	}
	if sp.Map.NumShards() != 2 || len(sp.Shards) != 2 {
		t.Fatalf("got %d/%d shards, want 2", sp.Map.NumShards(), len(sp.Shards))
	}
	owned := 0
	for sid, sm := range sp.Shards {
		if sm.ShardID() != sid || sm.NumShards() != 2 || sm.CutLevel() != 1 {
			t.Fatalf("shard %d identity wrong: id=%d k=%d cut=%d", sid, sm.ShardID(), sm.NumShards(), sm.CutLevel())
		}
		if sm.NumVertices() != n {
			t.Fatalf("shard %d NumVertices = %d, want full %d", sid, sm.NumVertices(), n)
		}
		owned += sm.OwnedVertices()
	}
	if owned != n {
		t.Fatalf("shards own %d vertices total, want %d (disjoint cover)", owned, n)
	}
	for v := int32(0); int(v) < n; v++ {
		sid, ok := sp.Map.ShardOf(v)
		if !ok {
			t.Fatalf("vertex %d unmapped", v)
		}
		if !sp.Shards[sid].Owns(v) {
			t.Fatalf("map says shard %d owns %d but the shard disagrees", sid, v)
		}
		for other := range sp.Shards {
			if other != sid && sp.Shards[other].Owns(v) {
				t.Fatalf("vertex %d owned by both shard %d and %d", v, sid, other)
			}
			if got := sp.Shards[other].Owner(v); got != sid {
				t.Fatalf("shard %d reports owner %d for vertex %d, want %d", other, got, v, sid)
			}
		}
	}
	if _, ok := sp.Map.ShardOf(-1); ok {
		t.Fatal("ShardOf(-1) claimed a shard")
	}
	if _, ok := sp.Map.ShardOf(int32(n)); ok {
		t.Fatalf("ShardOf(%d) claimed a shard", n)
	}
}

// Intra-shard estimates must be bit-identical to the unsharded model:
// the shard carries its region's rows verbatim.
func TestIntraShardBitIdentical(t *testing.T) {
	_, m, _, sp := quickCut(t, 2, 2)
	n := m.NumVertices()
	pairs := 0
	for s := int32(0); int(s) < n; s++ {
		for u := int32(0); int(u) < n; u++ {
			sid, _ := sp.Map.ShardOf(s)
			sm := sp.Shards[sid]
			if !sm.Owns(u) {
				continue
			}
			if sm.CrossShard(s, u) {
				t.Fatalf("(%d,%d) both owned by shard %d but flagged cross-shard", s, u, sid)
			}
			if got, want := sm.Estimate(s, u), m.Estimate(s, u); got != want {
				t.Fatalf("intra-shard (%d,%d): shard %v != full %v (must be bit-identical)", s, u, got, want)
			}
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("no intra-shard pairs exercised")
	}
}

// Cross-shard pairs come from the shared upper levels; the restricted
// guard must still bracket the true distance so clamped answers stay
// certified.
func TestCrossShardWithinRestrictedGuardBounds(t *testing.T) {
	g, _, full, sp := quickCut(t, 3, 2)
	ws := sssp.NewWorkspace(g)
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(7))
	cross := 0
	for trial := 0; trial < 400 && cross < 100; trial++ {
		s := int32(rng.Intn(n))
		u := int32(rng.Intn(n))
		sid, _ := sp.Map.ShardOf(s)
		sm := sp.Shards[sid]
		if sm.Owns(u) {
			continue
		}
		cross++
		if !sm.CrossShard(s, u) {
			t.Fatalf("(%d,%d) spans shards but not flagged cross-shard", s, u)
		}
		want := ws.Distance(s, u)
		lo, hi := sp.Guards[sid].Bounds(s, u)
		if lo > want+1e-9 || hi < want-1e-9 {
			t.Fatalf("(%d,%d): restricted guard [%v,%v] misses true %v", s, u, lo, hi, want)
		}
		// The restricted landmark set can only loosen, never tighten.
		flo, fhi := full.Bounds(s, u)
		if lo > flo+1e-9 || hi < fhi-1e-9 {
			t.Fatalf("(%d,%d): restricted [%v,%v] tighter than full [%v,%v]", s, u, lo, hi, flo, fhi)
		}
		if est := sm.Estimate(s, u); est < 0 {
			t.Fatalf("(%d,%d): negative upper-level estimate %v", s, u, est)
		}
	}
	if cross == 0 {
		t.Fatal("no cross-shard pairs exercised")
	}
}

// The whole point of sharding: each shard's exact-row matrix is
// strictly smaller than the full model's.
func TestShardEmbeddingBytesShrink(t *testing.T) {
	_, m, _, sp := quickCut(t, 4, 2)
	for sid, sm := range sp.Shards {
		if sm.EmbeddingBytes() >= m.IndexBytes() {
			t.Fatalf("shard %d embeddings %d bytes, not below full model %d", sid, sm.EmbeddingBytes(), m.IndexBytes())
		}
		if sm.UpperBytes() <= 0 || sm.IndexBytes() != sm.EmbeddingBytes()+sm.UpperBytes() {
			t.Fatalf("shard %d byte accounting inconsistent: emb=%d upper=%d total=%d",
				sid, sm.EmbeddingBytes(), sm.UpperBytes(), sm.IndexBytes())
		}
	}
	if sp.Map.IndexBytes() <= int64(m.NumVertices()) {
		t.Fatalf("map bytes %d implausibly small", sp.Map.IndexBytes())
	}
}

func TestCutRejectsBadInputs(t *testing.T) {
	g, m := quickBuild(t, 5)
	if _, err := Cut(m, nil, Config{CutLevel: 0}); err == nil {
		t.Fatal("cut level 0 accepted")
	}
	if _, err := Cut(m, nil, Config{CutLevel: 99}); err == nil {
		t.Fatal("cut level past hierarchy depth accepted")
	}
	small, err := gen.Grid(5, 5, gen.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	wrongLT, err := alt.Build(small, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Cut(m, wrongLT, Config{CutLevel: 1}); err == nil {
		t.Fatal("ALT index over a different graph accepted")
	}
	// A deserialized model drops its hierarchy and must refuse to cut.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Cut(loaded, nil, Config{CutLevel: 1}); err == nil {
		t.Fatal("hierarchy-less model accepted")
	}
	_ = g
}

func TestCutWithoutGuard(t *testing.T) {
	_, m := quickBuild(t, 6)
	sp, err := Cut(m, nil, Config{CutLevel: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Guards != nil {
		t.Fatalf("guards materialized without an ALT index: %v", sp.Guards)
	}
	if got, want := sp.Shards[0].Estimate(0, 1), m.Estimate(0, 1); sp.Shards[0].Owns(0) && sp.Shards[0].Owns(1) && got != want {
		t.Fatalf("estimate %v != %v", got, want)
	}
}

func TestMapCodecRoundTrip(t *testing.T) {
	_, _, _, sp := quickCut(t, 7, 2)
	path := filepath.Join(t.TempDir(), "map.rnemap")
	if err := sp.Map.SaveMapFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != sp.Map.NumVertices() || got.NumShards() != sp.Map.NumShards() || got.CutLevel() != sp.Map.CutLevel() {
		t.Fatalf("header mismatch: %d/%d/%d vs %d/%d/%d",
			got.NumVertices(), got.NumShards(), got.CutLevel(),
			sp.Map.NumVertices(), sp.Map.NumShards(), sp.Map.CutLevel())
	}
	for v := int32(0); int(v) < got.NumVertices(); v++ {
		a, _ := got.ShardOf(v)
		b, _ := sp.Map.ShardOf(v)
		if a != b {
			t.Fatalf("vertex %d: loaded owner %d, want %d", v, a, b)
		}
	}
}

func TestModelCodecRoundTrip(t *testing.T) {
	_, _, _, sp := quickCut(t, 8, 2)
	for sid, sm := range sp.Shards {
		path := filepath.Join(t.TempDir(), "shard.rne")
		if err := sm.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := LoadModelFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.ShardID() != sm.ShardID() || got.NumShards() != sm.NumShards() ||
			got.CutLevel() != sm.CutLevel() || got.NumVertices() != sm.NumVertices() ||
			got.OwnedVertices() != sm.OwnedVertices() || got.Dim() != sm.Dim() ||
			got.P() != sm.P() || got.Scale() != sm.Scale() {
			t.Fatalf("shard %d header drifted through the codec", sid)
		}
		n := sm.NumVertices()
		rng := rand.New(rand.NewSource(int64(sid)))
		for trial := 0; trial < 200; trial++ {
			s := int32(rng.Intn(n))
			u := int32(rng.Intn(n))
			if a, b := got.Estimate(s, u), sm.Estimate(s, u); a != b {
				t.Fatalf("shard %d (%d,%d): loaded %v != %v", sid, s, u, a, b)
			}
			if got.Owns(s) != sm.Owns(s) || got.Owner(s) != sm.Owner(s) {
				t.Fatalf("shard %d ownership drifted for vertex %d", sid, s)
			}
		}
	}
}

// Every corrupted byte must be caught by framing or validation — a
// flipped bit in a routing table silently misroutes a whole region.
func TestCorruptFilesRejected(t *testing.T) {
	_, _, _, sp := quickCut(t, 9, 2)
	dir := t.TempDir()

	mapPath := filepath.Join(dir, "map.rnemap")
	if err := sp.Map.SaveMapFile(mapPath); err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "shard.rne")
	if err := sp.Shards[0].SaveFile(modelPath); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		path string
		load func(string) error
	}{
		{mapPath, func(p string) error { _, err := LoadMapFile(p); return err }},
		{modelPath, func(p string) error { _, err := LoadModelFile(p); return err }},
	} {
		raw, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one byte in the middle of the payload.
		bad := append([]byte(nil), raw...)
		bad[len(bad)/2] ^= 0xff
		badPath := tc.path + ".bad"
		if err := os.WriteFile(badPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := tc.load(badPath); err == nil {
			t.Fatalf("%s: corrupt file loaded cleanly", filepath.Base(tc.path))
		}
		// Truncation must fail too.
		if err := os.WriteFile(badPath, raw[:len(raw)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := tc.load(badPath); err == nil {
			t.Fatalf("%s: truncated file loaded cleanly", filepath.Base(tc.path))
		}
		// So must a byte after the checksum trailer.
		if err := os.WriteFile(badPath, append(raw, 0), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := tc.load(badPath); err == nil {
			t.Fatalf("%s: file with trailing bytes loaded cleanly", filepath.Base(tc.path))
		}
	}
}
