package registry

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/alt"
	"repro/internal/shard"
)

// publishSharded cuts a fresh model at level 1 into two shards and
// publishes it with the full model alongside.
func publishSharded(t *testing.T, s *Store, seed int64) *shard.Split {
	t.Helper()
	g, m := quickBuild(t, seed)
	lt, err := alt.Build(g, 8, seed)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := shard.Cut(m, lt, shard.Config{CutLevel: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish("demo", Artifacts{Model: m, ALT: lt, Shards: sp}); err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestPublishAndLoadShard(t *testing.T) {
	s := openStore(t)
	sp := publishSharded(t, s, 1)

	for k := 0; k < 2; k++ {
		set, err := s.LoadShard("demo", "v1", k)
		if err != nil {
			t.Fatal(err)
		}
		if set.Shard == nil || set.ShardMap == nil {
			t.Fatalf("shard %d load missing artifacts: %+v", k, set)
		}
		if set.Shard.ShardID() != k || set.Shard.NumShards() != 2 {
			t.Fatalf("shard %d identity wrong: %d/%d", k, set.Shard.ShardID(), set.Shard.NumShards())
		}
		if set.ALT == nil {
			t.Fatalf("shard %d region guard missing", k)
		}
		if set.ALT.NumLandmarks() != sp.Guards[k].NumLandmarks() {
			t.Fatalf("shard %d guard has %d landmarks, published %d",
				k, set.ALT.NumLandmarks(), sp.Guards[k].NumLandmarks())
		}
		// Loaded shard answers identically to the in-memory cut.
		n := int32(set.Shard.NumVertices())
		for v := int32(0); v < n; v++ {
			if set.Shard.Owns(v) != sp.Shards[k].Owns(v) {
				t.Fatalf("shard %d ownership drifted for vertex %d", k, v)
			}
		}
	}
	// The same version still loads as a full model for unsharded replicas.
	full, err := s.LoadLatest("demo", LoadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Model == nil {
		t.Fatal("sharded version lost its full model")
	}

	if _, err := s.LoadShard("demo", "v1", 7); err == nil {
		t.Fatal("shard id past topology accepted")
	}
}

func TestLoadShardOnUnshardedVersion(t *testing.T) {
	s := openStore(t)
	_, m := quickBuild(t, 1)
	if _, err := s.Publish("demo", Artifacts{Model: m}); err != nil {
		t.Fatal(err)
	}
	_, err := s.LoadShard("demo", "v1", 0)
	if err == nil || !strings.Contains(err.Error(), "not a sharded version") {
		t.Fatalf("want 'not a sharded version' error, got %v", err)
	}
}

// A corrupt shard map (or shard model) must quarantine the version and
// fall back to the previous sharded one, exactly like full-model loads.
func TestCorruptShardMapQuarantinedWithFallback(t *testing.T) {
	s := openStore(t)
	publishSharded(t, s, 1)
	publishSharded(t, s, 2)

	victim := filepath.Join(s.Path("demo", "v2"), ShardMapFile)
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	set, err := s.LoadLatestShard("demo", 0)
	if err != nil {
		t.Fatal(err)
	}
	if set.Version != "v1" {
		t.Fatalf("fallback loaded %s, want v1", set.Version)
	}
	vs, err := s.Versions("demo")
	if err != nil {
		t.Fatal(err)
	}
	if !vs[1].Quarantined {
		t.Fatalf("v2 not quarantined: %+v", vs)
	}
}

func TestCorruptShardModelQuarantinedWithFallback(t *testing.T) {
	s := openStore(t)
	publishSharded(t, s, 1)
	publishSharded(t, s, 2)

	victim := filepath.Join(s.Path("demo", "v2"), ShardModelFile(1))
	info, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	set, err := s.LoadLatestShard("demo", 1)
	if err != nil {
		t.Fatal(err)
	}
	if set.Version != "v1" || set.Shard.ShardID() != 1 {
		t.Fatalf("fallback loaded %s shard %d, want v1 shard 1", set.Version, set.Shard.ShardID())
	}
}

func TestLoadLatestShardAllCorruptFails(t *testing.T) {
	s := openStore(t)
	publishSharded(t, s, 1)
	if err := os.Truncate(filepath.Join(s.Path("demo", "v1"), ShardMapFile), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadLatestShard("demo", 0); err == nil {
		t.Fatal("load succeeded with every sharded version corrupt")
	}
}

// A shard request a version cannot answer is the caller's mismatch,
// not corruption: it fails with ErrNoShard and quarantines nothing, so
// a typo'd shard id or a shard replica reloading onto an unsharded
// version (what autoheal publishes) never takes a good version away
// from the replicas that can serve it.
func TestShardRequestNeverQuarantines(t *testing.T) {
	requireNone := func(t *testing.T, s *Store) {
		t.Helper()
		vs, err := s.Versions("demo")
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			if v.Quarantined {
				t.Fatalf("%s quarantined by a shard request it cannot answer: %+v", v.Version, vs)
			}
		}
	}
	requireLatest := func(t *testing.T, s *Store, want string) {
		t.Helper()
		set, err := s.LoadLatest("demo", LoadOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if set.Version != want {
			t.Fatalf("LoadLatest = %s, want %s", set.Version, want)
		}
	}

	t.Run("unsharded", func(t *testing.T) {
		s := openStore(t)
		_, m := quickBuild(t, 1)
		if _, err := s.Publish("demo", Artifacts{Model: m}); err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, -1} {
			if _, err := s.LoadLatestShard("demo", k); !errors.Is(err, ErrNoShard) {
				t.Fatalf("LoadLatestShard(%d) on an unsharded version = %v, want ErrNoShard", k, err)
			}
			requireNone(t, s)
		}
		requireLatest(t, s, "v1")
	})

	t.Run("past the shard count", func(t *testing.T) {
		s := openStore(t)
		publishSharded(t, s, 1)
		publishSharded(t, s, 2)
		for _, k := range []int{5, -1} {
			if _, err := s.LoadLatestShard("demo", k); !errors.Is(err, ErrNoShard) {
				t.Fatalf("LoadLatestShard(%d) on 2-shard versions = %v, want ErrNoShard", k, err)
			}
			requireNone(t, s)
		}
		set, err := s.LoadLatestShard("demo", 0)
		if err != nil {
			t.Fatal(err)
		}
		if set.Version != "v2" || set.Shard.ShardID() != 0 {
			t.Fatalf("LoadLatestShard(0) = %s shard %d, want v2 shard 0", set.Version, set.Shard.ShardID())
		}
		requireLatest(t, s, "v2")
	})
}
