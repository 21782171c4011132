package alt

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestIndexRoundTrip(t *testing.T) {
	g := testGraph(t)
	idx, err := Build(g, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "alt.idx")
	if err := idx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumVertices() != g.NumVertices() || loaded.NumLandmarks() != idx.NumLandmarks() {
		t.Fatalf("loaded index is %d vertices x %d landmarks, want %d x %d",
			loaded.NumVertices(), loaded.NumLandmarks(), g.NumVertices(), idx.NumLandmarks())
	}
	// Estimation queries agree exactly on the graph-free loaded index.
	rng := rand.New(rand.NewSource(6))
	n := g.NumVertices()
	for trial := 0; trial < 200; trial++ {
		s, u := int32(rng.Intn(n)), int32(rng.Intn(n))
		lo1, hi1 := idx.Bounds(s, u)
		lo2, hi2 := loaded.Bounds(s, u)
		if lo1 != lo2 || hi1 != hi2 {
			t.Fatalf("(%d,%d): bounds [%v,%v] != loaded [%v,%v]", s, u, lo1, hi1, lo2, hi2)
		}
		if idx.Estimate(s, u) != loaded.Estimate(s, u) {
			t.Fatalf("(%d,%d): estimate mismatch after reload", s, u)
		}
	}
}

func TestIndexLoadRejectsCorruption(t *testing.T) {
	g := testGraph(t)
	idx, err := Build(g, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "alt.idx")
	if err := idx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func([]byte) []byte{
		"bad magic":     func(b []byte) []byte { c := append([]byte(nil), b...); c[0] ^= 0xff; return c },
		"flipped label": func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-40] ^= 0x01; return c },
		"truncated":     func(b []byte) []byte { return b[:len(b)-16] },
		"empty":         func(b []byte) []byte { return nil },
		"only magic":    func(b []byte) []byte { return b[:len(altMagic)] },
		"bad trailer":   func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-1] ^= 0xff; return c },
		"length tampered": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(altMagic)] ^= 0x01
			return c
		},
	}
	for name, corrupt := range cases {
		p := filepath.Join(dir, "bad.idx")
		if err := os.WriteFile(p, corrupt(good), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(p); err == nil {
			t.Errorf("%s: corrupted index loaded without error", name)
		}
	}
}
