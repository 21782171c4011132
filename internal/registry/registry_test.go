package registry

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/alt"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fsx"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/index"
)

// quickBuild trains a small but real model so published artifacts carry
// genuine CRC framing end to end.
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

// quickALT builds a small ALT guard over g.
func quickALT(t *testing.T, g *graph.Graph) *alt.Index {
	t.Helper()
	lt, err := alt.Build(g, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return lt
}

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPublishAndLoadLatest(t *testing.T) {
	s := openStore(t)
	_, m1 := quickBuild(t, 1)
	_, m2 := quickBuild(t, 2)

	v1, err := s.Publish("demo", Artifacts{Model: m1})
	if err != nil {
		t.Fatal(err)
	}
	if v1 != "v1" {
		t.Fatalf("first publish = %s, want v1", v1)
	}
	v2, err := s.Publish("demo", Artifacts{Model: m2})
	if err != nil {
		t.Fatal(err)
	}
	if v2 != "v2" {
		t.Fatalf("second publish = %s, want v2", v2)
	}

	latest, err := s.Latest("demo")
	if err != nil || latest != "v2" {
		t.Fatalf("Latest = %s, %v; want v2", latest, err)
	}
	set, err := s.LoadLatest("demo", LoadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if set.Version != "v2" || set.Model == nil {
		t.Fatalf("loaded %+v", set)
	}
	if set.Model.Scale() != m2.Scale() {
		t.Fatalf("loaded scale %v, want %v", set.Model.Scale(), m2.Scale())
	}
	if got := set.Model.Estimate(0, 5); got != m2.Estimate(0, 5) {
		t.Fatalf("loaded estimate %v, want %v", got, m2.Estimate(0, 5))
	}

	vs, err := s.Versions("demo")
	if err != nil || len(vs) != 2 {
		t.Fatalf("Versions = %v, %v", vs, err)
	}
	if vs[0].Version != "v1" || vs[1].Version != "v2" {
		t.Fatalf("version order wrong: %v", vs)
	}
}

func TestPublishSiblings(t *testing.T) {
	s := openStore(t)
	g, m := quickBuild(t, 3)
	lt, err := alt.Build(g, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(m, []int32{0, 2, 4, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish("demo", Artifacts{Model: m, ALT: lt, Index: idx}); err != nil {
		t.Fatal(err)
	}

	full, err := s.LoadLatest("demo", LoadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Model == nil || full.ALT == nil || full.Index == nil {
		t.Fatalf("full load missing artifacts: %+v", full)
	}
	if full.ALT.NumLandmarks() != 4 || full.Index.Size() != 5 {
		t.Fatalf("siblings wrong: landmarks=%d targets=%d", full.ALT.NumLandmarks(), full.Index.Size())
	}
}

// TestLegacyCompactSiblingStillLoads pins registries published before
// the float32 compact sibling was dropped: a version with
// model.compact.rne on disk and in its manifest entry still loads, and
// GC still removes it as a whole directory.
func TestLegacyCompactSiblingStillLoads(t *testing.T) {
	s := openStore(t)
	_, m1 := quickBuild(t, 1)
	_, m2 := quickBuild(t, 2)
	if _, err := s.Publish("demo", Artifacts{Model: m1}); err != nil {
		t.Fatal(err)
	}
	const legacyFile = "model.compact.rne"
	if err := os.WriteFile(filepath.Join(s.Path("demo", "v1"), legacyFile), []byte("float32 sibling, never read"), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := s.readManifest("demo")
	if err != nil {
		t.Fatal(err)
	}
	man.Versions[0].Files = append(man.Versions[0].Files, legacyFile)
	if err := s.writeManifest("demo", man); err != nil {
		t.Fatal(err)
	}

	latest, err := s.LoadLatest("demo", LoadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	byVersion, err := s.LoadVersion("demo", "v1", LoadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []*Set{latest, byVersion} {
		if set.Version != "v1" || set.Model.Estimate(0, 5) != m1.Estimate(0, 5) {
			t.Fatalf("legacy version loaded as %s with estimate %v, want v1 with %v",
				set.Version, set.Model.Estimate(0, 5), m1.Estimate(0, 5))
		}
	}

	if _, err := s.Publish("demo", Artifacts{Model: m2}); err != nil {
		t.Fatal(err)
	}
	removed, err := s.GC("demo", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != "v1" {
		t.Fatalf("GC removed %v, want [v1]", removed)
	}
	if _, err := os.Stat(s.Path("demo", "v1")); !os.IsNotExist(err) {
		t.Fatal("legacy v1 directory survived GC")
	}
}

func TestPinResolution(t *testing.T) {
	s := openStore(t)
	_, m1 := quickBuild(t, 1)
	_, m2 := quickBuild(t, 2)
	if _, err := s.Publish("demo", Artifacts{Model: m1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish("demo", Artifacts{Model: m2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin("demo", "v1"); err != nil {
		t.Fatal(err)
	}
	if latest, _ := s.Latest("demo"); latest != "v1" {
		t.Fatalf("pinned Latest = %s, want v1", latest)
	}
	set, err := s.LoadLatest("demo", LoadOpts{})
	if err != nil || set.Version != "v1" {
		t.Fatalf("pinned load = %+v, %v", set, err)
	}
	if err := s.Unpin("demo"); err != nil {
		t.Fatal(err)
	}
	if latest, _ := s.Latest("demo"); latest != "v2" {
		t.Fatalf("unpinned Latest = %s, want v2", latest)
	}
	if err := s.Pin("demo", "v9"); err == nil {
		t.Fatal("pinned a version that does not exist")
	}
}

// TestCorruptLatestQuarantinedWithFallback is the torn-write drill: the
// newest version's model is truncated, or well framed behind a matrix
// header claiming 2^31 x 2^20 rows, or its ALT guard is replaced by a
// 32-byte header declaring 2^40 vertices. Each way loading fails
// without taking the process down, the version is quarantined and
// loading falls back to the older good one.
func TestCorruptLatestQuarantinedWithFallback(t *testing.T) {
	for name, c := range map[string]struct {
		file    string
		corrupt func(raw []byte) []byte
	}{
		"truncated": {ModelFile, func(raw []byte) []byte { return raw[:len(raw)/2] }},
		"2^31 x 2^20 matrix header": {ModelFile, func(raw []byte) []byte {
			// Model magic and payload length (18 bytes), then p and scale
			// (16) and the matrix magic (6): the row count and dimension.
			const payloadAt, rowsAt = 18, 40
			binary.LittleEndian.PutUint64(raw[rowsAt:], 1<<31)
			binary.LittleEndian.PutUint64(raw[rowsAt+8:], 1<<20)
			binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[payloadAt:len(raw)-4]))
			return raw
		}},
		"2^40 vertex ALT header": {ALTFile, func(raw []byte) []byte {
			// ALT magic (8 bytes), then the payload length that 2^40
			// vertices under one landmark imply, and the {n, |U|} header.
			const n = 1 << 40
			raw = binary.LittleEndian.AppendUint64(raw[:8], 2*8+4+n*8)
			raw = binary.LittleEndian.AppendUint64(raw, n)
			return binary.LittleEndian.AppendUint64(raw, 1)
		}},
	} {
		t.Run(name, func(t *testing.T) {
			s := openStore(t)
			g1, m1 := quickBuild(t, 1)
			g2, m2 := quickBuild(t, 2)
			if _, err := s.Publish("demo", Artifacts{Model: m1, ALT: quickALT(t, g1)}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Publish("demo", Artifacts{Model: m2, ALT: quickALT(t, g2)}); err != nil {
				t.Fatal(err)
			}

			victim := filepath.Join(s.Path("demo", "v2"), c.file)
			raw, err := os.ReadFile(victim)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(victim, c.corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			set, err := s.LoadLatest("demo", LoadOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if set.Version != "v1" {
				t.Fatalf("fallback loaded %s, want v1", set.Version)
			}
			if set.Model.Scale() != m1.Scale() {
				t.Fatal("fallback did not load the v1 artifacts")
			}

			vs, err := s.Versions("demo")
			if err != nil {
				t.Fatal(err)
			}
			if !vs[1].Quarantined {
				t.Fatalf("v2 not marked quarantined: %+v", vs)
			}
			if _, err := os.Stat(s.Path("demo", "v2") + quarantineSuffix); err != nil {
				t.Fatalf("quarantine directory missing: %v", err)
			}
			if latest, _ := s.Latest("demo"); latest != "v1" {
				t.Fatalf("Latest after quarantine = %s, want v1", latest)
			}

			// Version numbers are never reused: the next publish is v3.
			_, m3 := quickBuild(t, 5)
			v, err := s.Publish("demo", Artifacts{Model: m3})
			if err != nil || v != "v3" {
				t.Fatalf("publish after quarantine = %s, %v; want v3", v, err)
			}
		})
	}
}

func TestEveryVersionCorruptFailsWithContext(t *testing.T) {
	s := openStore(t)
	_, m := quickBuild(t, 1)
	if _, err := s.Publish("demo", Artifacts{Model: m}); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(s.Path("demo", "v1"), ModelFile), 10); err != nil {
		t.Fatal(err)
	}
	_, err := s.LoadLatest("demo", LoadOpts{})
	if err == nil {
		t.Fatal("load succeeded with every version corrupt")
	}
	if !strings.Contains(err.Error(), "no usable versions") {
		t.Fatalf("error lacks resolution context: %v", err)
	}
}

// TestPublishTornByFaultInjectionNeverSurfaces arms the fsx failpoint so
// the publish's model write dies mid-flight; the failed version must not
// appear in the manifest, leave no staging litter, and not perturb
// Latest or subsequent version numbering.
func TestPublishTornByFaultInjectionNeverSurfaces(t *testing.T) {
	s := openStore(t)
	_, m1 := quickBuild(t, 1)
	_, m2 := quickBuild(t, 2)
	if _, err := s.Publish("demo", Artifacts{Model: m1}); err != nil {
		t.Fatal(err)
	}

	defer faultinject.Reset()
	faultinject.Enable(fsx.FailpointWriteAtomic, faultinject.Fault{})
	if _, err := s.Publish("demo", Artifacts{Model: m2}); err == nil {
		t.Fatal("publish succeeded under an injected write failure")
	}
	faultinject.Reset()

	if latest, err := s.Latest("demo"); err != nil || latest != "v1" {
		t.Fatalf("Latest after failed publish = %s, %v; want v1", latest, err)
	}
	entries, err := os.ReadDir(s.Dir("demo"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".staging-") {
			t.Fatalf("staging litter left behind: %s", e.Name())
		}
	}
	// The slot freed by the failed publish is reused cleanly.
	if v, err := s.Publish("demo", Artifacts{Model: m2}); err != nil || v != "v2" {
		t.Fatalf("publish after recovery = %s, %v; want v2", v, err)
	}
	if set, err := s.LoadLatest("demo", LoadOpts{}); err != nil || set.Version != "v2" {
		t.Fatalf("load after recovery = %+v, %v", set, err)
	}
}

func TestGCRetention(t *testing.T) {
	s := openStore(t)
	for seed := int64(1); seed <= 4; seed++ {
		_, m := quickBuild(t, seed)
		if _, err := s.Publish("demo", Artifacts{Model: m}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Pin("demo", "v2"); err != nil {
		t.Fatal(err)
	}
	removed, err := s.GC("demo", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != "v1" {
		t.Fatalf("GC removed %v, want [v1]", removed)
	}
	if _, err := os.Stat(s.Path("demo", "v1")); !os.IsNotExist(err) {
		t.Fatal("v1 directory survived GC")
	}
	vs, _ := s.Versions("demo")
	if len(vs) != 3 {
		t.Fatalf("manifest after GC: %v", vs)
	}
	// The pin survives GC even though it is older than the keep window.
	if set, err := s.LoadLatest("demo", LoadOpts{}); err != nil || set.Version != "v2" {
		t.Fatalf("pinned load after GC = %+v, %v", set, err)
	}
}

func TestGCRemovesQuarantinedDirs(t *testing.T) {
	s := openStore(t)
	_, m1 := quickBuild(t, 1)
	_, m2 := quickBuild(t, 2)
	if _, err := s.Publish("demo", Artifacts{Model: m1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish("demo", Artifacts{Model: m2}); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(s.Path("demo", "v2"), ModelFile), 8); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadLatest("demo", LoadOpts{}); err != nil {
		t.Fatal(err)
	}
	removed, err := s.GC("demo", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != "v2" {
		t.Fatalf("GC removed %v, want quarantined v2", removed)
	}
	if _, err := os.Stat(s.Path("demo", "v2") + quarantineSuffix); !os.IsNotExist(err) {
		t.Fatal("quarantined directory survived GC")
	}
}

// TestGCNeverDeletesPinnedOrServing hammers GC against concurrent
// Publish and pinned-version loads (run it under -race): whatever the
// interleaving, retention must never delete the pinned version or the
// newest good version — the two a fleet may be serving from.
func TestGCNeverDeletesPinnedOrServing(t *testing.T) {
	s := openStore(t)
	_, m := quickBuild(t, 9)
	if _, err := s.Publish("race", Artifacts{Model: m}); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin("race", "v1"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // retention hammer: keep only the newest good version
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.GC("race", 1); err != nil {
				t.Error("GC:", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // the pin must stay loadable through every interleaving
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.LoadVersion("race", "v1", LoadOpts{}); err != nil {
				t.Error("pinned version vanished mid-GC:", err)
				return
			}
		}
	}()
	for i := 0; i < 8; i++ {
		if _, err := s.Publish("race", Artifacts{Model: m}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Resolution honors the pin, and its artifacts must still load.
	set, err := s.LoadLatest("race", LoadOpts{})
	if err != nil {
		t.Fatalf("pinned version unloadable after GC storm: %v", err)
	}
	if set.Version != "v1" {
		t.Fatalf("resolution ignored the pin: got %s", set.Version)
	}
	// Retention also keeps the newest good version alongside the pin.
	vs, err := s.Versions("race")
	if err != nil {
		t.Fatal(err)
	}
	pinned, newest := false, ""
	for _, v := range vs {
		if v.Version == "v1" {
			pinned = true
		} else {
			newest = v.Version
		}
	}
	if !pinned {
		t.Fatal("GC deleted the pinned version from the manifest")
	}
	if newest == "" {
		t.Fatalf("GC kept no version beyond the pin: %v", vs)
	}
	if _, err := s.LoadVersion("race", newest, LoadOpts{}); err != nil {
		t.Fatalf("newest good version %s gone after GC storm: %v", newest, err)
	}
}

func TestInvalidNamesRejected(t *testing.T) {
	s := openStore(t)
	for _, name := range []string{"", "../escape", "a/b", ".hidden"} {
		if _, err := s.Publish(name, Artifacts{}); err == nil {
			t.Fatalf("accepted model name %q", name)
		}
		if _, err := s.Latest(name); err == nil {
			t.Fatalf("resolved model name %q", name)
		}
	}
}
