package index

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// buildSmallTree returns a tree over a few targets plus its serialized
// bytes, shared by the corruption tests.
func buildSmallTree(t testing.TB) (*core.Model, *Tree, []byte) {
	t.Helper()
	m := buildModel(t)
	tree, err := Build(m, []int32{0, 3, 7, 11, 19, 42, 77, 101})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return m, tree, buf.Bytes()
}

func TestTreeLoadRejectsAllTruncations(t *testing.T) {
	m, _, raw := buildSmallTree(t)
	for cut := 0; cut < len(raw); cut++ {
		if tr, err := Load(bytes.NewReader(raw[:cut]), m); err == nil || tr != nil {
			t.Fatalf("truncation at byte %d/%d loaded successfully", cut, len(raw))
		}
	}
}

func TestTreeLoadRejectsPayloadFlip(t *testing.T) {
	m, _, raw := buildSmallTree(t)
	// Every bit of every header byte (magic, payload length, the six
	// header counts and the metric), of one vector byte deep in the
	// payload and of one trailer byte must be caught.
	at := []int{len(raw) / 2, len(raw) - 2}
	for i := 0; i < len(treeMagic)+8+6*8+16; i++ {
		at = append(at, i)
	}
	for _, i := range at {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), raw...)
			mut[i] ^= 1 << bit
			if tr, err := Load(bytes.NewReader(mut), m); err == nil || tr != nil {
				t.Fatalf("flip of bit %d at byte %d/%d loaded successfully", bit, i, len(raw))
			}
		}
	}
}

// dimAt is the offset of the vector dimension in a saved tree: magic,
// payload length, slot count.
const dimAt = len(treeMagic) + 8 + 8

// resign recomputes a saved tree's checksum trailer over its payload,
// so an edited payload reaches the parser instead of failing the
// checksum.
func resign(raw []byte) []byte {
	raw = append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[len(treeMagic)+8:len(raw)-4]))
	return raw
}

// negativeDim is a saved tree whose vector dimension reads -1 behind a
// valid checksum: Load must reject it before sizing any vector.
func negativeDim(raw []byte) []byte {
	mut := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(mut[dimAt:], math.MaxUint64)
	return resign(mut)
}

func TestTreeLoadRejectsGarbage(t *testing.T) {
	m, _, raw := buildSmallTree(t)
	legacy := append([]byte(nil), raw...)
	copy(legacy, "RNEIDX1\n")
	cases := map[string]struct {
		raw  []byte
		want string
	}{
		"empty":                 {nil, "magic"},
		"wrong magic":           {[]byte("NOTATREE\x00\x00\x00\x00"), "bad tree magic"},
		"legacy RNEIDX1 magic":  {legacy, "bad tree magic"},
		"vector dimension -1":   {negativeDim(raw), "dimension -1"},
		"trailing bytes":        {append(append([]byte(nil), raw...), 0), "past its checksum trailer"},
		"absurd payload length": {append([]byte("RNEIDX2\n"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), "checksum trailer"},
	}
	for name, c := range cases {
		tr, err := Load(bytes.NewReader(c.raw), m)
		if err == nil || tr != nil {
			t.Fatalf("%s: loaded successfully", name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", name, err, c.want)
		}
	}
}

// pinModelHex is the hand-built 2 x 2 model pinTree indexes, in the
// model format: p = 1, scale = 3, rows (0.5, -1) and (2, 0.25).
const pinModelHex = "524e454d4f44454c330a4600000000000000000000000000f03f0000000000000840" +
	"524e454d310a02000000000000000200000000000000" +
	"000000000000e03f000000000000f0bf0000000000000040000000000000d03f82e39744"

// pinTree is a hand-built two-slot tree over both vertices of m whose
// encoding is pinned. Each vertex lies 8.25 from the other slot's
// center, so both radii are 8.25.
func pinTree(m *core.Model) *Tree {
	return &Tree{model: m, p: 1, scale: 3,
		children: [][]int32{{1}, nil},
		vectors:  [][]float64{{0.5, -1}, {2, 0.25}},
		radius:   []float64{8.25, 8.25},
		verts:    [][]int32{nil, {0, 1}},
		root:     0, size: 2}
}

// treePin is pinTree as saved by every RNEIDX2 writer so far.
const treePin = "" +
	"524e45494458320a" + // RNEIDX2\n
	"9c00000000000000" + // payload length 156
	"0200000000000000" + "0200000000000000" + // 2 slots, dim 2
	"0000000000000000" + "0200000000000000" + // root 0, 2 targets
	"0200000000000000" + "0200000000000000" + // model 2 x 2
	"000000000000f03f0000000000000840" + // p = 1, scale = 3
	"010000000000000001000000" + // children: [1]
	"0000000000000000" + // children: []
	"0000000000000000" + // verts: []
	"02000000000000000000000001000000" + // verts: [0 1]
	"000000000000e03f000000000000f0bf0000000000000040000000000000d03f" + // vectors (0.5, -1), (2, 0.25)
	"00000000008020400000000000802040" + // radii 8.25, 8.25
	"35886bc0" // CRC-32

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// pinModel loads the model pinTree indexes.
func pinModel(t testing.TB) *core.Model {
	t.Helper()
	m, err := core.Load(bytes.NewReader(mustHex(t, pinModelHex)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The encoding is pinned, so every spatial index already stored keeps
// loading.
func TestTreeFormatPinned(t *testing.T) {
	m, pin := pinModel(t), mustHex(t, treePin)
	var buf bytes.Buffer
	if err := pinTree(m).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), pin) {
		t.Fatalf("tree encoding drifted:\n got %x\nwant %x", buf.Bytes(), pin)
	}
	got, err := Load(bytes.NewReader(pin), m)
	if err != nil {
		t.Fatal(err)
	}
	if nn := got.KNN(0, 2); got.Size() != 2 || len(nn) != 2 || nn[0] != 0 || nn[1] != 1 {
		t.Fatalf("loaded tree of %d targets, 2-NN of vertex 0 = %v", got.Size(), nn)
	}
}

// Offsets of fields in treePin that the broken-tree cases edit.
const (
	pinRootAt   = len(treeMagic) + 8 + 2*8
	pinPAt      = len(treeMagic) + 8 + 6*8
	pinSizeAt   = pinRootAt + 8
	pinChildAt  = len(treeMagic) + 8 + 6*8 + 16 + 8 // slot 0's one child
	pinVertAt   = pinChildAt + 4 + 2*8 + 8 + 4      // slot 1's second target
	pinRadiusAt = pinVertAt + 4 + 4*8               // slot 0's radius
)

// patched is treePin with the 8 or 4 bytes at off set to v, re-signed.
func patched(t *testing.T, off int, v uint64, width int) []byte {
	t.Helper()
	raw := mustHex(t, treePin)
	if width == 4 {
		binary.LittleEndian.PutUint32(raw[off:], uint32(v))
	} else {
		binary.LittleEndian.PutUint64(raw[off:], v)
	}
	return resign(raw)
}

// saved is tr as Save writes it.
func saved(t *testing.T, tr *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A metric order below 1, a slot graph that is not a tree, a target
// listed twice, a size that miscounts the targets and a radius that
// breaks pruning (negative, NaN, or too small to cover a target beneath
// its slot) are refused, each with an error naming the fault.
func TestTreeLoadRejectsBrokenTrees(t *testing.T) {
	m := pinModel(t)
	selfChild := pinTree(m)
	selfChild.children[1] = []int32{1}
	orphan := pinTree(m)
	orphan.children = append(orphan.children, nil)
	orphan.verts = append(orphan.verts, nil)
	orphan.vectors = append(orphan.vectors, []float64{0, 0})
	orphan.radius = append(orphan.radius, 0)
	for name, c := range map[string]struct {
		raw  []byte
		want string
	}{
		"slot 1 lists itself":    {saved(t, selfChild), "slot 1 is reached twice"},
		"root lists itself":      {patched(t, pinChildAt, 0, 4), "slot 0 is reached twice"},
		"slot 2 has no parent":   {saved(t, orphan), "slot 2 is not reachable from root 0"},
		"root is the leaf":       {patched(t, pinRootAt, 1, 8), "slot 0 is not reachable from root 1"},
		"target listed twice":    {patched(t, pinVertAt, 0, 4), "target 0 is listed twice"},
		"size over the targets":  {patched(t, pinSizeAt, 3, 8), "declares 3 targets, the slots list 2"},
		"size under the targets": {patched(t, pinSizeAt, 1, 8), "declares 1 targets, the slots list 2"},
		"negative radius":        {patched(t, pinRadiusAt+8, math.Float64bits(-1), 8), "slot 1 has radius -1"},
		"NaN radius":             {patched(t, pinRadiusAt, math.Float64bits(math.NaN()), 8), "slot 0 has radius NaN"},
		"radius too small":       {patched(t, pinRadiusAt+8, math.Float64bits(8), 8), "slot 1's radius 8 does not cover target 0 at 8.25"},
		"root radius too small":  {patched(t, pinRadiusAt, math.Float64bits(8.2), 8), "slot 0's radius 8.2 does not cover target 1 at 8.25"},
		"metric p below 1":       {patched(t, pinPAt, math.Float64bits(0.5), 8), "p = 0.5"},
	} {
		tr, err := Load(bytes.NewReader(c.raw), m)
		if err == nil || tr != nil {
			t.Errorf("%s: loaded", name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", name, err, c.want)
		}
	}
}

// Build indexes a target listed twice once, so its tree loads back.
func TestBuildCountsDistinctTargets(t *testing.T) {
	m := buildModel(t)
	tree, err := Build(m, []int32{3, 7, 3})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() != 2 {
		t.Fatalf("Size() = %d, want 2", tree.Size())
	}
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, m); err != nil {
		t.Fatal(err)
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Headers declaring far more than the file holds are rejected having
// allocated under 1 MiB.
func TestCraftedHeadersFailSmall(t *testing.T) {
	m := pinModel(t)
	slots := mustHex(t, treePin)
	binary.LittleEndian.PutUint64(slots[len(treeMagic)+8:], 1<<31)
	for name, raw := range map[string][]byte{
		"2^31 slots":           resign(slots),
		"2^63-1 payload bytes": append([]byte(treeMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
	} {
		var err error
		if b := allocated(func() { _, err = Load(bytes.NewReader(raw), m) }); err == nil || b >= 1<<20 {
			t.Errorf("%s: error %v after %d bytes allocated", name, err, b)
		}
	}
}

// FuzzTreeLoad feeds arbitrary bytes to Load against one fixed small
// model, as they are and re-signed so they get past the checksum: no
// input may panic, and any input Load accepts must save back to
// exactly the same bytes and answer queries over all of its targets:
// KNN(0, Size()) returns Size() distinct ids, and Range(0, +Inf) the
// same set. Its kNN answers must also be exact: from two sources and
// every k up to Size(), the targets sorted by (Model.Estimate, id).
func FuzzTreeLoad(f *testing.F) {
	m, _, raw := buildSmallTree(f)
	f.Add(raw)
	f.Add(negativeDim(raw))
	f.Fuzz(func(t *testing.T, raw []byte) {
		inputs := [][]byte{raw}
		if len(raw) >= len(treeMagic)+8+4 {
			inputs = append(inputs, resign(raw))
		}
		for _, in := range inputs {
			tr, err := Load(bytes.NewReader(in), m)
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			if err := tr.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), in) {
				t.Fatalf("accepted %d bytes but saved %d different ones", len(in), buf.Len())
			}
			nn := tr.KNN(0, tr.Size())
			all := tr.Range(0, math.Inf(1))
			if len(nn) != tr.Size() || len(all) != tr.Size() {
				t.Fatalf("%d targets: KNN returned %d, Range %d", tr.Size(), len(nn), len(all))
			}
			slices.Sort(nn)
			for i := range nn {
				if nn[i] != all[i] || (i > 0 && nn[i] == nn[i-1]) {
					t.Fatalf("KNN's targets %v, Range's %v", nn, all)
				}
			}
			targets := targetsOf(tr)
			for _, src := range []int32{0, int32(m.NumVertices() - 1)} {
				want := bruteHits(m, targets, src)
				for k := 1; k <= tr.Size(); k++ {
					checkKNN(t, tr, m, src, k, want)
				}
			}
		}
	})
}

func TestTreeSaveFileAtomic(t *testing.T) {
	m, tree, _ := buildSmallTree(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.idx")
	if err := tree.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := tree.SaveFile(path); err != nil { // overwrite path
		t.Fatal(err)
	}
	got, err := LoadFile(path, m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != tree.Size() {
		t.Fatalf("size %d, want %d", got.Size(), tree.Size())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files leaked: %d entries", len(entries))
	}
}
