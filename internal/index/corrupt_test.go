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
// encoding is pinned.
func pinTree(m *core.Model) *Tree {
	return &Tree{model: m, p: 1, scale: 3,
		children: [][]int32{{1}, nil},
		vectors:  [][]float64{{0.5, -1}, {2, 0.25}},
		radius:   []float64{1.5, 0},
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
	"000000000000f83f0000000000000000" + // radii 1.5, 0
	"a1003bd6" // CRC-32

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
// exactly the same bytes.
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
