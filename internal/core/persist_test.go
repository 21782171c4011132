package core

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

	"repro/internal/emb"
)

// tinyModel builds a small model directly (no training) so persistence
// tests are fast and every byte of the file is exercised.
func tinyModel(t testing.TB) *Model {
	t.Helper()
	mat := emb.NewMatrix(5, 3)
	mat.RandomInit(newRng(7), 0.5)
	return &Model{m: mat, p: 1, scale: 123.5}
}

func saveBytes(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func modelsEqual(t *testing.T, a, b *Model) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.Dim() != b.Dim() ||
		a.P() != b.P() || a.Scale() != b.Scale() {
		t.Fatalf("shape mismatch: %dx%d p=%v scale=%v vs %dx%d p=%v scale=%v",
			a.NumVertices(), a.Dim(), a.P(), a.Scale(),
			b.NumVertices(), b.Dim(), b.P(), b.Scale())
	}
	for s := int32(0); s < int32(a.NumVertices()); s++ {
		for u := int32(0); u < int32(a.NumVertices()); u++ {
			if da, db := a.Estimate(s, u), b.Estimate(s, u); math.Abs(da-db) > 0 {
				t.Fatalf("estimate(%d,%d): %v vs %v", s, u, da, db)
			}
		}
	}
}

// pinModel is a hand-built 2 x 2 model whose encoding is pinned.
func pinModel() *Model {
	mat := emb.NewMatrix(2, 2)
	copy(mat.Data(), []float64{0.5, -1, 2, 0.25})
	return &Model{m: mat, p: 1, scale: 3}
}

// modelPin is pinModel as saved by every RNEMODEL3 writer so far.
const modelPin = "" +
	"524e454d4f44454c330a" + // RNEMODEL3\n
	"4600000000000000" + // payload length 70
	"000000000000f03f0000000000000840" + // p = 1, scale = 3
	"524e454d310a" + // RNEM1\n
	"02000000000000000200000000000000" + // 2 x 2
	"000000000000e03f000000000000f0bf0000000000000040000000000000d03f" + // 0.5, -1, 2, 0.25
	"82e39744" // CRC-32

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Save writes the pinned bytes, so every stored model keeps loading,
// and a random model round-trips exactly.
func TestModelSaveLoadV3RoundTrip(t *testing.T) {
	pin := mustHex(t, modelPin)
	if got := saveBytes(t, pinModel()); !bytes.Equal(got, pin) {
		t.Fatalf("model encoding drifted:\n got %x\nwant %x", got, pin)
	}
	loaded, err := Load(bytes.NewReader(pin))
	if err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, pinModel(), loaded)

	m := tinyModel(t)
	got, err := Load(bytes.NewReader(saveBytes(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, m, got)
}

// Truncation at every possible prefix length — including every section
// boundary (magic, length header, payload sections, checksum trailer)
// — must yield an error, never a model.
func TestModelLoadRejectsAllTruncations(t *testing.T) {
	raw := saveBytes(t, tinyModel(t))
	for cut := 0; cut < len(raw); cut++ {
		if m, err := Load(bytes.NewReader(raw[:cut])); err == nil || m != nil {
			t.Fatalf("truncation at byte %d/%d loaded successfully", cut, len(raw))
		}
	}
}

// A single flipped bit anywhere in the file — magic, header, payload
// or trailer — must be rejected. Every bit of every byte is tried, so
// each bit of the length and shape fields is covered.
func TestModelLoadRejectsAllBitFlips(t *testing.T) {
	raw := saveBytes(t, tinyModel(t))
	for i := range raw {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), raw...)
			mut[i] ^= 1 << bit
			if m, err := Load(bytes.NewReader(mut)); err == nil || m != nil {
				t.Fatalf("flip of bit %d at byte %d/%d loaded successfully", bit, i, len(raw))
			}
		}
	}
}

// crashHeaders returns two saved models whose headers declare a matrix
// far larger than the file: one claiming 2^31 rows of dimension 2^20
// behind a valid checksum, and one with bit 3 of the row count (byte
// 43) flipped, about 3 GB. Load must reject both before sizing the
// matrix, whatever the checksum says.
func crashHeaders(t testing.TB) (huge, flipped []byte) {
	const payloadAt = len(modelMagic) + 8
	const rowsAt = payloadAt + 16 + 6 // past p and scale, and the matrix magic
	huge, flipped = saveBytes(t, tinyModel(t)), saveBytes(t, tinyModel(t))
	binary.LittleEndian.PutUint64(huge[rowsAt:], 1<<31)
	binary.LittleEndian.PutUint64(huge[rowsAt+8:], 1<<20)
	binary.LittleEndian.PutUint32(huge[len(huge)-4:], crc32.ChecksumIEEE(huge[payloadAt:len(huge)-4]))
	flipped[rowsAt+3] ^= 1 << 3
	return huge, flipped
}

func TestModelLoadRejectsGarbage(t *testing.T) {
	huge, flipped := crashHeaders(t)
	legacy := saveBytes(t, tinyModel(t))
	copy(legacy, "RNEMODEL2\n")
	cases := map[string]struct {
		raw  []byte
		want string
	}{
		"empty":       {[]byte{}, "magic"},
		"wrong magic": {[]byte("NOTAMODEL!\x00\x00\x00\x00"), "bad model magic"},
		"magic only":  {[]byte("RNEMODEL3\n"), "payload length"},
		"absurd length": {append([]byte("RNEMODEL3\n"),
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), ""},
		"legacy RNEMODEL2 magic":     {legacy, "bad model magic"},
		"trailing bytes":             {append(saveBytes(t, tinyModel(t)), 0), "past its checksum trailer"},
		"2^31 x 2^20 matrix header":  {huge, "framing holds"},
		"row count bit 3 of byte 43": {flipped, "framing holds"},
	}
	for name, c := range cases {
		m, err := Load(bytes.NewReader(c.raw))
		if err == nil || m != nil {
			t.Fatalf("%s: loaded successfully", name)
		}
		if err.Error() == "" || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", name, err, c.want)
		}
	}
}

func TestModelLoadErrorsAreDescriptive(t *testing.T) {
	raw := saveBytes(t, tinyModel(t))
	// Flip a matrix payload byte (well inside the data section).
	mut := append([]byte(nil), raw...)
	mut[len(mut)-12] ^= 0x01
	_, err := Load(bytes.NewReader(mut))
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("payload corruption error not descriptive: %v", err)
	}
}

func TestModelSaveFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.rne")
	m := tinyModel(t)
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place (the swap path of a rebuild) and reload.
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, m, got)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files leaked: %d entries in %s", len(entries), dir)
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

// oversizedCheckpoint is a checkpoint cut off after its meta block and
// a matrix header declaring 2^28 x 64 values, with the payload length
// that header implies.
func oversizedCheckpoint() []byte {
	const rows, d = 1 << 28, 64
	meta := make([]byte, binary.Size(ckptMeta{}))
	raw := append([]byte(ckptMagic), binary.LittleEndian.AppendUint64(nil, uint64(int64(len(meta))+emb.MatrixFileSize(rows, d)))...)
	raw = append(append(raw, meta...), "RNEM1\n"...)
	raw = binary.LittleEndian.AppendUint64(raw, rows)
	return binary.LittleEndian.AppendUint64(raw, d)
}

// Headers declaring far more than the file holds are rejected without
// sizing anything from them: each load fails having allocated under
// 1 MiB in all.
func TestCraftedHeadersFailSmall(t *testing.T) {
	huge, flipped := crashHeaders(t)
	tr := pinTrainer()
	for name, load := range map[string]func() error{
		"model, 2^31 x 2^20 matrix header":  func() error { _, err := Load(bytes.NewReader(huge)); return err },
		"model, row count bit 3 of byte 43": func() error { _, err := Load(bytes.NewReader(flipped)); return err },
		"checkpoint, 2^28 x 64 matrix header": func() error {
			_, _, _, err := tr.readCheckpoint(bytes.NewReader(oversizedCheckpoint()))
			return err
		},
	} {
		var err error
		if b := allocated(func() { err = load() }); err == nil || b >= 1<<20 {
			t.Errorf("%s: error %v after %d bytes allocated", name, err, b)
		}
	}
}

// FuzzModelLoad feeds arbitrary bytes to Load: no input may panic, and
// any input Load accepts must save back to exactly the same bytes.
func FuzzModelLoad(f *testing.F) {
	huge, flipped := crashHeaders(f)
	f.Add(saveBytes(f, tinyModel(f)))
	f.Add(huge)
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := Load(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if got := saveBytes(t, m); !bytes.Equal(got, raw) {
			t.Fatalf("accepted %d bytes but saved %d different ones", len(raw), len(got))
		}
	})
}
