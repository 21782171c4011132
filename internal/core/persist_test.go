package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
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

func TestModelSaveLoadV3RoundTrip(t *testing.T) {
	m := tinyModel(t)
	raw := saveBytes(t, m)
	if !bytes.HasPrefix(raw, []byte("RNEMODEL3\n")) {
		t.Fatalf("saved file does not start with the v3 magic: %q", raw[:12])
	}
	got, err := Load(bytes.NewReader(raw))
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
