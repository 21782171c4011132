package alt

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
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
		"trailing bytes": func(b []byte) []byte { return append(append([]byte(nil), b...), 0) },
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

// pinIndex is a hand-built one-landmark index whose encoding is pinned.
func pinIndex() *Index {
	return &Index{labels: []float64{0, 1, 2.5}, landmarks: []int32{0}, n: 3}
}

// indexPin is pinIndex as written by every RNEALT1 writer so far.
const indexPin = "" +
	"524e45414c54310a" + // RNEALT1\n
	"2c00000000000000" + // payload length 44
	"03000000000000000100000000000000" + // 3 vertices, 1 landmark
	"00000000" + // landmark 0
	"0000000000000000000000000000f03f0000000000000440" + // labels 0, 1, 2.5
	"21fd589b" // CRC-32

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The encoding is pinned, so every guard already stored keeps loading.
func TestIndexFormatPinned(t *testing.T) {
	pin := mustHex(t, indexPin)
	var buf bytes.Buffer
	if n, err := pinIndex().WriteTo(&buf); err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTo = %d, %v for %d bytes", n, err, buf.Len())
	}
	if !bytes.Equal(buf.Bytes(), pin) {
		t.Fatalf("index encoding drifted:\n got %x\nwant %x", buf.Bytes(), pin)
	}
	got, err := Read(bytes.NewReader(pin))
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := got.Bounds(1, 2); got.NumVertices() != 3 || lo != 1.5 || hi != 3.5 {
		t.Fatalf("loaded %d vertices, bounds(1,2) = [%v,%v]", got.NumVertices(), lo, hi)
	}
}

// craftedHeader is the 32-byte start of an index declaring n vertices
// and nU landmarks, with the payload length they imply (wrapped as
// int64 arithmetic wraps it).
func craftedHeader(n, nU int64) []byte {
	raw := binary.LittleEndian.AppendUint64([]byte(altMagic), uint64(2*8+nU*4+nU*n*8))
	raw = binary.LittleEndian.AppendUint64(raw, uint64(n))
	return binary.LittleEndian.AppendUint64(raw, uint64(nU))
}

// craftedHeaders are index files whose headers declare far more than
// the file holds.
var craftedHeaders = []struct {
	name string
	raw  []byte
}{
	{"2^40 vertices", craftedHeader(1<<40, 1)},
	{"2^28 vertices", craftedHeader(1<<28, 1)},
	{"2^45 x 2^16 labels overflow int64", craftedHeader(1<<45, 1<<16)},
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Each crafted header is rejected having allocated under 1 MiB.
func TestCraftedHeadersFailSmall(t *testing.T) {
	for _, c := range craftedHeaders {
		var err error
		if b := allocated(func() { _, err = Read(bytes.NewReader(c.raw)) }); err == nil || b >= 1<<20 {
			t.Errorf("%s: error %v after %d bytes allocated", c.name, err, b)
		}
	}
}

// resign recomputes an index file's checksum trailer over its payload,
// so an edited payload reaches the parser instead of failing the
// checksum.
func resign(raw []byte) []byte {
	raw = append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[len(altMagic)+8:len(raw)-4]))
	return raw
}

// FuzzALTRead feeds arbitrary bytes to Read, as they are and re-signed:
// no input may panic, and any input Read accepts must write back to
// exactly the same bytes.
func FuzzALTRead(f *testing.F) {
	f.Add(mustHex(f, indexPin))
	for _, c := range craftedHeaders {
		f.Add(c.raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		inputs := [][]byte{raw}
		if len(raw) >= len(altMagic)+8+4 {
			inputs = append(inputs, resign(raw))
		}
		for _, in := range inputs {
			idx, err := Read(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			if _, err := idx.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), in) {
				t.Fatalf("accepted %d bytes but wrote %d different ones", len(in), buf.Len())
			}
		}
	})
}
