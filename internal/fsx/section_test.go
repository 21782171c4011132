package fsx

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const testMagic = "TEST1\n"

// frame returns payload written as one section under testMagic.
func frame(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteSection(&buf, testMagic, int64(len(payload)), func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteSection reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// unframe reads a section's payload, reading only the first max bytes
// of it when max >= 0, and closes it.
func unframe(raw []byte, max int) ([]byte, error) {
	sec, err := ReadSection(bytes.NewReader(raw), testMagic, "fsx", "test")
	if err != nil {
		return nil, err
	}
	var r io.Reader = sec
	if max >= 0 {
		r = io.LimitReader(sec, int64(max))
	}
	payload, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return payload, sec.Close()
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A section round-trips its payload, and every way its framing can
// disagree with its bytes fails with an error naming the part.
func TestCRCRoundTrip(t *testing.T) {
	payload := []byte("the quick brown fox")
	raw := frame(t, payload)
	if want := len(testMagic) + 8 + len(payload) + 4; len(raw) != want {
		t.Fatalf("section is %d bytes, want %d", len(raw), want)
	}
	if got, err := unframe(raw, -1); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip = %q, %v", got, err)
	}
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), raw...)) }
	for name, c := range map[string]struct {
		raw  []byte
		max  int
		want string
	}{
		"empty":              {nil, -1, "fsx: reading test magic"},
		"bad magic":          {edit(func(b []byte) []byte { b[0] ^= 1; return b }), -1, "fsx: bad test magic"},
		"no length":          {raw[:len(testMagic)+3], -1, "fsx: reading test payload length"},
		"negative length":    {edit(func(b []byte) []byte { b[len(testMagic)+7] = 0xff; return b }), -1, "implausible test payload length"},
		"payload left":       {raw, 3, "test payload length 3 does not match header 19"},
		"length one short":   {edit(func(b []byte) []byte { b[len(testMagic)]--; return b }), -1, "test payload checksum"},
		"length one long":    {edit(func(b []byte) []byte { b[len(testMagic)]++; return b }), -1, "reading test checksum trailer"},
		"truncated trailer":  {raw[:len(raw)-1], -1, "reading test checksum trailer"},
		"wrong trailer":      {edit(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }), -1, "test payload checksum"},
		"byte after trailer": {append(edit(func(b []byte) []byte { return b }), 0), -1, "test file continues past its checksum trailer"},
	} {
		if _, err := unframe(c.raw, c.max); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", name, err, c.want)
		}
	}
}

// Every single-bit flip in the payload fails the checksum.
func TestCRCDetectsFlip(t *testing.T) {
	raw := frame(t, []byte("some payload bytes here"))
	for i := len(testMagic) + 8; i < len(raw)-4; i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), raw...)
			mut[i] ^= 1 << bit
			if _, err := unframe(mut, -1); err == nil || !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("flip of bit %d at byte %d: error %v", bit, i, err)
			}
		}
	}
}

// A body that writes more or fewer bytes than the declared size fails
// the write, so through WriteAtomic the previous file survives.
func TestWriteSectionRejectsWrongSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{4, 6} {
		err := WriteAtomic(path, func(w io.Writer) error {
			_, err := WriteSection(w, testMagic, size, func(w io.Writer) error {
				_, err := w.Write([]byte("five!"))
				return err
			})
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "payload is 5 bytes") {
			t.Fatalf("size %d: error %v, want a payload size mismatch", size, err)
		}
		if got, _ := os.ReadFile(path); string(got) != "old" {
			t.Fatalf("size %d: previous file replaced by %q", size, got)
		}
	}
}

// ReadSlice decodes each element type exactly at the chunk boundaries,
// returns exactly n elements of storage, and fails on short input.
func TestReadSlice(t *testing.T) {
	testReadSlice(t, func(i int) uint8 { return uint8(i*7 + 1) })
	testReadSlice(t, func(i int) int32 { return int32(i*7919) - 1<<30 })
	testReadSlice(t, func(i int) float64 { return float64(i)*1.5 - math.Pi })
}

func testReadSlice[T uint8 | int32 | float64](t *testing.T, value func(i int) T) {
	var zero T
	chunk := sliceChunk / binary.Size(zero)
	for _, n := range []int{0, 1, chunk, chunk + 1, 2*chunk + 3} {
		want := make([]T, n)
		for i := range want {
			want[i] = value(i)
		}
		var buf bytes.Buffer
		if err := binary.Write(&buf, binary.LittleEndian, want); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		got, err := ReadSlice[T](bytes.NewReader(raw), n)
		if err != nil {
			t.Fatalf("%T n=%d: %v", zero, n, err)
		}
		if len(got) != n || cap(got) != n {
			t.Fatalf("%T n=%d: len %d cap %d", zero, n, len(got), cap(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%T n=%d: element %d is %v, want %v", zero, n, i, got[i], want[i])
			}
		}
		if n == 0 {
			continue
		}
		if _, err := ReadSlice[T](bytes.NewReader(raw[:len(raw)-1]), n); err == nil {
			t.Fatalf("%T n=%d, one byte short: error %v", zero, n, err)
		}
		if _, err := ReadSlice[T](bytes.NewReader(nil), n); err != io.EOF {
			t.Fatalf("%T n=%d, no input: error %v", zero, n, err)
		}
	}
	if _, err := ReadSlice[T](bytes.NewReader(nil), -1); err == nil {
		t.Fatalf("%T: negative length accepted", zero)
	}
}

// Left reports the declared payload still unread, exactly up to the
// largest length a header can hold, so a codec can bound a count by
// Left before multiplying it; and a count bounded that way but not
// backed by input allocates only as much as the input holds.
func TestSectionLeftBoundsHugeHeader(t *testing.T) {
	raw := binary.LittleEndian.AppendUint64([]byte(testMagic), math.MaxInt64)
	raw = append(raw, make([]byte, 16)...)
	sec, err := ReadSection(bytes.NewReader(raw), testMagic, "fsx", "test")
	if err != nil {
		t.Fatal(err)
	}
	if sec.Left() != math.MaxInt64 {
		t.Fatalf("Left = %d before reading", sec.Left())
	}
	var hdr int64
	if err := binary.Read(sec, binary.LittleEndian, &hdr); err != nil {
		t.Fatal(err)
	}
	if sec.Left() != math.MaxInt64-8 {
		t.Fatalf("Left = %d after 8 bytes", sec.Left())
	}
	n := int(sec.Left() / 8)
	if b := allocated(func() { _, err = ReadSlice[float64](sec, n) }); err == nil || b >= 1<<20 {
		t.Fatalf("ReadSlice of %d values over 8 bytes: error %v after %d bytes allocated", n, err, b)
	}
}
