package emb

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/vecmath"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(5, 3)
	if m.Rows() != 5 || m.Dim() != 3 {
		t.Fatalf("shape %dx%d, want 5x3", m.Rows(), m.Dim())
	}
	r := m.Row(2)
	r[0], r[1], r[2] = 1, 2, 3
	if m.Data()[6] != 1 || m.Data()[8] != 3 {
		t.Fatal("Row does not alias storage")
	}
	if d := m.Distance(2, 0, 1); d != 6 {
		t.Fatalf("Distance = %v, want 6", d)
	}
}

func TestMatrixRandomInitBounds(t *testing.T) {
	m := NewMatrix(10, 8)
	rng := rand.New(rand.NewSource(1))
	m.RandomInit(rng, 0.25)
	nonzero := false
	for _, x := range m.Data() {
		if math.Abs(x) > 0.25 {
			t.Fatalf("init value %v exceeds scale", x)
		}
		if x != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("init left matrix all zeros")
	}
}

func TestMatrixClone(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(0)[0] = 7
	c := m.Clone()
	c.Row(0)[0] = 9
	if m.Row(0)[0] != 7 {
		t.Fatal("Clone shares storage")
	}
}

func TestMatrixSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMatrix(17, 5)
	m.RandomInit(rng, 1)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadMatrix(&buf, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Rows() != m.Rows() || m2.Dim() != m.Dim() {
		t.Fatalf("shape changed: %dx%d", m2.Rows(), m2.Dim())
	}
	for i := range m.Data() {
		if m.Data()[i] != m2.Data()[i] {
			t.Fatalf("data changed at %d", i)
		}
	}
}

// Writing a matrix streams it: a 64 MiB matrix allocates under 1 MiB,
// where binary.Write would first copy all 64 MiB.
func TestMatrixWriteToAllocatesLittle(t *testing.T) {
	m := NewMatrix(1<<17, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := m.WriteTo(io.Discard)
	runtime.ReadMemStats(&after)
	if err != nil || n != MatrixFileSize(m.Rows(), m.Dim()) {
		t.Fatalf("WriteTo = %d, %v; want %d bytes", n, err, MatrixFileSize(m.Rows(), m.Dim()))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("writing a 64 MiB matrix allocated %d bytes", got)
	}
}

func TestReadMatrixRejectsGarbage(t *testing.T) {
	garbage := []byte("not a matrix at all")
	if _, err := ReadMatrix(bytes.NewReader(garbage), int64(len(garbage))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadMatrix(bytes.NewReader(nil), 0); err == nil {
		t.Fatal("empty accepted")
	}
}

// A header whose shape disagrees with the framing's byte count is
// rejected before the payload is allocated, however large it claims to
// be; a framing that agrees with a huge header but is not backed by
// the bytes fails at the end of the input.
func TestReadMatrixRejectsShapeOutsideFraming(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewMatrix(5, 3).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	withShape := func(rows, d uint64) []byte {
		raw := append([]byte(nil), full...)
		binary.LittleEndian.PutUint64(raw[len(matrixMagic):], rows)
		binary.LittleEndian.PutUint64(raw[len(matrixMagic)+8:], d)
		return raw
	}
	for name, c := range map[string]struct {
		raw  []byte
		size int64
		want string
	}{
		"short framing":                    {full, int64(len(full)) - 8, "framing holds"},
		"long framing":                     {full, int64(len(full)) + 8, "framing holds"},
		"huge framing":                     {full, 1 << 62, "framing holds"},
		"2^31 x 2^20 header":               {withShape(1<<31, 1<<20), int64(len(full)), "framing holds"},
		"8 GiB framing, 120 bytes of data": {withShape(1<<20, 1<<10), MatrixFileSize(1<<20, 1<<10), "EOF"},
	} {
		if _, err := ReadMatrix(bytes.NewReader(c.raw), c.size); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", name, err, c.want)
		}
	}
}

func TestHierGlobalIsAncestorSum(t *testing.T) {
	g, err := gen.Grid(12, 12, gen.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	h, err := partition.BuildHierarchy(g, partition.DefaultHierConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	hh := NewHier(h, 4)
	rng := rand.New(rand.NewSource(4))
	hh.Local.RandomInit(rng, 1)

	dst := make([]float64, 4)
	for v := int32(0); v < int32(g.NumVertices()); v += 13 {
		hh.GlobalInto(dst, v)
		want := make([]float64, 4)
		for _, node := range h.Ancestors(v) {
			vecmath.Sum(want, hh.Local.Row(node))
		}
		for i := range dst {
			if math.Abs(dst[i]-want[i]) > 1e-12 {
				t.Fatalf("vertex %d dim %d: %v vs %v", v, i, dst[i], want[i])
			}
		}
	}
}

func TestHierNodeGlobalMatchesVertexGlobal(t *testing.T) {
	g, err := gen.Grid(10, 10, gen.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	h, err := partition.BuildHierarchy(g, partition.DefaultHierConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	hh := NewHier(h, 3)
	rng := rand.New(rand.NewSource(6))
	hh.Local.RandomInit(rng, 1)

	a := make([]float64, 3)
	b := make([]float64, 3)
	for v := int32(0); v < int32(g.NumVertices()); v += 7 {
		hh.GlobalInto(a, v)
		hh.NodeGlobalInto(b, h.VertexNode(v))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d: GlobalInto %v != NodeGlobalInto %v", v, a, b)
			}
		}
	}
}

func TestHierFlatten(t *testing.T) {
	g, err := gen.Grid(9, 9, gen.DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	h, err := partition.BuildHierarchy(g, partition.DefaultHierConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	hh := NewHier(h, 6)
	rng := rand.New(rand.NewSource(8))
	hh.Local.RandomInit(rng, 1)

	flat := hh.Flatten()
	if flat.Rows() != g.NumVertices() || flat.Dim() != 6 {
		t.Fatalf("flatten shape %dx%d", flat.Rows(), flat.Dim())
	}
	dst := make([]float64, 6)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		hh.GlobalInto(dst, v)
		row := flat.Row(v)
		for i := range dst {
			if dst[i] != row[i] {
				t.Fatalf("vertex %d flatten mismatch", v)
			}
		}
	}

	// Flattened L1 distances must equal on-the-fly hierarchical ones.
	va := make([]float64, 6)
	vb := make([]float64, 6)
	for trial := 0; trial < 20; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		u := int32(rng.Intn(g.NumVertices()))
		hh.GlobalInto(va, s)
		hh.GlobalInto(vb, u)
		want := vecmath.L1(va, vb)
		got := vecmath.L1(flat.Row(s), flat.Row(u))
		if math.Abs(want-got) > 1e-12 {
			t.Fatalf("(%d,%d): flat %v hier %v", s, u, got, want)
		}
	}
}

func TestReadMatrixTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMatrix(8, 4)
	m.RandomInit(rng, 1)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every truncation point must fail cleanly, never panic.
	for _, cut := range []int{0, 3, len(matrixMagic), len(matrixMagic) + 8, len(full) - 9, len(full) - 1} {
		if _, err := ReadMatrix(bytes.NewReader(full[:cut]), int64(len(full))); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}
