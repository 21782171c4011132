// Package emb holds the embedding matrices of the RNE models: the flat
// |V| x d vertex matrix of Section III and the hierarchical local
// embedding of Section IV (one local vector per partition-tree node,
// with a vertex's global embedding being the sum of its ancestors'
// local vectors).
package emb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/fsx"
	"repro/internal/partition"
	"repro/internal/vecmath"
)

// Matrix is a dense rows x d embedding matrix stored row-major in one
// allocation.
type Matrix struct {
	rows, d int
	data    []float64
}

// NewMatrix returns a zeroed rows x d matrix.
func NewMatrix(rows, d int) *Matrix {
	return &Matrix{rows: rows, d: d, data: make([]float64, rows*d)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Dim returns the embedding dimension d.
func (m *Matrix) Dim() int { return m.d }

// Row returns row i as a mutable slice aliasing the matrix storage.
func (m *Matrix) Row(i int32) []float64 {
	off := int(i) * m.d
	return m.data[off : off+m.d]
}

// Data returns the backing storage (row-major). It aliases the matrix.
func (m *Matrix) Data() []float64 { return m.data }

// RandomInit fills the matrix with uniform values in [-scale, scale].
func (m *Matrix) RandomInit(rng *rand.Rand, scale float64) {
	for i := range m.data {
		m.data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.d)
	copy(c.data, m.data)
	return c
}

// Distance returns the L_p distance between rows i and j.
func (m *Matrix) Distance(i, j int32, p float64) float64 {
	return vecmath.Lp(m.Row(i), m.Row(j), p)
}

const matrixMagic = "RNEM1\n"

// MatrixFileSize reports the exact number of bytes WriteTo emits for a
// rows x d matrix, letting container formats (model files, checkpoints)
// put a payload length in their header without buffering the payload.
func MatrixFileSize(rows, d int) int64 {
	return int64(len(matrixMagic)) + 16 + 8*int64(rows)*int64(d)
}

// WriteTo serializes the matrix in a compact binary format.
func (m *Matrix) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	n, err := bw.WriteString(matrixMagic)
	written += int64(n)
	if err != nil {
		return written, err
	}
	hdr := []int64{int64(m.rows), int64(m.d)}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return written, err
	}
	written += 16
	if err := binary.Write(bw, binary.LittleEndian, m.data); err != nil {
		return written, err
	}
	written += int64(8 * len(m.data))
	return written, bw.Flush()
}

// ReadMatrix deserializes a matrix written by WriteTo from exactly size
// bytes of r: the container's framing says how many bytes the matrix
// occupies, and a header whose shape disagrees with that is rejected
// before anything is allocated. Storage then grows with the bytes
// actually read (fsx.ReadSlice), so a framing that overstates the input
// cannot reserve memory the input never fills.
func ReadMatrix(r io.Reader, size int64) (*Matrix, error) {
	br := bufio.NewReader(io.LimitReader(r, size))
	magic := make([]byte, len(matrixMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != matrixMagic {
		return nil, fmt.Errorf("emb: bad magic %q", magic)
	}
	var hdr [2]int64
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	rows, d := hdr[0], hdr[1]
	if rows < 0 || d <= 0 || rows > 1<<31 || d > 1<<20 {
		return nil, fmt.Errorf("emb: implausible matrix shape %dx%d", rows, d)
	}
	if need := MatrixFileSize(int(rows), int(d)); need != size {
		return nil, fmt.Errorf("emb: %dx%d matrix needs %d bytes, framing holds %d", rows, d, need, size)
	}
	data, err := fsx.ReadSlice[float64](br, int(rows*d))
	if err != nil {
		return nil, err
	}
	return &Matrix{rows: int(rows), d: int(d), data: data}, nil
}

// Hier couples a partition hierarchy with a local embedding matrix (one
// row per tree node). It implements the hierarchical RNE model: the
// global embedding of vertex v is the sum of Local rows over anc(v).
type Hier struct {
	H     *partition.Hierarchy
	Local *Matrix
}

// NewHier returns a hierarchical model with zeroed local embeddings of
// dimension d over h.
func NewHier(h *partition.Hierarchy, d int) *Hier {
	return &Hier{H: h, Local: NewMatrix(h.NumNodes(), d)}
}

// GlobalInto sums the local embeddings of v's ancestors into dst, which
// must have length Dim. It returns dst.
func (hh *Hier) GlobalInto(dst []float64, v int32) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	for _, node := range hh.H.Ancestors(v) {
		vecmath.Sum(dst, hh.Local.Row(node))
	}
	return dst
}

// NodeGlobalInto sums the local embeddings on the root..node path into
// dst (used by the shard cut, whose upper rows are internal nodes'
// global positions). Summation runs root-first so results are
// bit-identical with GlobalInto on vertex nodes. It returns dst.
func (hh *Hier) NodeGlobalInto(dst []float64, node int32) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	var path [64]int32
	k := 0
	for n := node; n >= 0 && k < len(path); n = hh.H.Parent(n) {
		path[k] = n
		k++
	}
	for i := k - 1; i >= 0; i-- {
		vecmath.Sum(dst, hh.Local.Row(path[i]))
	}
	return dst
}

// Flatten materializes the global |V| x d vertex matrix (Algorithm 1,
// lines 12–13).
func (hh *Hier) Flatten() *Matrix {
	n := hh.H.Graph().NumVertices()
	out := NewMatrix(n, hh.Local.Dim())
	for v := int32(0); v < int32(n); v++ {
		hh.GlobalInto(out.Row(v), v)
	}
	return out
}
