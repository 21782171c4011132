package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/emb"
	"repro/internal/fsx"
	"repro/internal/partition"
	"repro/internal/vecmath"
)

// Model is a trained RNE: a |V| x d global embedding matrix queried
// with the L_p metric. Estimate is the paper's nanosecond-scale query
// path.
type Model struct {
	m     *emb.Matrix
	p     float64
	scale float64

	// hier is retained by freshly built hierarchical models so the tree
	// index (Section VI) can be constructed; it is not serialized.
	hier *emb.Hier
}

// Estimate approximates the shortest-path distance between vertices s
// and t as scale * ||M[s]-M[t]||_p.
func (m *Model) Estimate(s, t int32) float64 {
	return vecmath.Lp(m.m.Row(s), m.m.Row(t), m.p) * m.scale
}

// EstimateL1 is the specialized p=1 query kernel benchmarked in the
// paper; calling it on a model with p != 1 is a bug guarded by P().
func (m *Model) EstimateL1(s, t int32) float64 {
	return vecmath.L1(m.m.Row(s), m.m.Row(t)) * m.scale
}

// Vector returns vertex v's embedding row (aliasing model storage).
func (m *Model) Vector(v int32) []float64 { return m.m.Row(v) }

// NumVertices returns |V|.
func (m *Model) NumVertices() int { return m.m.Rows() }

// Dim returns the embedding dimension d.
func (m *Model) Dim() int { return m.m.Dim() }

// P returns the metric order.
func (m *Model) P() float64 { return m.p }

// Scale returns the distance normalizer multiplied into estimates.
func (m *Model) Scale() float64 { return m.scale }

// Matrix exposes the global embedding matrix.
func (m *Model) Matrix() *emb.Matrix { return m.m }

// Hier returns the hierarchical local embedding behind a freshly built
// hierarchical model, or nil (naive builds and loaded models).
func (m *Model) Hier() *emb.Hier { return m.hier }

// Hierarchy returns the partition hierarchy, or nil when unavailable.
func (m *Model) Hierarchy() *partition.Hierarchy {
	if m.hier == nil {
		return nil
	}
	return m.hier.H
}

// IndexBytes reports the serialized index size in bytes (the Table IV
// metric): the |V| x d float64 matrix plus the small header.
func (m *Model) IndexBytes() int64 {
	return int64(m.m.Rows())*int64(m.m.Dim())*8 + 32
}

// modelMagic opens the model file: one fsx section whose payload is
// p, scale and the matrix. Load rejects truncated, length-mismatched
// or bit-flipped files with a precise error instead of constructing a
// silently wrong estimator.
const modelMagic = "RNEMODEL3\n"

// Save serializes the model (matrix, metric order, scale) in the
// current integrity-checked format.
func (m *Model) Save(w io.Writer) error {
	size := 16 + emb.MatrixFileSize(m.m.Rows(), m.m.Dim())
	_, err := fsx.WriteSection(w, modelMagic, size, func(w io.Writer) error {
		if err := binary.Write(w, binary.LittleEndian, []float64{m.p, m.scale}); err != nil {
			return err
		}
		_, err := m.m.WriteTo(w)
		return err
	})
	return err
}

// Load deserializes a model written by Save. The hierarchy is not
// persisted; Hier returns nil on loaded models.
func Load(r io.Reader) (*Model, error) {
	sec, err := fsx.ReadSection(r, modelMagic, "core", "model")
	if err != nil {
		return nil, err
	}
	var hdr [2]float64
	if err := binary.Read(sec, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("core: reading model header: %w", err)
	}
	if hdr[0] <= 0 || hdr[1] <= 0 {
		return nil, fmt.Errorf("core: implausible model header p=%v scale=%v", hdr[0], hdr[1])
	}
	mat, err := emb.ReadMatrix(sec, sec.Left())
	if err != nil {
		return nil, err
	}
	if err := sec.Close(); err != nil {
		return nil, err
	}
	return &Model{m: mat, p: hdr[0], scale: hdr[1]}, nil
}

// SaveFile writes the model to the named file atomically: a crash
// mid-save leaves the previous file (or no file) at path, never a
// truncated one.
func (m *Model) SaveFile(path string) error {
	return fsx.WriteAtomic(path, m.Save)
}

// LoadFile reads a model from the named file.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
