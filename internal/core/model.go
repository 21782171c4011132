package core

import (
	"bufio"
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

// modelMagic opens the model file format: magic, int64 payload
// length, payload (p, scale, matrix), uint32 CRC-32 (IEEE) trailer over
// the payload. Load rejects truncated, length-mismatched or bit-flipped
// files with a precise error instead of constructing a silently wrong
// estimator.
const modelMagic = "RNEMODEL3\n"

// payloadSize is the exact payload length: p + scale, then the
// serialized matrix.
func (m *Model) payloadSize() int64 {
	return 16 + emb.MatrixFileSize(m.m.Rows(), m.m.Dim())
}

// Save serializes the model (matrix, metric order, scale) in the
// current integrity-checked format.
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(modelMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, m.payloadSize()); err != nil {
		return err
	}
	cw := fsx.NewCRCWriter(bw)
	if err := binary.Write(cw, binary.LittleEndian, []float64{m.p, m.scale}); err != nil {
		return err
	}
	if _, err := m.m.WriteTo(cw); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, cw.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// Load deserializes a model written by Save. The hierarchy is not
// persisted; Hier returns nil on loaded models.
func Load(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(modelMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading model magic: %w", err)
	}
	if string(magic) != modelMagic {
		return nil, fmt.Errorf("core: bad model magic %q", magic)
	}
	var plen int64
	if err := binary.Read(br, binary.LittleEndian, &plen); err != nil {
		return nil, fmt.Errorf("core: reading model payload length: %w", err)
	}
	// Minimum payload: p+scale plus an empty matrix.
	if min := 16 + emb.MatrixFileSize(0, 1); plen < min {
		return nil, fmt.Errorf("core: implausible model payload length %d", plen)
	}
	cr := fsx.NewCRCReader(io.LimitReader(br, plen))
	var hdr [2]float64
	if err := binary.Read(cr, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("core: reading model header: %w", err)
	}
	if hdr[0] <= 0 || hdr[1] <= 0 {
		return nil, fmt.Errorf("core: implausible model header p=%v scale=%v", hdr[0], hdr[1])
	}
	mat, err := emb.ReadMatrix(cr, plen-16)
	if err != nil {
		return nil, err
	}
	var wantCRC uint32
	if err := binary.Read(br, binary.LittleEndian, &wantCRC); err != nil {
		return nil, fmt.Errorf("core: reading model checksum trailer: %w", err)
	}
	if err := fsx.VerifyTrailer(cr, plen, wantCRC, "core: model"); err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("core: model file continues past its checksum trailer")
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
