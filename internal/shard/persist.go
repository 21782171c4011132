package shard

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/emb"
	"repro/internal/fsx"
)

// Shard persistence follows the repo's framed-file convention: each
// file is one fsx section, written atomically. Two formats:
//
//   - RNESMAP1: the compact vertex→shard routing map the gateway loads
//     ({n, K, cutLevel} header + one owner byte per vertex).
//   - RNESHARD1: one self-contained shard model (topology header,
//     metric parameters, owned vertex ids, per-vertex cover and owner
//     tables, then the owned and upper embedding matrices in the
//     existing RNEM1 matrix framing).

const (
	mapMagic   = "RNESMAP1\n"
	shardMagic = "RNESHARD1\n"
)

// maxMapVertices rejects absurd map headers before allocation; it
// comfortably covers the paper's largest testbed (USW, 6.3M vertices).
const maxMapVertices = 1 << 28

// WriteTo streams the routing map in the RNESMAP1 format.
func (m *Map) WriteTo(w io.Writer) (int64, error) {
	return fsx.WriteSection(w, mapMagic, 3*8+int64(len(m.owner)), func(w io.Writer) error {
		hdr := []int64{int64(len(m.owner)), int64(m.numShards), int64(m.cutLevel)}
		if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
			return err
		}
		_, err := w.Write(m.owner)
		return err
	})
}

// SaveMapFile atomically writes the routing map to path.
func (m *Map) SaveMapFile(path string) error {
	return fsx.WriteAtomic(path, func(w io.Writer) error {
		_, err := m.WriteTo(w)
		return err
	})
}

// ReadMap loads a routing map written by Map.WriteTo.
func ReadMap(r io.Reader) (*Map, error) {
	sec, err := fsx.ReadSection(r, mapMagic, "shard", "map")
	if err != nil {
		return nil, err
	}
	var hdr [3]int64
	if err := binary.Read(sec, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("shard: reading map header: %w", err)
	}
	n, k, cut := hdr[0], hdr[1], hdr[2]
	if n < 1 || n > maxMapVertices || k < 1 || k > MaxShards || cut < 1 {
		return nil, fmt.Errorf("shard: implausible map header: %d vertices, %d shards, cut level %d", n, k, cut)
	}
	if left := sec.Left(); left != n {
		return nil, fmt.Errorf("shard: map payload has %d owner bytes, want %d for %d vertices", left, n, n)
	}
	m := &Map{numShards: int(k), cutLevel: int(cut)}
	if m.owner, err = fsx.ReadSlice[uint8](sec, int(n)); err != nil {
		return nil, fmt.Errorf("shard: reading owner table: %w", err)
	}
	if err := sec.Close(); err != nil {
		return nil, err
	}
	for v, o := range m.owner {
		if int64(o) >= k {
			return nil, fmt.Errorf("shard: vertex %d owned by shard %d, only %d shards", v, o, k)
		}
	}
	return m, nil
}

// LoadMapFile loads a routing map from a file written by SaveMapFile.
func LoadMapFile(path string) (*Map, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := ReadMap(f)
	if err != nil {
		return nil, fmt.Errorf("shard: loading map %s: %w", path, err)
	}
	return m, nil
}

// WriteTo streams the shard model in the RNESHARD1 format.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	size := 6*8 + // shardID, K, cutLevel, n, numOwned, dim
		2*8 + // p, scale
		int64(len(m.ownedIDs))*4 +
		int64(m.n)*4 + // coverIdx
		int64(m.n) + // owner
		emb.MatrixFileSize(m.owned.Rows(), m.owned.Dim()) +
		emb.MatrixFileSize(m.upper.Rows(), m.upper.Dim())
	return fsx.WriteSection(w, shardMagic, size, func(w io.Writer) error {
		hdr := []int64{int64(m.shardID), int64(m.numShards), int64(m.cutLevel),
			int64(m.n), int64(len(m.ownedIDs)), int64(m.owned.Dim())}
		for _, v := range []any{hdr, []float64{m.p, m.scale}, m.ownedIDs, m.coverIdx, m.owner} {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		if _, err := m.owned.WriteTo(w); err != nil {
			return err
		}
		_, err := m.upper.WriteTo(w)
		return err
	})
}

// SaveFile atomically writes the shard model to path.
func (m *Model) SaveFile(path string) error {
	return fsx.WriteAtomic(path, func(w io.Writer) error {
		_, err := m.WriteTo(w)
		return err
	})
}

// ReadModel loads a shard model written by Model.WriteTo, rebuilding
// and cross-checking the derived global→local row table.
func ReadModel(r io.Reader) (*Model, error) {
	sec, err := fsx.ReadSection(r, shardMagic, "shard", "model")
	if err != nil {
		return nil, err
	}
	var hdr [6]int64
	if err := binary.Read(sec, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("shard: reading model header: %w", err)
	}
	sid, k, cut, n, owned, dim := hdr[0], hdr[1], hdr[2], hdr[3], hdr[4], hdr[5]
	if k < 1 || k > MaxShards || sid < 0 || sid >= k || cut < 1 ||
		n < 1 || n > maxMapVertices || owned < 1 || owned > n || dim < 1 {
		return nil, fmt.Errorf("shard: implausible model header: shard %d/%d, cut %d, %d/%d vertices, dim %d",
			sid, k, cut, owned, n, dim)
	}
	m := &Model{shardID: int(sid), numShards: int(k), cutLevel: int(cut), n: int(n)}
	var pScale [2]float64
	if err := binary.Read(sec, binary.LittleEndian, &pScale); err != nil {
		return nil, fmt.Errorf("shard: reading metric parameters: %w", err)
	}
	m.p, m.scale = pScale[0], pScale[1]
	if m.p < 1 || math.IsNaN(m.p) || m.scale <= 0 || math.IsNaN(m.scale) {
		return nil, fmt.Errorf("shard: implausible metric parameters p=%v scale=%v", m.p, m.scale)
	}
	// Past the per-vertex tables the payload holds the owned matrix and
	// then the upper matrix; dim is bounded by it before it is
	// multiplied.
	left := sec.Left() - owned*4 - n*5
	if left < 0 || dim > left/(owned*8) {
		return nil, fmt.Errorf("shard: model payload has %d bytes after its header, too few for %d/%d vertices of dim %d",
			sec.Left(), owned, n, dim)
	}
	if m.ownedIDs, err = fsx.ReadSlice[int32](sec, int(owned)); err != nil {
		return nil, fmt.Errorf("shard: reading owned vertex ids: %w", err)
	}
	if m.coverIdx, err = fsx.ReadSlice[int32](sec, int(n)); err != nil {
		return nil, fmt.Errorf("shard: reading cover table: %w", err)
	}
	if m.owner, err = fsx.ReadSlice[uint8](sec, int(n)); err != nil {
		return nil, fmt.Errorf("shard: reading owner table: %w", err)
	}
	if m.owned, err = emb.ReadMatrix(sec, emb.MatrixFileSize(int(owned), int(dim))); err != nil {
		return nil, fmt.Errorf("shard: reading owned embeddings: %w", err)
	}
	if m.upper, err = emb.ReadMatrix(sec, sec.Left()); err != nil {
		return nil, fmt.Errorf("shard: reading upper-level embeddings: %w", err)
	}
	if err := sec.Close(); err != nil {
		return nil, err
	}
	if m.owned.Rows() != int(owned) || m.owned.Dim() != int(dim) {
		return nil, fmt.Errorf("shard: owned matrix is %dx%d, header says %dx%d",
			m.owned.Rows(), m.owned.Dim(), owned, dim)
	}
	if m.upper.Dim() != int(dim) {
		return nil, fmt.Errorf("shard: upper matrix dim %d != embedding dim %d", m.upper.Dim(), dim)
	}
	prev := int32(-1)
	for i, v := range m.ownedIDs {
		if v <= prev || int64(v) >= n {
			return nil, fmt.Errorf("shard: owned id %d at position %d not strictly increasing in [0,%d)", v, i, n)
		}
		prev = v
	}
	upperRows := int32(m.upper.Rows())
	for v := range m.coverIdx {
		if m.coverIdx[v] < 0 || m.coverIdx[v] >= upperRows {
			return nil, fmt.Errorf("shard: vertex %d maps to upper row %d, matrix has %d", v, m.coverIdx[v], upperRows)
		}
		if int64(m.owner[v]) >= k {
			return nil, fmt.Errorf("shard: vertex %d owned by shard %d, only %d shards", v, m.owner[v], k)
		}
	}
	m.buildLocalIdx()
	for _, v := range m.ownedIDs {
		if m.owner[v] != uint8(sid) {
			return nil, fmt.Errorf("shard: vertex %d listed as owned but owner table says shard %d", v, m.owner[v])
		}
	}
	return m, nil
}

// LoadModelFile loads a shard model from a file written by SaveFile.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := ReadModel(f)
	if err != nil {
		return nil, fmt.Errorf("shard: loading model %s: %w", path, err)
	}
	return m, nil
}
