package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/emb"
	"repro/internal/fsx"
)

// Shard persistence follows the repo's framed-file convention: a magic
// string, a little-endian int64 payload length, the payload, and a
// CRC32-IEEE trailer over the payload, written atomically. Two formats:
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
	plen := 3*8 + int64(len(m.owner))
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(mapMagic); err != nil {
		return 0, err
	}
	if err := binary.Write(bw, binary.LittleEndian, plen); err != nil {
		return 0, err
	}
	cw := fsx.NewCRCWriter(bw)
	for _, v := range []int64{int64(len(m.owner)), int64(m.numShards), int64(m.cutLevel)} {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return 0, err
		}
	}
	if _, err := cw.Write(m.owner); err != nil {
		return 0, err
	}
	if err := binary.Write(bw, binary.LittleEndian, cw.Sum32()); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return int64(len(mapMagic)) + 8 + plen + 4, nil
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
	br := bufio.NewReader(r)
	magic := make([]byte, len(mapMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("shard: reading map magic: %w", err)
	}
	if string(magic) != mapMagic {
		return nil, fmt.Errorf("shard: bad map magic %q", magic)
	}
	var plen int64
	if err := binary.Read(br, binary.LittleEndian, &plen); err != nil {
		return nil, fmt.Errorf("shard: reading map payload length: %w", err)
	}
	cr := fsx.NewCRCReader(io.LimitReader(br, plen))
	var n, k, cut int64
	for _, p := range []*int64{&n, &k, &cut} {
		if err := binary.Read(cr, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("shard: reading map header: %w", err)
		}
	}
	if n < 1 || n > maxMapVertices || k < 1 || k > MaxShards || cut < 1 {
		return nil, fmt.Errorf("shard: implausible map header: %d vertices, %d shards, cut level %d", n, k, cut)
	}
	if want := 3*8 + n; plen != want {
		return nil, fmt.Errorf("shard: map payload is %d bytes, want %d for %d vertices", plen, want, n)
	}
	m := &Map{numShards: int(k), cutLevel: int(cut), owner: make([]uint8, n)}
	if _, err := io.ReadFull(cr, m.owner); err != nil {
		return nil, fmt.Errorf("shard: reading owner table: %w", err)
	}
	var wantCRC uint32
	if err := binary.Read(br, binary.LittleEndian, &wantCRC); err != nil {
		return nil, fmt.Errorf("shard: reading map checksum trailer: %w", err)
	}
	if err := fsx.VerifyTrailer(cr, plen, wantCRC, "shard: map"); err != nil {
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
	matBytes := func(mm *emb.Matrix) int64 {
		return emb.MatrixFileSize(mm.Rows(), mm.Dim())
	}
	plen := 6*8 + // shardID, K, cutLevel, n, numOwned, dim
		2*8 + // p, scale
		int64(len(m.ownedIDs))*4 +
		int64(m.n)*4 + // coverIdx
		int64(m.n) + // owner
		matBytes(m.owned) + matBytes(m.upper)
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(shardMagic); err != nil {
		return 0, err
	}
	if err := binary.Write(bw, binary.LittleEndian, plen); err != nil {
		return 0, err
	}
	cw := fsx.NewCRCWriter(bw)
	hdr := []int64{int64(m.shardID), int64(m.numShards), int64(m.cutLevel),
		int64(m.n), int64(len(m.ownedIDs)), int64(m.owned.Dim())}
	for _, v := range hdr {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return 0, err
		}
	}
	for _, v := range []float64{m.p, m.scale} {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return 0, err
		}
	}
	if err := binary.Write(cw, binary.LittleEndian, m.ownedIDs); err != nil {
		return 0, err
	}
	if err := binary.Write(cw, binary.LittleEndian, m.coverIdx); err != nil {
		return 0, err
	}
	if _, err := cw.Write(m.owner); err != nil {
		return 0, err
	}
	if _, err := m.owned.WriteTo(cw); err != nil {
		return 0, err
	}
	if _, err := m.upper.WriteTo(cw); err != nil {
		return 0, err
	}
	if err := binary.Write(bw, binary.LittleEndian, cw.Sum32()); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return int64(len(shardMagic)) + 8 + plen + 4, nil
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
	br := bufio.NewReader(r)
	magic := make([]byte, len(shardMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("shard: reading model magic: %w", err)
	}
	if string(magic) != shardMagic {
		return nil, fmt.Errorf("shard: bad model magic %q", magic)
	}
	var plen int64
	if err := binary.Read(br, binary.LittleEndian, &plen); err != nil {
		return nil, fmt.Errorf("shard: reading model payload length: %w", err)
	}
	cr := fsx.NewCRCReader(io.LimitReader(br, plen))
	var sid, k, cut, n, owned, dim int64
	for _, p := range []*int64{&sid, &k, &cut, &n, &owned, &dim} {
		if err := binary.Read(cr, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("shard: reading model header: %w", err)
		}
	}
	if k < 1 || k > MaxShards || sid < 0 || sid >= k || cut < 1 ||
		n < 1 || n > maxMapVertices || owned < 1 || owned > n || dim < 1 {
		return nil, fmt.Errorf("shard: implausible model header: shard %d/%d, cut %d, %d/%d vertices, dim %d",
			sid, k, cut, owned, n, dim)
	}
	// Size every section from the header before allocating any of them:
	// the fixed part, the owned matrix, and the upper matrix in whatever
	// the payload has left.
	fixed := 6*8 + 2*8 + owned*4 + n*4 + n
	ownedBytes := emb.MatrixFileSize(int(owned), int(dim))
	upperBytes := plen - fixed - ownedBytes
	if upperBytes <= 0 {
		return nil, fmt.Errorf("shard: model payload %d bytes leaves no room for the upper matrix", plen)
	}
	m := &Model{
		shardID:   int(sid),
		numShards: int(k),
		cutLevel:  int(cut),
		n:         int(n),
		ownedIDs:  make([]int32, owned),
		coverIdx:  make([]int32, n),
		owner:     make([]uint8, n),
	}
	for _, p := range []*float64{&m.p, &m.scale} {
		if err := binary.Read(cr, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("shard: reading metric parameters: %w", err)
		}
	}
	if m.p < 1 || math.IsNaN(m.p) || m.scale <= 0 || math.IsNaN(m.scale) {
		return nil, fmt.Errorf("shard: implausible metric parameters p=%v scale=%v", m.p, m.scale)
	}
	if err := binary.Read(cr, binary.LittleEndian, m.ownedIDs); err != nil {
		return nil, fmt.Errorf("shard: reading owned vertex ids: %w", err)
	}
	if err := binary.Read(cr, binary.LittleEndian, m.coverIdx); err != nil {
		return nil, fmt.Errorf("shard: reading cover table: %w", err)
	}
	if _, err := io.ReadFull(cr, m.owner); err != nil {
		return nil, fmt.Errorf("shard: reading owner table: %w", err)
	}
	var err error
	if m.owned, err = emb.ReadMatrix(cr, ownedBytes); err != nil {
		return nil, fmt.Errorf("shard: reading owned embeddings: %w", err)
	}
	if m.upper, err = emb.ReadMatrix(cr, upperBytes); err != nil {
		return nil, fmt.Errorf("shard: reading upper-level embeddings: %w", err)
	}
	var wantCRC uint32
	if err := binary.Read(br, binary.LittleEndian, &wantCRC); err != nil {
		return nil, fmt.Errorf("shard: reading model checksum trailer: %w", err)
	}
	if err := fsx.VerifyTrailer(cr, plen, wantCRC, "shard: model"); err != nil {
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
