package alt

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/fsx"
)

// ALT index persistence. The file is one fsx section, like every other
// artifact: its payload is the {n, |U|} header, the landmark ids and
// the label matrix. Files are written atomically, so a crashed save
// never leaves a truncated index behind, and every load verifies length
// and checksum before any data is trusted.
//
// A loaded Index carries no graph: the bound queries (Bounds,
// BoundsDetail, Estimate), all one pass over the label matrix, keep
// working, which is exactly what the server guard mode needs. The A*
// search (SearchDistance) walks the graph, so it needs an index built
// in-process via Build/BuildWithLandmarks.

const altMagic = "RNEALT1\n"

// maxLandmarks bounds |U| when loading, rejecting absurd headers before
// any allocation. Practical ALT landmark sets are tens of vertices.
const maxLandmarks = 1 << 16

// WriteTo streams the index in the RNEALT1 format.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	nU := int64(len(idx.landmarks))
	size := 2*8 + nU*4 + int64(len(idx.labels))*8
	return fsx.WriteSection(w, altMagic, size, func(w io.Writer) error {
		if err := binary.Write(w, binary.LittleEndian, []int64{int64(idx.n), nU}); err != nil {
			return err
		}
		if err := fsx.WriteSlice(w, idx.landmarks); err != nil {
			return err
		}
		return fsx.WriteSlice(w, idx.labels)
	})
}

// SaveFile atomically writes the index to path.
func (idx *Index) SaveFile(path string) error {
	return fsx.WriteAtomic(path, func(w io.Writer) error {
		_, err := idx.WriteTo(w)
		return err
	})
}

// Read loads an index written by WriteTo. The returned Index has no
// graph attached: the bound queries work; SearchDistance does not.
// Every label must be a distance a search writes: finite and without a
// sign bit (sssp.Inf, the largest float, marks an unreached vertex).
// NaN, ±Inf, negatives and -0 are refused: the bound pass orders
// distances by their bits, which only non-negative finite floats allow
// (and -0 would order below +0).
func Read(r io.Reader) (*Index, error) {
	sec, err := fsx.ReadSection(r, altMagic, "alt", "index")
	if err != nil {
		return nil, err
	}
	var hdr [2]int64
	if err := binary.Read(sec, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("alt: reading index header: %w", err)
	}
	n, nU := hdr[0], hdr[1]
	if n < 1 || nU < 1 || nU > maxLandmarks {
		return nil, fmt.Errorf("alt: implausible index header: %d vertices, %d landmarks", n, nU)
	}
	// n is bounded by the payload before it is multiplied.
	if left := sec.Left(); n > (left-nU*4)/(nU*8) || nU*4+nU*n*8 != left {
		return nil, fmt.Errorf("alt: index payload has %d bytes after its header, not %d landmark ids and %d x %d labels", left, nU, nU, n)
	}
	idx := &Index{n: int(n)}
	if idx.landmarks, err = fsx.ReadSlice[int32](sec, int(nU)); err != nil {
		return nil, fmt.Errorf("alt: reading landmark ids: %w", err)
	}
	if idx.labels, err = fsx.ReadSlice[float64](sec, int(nU*n)); err != nil {
		return nil, fmt.Errorf("alt: reading label matrix: %w", err)
	}
	if err := sec.Close(); err != nil {
		return nil, err
	}
	for _, u := range idx.landmarks {
		if u < 0 || int64(u) >= n {
			return nil, fmt.Errorf("alt: landmark id %d out of range [0,%d)", u, n)
		}
	}
	for i, v := range idx.labels {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Signbit(v) {
			return nil, fmt.Errorf("alt: invalid label %v at offset %d", v, i)
		}
	}
	return idx, nil
}

// LoadFile loads an index from a file written by SaveFile.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	idx, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("alt: loading index %s: %w", path, err)
	}
	return idx, nil
}

// NumVertices returns the vertex count of the graph the index was built
// over.
func (idx *Index) NumVertices() int { return idx.n }
