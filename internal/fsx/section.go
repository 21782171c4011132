package fsx

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"strings"
)

// Every artifact file in the repository is one framed section: a magic
// string naming the format, the little-endian int64 payload length,
// the payload, and a little-endian uint32 CRC-32 (IEEE) trailer over
// the payload. WriteSection and ReadSection are the only code that
// knows this framing; the codecs only write and parse payloads.

// WriteSection writes one framed section to w: magic, size, the
// payload body writes, and the trailer. It returns the bytes written,
// and fails without writing the trailer when body wrote other than
// size bytes, so a codec's precomputed length can never disagree with
// its payload on disk.
func WriteSection(w io.Writer, magic string, size int64, body func(w io.Writer) error) (int64, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return 0, err
	}
	if err := binary.Write(bw, binary.LittleEndian, size); err != nil {
		return 0, err
	}
	cw := &crcWriter{w: bw, crc: crc32.NewIEEE()}
	if err := body(cw); err != nil {
		return 0, err
	}
	if cw.n != size {
		return 0, fmt.Errorf("fsx: %s payload is %d bytes, header says %d", strings.TrimSpace(magic), cw.n, size)
	}
	if err := binary.Write(bw, binary.LittleEndian, cw.crc.Sum32()); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return int64(len(magic)) + 8 + size + 4, nil
}

// Section reads the payload of one framed section. Read returns
// payload bytes only, Left bounds what a header may still declare, and
// Close checks the trailer.
type Section struct {
	br        *bufio.Reader
	payload   io.Reader // br, limited to size
	crc       hash.Hash32
	n, size   int64  // bytes read, bytes declared
	pkg, name string // named by every error
}

// ReadSection checks the magic and the payload length at the start of
// r and returns the section's payload reader. Errors name pkg and the
// artifact name, e.g. "core: bad model magic".
func ReadSection(r io.Reader, magic, pkg, name string) (*Section, error) {
	br := bufio.NewReader(r)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("%s: reading %s magic: %w", pkg, name, err)
	}
	if string(got) != magic {
		return nil, fmt.Errorf("%s: bad %s magic %q", pkg, name, got)
	}
	var size int64
	if err := binary.Read(br, binary.LittleEndian, &size); err != nil {
		return nil, fmt.Errorf("%s: reading %s payload length: %w", pkg, name, err)
	}
	if size < 0 {
		return nil, fmt.Errorf("%s: implausible %s payload length %d", pkg, name, size)
	}
	return &Section{
		br:      br,
		payload: io.LimitReader(br, size),
		crc:     crc32.NewIEEE(),
		size:    size,
		pkg:     pkg,
		name:    name,
	}, nil
}

// Read reads payload bytes; it reports io.EOF at the end the header
// declared, before the trailer.
func (s *Section) Read(p []byte) (int, error) {
	n, err := s.payload.Read(p)
	s.crc.Write(p[:n])
	s.n += int64(n)
	return n, err
}

// Left returns how many payload bytes the header declares beyond those
// read so far. A count a payload header declares is bounded by Left
// before anything is multiplied by it or sized from it.
func (s *Section) Left() int64 { return s.size - s.n }

// Close reads the trailer and verifies that the whole payload was read
// and matches the checksum, and that nothing follows the trailer.
func (s *Section) Close() error {
	var want uint32
	if err := binary.Read(s.br, binary.LittleEndian, &want); err != nil {
		return fmt.Errorf("%s: reading %s checksum trailer: %w", s.pkg, s.name, err)
	}
	if s.n != s.size {
		return fmt.Errorf("%s: %s payload length %d does not match header %d (truncated or corrupt file)", s.pkg, s.name, s.n, s.size)
	}
	if got := s.crc.Sum32(); got != want {
		return fmt.Errorf("%s: %s payload checksum %08x does not match trailer %08x (corrupt file)", s.pkg, s.name, got, want)
	}
	if _, err := s.br.ReadByte(); err != io.EOF {
		return fmt.Errorf("%s: %s file continues past its checksum trailer", s.pkg, s.name)
	}
	return nil
}

// sliceChunk is the most bytes ReadSlice reads at once, and so the
// most it allocates ahead of the input.
const sliceChunk = 1 << 16

// ReadSlice reads n little-endian elements from r. Storage starts at
// one chunk and doubles only once the input has filled it, so a header
// that overstates n cannot reserve memory the input never fills; the
// returned slice has exactly n elements.
func ReadSlice[T uint8 | int32 | float64](r io.Reader, n int) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("fsx: negative slice length %d", n)
	}
	var zero T
	size := binary.Size(zero)
	step := sliceChunk / size
	out := make([]T, min(n, step))
	buf := make([]byte, size*len(out))
	for k := 0; k < n; {
		if k == len(out) {
			grown := make([]T, min(n, 2*k))
			copy(grown, out)
			out = grown
		}
		m := min(len(out)-k, step)
		b := buf[:size*m]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		switch dst := any(out[k : k+m]).(type) {
		case []uint8:
			copy(dst, b)
		case []int32:
			for i := range dst {
				dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
			}
		case []float64:
			for i := range dst {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			}
		}
		k += m
	}
	return out, nil
}

// crcWriter counts and checksums everything written through it.
type crcWriter struct {
	w   io.Writer
	crc hash.Hash32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc.Write(p[:n])
	cw.n += int64(n)
	return n, err
}
