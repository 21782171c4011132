// Package batchwire owns the /batch wire format shared by the replica
// (internal/server) and the gateway (internal/gateway):
//
//	request  {"pairs":[[s,t],...]}
//	answer   {"clamped_count":N,"cross_count":N,"distances":[...],"explain":[...],"hi":[...],"lo":[...]}
//	partial  {"distances":[d|null,...],"errors":[{"index":i,"error":"..."}],"partial":true}
//
// Requests are decoded by a byte scanner into caller-owned slices, and
// answers are appended into one buffer with strconv, byte for byte
// what encoding/json writes for the same values: keys sorted, shortest
// float form, trailing newline. The gateway never converts a leg's
// numbers: Reply records the byte range of each one (checked with
// strconv.ParseFloat) and Merge copies those bytes in pair order. A
// float64 has exactly one shortest form, so the copy equals what
// decoding and re-encoding would write.
package batchwire

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// SyntaxError reports where a body stops matching the grammar.
type SyntaxError struct {
	Offset int // byte offset of the offending byte
	Msg    string
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("byte %d: %s", e.Offset, e.Msg) }

// scanner walks a JSON body byte by byte.
type scanner struct {
	b []byte
	i int
}

// next skips JSON whitespace and returns the byte there, or 0 at the end.
func (s *scanner) next() byte {
	if s.i < len(s.b) && s.b[s.i] > ' ' { // every whitespace byte is <= ' '
		return s.b[s.i]
	}
	return s.skipSpace()
}

func (s *scanner) skipSpace() byte {
	for s.i < len(s.b) {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return c
		}
	}
	return 0
}

func (s *scanner) errorf(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if s.i < len(s.b) {
		msg += fmt.Sprintf(", found %q", s.b[s.i])
	} else {
		msg += " at end of body"
	}
	return &SyntaxError{Offset: s.i, Msg: msg}
}

// expect consumes c, after optional whitespace.
func (s *scanner) expect(c byte, what string) error {
	if s.next() != c {
		return s.expected(what)
	}
	s.i++
	return nil
}

func (s *scanner) expected(what string) error { return s.errorf("expected %s", what) }

// end checks that only whitespace follows.
func (s *scanner) end() error {
	if s.next(); s.i != len(s.b) {
		return s.errorf("trailing data after the object")
	}
	return nil
}

// DecodePairs parses a /batch request body, appending each pair's
// source to ss[:0] and target to ts[:0]. The body must be one object
// whose only key is "pairs", holding an array of pairs of exactly two
// int32 vertex ids, with JSON whitespace anywhere between tokens and
// nothing but whitespace after the object. Everything it accepts,
// json.Unmarshal decodes to the same pairs.
func DecodePairs(body []byte, ss, ts []int32) ([]int32, []int32, error) {
	ss, ts = ss[:0], ts[:0]
	s := scanner{b: body}
	if err := s.expect('{', "'{'"); err != nil {
		return ss, ts, err
	}
	const key = `"pairs"`
	if s.next(); len(body)-s.i < len(key) || string(body[s.i:s.i+len(key)]) != key {
		return ss, ts, s.errorf(`expected the key "pairs"`)
	}
	s.i += len(key)
	if err := s.expect(':', "':'"); err != nil {
		return ss, ts, err
	}
	if err := s.expect('[', "'[' opening the pairs array"); err != nil {
		return ss, ts, err
	}
	if s.next() == ']' {
		s.i++
	} else {
		for {
			if err := s.expect('[', "'[' opening a pair"); err != nil {
				return ss, ts, err
			}
			src, err := s.vertex()
			if err != nil {
				return ss, ts, err
			}
			if err := s.expect(',', "',' and a target (a pair has two ids)"); err != nil {
				return ss, ts, err
			}
			dst, err := s.vertex()
			if err != nil {
				return ss, ts, err
			}
			if err := s.expect(']', "']' closing a pair (a pair has two ids)"); err != nil {
				return ss, ts, err
			}
			ss, ts = append(ss, src), append(ts, dst)
			c := s.next()
			if c == ']' {
				s.i++
				break
			}
			if c != ',' {
				return ss, ts, s.errorf("expected ',' or ']' after a pair")
			}
			s.i++
		}
	}
	if err := s.expect('}', `'}' ("pairs" is the only key)`); err != nil {
		return ss, ts, err
	}
	return ss, ts, s.end()
}

// vertex scans one JSON integer in int32 range.
func (s *scanner) vertex() (int32, error) {
	s.next()
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if v <= math.MaxInt32+1 {
			v = v*10 + int64(b[i]-'0')
		}
	}
	switch {
	case i == start:
		s.i = i
		return 0, s.errorf("expected a vertex id")
	case b[start] == '0' && i-start > 1:
		s.i = start
		return 0, s.errorf("vertex id has a leading zero")
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		s.i = i
		return 0, s.errorf("vertex id is not an integer")
	}
	if neg {
		v = -v
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		s.i = start
		return 0, s.errorf("vertex id outside the int32 range")
	}
	s.i = i
	return int32(v), nil
}

// AppendRequest appends the /batch body for the pairs (ss[i], ts[i]):
// the bytes json.Marshal writes for them.
func AppendRequest(dst []byte, ss, ts []int32) []byte {
	dst = append(dst, `{"pairs":[`...)
	for i := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(ss[i]), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(ts[i]), 10)
		dst = append(dst, ']')
	}
	return append(dst, "]}"...)
}

// ReadBody reads a request body whole into buf[:0], answering through
// w a body over limit bytes with the *http.MaxBytesError it returns.
// A declared Content-Length within the limit sizes the buffer once.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) ([]byte, error) {
	size := r.ContentLength
	if size > limit {
		size = -1 // refused once limit bytes are read; allocate no more
	}
	return readAll(http.MaxBytesReader(w, r.Body, limit), size, buf)
}

// readAll is io.ReadAll into buf[:0], allocating once when size (the
// expected length, or negative when unknown) exceeds buf's capacity.
func readAll(rd io.Reader, size int64, buf []byte) ([]byte, error) {
	buf = buf[:0]
	if size < 0 {
		size = 511 // unknown: start where io.ReadAll does
	}
	if size >= int64(cap(buf)) {
		buf = make([]byte, 0, size+1) // +1: the read that sees EOF needs room
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// Buffers is one request's reusable memory: for /batch, the body read
// in, its pairs, the answer's numbers and the encoded answer; the
// replica's /distance and /knn routes use Out and Dist the same way.
// Take one with GetBuffers and Release it once the answer is written.
type Buffers struct {
	Body, Out    []byte
	S, T         []int32
	Dist, Lo, Hi []float64
}

var buffersPool = sync.Pool{New: func() any { return new(Buffers) }}

// GetBuffers returns a Buffers from the package pool.
func GetBuffers() *Buffers { return buffersPool.Get().(*Buffers) }

// maxPooledBytes keeps a rare huge batch from pinning its memory in the
// pool.
const maxPooledBytes = 4 << 20

// Release returns b to the pool; nothing may use its slices after.
func (b *Buffers) Release() {
	size := cap(b.Body) + cap(b.Out) + 4*(cap(b.S)+cap(b.T)) + 8*(cap(b.Dist)+cap(b.Lo)+cap(b.Hi))
	if size <= maxPooledBytes {
		buffersPool.Put(b)
	}
}

// Write sends an encoded answer with its length declared up front.
func Write(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client is gone
}
