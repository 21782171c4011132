package batchwire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Span is the byte range [Off, End) of one number in a reply body.
type Span struct{ Off, End int32 }

// Reply is one gateway leg's /batch answer, scanned but not converted.
type Reply struct {
	Body              []byte
	Distances, Lo, Hi []Span
	// HasClamped reports whether the body carried "clamped_count".
	HasClamped   bool
	ClampedCount int
}

// NewReply returns a Reply sized for a leg of n pairs.
func NewReply(n int) *Reply {
	spans := make([]Span, 3*n)
	return &Reply{Distances: spans[:0:n], Lo: spans[n : n : 2*n], Hi: spans[2*n : 2*n : 3*n]}
}

// Column indices of a reply's number arrays, in Reply.column.
const (
	colDistances = iota
	colLo
	colHi
	colClamped // not an array: the "clamped_count" integer
)

var replyKeys = [...]string{colDistances: "distances", colLo: "lo", colHi: "hi", colClamped: "clamped_count"}

func (r *Reply) column(col int) *[]Span {
	switch col {
	case colDistances:
		return &r.Distances
	case colLo:
		return &r.Lo
	default:
		return &r.Hi
	}
}

// maxDepth bounds the nesting of the values Scan skips.
const maxDepth = 64

// Scan parses body, a replica's /batch answer object. It records the
// byte range of every number in "distances", "lo" and "hi", checking
// from its digits that each is in float64 range (strconv.ParseFloat's
// verdict, without converting it), reads "clamped_count", and skips
// any other key after checking its value is well-formed JSON. Scan is
// stricter than json.Unmarshal into the equivalent struct: it takes no
// escapes or non-ASCII bytes in keys, no repeated or case-folded
// spelling of a key it reads, and no null in place of its arrays.
// Whatever it accepts, json.Unmarshal decodes to the same numbers. The
// spans' slices are reused across calls.
func (r *Reply) Scan(body []byte) error {
	*r = Reply{Body: body, Distances: r.Distances[:0], Lo: r.Lo[:0], Hi: r.Hi[:0]}
	if len(body) > math.MaxInt32 {
		return fmt.Errorf("reply of %d bytes is too long to scan", len(body))
	}
	s := scanner{b: body}
	if err := s.expect('{', "'{'"); err != nil {
		return err
	}
	if s.next() == '}' {
		s.i++
		return s.end()
	}
	var seen [len(replyKeys)]bool
	for {
		key, err := s.key()
		if err != nil {
			return err
		}
		if err := s.expect(':', "':' after a key"); err != nil {
			return err
		}
		col := -1
		for c, k := range replyKeys {
			if string(key) == k {
				col = c
			} else if bytes.EqualFold(key, []byte(k)) {
				return s.errorf("key %q is a case variant of %q", key, k)
			}
		}
		switch {
		case col < 0:
			err = s.skipValue(0)
		case seen[col]:
			return s.errorf("repeated key %q", key)
		case col == colClamped:
			r.ClampedCount, err = s.integer()
			r.HasClamped = true
		default:
			p := r.column(col)
			*p, err = s.numbers(*p)
		}
		if err != nil {
			return err
		}
		if col >= 0 {
			seen[col] = true
		}
		c := s.next()
		if c == '}' {
			s.i++
			return s.end()
		}
		if c != ',' {
			return s.errorf("expected ',' or '}' after a value")
		}
		s.i++
	}
}

// key scans an object key: a string of printable ASCII without escapes.
func (s *scanner) key() ([]byte, error) {
	if s.next() != '"' {
		return nil, s.errorf("expected a key")
	}
	start := s.i + 1
	for i := start; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			s.i = i + 1
			return s.b[start:i], nil
		case c == '\\' || c < 0x20 || c >= 0x80:
			s.i = i
			return nil, s.errorf("unsupported byte in a key")
		}
	}
	s.i = len(s.b)
	return nil, s.errorf("unterminated key")
}

// numbers scans an array of JSON numbers in float64 range, appending
// the span of each to dst. A number is never converted: number decides
// its range from the digits it walks.
func (s *scanner) numbers(dst []Span) ([]Span, error) {
	if err := s.expect('[', "'[' opening a number array"); err != nil {
		return dst, err
	}
	if s.next() == ']' {
		s.i++
		return dst, nil
	}
	for {
		s.next()
		sp, finite, err := s.number()
		if err != nil {
			return dst, err
		}
		if !finite {
			s.i = int(sp.Off)
			return dst, s.errorf("number outside the float64 range")
		}
		dst = append(dst, sp)
		c := s.next()
		if c == ']' {
			s.i++
			return dst, nil
		}
		if c != ',' {
			return dst, s.errorf("expected ',' or ']' in a number array")
		}
		s.i++
	}
}

// integer scans a JSON integer that fits an int.
func (s *scanner) integer() (int, error) {
	s.next()
	sp, _, err := s.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(string(s.b[sp.Off:sp.End]))
	if err != nil {
		s.i = int(sp.Off)
		return 0, s.errorf("expected an integer that fits an int")
	}
	return v, nil
}

// number scans one number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, at the current byte.
// finite is strconv.ParseFloat's verdict on it (ParseFloat fails only
// on overflow), decided from m, the decimal exponent of the number's
// leading non-zero digit as ParseFloat counts it: below 308 the number
// is finite, above it out of range, and only at 308 is ParseFloat
// called.
func (s *scanner) number() (sp Span, finite bool, err error) {
	b, i := s.b, s.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	// The number is 0.d₁d₂… × 10^(dp+exp), d₁ its leading non-zero
	// digit; it is zero when it has none.
	dp, zero := 0, true
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		d := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		if i == d {
			s.i = i
			return Span{}, false, s.errorf("expected a number")
		}
		dp, zero = min(i-d, decimalDigits), false
	}
	if i < len(b) && b[i] == '.' {
		i++
		d := i
		if zero {
			for i < len(b) && b[i] == '0' {
				i++
			}
			dp = d - i
		}
		nz := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		if i == d {
			s.i = i
			return Span{}, false, s.errorf("expected a digit after the decimal point")
		}
		zero = zero && i == nz
	}
	exp := 0
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (neg || b[i] == '+') {
			i++
		}
		d := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if exp < 10000 { // saturates where ParseFloat's does
				exp = exp*10 + int(b[i]-'0')
			}
		}
		if i == d {
			s.i = i
			return Span{}, false, s.errorf("expected an exponent digit")
		}
		if neg {
			exp = -exp
		}
	}
	s.i = i
	sp = Span{Off: int32(start), End: int32(i)}
	switch m := dp - 1 + exp; {
	case zero || m < 308:
		return sp, true, nil
	case m > 308:
		return sp, false, nil
	}
	_, err = strconv.ParseFloat(string(b[start:i]), 64)
	return sp, err == nil, nil
}

// decimalDigits caps the integer digits m counts, as ParseFloat's exact
// fallback (strconv's 800-digit decimal) counts them. Every number out
// of range takes that fallback, so "1" + 1999 zeros + "e-1600", which
// is 1e399, reads as 0 without error.
const decimalDigits = 800

// skipValue checks and steps over one JSON value.
func (s *scanner) skipValue(depth int) error {
	if depth > maxDepth {
		return s.errorf("value nested deeper than %d", maxDepth)
	}
	switch s.next() {
	case '{':
		s.i++
		if s.next() == '}' {
			s.i++
			return nil
		}
		for {
			if s.next() != '"' {
				return s.errorf("expected a key")
			}
			if err := s.skipString(); err != nil {
				return err
			}
			if err := s.expect(':', "':' after a key"); err != nil {
				return err
			}
			if err := s.skipValue(depth + 1); err != nil {
				return err
			}
			switch s.next() {
			case ',':
				s.i++
			case '}':
				s.i++
				return nil
			default:
				return s.errorf("expected ',' or '}' in an object")
			}
		}
	case '[':
		s.i++
		if s.next() == ']' {
			s.i++
			return nil
		}
		for {
			if err := s.skipValue(depth + 1); err != nil {
				return err
			}
			switch s.next() {
			case ',':
				s.i++
			case ']':
				s.i++
				return nil
			default:
				return s.errorf("expected ',' or ']' in an array")
			}
		}
	case '"':
		return s.skipString()
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	default:
		_, _, err := s.number()
		return err
	}
}

func (s *scanner) literal(word string) error {
	if !bytes.HasPrefix(s.b[s.i:], []byte(word)) {
		return s.errorf("expected %s", word)
	}
	s.i += len(word)
	return nil
}

// skipString steps over a JSON string starting at its opening quote.
func (s *scanner) skipString() error {
	b := s.b
	for i := s.i + 1; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
			return nil
		case c < 0x20:
			s.i = i
			return s.errorf("control byte in a string")
		case c != '\\':
			i++
		case i+1 < len(b) && strings.IndexByte(`"\/bfnrt`, b[i+1]) >= 0:
			i += 2
		case i+5 < len(b) && b[i+1] == 'u' && isHex(b[i+2]) && isHex(b[i+3]) && isHex(b[i+4]) && isHex(b[i+5]):
			i += 6
		default:
			s.i = i
			return s.errorf("invalid escape in a string")
		}
	}
	s.i = len(b)
	return s.errorf("unterminated string")
}

func isHex(c byte) bool {
	return c-'0' <= 9 || (c|0x20)-'a' <= 5
}

// maxNumberLen is the longest number AppendAnswer writes: a sign, "0."
// and five zeros, then seventeen significant digits.
const maxNumberLen = len("-0.0000012345678901234567")

// replyOverhead bounds a replica answer's bytes outside its arrays (its
// keys and counts), or a whole error answer.
const replyOverhead = 4 << 10

// MaxReplyBytes is the longest answer a replica writes to a batch of n
// pairs without ?explain=1 (which the gateway never asks for): three
// arrays of n numbers, each followed by a separator.
func MaxReplyBytes(n int) int64 {
	return replyOverhead + 3*int64(n)*int64(maxNumberLen+1)
}

// ErrReplyTooLarge reports a reply longer than its cap.
var ErrReplyTooLarge = errors.New("reply exceeds its size cap")

// ReadReply reads a reply body whole, refusing one longer than limit
// bytes with ErrReplyTooLarge. A declared length sizes the buffer once.
func ReadReply(body io.Reader, contentLength, limit int64) ([]byte, error) {
	if contentLength > limit {
		return nil, fmt.Errorf("%w: %d-byte reply, cap %d", ErrReplyTooLarge, contentLength, limit)
	}
	data, err := readAll(io.LimitReader(body, limit+1), contentLength, nil)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("%w: over %d bytes", ErrReplyTooLarge, limit)
	}
	return data, nil
}

// PairError is one unanswered pair in a partial answer.
type PairError struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// Merge assembles the gateway's answer to one batch from its legs'
// replies, copying each number's bytes into pair order.
type Merge struct {
	legs     []*Reply
	from, at []int32 // per pair: the answering leg (-1: none), and the pair's position in it
}

// NewMerge starts the answer to a batch of n pairs, none answered yet.
func NewMerge(n int) *Merge {
	m := &Merge{from: make([]int32, n), at: make([]int32, n)}
	for i := range m.from {
		m.from[i] = -1
	}
	return m
}

// Add records that r answers the pairs at positions index: its k-th
// numbers belong to pair index[k]. r must hold len(index) distances.
func (m *Merge) Add(r *Reply, index []int) {
	leg := int32(len(m.legs))
	m.legs = append(m.legs, r)
	for k, i := range index {
		m.from[i], m.at[i] = leg, int32(k)
	}
}

// AppendOK appends the 200 answer: the merged distances and, when
// guarded (every leg holds lo and hi for each of its pairs), the bounds
// and the summed clamp count.
func (m *Merge) AppendOK(dst []byte, guarded bool, clamped int) []byte {
	size := 64
	for _, r := range m.legs {
		size += len(r.Body)
	}
	if cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, len(dst)+size), dst...)
	}
	dst = append(dst, '{')
	if guarded {
		dst = append(dst, `"clamped_count":`...)
		dst = strconv.AppendInt(dst, int64(clamped), 10)
		dst = append(dst, ',')
	}
	dst = append(dst, `"distances":`...)
	dst = m.appendColumn(dst, colDistances)
	if guarded {
		dst = append(dst, `,"hi":`...)
		dst = m.appendColumn(dst, colHi)
		dst = append(dst, `,"lo":`...)
		dst = m.appendColumn(dst, colLo)
	}
	return append(dst, "}\n"...)
}

// AppendPartial appends the 206 answer: distances with null for every
// unanswered pair, errs (sorted by index) and "partial":true.
func (m *Merge) AppendPartial(dst []byte, errs []PairError) []byte {
	dst = append(dst, `{"distances":`...)
	dst = m.appendColumn(dst, colDistances)
	dst = append(dst, `,"errors":`...)
	enc, _ := json.Marshal(errs) // ints and strings always encode
	dst = append(dst, enc...)
	return append(dst, ",\"partial\":true}\n"...)
}

func (m *Merge) appendColumn(dst []byte, col int) []byte {
	spans := make([][]Span, len(m.legs))
	for j, r := range m.legs {
		spans[j] = *r.column(col)
	}
	dst = append(dst, '[')
	for i, leg := range m.from {
		if i > 0 {
			dst = append(dst, ',')
		}
		if leg < 0 {
			dst = append(dst, "null"...)
			continue
		}
		sp := spans[leg][m.at[i]]
		dst = append(dst, m.legs[leg].Body[sp.Off:sp.End]...)
	}
	return append(dst, ']')
}
