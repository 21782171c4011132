package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/emb"
)

// pinMap is a hand-built routing map whose encoding is pinned.
func pinMap() *Map {
	return &Map{numShards: 2, cutLevel: 1, owner: []uint8{0, 1, 1}}
}

// mapPin is pinMap as written by every RNESMAP1 writer so far.
const mapPin = "" +
	"524e45534d4150310a" + // RNESMAP1\n
	"1b00000000000000" + // payload length 27
	"030000000000000002000000000000000100000000000000" + // 3 vertices, 2 shards, cut level 1
	"000101" + // owners 0, 1, 1
	"96a7c872" // CRC-32

// pinModel is a hand-built shard 1 of 2 over 3 vertices whose encoding
// is pinned.
func pinModel() *Model {
	owned, upper := emb.NewMatrix(2, 1), emb.NewMatrix(2, 1)
	copy(owned.Data(), []float64{0.5, 2})
	copy(upper.Data(), []float64{-1, 0.25})
	return &Model{shardID: 1, numShards: 2, cutLevel: 1, p: 1, scale: 3, n: 3,
		ownedIDs: []int32{1, 2}, owned: owned, upper: upper,
		coverIdx: []int32{0, 1, 1}, owner: []uint8{0, 1, 1}}
}

// modelPin is pinModel as written by every RNESHARD1 writer so far.
const modelPin = "" +
	"524e455348415244310a" + // RNESHARD1\n
	"a300000000000000" + // payload length 163
	"0100000000000000" + "0200000000000000" + // shard 1 of 2
	"0100000000000000" + "0300000000000000" + // cut level 1, 3 vertices
	"0200000000000000" + "0100000000000000" + // 2 owned, dim 1
	"000000000000f03f0000000000000840" + // p = 1, scale = 3
	"0100000002000000" + // owned ids 1, 2
	"000000000100000001000000" + // cover rows 0, 1, 1
	"000101" + // owners 0, 1, 1
	"524e454d310a" + // RNEM1\n
	"02000000000000000100000000000000" + // 2 x 1
	"000000000000e03f0000000000000040" + // owned rows 0.5, 2
	"524e454d310a" + // RNEM1\n
	"02000000000000000100000000000000" + // 2 x 1
	"000000000000f0bf000000000000d03f" + // upper rows -1, 0.25
	"1a0b1c5c" // CRC-32

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// encode returns what w writes, checking the count it reports.
func encode(t testing.TB, w io.WriterTo) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := w.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// Both encodings are pinned, so every sharded version already stored
// keeps loading.
func TestFormatsPinned(t *testing.T) {
	pin := mustHex(t, mapPin)
	if got := encode(t, pinMap()); !bytes.Equal(got, pin) {
		t.Fatalf("map encoding drifted:\n got %x\nwant %x", got, pin)
	}
	m, err := ReadMap(bytes.NewReader(pin))
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := m.ShardOf(2); m.NumVertices() != 3 || m.NumShards() != 2 || m.CutLevel() != 1 || s != 1 {
		t.Fatalf("loaded map %d vertices, %d shards, cut %d, vertex 2 on shard %d", m.NumVertices(), m.NumShards(), m.CutLevel(), s)
	}

	pin = mustHex(t, modelPin)
	if got := encode(t, pinModel()); !bytes.Equal(got, pin) {
		t.Fatalf("shard model encoding drifted:\n got %x\nwant %x", got, pin)
	}
	sm, err := ReadModel(bytes.NewReader(pin))
	if err != nil {
		t.Fatal(err)
	}
	if !sm.Owns(1) || sm.Owns(0) || sm.Estimate(1, 2) != 4.5 || sm.Estimate(0, 1) != 3.75 {
		t.Fatalf("loaded shard owns 0: %v, 1: %v; estimates %v, %v", sm.Owns(0), sm.Owns(1), sm.Estimate(1, 2), sm.Estimate(0, 1))
	}
}

// craftedMap is the 41-byte start of a routing map declaring n
// vertices, with the payload length that implies.
func craftedMap(n int64) []byte {
	raw := append([]byte(mapMagic), binary.LittleEndian.AppendUint64(nil, uint64(3*8+n))...)
	for _, v := range []int64{n, 2, 1} {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(v))
	}
	return raw
}

// craftedModel is the 82-byte start of a shard model declaring n
// vertices, owned of them its own, at dimension dim, with the payload
// length that implies for a one-row upper matrix (wrapped as int64
// arithmetic wraps it).
func craftedModel(n, owned, dim int64) []byte {
	size := 6*8 + 2*8 + owned*4 + n*5 + emb.MatrixFileSize(int(owned), int(dim)) + emb.MatrixFileSize(1, int(dim))
	raw := append([]byte(shardMagic), binary.LittleEndian.AppendUint64(nil, uint64(size))...)
	for _, v := range []int64{0, 1, 1, n, owned, dim} {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(v))
	}
	for _, v := range []float64{1, 1} {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	return raw
}

// craftedHeaders are map and shard model files whose headers declare
// far more than the file holds.
var craftedHeaders = []struct {
	name  string
	raw   []byte
	model bool
}{
	{"map, 2^28 vertices", craftedMap(1 << 28), false},
	{"model, 2^28 vertices all owned, dim 1", craftedModel(1<<28, 1<<28, 1), true},
	{"model, dim 2^61 overflows int64", craftedModel(1, 1, 1<<61), true},
}

// read loads raw as a shard model or a routing map.
func read(raw []byte, model bool) (io.WriterTo, error) {
	if model {
		return ReadModel(bytes.NewReader(raw))
	}
	return ReadMap(bytes.NewReader(raw))
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Each crafted header is rejected having allocated under 1 MiB.
func TestCraftedHeadersFailSmall(t *testing.T) {
	for _, c := range craftedHeaders {
		var err error
		if b := allocated(func() { _, err = read(c.raw, c.model) }); err == nil || b >= 1<<20 {
			t.Errorf("%s: error %v after %d bytes allocated", c.name, err, b)
		}
	}
}

// fuzzRead feeds arbitrary bytes, as they are and re-signed, to the
// map or shard model reader: no input may panic, and any input it
// accepts must write back to exactly the same bytes.
func fuzzRead(f *testing.F, pin string, model bool) {
	f.Add(mustHex(f, pin))
	for _, c := range craftedHeaders {
		if c.model == model {
			f.Add(c.raw)
		}
	}
	magicLen := len(mapMagic)
	if model {
		magicLen = len(shardMagic)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		inputs := [][]byte{raw}
		if len(raw) >= magicLen+8+4 {
			signed := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(signed[len(raw)-4:], crc32.ChecksumIEEE(raw[magicLen+8:len(raw)-4]))
			inputs = append(inputs, signed)
		}
		for _, in := range inputs {
			v, err := read(in, model)
			if err != nil {
				continue
			}
			if got := encode(t, v); !bytes.Equal(got, in) {
				t.Fatalf("accepted %d bytes but wrote %d different ones", len(in), len(got))
			}
		}
	})
}

func FuzzShardMapRead(f *testing.F) { fuzzRead(f, mapPin, false) }

func FuzzShardModelRead(f *testing.F) { fuzzRead(f, modelPin, true) }
