package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/fsx"
	"repro/internal/vecmath"
)

// Serialization lets a spatial index built next to a fresh model be
// reloaded alongside a deserialized model, so query servers can serve
// /knn and /range without retraining. The format stores the pruned
// tree's structure, per-slot vectors and radii, and the indexed target
// lists; the model itself is saved separately (core.Model.Save).
//
// The file is one fsx section (magic, payload length, payload, CRC-32
// trailer), so Load rejects truncated or bit-flipped files with a
// precise error.
const treeMagic = "RNEIDX2\n"

// payloadSize is the exact payload length.
func (t *Tree) payloadSize() int64 {
	n := int64(6*8 + 16) // header ints + p/scale
	for _, s := range t.children {
		n += 8 + 4*int64(len(s))
	}
	for _, s := range t.verts {
		n += 8 + 4*int64(len(s))
	}
	d := int64(0)
	if len(t.vectors) > 0 {
		d = int64(len(t.vectors[0]))
	}
	n += int64(len(t.vectors)) * d * 8
	n += int64(len(t.radius)) * 8
	return n
}

// writePayload emits the payload section.
func (t *Tree) writePayload(w io.Writer) error {
	d := 0
	if len(t.vectors) > 0 {
		d = len(t.vectors[0])
	}
	hdr := []int64{int64(len(t.children)), int64(d), int64(t.root), int64(t.size),
		int64(len(t.model.Vector(0))), int64(t.model.NumVertices())}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, []float64{t.p, t.scale}); err != nil {
		return err
	}
	writeInt32Slices := func(slices [][]int32) error {
		for _, s := range slices {
			if err := binary.Write(w, binary.LittleEndian, int64(len(s))); err != nil {
				return err
			}
			if err := fsx.WriteSlice(w, s); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeInt32Slices(t.children); err != nil {
		return err
	}
	if err := writeInt32Slices(t.verts); err != nil {
		return err
	}
	for _, vec := range t.vectors {
		if err := fsx.WriteSlice(w, vec); err != nil {
			return err
		}
	}
	return fsx.WriteSlice(w, t.radius)
}

// Save serializes the tree structure (not the model) in the current
// integrity-checked format.
func (t *Tree) Save(w io.Writer) error {
	_, err := fsx.WriteSection(w, treeMagic, t.payloadSize(), t.writePayload)
	return err
}

// Load deserializes a tree saved with Save and attaches it to the given
// model, which must match the one the tree was built with (dimension,
// vertex count, metric and scale are verified).
func Load(r io.Reader, m *core.Model) (*Tree, error) {
	sec, err := fsx.ReadSection(r, treeMagic, "index", "tree")
	if err != nil {
		return nil, err
	}
	// The payload is read whole and verified before it is parsed, so
	// its length is the bytes actually present (whatever the header
	// claims) and every size the payload declares can be checked
	// against what is left.
	payload, err := io.ReadAll(sec)
	if err != nil {
		return nil, fmt.Errorf("index: reading payload: %w", err)
	}
	if err := sec.Close(); err != nil {
		return nil, err
	}
	return loadPayload(bytes.NewReader(payload), m)
}

// loadPayload parses the payload section. Each count the header
// declares is checked against the bytes left in r before anything of
// that size is allocated.
func loadPayload(r *bytes.Reader, m *core.Model) (*Tree, error) {
	var hdr [6]int64
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("index: reading header: %w", err)
	}
	nSlots, d, root, size, modelDim, modelVerts := hdr[0], hdr[1], hdr[2], hdr[3], hdr[4], hdr[5]
	if nSlots <= 0 || nSlots > 1<<31 || root < 0 || root >= nSlots || size < 0 {
		return nil, fmt.Errorf("index: implausible header %v", hdr)
	}
	if int(modelDim) != m.Dim() || int(modelVerts) != m.NumVertices() {
		return nil, fmt.Errorf("index: tree was built for a %dx%d model, got %dx%d",
			modelVerts, modelDim, m.NumVertices(), m.Dim())
	}
	if d != modelDim {
		return nil, fmt.Errorf("index: tree vectors have dimension %d, model has %d", d, modelDim)
	}
	var pScale [2]float64
	if err := binary.Read(r, binary.LittleEndian, &pScale); err != nil {
		return nil, err
	}
	if err := metricErr(pScale[0]); err != nil {
		return nil, err
	}
	if pScale[0] != m.P() || pScale[1] != m.Scale() {
		return nil, fmt.Errorf("index: tree metric/scale (%v, %v) do not match model (%v, %v)",
			pScale[0], pScale[1], m.P(), m.Scale())
	}
	// Every slot holds two slice lengths, a vector and a radius.
	if perSlot := 8 * (3 + d); nSlots > int64(r.Len())/perSlot {
		return nil, fmt.Errorf("index: header declares %d slots, payload has %d bytes left", nSlots, r.Len())
	}

	t := &Tree{model: m, p: pScale[0], scale: pScale[1], root: int32(root), size: int(size)}
	readInt32Slices := func(n int64, maxID int64) ([][]int32, error) {
		out := make([][]int32, n)
		for i := range out {
			var l int64
			if err := binary.Read(r, binary.LittleEndian, &l); err != nil {
				return nil, err
			}
			if l < 0 || l > maxID || l > int64(r.Len())/4 {
				return nil, fmt.Errorf("index: implausible slice length %d", l)
			}
			if l == 0 {
				continue
			}
			s := make([]int32, l)
			if err := binary.Read(r, binary.LittleEndian, s); err != nil {
				return nil, err
			}
			for _, v := range s {
				if int64(v) < 0 || int64(v) >= maxID {
					return nil, fmt.Errorf("index: id %d outside [0,%d)", v, maxID)
				}
			}
			out[i] = s
		}
		return out, nil
	}
	var err error
	if t.children, err = readInt32Slices(nSlots, nSlots); err != nil {
		return nil, err
	}
	if t.verts, err = readInt32Slices(nSlots, modelVerts); err != nil {
		return nil, err
	}
	t.vectors = make([][]float64, nSlots)
	for i := range t.vectors {
		vec := make([]float64, d)
		if err := binary.Read(r, binary.LittleEndian, vec); err != nil {
			return nil, err
		}
		t.vectors[i] = vec
	}
	t.radius = make([]float64, nSlots)
	if err := binary.Read(r, binary.LittleEndian, t.radius); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("index: %d payload bytes left after the last section", r.Len())
	}
	if err := t.check(); err != nil {
		return nil, err
	}
	return t, nil
}

// check verifies what the queries rely on beyond the ids being in
// range: the slots form one tree under root, so traversals end; each
// target is listed once and size counts them, so kNN's k is honest; and
// every radius is a number that covers each target beneath its slot,
// so pruning never cuts a slot holding an answer.
//
// The cover test compares the very value Build takes the maximum of,
// Lp(center, target)·scale, against the radius, with no tolerance.
// Radii composed by earlier builds, max(child-center distance + child
// radius), bound the same distances through the triangle inequality;
// on the test fixture and on bj-mini they pass as written.
func (t *Tree) check() error {
	parent := make([]int32, len(t.children))
	reached := make([]bool, len(t.children))
	parent[t.root], reached[t.root] = -1, true
	for stack := []int32{t.root}; len(stack) > 0; {
		slot := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range t.children[slot] {
			if reached[c] {
				return fmt.Errorf("index: slot %d is reached twice from root %d", c, t.root)
			}
			parent[c], reached[c] = slot, true
			stack = append(stack, c)
		}
	}
	for slot, ok := range reached {
		if !ok {
			return fmt.Errorf("index: slot %d is not reachable from root %d", slot, t.root)
		}
	}
	listed := make([]bool, t.model.NumVertices())
	n := 0
	for _, vs := range t.verts {
		for _, v := range vs {
			if listed[v] {
				return fmt.Errorf("index: target %d is listed twice", v)
			}
			listed[v] = true
		}
		n += len(vs)
	}
	if n != t.size {
		return fmt.Errorf("index: header declares %d targets, the slots list %d", t.size, n)
	}
	for slot, r := range t.radius {
		if !(r >= 0) {
			return fmt.Errorf("index: slot %d has radius %v", slot, r)
		}
	}
	for slot, vs := range t.verts {
		for _, v := range vs {
			x := t.model.Vector(v)
			for a := int32(slot); a >= 0; a = parent[a] {
				if d := vecmath.Lp(t.vectors[a], x, t.p) * t.scale; !(d <= t.radius[a]) {
					return fmt.Errorf("index: slot %d's radius %v does not cover target %d at %v", a, t.radius[a], v, d)
				}
			}
		}
	}
	return nil
}

// SaveFile writes the tree to the named file atomically (temp file +
// fsync + rename; see fsx.WriteAtomic).
func (t *Tree) SaveFile(path string) error {
	return fsx.WriteAtomic(path, t.Save)
}

// LoadFile reads a tree from the named file, attaching it to m.
func LoadFile(path string, m *core.Model) (*Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, m)
}
