package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/emb"
	"repro/internal/gen"
	"repro/internal/graph"
)

func ckptTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Grid(10, 10, gen.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// ckptTestOptions disables fine-tuning so sample counts are exactly
// deterministic across fresh and resumed builds.
func ckptTestOptions(path string) Options {
	opt := DefaultOptions(11)
	opt.Dim = 8
	opt.Epochs = 3
	opt.VertexSampleRatio = 10
	opt.HierSampleCap = 2000
	opt.ValidationPairs = 100
	opt.ActiveFineTune = false
	opt.CheckpointPath = path
	return opt
}

// A build interrupted after phase ① resumes from the checkpoint and
// finishes with exactly the sample budget of an uninterrupted build.
func TestBuildResumesFromCheckpoint(t *testing.T) {
	g := ckptTestGraph(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "build.ckpt")

	// Reference: uninterrupted build, no checkpointing.
	refOpt := ckptTestOptions("")
	refModel, refStats, err := Build(g, refOpt)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a build killed right after the hierarchy phase: run only
	// phase ①, checkpointing after each completed level.
	tr, err := NewTrainer(g, ckptTestOptions(path))
	if err != nil {
		t.Fatal(err)
	}
	var levelsDone int
	err = tr.RunHierPhaseFrom(1, func(lev int) error {
		levelsDone++
		return tr.SaveCheckpoint(path, ckptPhaseHier, lev, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if levelsDone == 0 {
		t.Fatal("no hierarchy levels trained")
	}
	hierSamples := tr.SamplesUsed()
	if hierSamples == 0 {
		t.Fatal("hier phase consumed no samples")
	}

	// Resume: the build must skip phase ① (restoring its samples) and
	// run only phases ② onward.
	opt := ckptTestOptions(path)
	opt.Resume = true
	model, stats, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Resumed {
		t.Fatal("stats.Resumed = false on a resumed build")
	}
	if stats.SamplesUsed != refStats.SamplesUsed {
		t.Fatalf("resumed build consumed %d samples total, uninterrupted build %d",
			stats.SamplesUsed, refStats.SamplesUsed)
	}
	if got := stats.SamplesUsed - hierSamples; got <= 0 {
		t.Fatalf("resumed build ran no post-hier training (%d new samples)", got)
	}
	// The resumed model must be a working estimator of comparable
	// quality (not bit-identical: the RNG restarts at the resume point).
	if !(stats.Validation.MeanRel > 0) || math.IsInf(stats.Validation.MeanRel, 0) {
		t.Fatalf("resumed validation broken: %+v", stats.Validation)
	}
	if stats.Validation.MeanRel > 3*refStats.Validation.MeanRel+0.05 {
		t.Fatalf("resumed model much worse than uninterrupted: %.4f vs %.4f",
			stats.Validation.MeanRel, refStats.Validation.MeanRel)
	}
	if model.NumVertices() != refModel.NumVertices() || model.Dim() != refModel.Dim() {
		t.Fatal("resumed model has wrong shape")
	}
}

// The cursor and embedding state round-trip exactly through a
// checkpoint file.
func TestCheckpointCursorAndStateRoundTrip(t *testing.T) {
	g := ckptTestGraph(t)
	path := filepath.Join(t.TempDir(), "c.ckpt")

	tr, err := NewTrainer(g, ckptTestOptions(path))
	if err != nil {
		t.Fatal(err)
	}
	tr.RunHierPhase()
	if err := tr.SaveCheckpoint(path, ckptPhaseVertex, 0, 2); err != nil {
		t.Fatal(err)
	}

	tr2, err := NewTrainer(g, ckptTestOptions(path))
	if err != nil {
		t.Fatal(err)
	}
	phase, level, epoch, err := tr2.RestoreCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if phase != ckptPhaseVertex || level != 0 || epoch != 2 {
		t.Fatalf("cursor = (%d,%d,%d), want (2,0,2)", phase, level, epoch)
	}
	if tr2.SamplesUsed() != tr.SamplesUsed() {
		t.Fatalf("samplesUsed %d, want %d", tr2.SamplesUsed(), tr.SamplesUsed())
	}
	a, b := tr.ckptMatrix().Data(), tr2.ckptMatrix().Data()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("embedding state differs at %d after restore", i)
		}
	}
}

// Checkpoints from a different configuration or with corrupted bytes
// are rejected.
func TestCheckpointRejectsMismatchAndCorruption(t *testing.T) {
	g := ckptTestGraph(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")

	tr, err := NewTrainer(g, ckptTestOptions(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SaveCheckpoint(path, ckptPhaseHier, 1, 0); err != nil {
		t.Fatal(err)
	}

	// Different dimension.
	optDim := ckptTestOptions(path)
	optDim.Dim = 16
	trDim, err := NewTrainer(g, optDim)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := trDim.RestoreCheckpoint(path); err == nil {
		t.Fatal("dim-mismatched checkpoint accepted")
	}

	// Different seed.
	optSeed := ckptTestOptions(path)
	optSeed.Seed = 999
	trSeed, err := NewTrainer(g, optSeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := trSeed.RestoreCheckpoint(path); err == nil {
		t.Fatal("seed-mismatched checkpoint accepted")
	}

	// Flipped payload byte.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0x01
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tr.RestoreCheckpoint(bad); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}

	// Truncated file.
	trunc := filepath.Join(dir, "trunc.ckpt")
	if err := os.WriteFile(trunc, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tr.RestoreCheckpoint(trunc); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}

	// The intact file with one byte after its checksum trailer.
	raw[len(raw)-10] ^= 0x01
	trailing := filepath.Join(dir, "trailing.ckpt")
	if err := os.WriteFile(trailing, append(raw, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tr.RestoreCheckpoint(trailing); err == nil || !strings.Contains(err.Error(), "past its checksum trailer") {
		t.Fatalf("checkpoint with a trailing byte: error %v", err)
	}
}

// pinTrainer is a hand-built trainer over a 2-vertex graph, holding
// just the state a checkpoint records.
func pinTrainer() *Trainer {
	b := graph.NewBuilder(2, 1)
	b.AddVertex(0, 0)
	b.AddVertex(1, 0)
	b.AddEdge(0, 1, 1)
	mat := emb.NewMatrix(2, 2)
	copy(mat.Data(), []float64{0.5, -1, 2, 0.25})
	return &Trainer{g: b.Build(), opt: Options{Dim: 2, Seed: 3}, flat: mat, scale: 1.5, samplesUsed: 42}
}

// ckptPin is pinTrainer checkpointed at phase 2, epoch 2, as written
// by every RNECKPT1 writer so far.
const ckptPin = "" +
	"524e45434b5054310a" + // RNECKPT1\n
	"8600000000000000" + // payload length 134
	"0200000000000000" + "0000000000000000" + // 2 vertices, 0 hierarchy nodes
	"0200000000000000" + "0000000000000000" + // dim 2, flat
	"0300000000000000" + "2a00000000000000" + // seed 3, 42 samples used
	"0200000000000000" + "0000000000000000" + // phase 2, level 0
	"0200000000000000" + "000000000000f83f" + // epoch 2, scale 1.5
	"524e454d310a" + // RNEM1\n
	"02000000000000000200000000000000" + // 2 x 2
	"000000000000e03f000000000000f0bf0000000000000040000000000000d03f" + // 0.5, -1, 2, 0.25
	"c6e9481c" // CRC-32

// The checkpoint encoding is pinned, so a checkpoint left by an older
// build still resumes.
func TestCheckpointFormatPinned(t *testing.T) {
	pin := mustHex(t, ckptPin)
	var buf bytes.Buffer
	if err := pinTrainer().writeCheckpoint(&buf, ckptPhaseVertex, 0, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), pin) {
		t.Fatalf("checkpoint encoding drifted:\n got %x\nwant %x", buf.Bytes(), pin)
	}
	tr := pinTrainer()
	tr.samplesUsed = 0
	tr.flat.Data()[0] = 9
	phase, level, epoch, err := tr.readCheckpoint(bytes.NewReader(pin))
	if err != nil {
		t.Fatal(err)
	}
	if phase != ckptPhaseVertex || level != 0 || epoch != 2 || tr.samplesUsed != 42 || tr.flat.Data()[0] != 0.5 {
		t.Fatalf("restored cursor (%d,%d,%d), %d samples, first value %v", phase, level, epoch, tr.samplesUsed, tr.flat.Data()[0])
	}
}

// resign recomputes the checksum trailer of a section whose magic is
// magicLen bytes, so an edited payload reaches the parser instead of
// failing the checksum.
func resign(raw []byte, magicLen int) []byte {
	raw = append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[magicLen+8:len(raw)-4]))
	return raw
}

// FuzzCheckpointRead feeds arbitrary bytes, as they are and re-signed,
// to readCheckpoint on a fixed trainer: no input may panic, and any
// input it accepts must write back to exactly the same bytes.
func FuzzCheckpointRead(f *testing.F) {
	f.Add(mustHex(f, ckptPin))
	f.Add(oversizedCheckpoint())
	tr := pinTrainer()
	f.Fuzz(func(t *testing.T, raw []byte) {
		inputs := [][]byte{raw}
		if len(raw) >= len(ckptMagic)+8+4 {
			inputs = append(inputs, resign(raw, len(ckptMagic)))
		}
		for _, in := range inputs {
			phase, level, epoch, err := tr.readCheckpoint(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			if err := tr.writeCheckpoint(&buf, phase, level, epoch); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), in) {
				t.Fatalf("accepted %d bytes but wrote %d different ones", len(in), buf.Len())
			}
		}
	})
}

// Resume with no checkpoint on disk silently starts a fresh build.
func TestBuildResumeWithoutCheckpointStartsFresh(t *testing.T) {
	g := ckptTestGraph(t)
	opt := ckptTestOptions(filepath.Join(t.TempDir(), "never-written.ckpt"))
	opt.Resume = true
	model, stats, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed {
		t.Fatal("stats.Resumed = true with no checkpoint on disk")
	}
	if model == nil || stats.SamplesUsed == 0 {
		t.Fatal("fresh build did not train")
	}
	// The checkpoint file must now exist (the build wrote it as it went).
	if _, err := os.Stat(opt.CheckpointPath); err != nil {
		t.Fatalf("checkpoint not written during build: %v", err)
	}
}

// A build resumed mid-vertex-phase runs only the remaining epochs.
func TestBuildResumesMidVertexPhase(t *testing.T) {
	g := ckptTestGraph(t)
	path := filepath.Join(t.TempDir(), "mid.ckpt")

	tr, err := NewTrainer(g, ckptTestOptions(path))
	if err != nil {
		t.Fatal(err)
	}
	tr.RunHierPhase()
	var stopped bool
	tr.RunVertexPhaseFrom(0, func(e int) error {
		if e == 0 { // "killed" after the first vertex epoch
			if err := tr.SaveCheckpoint(path, ckptPhaseVertex, 0, e+1); err != nil {
				return err
			}
			stopped = true
		}
		return nil
	})
	if !stopped {
		t.Fatal("vertex phase never ran")
	}

	opt := ckptTestOptions(path)
	opt.Resume = true
	_, stats, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Resumed {
		t.Fatal("not resumed")
	}
	if !(stats.Validation.MeanRel > 0) {
		t.Fatalf("validation broken: %+v", stats.Validation)
	}
}

func TestOptionsCheckpointValidation(t *testing.T) {
	opt := DefaultOptions(1)
	opt.Resume = true // without CheckpointPath
	if _, err := opt.withDefaults(); err == nil {
		t.Fatal("Resume without CheckpointPath accepted")
	}
	opt = DefaultOptions(1)
	opt.CheckpointPath = "x"
	opt.CheckpointEvery = -1
	if _, err := opt.withDefaults(); err == nil {
		t.Fatal("negative CheckpointEvery accepted")
	}
	opt = DefaultOptions(1)
	opt.CheckpointPath = "x"
	got, err := opt.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if got.CheckpointEvery != 1 {
		t.Fatalf("CheckpointEvery default = %d, want 1", got.CheckpointEvery)
	}
}
