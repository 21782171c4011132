package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"repro/internal/emb"
	"repro/internal/faultinject"
	"repro/internal/fsx"
	"repro/internal/telemetry"
)

// Chaos-test hooks for the checkpoint path.
const (
	// FailpointCheckpointSave makes SaveCheckpoint fail before touching
	// the filesystem.
	FailpointCheckpointSave = "core/checkpoint-save"
	// FailpointCheckpointLoad makes RestoreCheckpoint fail before
	// reading the file.
	FailpointCheckpointLoad = "core/checkpoint-load"
)

// Checkpointing makes the multi-hour hierarchical builds the paper
// reports on NW/E-US-scale graphs restartable: Build periodically
// writes the raw training state (the local/flat embedding matrix plus
// a phase/level/epoch cursor) to an atomic, checksummed file, and a
// resumed Build restarts from the last completed unit of work instead
// of from scratch.
//
// Granularity: phase ① checkpoints after each completed hierarchy
// level, phase ② after each vertex epoch, phase ③ after each
// fine-tune round. Resume re-derives everything deterministic from
// (graph, options) — hierarchy, landmarks, grid, validation set — and
// only the embedding state and progress cursor come from the file, so
// a checkpoint is far smaller than a model and independent of the
// sampling RNG. A resumed build is statistically equivalent to, but
// not bit-identical with, an uninterrupted one (the RNG stream
// restarts at the resume point).

// Build phase cursor values stored in checkpoints.
const (
	ckptPhaseNone     = 0 // nothing completed yet
	ckptPhaseHier     = 1 // Level = last completed hierarchy level
	ckptPhaseVertex   = 2 // Epoch = completed vertex-phase epochs
	ckptPhaseFineTune = 3 // Epoch = completed fine-tune rounds
)

const ckptMagic = "RNECKPT1\n"

// ckptMeta is the fixed-size header section of a checkpoint payload.
type ckptMeta struct {
	NumVertices  int64
	NumNodes     int64 // hierarchy nodes; 0 in naive mode
	Dim          int64
	Hierarchical int64 // 1 or 0
	Seed         int64
	SamplesUsed  int64
	Phase        int64
	Level        int64
	Epoch        int64
	Scale        float64
}

// ckptMatrix returns the matrix holding the live training state.
func (t *Trainer) ckptMatrix() *emb.Matrix {
	if t.hier != nil {
		return t.hier.Local
	}
	return t.flat
}

func (t *Trainer) ckptMeta(phase, level, epoch int) ckptMeta {
	meta := ckptMeta{
		NumVertices: int64(t.g.NumVertices()),
		Dim:         int64(t.opt.Dim),
		Seed:        t.opt.Seed,
		SamplesUsed: t.samplesUsed,
		Phase:       int64(phase),
		Level:       int64(level),
		Epoch:       int64(epoch),
		Scale:       t.scale,
	}
	if t.hier != nil {
		meta.Hierarchical = 1
		meta.NumNodes = int64(t.hier.H.NumNodes())
	}
	return meta
}

// writeCheckpoint streams the checkpoint encoding, one fsx section
// whose payload is the meta block and the embedding matrix, to w. It
// is shared by on-disk checkpoints and the sentinel's in-memory
// last-good snapshots, so rollback restores exercise the same codec as
// -resume.
func (t *Trainer) writeCheckpoint(w io.Writer, phase, level, epoch int) error {
	meta := t.ckptMeta(phase, level, epoch)
	mat := t.ckptMatrix()
	size := int64(binary.Size(meta)) + emb.MatrixFileSize(mat.Rows(), mat.Dim())
	_, err := fsx.WriteSection(w, ckptMagic, size, func(w io.Writer) error {
		if err := binary.Write(w, binary.LittleEndian, meta); err != nil {
			return err
		}
		_, err := mat.WriteTo(w)
		return err
	})
	return err
}

// SaveCheckpoint atomically writes the trainer's current embedding
// state and progress cursor to path, in the same length+CRC framed
// format as model files (magic RNECKPT1).
func (t *Trainer) SaveCheckpoint(path string, phase, level, epoch int) error {
	if err := faultinject.Check(FailpointCheckpointSave); err != nil {
		return err
	}
	return fsx.WriteAtomic(path, func(w io.Writer) error {
		return t.writeCheckpoint(w, phase, level, epoch)
	})
}

// RestoreCheckpoint loads a checkpoint written by SaveCheckpoint into
// the trainer, returning the progress cursor. The checkpoint must
// match the trainer's graph and options (vertex count, hierarchy
// shape, dimension, seed and distance scale are all verified), and the
// file's length/checksum framing is validated before any state is
// adopted.
func (t *Trainer) RestoreCheckpoint(path string) (phase, level, epoch int, err error) {
	if err := faultinject.Check(FailpointCheckpointLoad); err != nil {
		return 0, 0, 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	return t.readCheckpoint(f)
}

// readCheckpoint decodes and adopts a checkpoint stream produced by
// writeCheckpoint, validating framing and build-configuration match
// before any trainer state is touched.
func (t *Trainer) readCheckpoint(r io.Reader) (phase, level, epoch int, err error) {
	sec, err := fsx.ReadSection(r, ckptMagic, "core", "checkpoint")
	if err != nil {
		return 0, 0, 0, err
	}
	var meta ckptMeta
	if err := binary.Read(sec, binary.LittleEndian, &meta); err != nil {
		return 0, 0, 0, fmt.Errorf("core: reading checkpoint header: %w", err)
	}
	mat, err := emb.ReadMatrix(sec, sec.Left())
	if err != nil {
		return 0, 0, 0, fmt.Errorf("core: reading checkpoint matrix: %w", err)
	}
	if err := sec.Close(); err != nil {
		return 0, 0, 0, err
	}

	// Integrity established; now verify the checkpoint belongs to this
	// exact build configuration.
	want := t.ckptMeta(0, 0, 0)
	switch {
	case meta.NumVertices != want.NumVertices:
		err = fmt.Errorf("graph has %d vertices, checkpoint was taken over %d", want.NumVertices, meta.NumVertices)
	case meta.Hierarchical != want.Hierarchical:
		err = fmt.Errorf("hierarchical mode %d does not match checkpoint %d", want.Hierarchical, meta.Hierarchical)
	case meta.NumNodes != want.NumNodes:
		err = fmt.Errorf("hierarchy has %d nodes, checkpoint was taken over %d", want.NumNodes, meta.NumNodes)
	case meta.Dim != want.Dim:
		err = fmt.Errorf("dimension %d does not match checkpoint %d", want.Dim, meta.Dim)
	case meta.Seed != want.Seed:
		err = fmt.Errorf("seed %d does not match checkpoint %d", want.Seed, meta.Seed)
	case meta.Scale != want.Scale:
		err = fmt.Errorf("distance scale %v does not match checkpoint %v (different graph?)", want.Scale, meta.Scale)
	case meta.Phase < ckptPhaseNone || meta.Phase > ckptPhaseFineTune:
		err = fmt.Errorf("invalid phase cursor %d", meta.Phase)
	case meta.SamplesUsed < 0:
		err = fmt.Errorf("invalid sample counter %d", meta.SamplesUsed)
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("core: checkpoint does not match this build: %w", err)
	}
	dst := t.ckptMatrix()
	if mat.Rows() != dst.Rows() || mat.Dim() != dst.Dim() {
		return 0, 0, 0, fmt.Errorf("core: checkpoint matrix is %dx%d, want %dx%d",
			mat.Rows(), mat.Dim(), dst.Rows(), dst.Dim())
	}
	copy(dst.Data(), mat.Data())
	t.samplesUsed = meta.SamplesUsed
	return int(meta.Phase), int(meta.Level), int(meta.Epoch), nil
}

// checkpointer throttles checkpoint writes to every CheckpointEvery
// completed epochs across phases. A nil path disables it.
//
// Checkpoints exist only to make builds resumable, so by default a
// failed write must not kill the hours of training it was protecting:
// the failure is counted, logged, and the write retried at the next
// tick (the previous on-disk checkpoint, if any, stays valid because
// writes are atomic). strict restores fail-fast behavior.
type checkpointer struct {
	path   string
	every  int
	since  int
	strict bool
	logger *slog.Logger
	stats  *BuildStats
}

// tick records that epochs more training epochs completed, leaving the
// trainer at the given cursor, and checkpoints if the budget is due.
// Each write is a "checkpoint" child span of unit, the unit's span.
func (c *checkpointer) tick(tr *Trainer, unit *telemetry.ReqSpan, epochs, phase, level, epoch int) error {
	if c.path == "" {
		return nil
	}
	c.since += epochs
	if c.since < c.every {
		return nil
	}
	sp := unit.Child("checkpoint", time.Now())
	err := tr.SaveCheckpoint(c.path, phase, level, epoch)
	sp.SetError(err)
	sp.End()
	if err != nil {
		if c.strict {
			return fmt.Errorf("core: writing checkpoint: %w", err)
		}
		c.stats.CheckpointFailures++
		telemetry.OrNop(c.logger).Warn("checkpoint write failed; build continues, resumability degraded",
			"path", c.path, "error", err)
		// Leave `since` accumulated so the very next tick retries.
		return nil
	}
	c.since = 0
	return nil
}
