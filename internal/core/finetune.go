package core

import (
	"fmt"

	"repro/internal/graph"
)

// FineTune incrementally retrains an existing model against g: the
// warm model's embedding and distance normalizer are adopted as the
// starting state, then the vertex phase and active fine-tuning rounds
// of Algorithm 1 run over fresh exact samples from g. It is the cheap
// repair path for drifted models — when edge weights shift (rush hour,
// incidents) the vertex space is unchanged and a few warm-started
// rounds recover accuracy at a fraction of a full rebuild.
//
// The warm model's partition hierarchy is not required (persisted
// models drop it), so fine-tuning always runs in naive mode over the
// flattened embedding; the returned model therefore carries no
// hierarchy and cannot back a spatial index until the next full Build.
// Dim and P are inherited from the warm model. A vertex-count mismatch
// between warm and g is an error — topology changes need Build.
//
// Training runs through Build's phase loop, under the same divergence
// sentinel, checkpointer and Options.Trace spans:
// Options.CheckpointPath/StrictCheckpoints/Resume behave identically,
// so an interrupted fine-tune resumes, and chaos tests can kill the
// first attempt through the checkpoint-save failpoint.
func FineTune(g *graph.Graph, warm *Model, opt Options) (*Model, BuildStats, error) {
	if warm == nil {
		return nil, BuildStats{}, fmt.Errorf("core: fine-tune needs a warm-start model")
	}
	if warm.NumVertices() != g.NumVertices() {
		return nil, BuildStats{}, fmt.Errorf(
			"core: warm model covers %d vertices but graph has %d — topology changed, run a full build",
			warm.NumVertices(), g.NumVertices())
	}
	opt.Hierarchical = false
	opt.Dim = warm.Dim()
	opt.P = warm.P()
	return run(g, opt, "fine-tune", func(tr *Trainer) {
		// Warm start: adopt the previous model's embedding and its
		// distance normalizer. The matrix entries are distances over
		// warm's scale, so the scale must travel with them —
		// re-normalizing by the perturbed graph's diameter would
		// silently stretch every estimate.
		copy(tr.flat.Data(), warm.Matrix().Data())
		tr.scale = warm.Scale()
	})
}
