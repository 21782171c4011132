// Package rne is the public API of the Road Network Embedding (RNE)
// library, a reproduction of "A Learning-based Method for Computing
// Shortest Path Distances on Road Networks" (ICDE 2021).
//
// RNE embeds every vertex of a road network into a low-dimensional
// space so that the L1 distance between two embedding vectors
// approximates their shortest-path distance. Queries are two row reads
// and one L1 kernel — tens of nanoseconds — with sub-percent mean
// relative error after hierarchical training and active fine-tuning.
//
// Typical use:
//
//	g, _ := rne.LoadGraph("roads.txt")           // or rne.Preset("bj-mini")
//	model, stats, _ := rne.Build(g, rne.DefaultOptions(42))
//	d := model.Estimate(src, dst)                // approximate distance
//	idx, _ := rne.NewSpatialIndex(model, taxis)  // Section VI tree index
//	nearest := idx.KNN(rider, 5)
package rne

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/alt"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/index"
	"repro/internal/registry"
	"repro/internal/shard"
)

// Graph is a weighted road network: vertices with planar coordinates,
// undirected positively-weighted edges in CSR form.
type Graph = graph.Graph

// GraphBuilder accumulates vertices and edges into a Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder with capacity hints for n vertices
// and m undirected edges.
func NewGraphBuilder(n, m int) *GraphBuilder { return graph.NewBuilder(n, m) }

// LoadGraph reads a graph from the text edge-list format
// ("p <n> <m>" header, "v <id> <x> <y>" and "e <u> <v> <w>" records).
func LoadGraph(path string) (*Graph, error) { return graph.ReadFile(path) }

// SaveGraph writes a graph in the text edge-list format.
func SaveGraph(path string, g *Graph) error { return graph.WriteFile(path, g) }

// ReadGraph parses a graph from r in the text edge-list format.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// WriteGraph serializes g to w in the text edge-list format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// Preset generates one of the built-in synthetic road networks
// ("bj-mini", "fla-mini", "usw-mini") standing in for the paper's
// datasets.
func Preset(name string) (*Graph, error) {
	p, err := gen.PresetByName(name)
	if err != nil {
		return nil, err
	}
	return p.Build()
}

// Options configures a model build; see core.Options for every knob.
type Options = core.Options

// VertexStrategy selects the phase-② sample source.
type VertexStrategy = core.VertexStrategy

// Vertex-phase strategies.
const (
	VertexLandmark = core.VertexLandmark
	VertexRandom   = core.VertexRandom
)

// DefaultOptions returns the paper-style defaults (d=64, L1 metric,
// hierarchical training, landmark samples, active fine-tuning).
func DefaultOptions(seed int64) Options { return core.DefaultOptions(seed) }

// Model is a trained road-network embedding answering distance
// estimates in nanoseconds.
type Model = core.Model

// BuildStats reports build time per phase, samples consumed and final
// validation error.
type BuildStats = core.BuildStats

// Build trains an RNE over g: partition hierarchy, hierarchical
// embedding, landmark-based vertex embedding, active fine-tuning
// (Algorithm 1 of the paper).
func Build(g *Graph, opt Options) (*Model, BuildStats, error) { return core.Build(g, opt) }

// FineTune incrementally retrains warm against g: the warm model's
// embedding seeds a short vertex-phase + fine-tune schedule over fresh
// samples from g, recovering accuracy after an edge-weight regime
// shift at a fraction of a full Build. The graph must have the same
// vertex count as warm; the result is a naive (non-hierarchical)
// model.
func FineTune(g *Graph, warm *Model, opt Options) (*Model, BuildStats, error) {
	return core.FineTune(g, warm, opt)
}

// Trainer exposes the individual training phases for experimentation.
type Trainer = core.Trainer

// NewTrainer prepares a phase-by-phase trainer.
func NewTrainer(g *Graph, opt Options) (*Trainer, error) { return core.NewTrainer(g, opt) }

// LoadModel reads a model saved with Model.SaveFile.
func LoadModel(path string) (*Model, error) { return core.LoadFile(path) }

// SpatialIndex is the Section VI tree index over an object set
// (e.g. taxis, POIs) supporting embedding-space range and kNN queries.
type SpatialIndex = index.Tree

// SampleTargets draws a deterministic random set of ~frac*|V| distinct
// vertices to index as spatial targets (the taxis/POIs of the paper's
// Section VI workloads). frac must be non-negative; the sample size is
// clamped to [1, |V|], so frac >= 1 simply indexes every vertex.
func SampleTargets(g *Graph, frac float64, seed int64) ([]int32, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, fmt.Errorf("rne: sampling targets over an empty graph")
	}
	if frac < 0 || math.IsNaN(frac) {
		return nil, fmt.Errorf("rne: target fraction must be non-negative, got %v", frac)
	}
	n := g.NumVertices()
	k := int(frac * float64(n))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	targets := make([]int32, k)
	for i := 0; i < k; i++ {
		targets[i] = int32(perm[i])
	}
	return targets, nil
}

// NewSpatialIndex builds the tree index over the given target vertices.
// The model must come fresh from Build with hierarchical training
// enabled (loaded models do not retain the partition tree) and use a
// metric order P >= 1, below which radius pruning is unsound; persist
// the index with its SaveFile method and reload it with
// LoadSpatialIndex.
func NewSpatialIndex(m *Model, targets []int32) (*SpatialIndex, error) {
	return index.Build(m, targets)
}

// LoadSpatialIndex reads a spatial index saved with SpatialIndex.Save
// and attaches it to the (separately loaded) model it was built with.
func LoadSpatialIndex(path string, m *Model) (*SpatialIndex, error) {
	return index.LoadFile(path, m)
}

// ReadDIMACS parses a road network from the 9th DIMACS Implementation
// Challenge .gr/.co format (the format the paper's FLA and US-W
// datasets ship in).
func ReadDIMACS(grPath, coPath string) (*Graph, error) {
	return graph.ReadDIMACSFiles(grPath, coPath)
}

// BoundedEstimator clamps RNE estimates into ALT landmark bounds,
// trading RNE's nanosecond latency for microsecond queries with
// certified error intervals and much lighter tails.
type BoundedEstimator = hybrid.Estimator

// NewBoundedEstimator combines a model trained over g with a fresh
// landmark index of the given size.
func NewBoundedEstimator(g *Graph, m *Model, landmarks int, seed int64) (*BoundedEstimator, error) {
	lt, err := alt.Build(g, landmarks, seed)
	if err != nil {
		return nil, err
	}
	return hybrid.New(m, lt)
}

// ALTIndex is a landmark distance-label index: O(|U|) certified lower
// and upper bounds on any shortest-path distance.
type ALTIndex = alt.Index

// BuildALTIndex selects landmarks by farthest selection over g and
// precomputes their distance labels. Persist it with its SaveFile
// method and reload it with LoadALTIndex.
func BuildALTIndex(g *Graph, landmarks int, seed int64) (*ALTIndex, error) {
	return alt.Build(g, landmarks, seed)
}

// LoadALTIndex reads an index saved with ALTIndex.SaveFile. The loaded
// index answers bound and estimate queries without the graph (exact
// ALT A* search needs an in-process build).
func LoadALTIndex(path string) (*ALTIndex, error) { return alt.LoadFile(path) }

// NewBoundedEstimatorFromIndex combines a model with a prebuilt (e.g.
// loaded) landmark index over the same graph.
func NewBoundedEstimatorFromIndex(m *Model, lt *ALTIndex) (*BoundedEstimator, error) {
	return hybrid.New(m, lt)
}

// ModelRegistry is a versioned on-disk model store: rnebuild publishes
// immutable versions (model plus optional ALT guard, spatial index and
// geo-shard cut), rneserver resolves and hot-swaps the latest good
// one. Corrupt versions are quarantined with automatic fallback; see
// internal/registry for the layout and retention semantics.
type ModelRegistry = registry.Store

// RegistryArtifacts selects what one published version carries.
type RegistryArtifacts = registry.Artifacts

// RegistrySet is one fully-loaded registry version — the unit a
// server hot-swaps.
type RegistrySet = registry.Set

// RegistryLoadOpts tunes registry version loading.
type RegistryLoadOpts = registry.LoadOpts

// OpenModelRegistry opens (creating if absent) a registry rooted at
// the given directory.
func OpenModelRegistry(root string) (*ModelRegistry, error) { return registry.Open(root) }

// OpenExistingModelRegistry opens a registry whose root must already
// exist, as a replica or a query tool does.
func OpenExistingModelRegistry(root string) (*ModelRegistry, error) {
	return registry.OpenExisting(root)
}

// Explanation decomposes one estimate into per-hierarchy-level
// contributions (Model.ExplainEstimate): the provenance view of a
// distance answer. Contributions telescope, summing exactly to the
// estimate.
type Explanation = core.Explanation

// LevelContribution is one hierarchy level's share of an explained
// estimate.
type LevelContribution = core.LevelContribution

// GuardResult is one guarded estimate (BoundedEstimator.Guard): the
// clamped value, the raw model estimate, the certified interval with
// the landmark that produced each side, and the clamp direction.
type GuardResult = hybrid.GuardResult

// IndexQueryStats counts the work one spatial-index traversal did
// (SpatialIndex.KNNStats / RangeStats): how much of the tree the
// triangle-inequality pruning skipped.
type IndexQueryStats = index.QueryStats

// ShardConfig controls how CutShards splits a model: the hierarchy
// cut level and the shard count K.
type ShardConfig = shard.Config

// ShardSplit is the output of one CutShards: the vertex→shard routing
// map, K shard models, and (when cut with a guard) their
// region-restricted ALT indexes. Publish it via RegistryArtifacts.
type ShardSplit = shard.Split

// ShardModel is one region shard of a trained model: exact embedding
// rows for its region, shared upper-level embeddings for cross-shard
// estimates, and the owner table for redirect hints.
type ShardModel = shard.Model

// ShardMap is the compact vertex→shard routing table the gateway
// loads to route requests by region.
type ShardMap = shard.Map

// CutShards splits a freshly built hierarchical model into region
// shards at cfg.CutLevel. lt, when non-nil, is the full ALT guard to
// restrict per region (a region holding no landmarks keeps the full
// set — valid bounds, just not memory-reduced). Loaded models do not
// retain the partition tree, so cut in the same process as Build.
func CutShards(m *Model, lt *ALTIndex, cfg ShardConfig) (*ShardSplit, error) {
	return shard.Cut(m, lt, cfg)
}

// LoadShardMap reads a vertex→shard routing map published inside a
// sharded registry version (models/<name>/<vN>/shards/shardmap.rnemap),
// for rnegate -shard-map region routing.
func LoadShardMap(path string) (*ShardMap, error) { return shard.LoadMapFile(path) }

// NewShardBoundedEstimator combines a region shard with a (typically
// region-restricted) landmark index, so shard replicas serve guard
// mode too: cross-shard upper-level estimates are clamped into
// certified bounds.
func NewShardBoundedEstimator(m *ShardModel, lt *ALTIndex) (*BoundedEstimator, error) {
	return hybrid.New(m, lt)
}
