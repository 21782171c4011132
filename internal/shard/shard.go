// Package shard splits one trained RNE model into region shards along
// the partition hierarchy, so a fleet of replicas can jointly serve a
// graph none of them could hold alone. The cut level selects a cover
// of disjoint subtrees (partition.Hierarchy.CoverAtLevel); cover nodes
// are grouped into K shards balanced by vertex count. Each shard
// carries:
//
//   - its region's full-precision global embedding rows, copied
//     verbatim from the flattened model, so intra-shard estimates are
//     bit-identical to the unsharded model's;
//   - the shared upper-level embeddings — one prefix-summed vector per
//     cover node (the telescoping decomposition truncated at the cut
//     level), small and replicated to every shard — from which the
//     owning shard answers cross-shard pairs;
//   - the vertex→shard owner table, so a replica can answer a
//     misdirected request with a redirect hint;
//   - optionally, the ALT guard restricted to the landmarks inside its
//     region, which still certifies (looser) bounds for every pair.
//
// The gateway routes by the compact vertex→shard Map; see
// internal/gateway.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/alt"
	"repro/internal/core"
	"repro/internal/emb"
	"repro/internal/vecmath"
)

// MaxShards bounds K: the owner table stores one byte per vertex.
const MaxShards = 256

// Config controls a Cut.
type Config struct {
	// CutLevel is the hierarchy depth the model is cut at (>= 1):
	// the cover nodes at this level become the shardable regions.
	// Deeper cuts mean more, smaller regions and a larger replicated
	// upper-level matrix.
	CutLevel int
	// Shards is K, the number of shard artifacts the regions are
	// grouped into (balanced by vertex count). 0 means one shard per
	// cover node; values above the cover size are clamped down.
	Shards int
}

// Map is the compact vertex→shard routing table the gateway loads: one
// byte per vertex plus the topology header.
type Map struct {
	numShards int
	cutLevel  int
	owner     []uint8
}

// NumVertices returns |V|.
func (m *Map) NumVertices() int { return len(m.owner) }

// NumShards returns K.
func (m *Map) NumShards() int { return m.numShards }

// CutLevel returns the hierarchy depth the model was cut at.
func (m *Map) CutLevel() int { return m.cutLevel }

// ShardOf returns the owning shard of vertex v, or false when v is
// outside the mapped vertex range.
func (m *Map) ShardOf(v int32) (int, bool) {
	if v < 0 || int(v) >= len(m.owner) {
		return 0, false
	}
	return int(m.owner[v]), true
}

// IndexBytes reports the routing table's resident size.
func (m *Map) IndexBytes() int64 { return int64(len(m.owner)) + 24 }

// Model is one shard of a trained RNE model. It satisfies
// hybrid.Distancer over the full vertex id space: owned pairs are
// answered from the region's exact embedding rows, pairs touching an
// unowned vertex fall back to the shared upper-level estimate (the
// telescoping L1 decomposition truncated at the cut level). Ownership
// policy — e.g. rejecting out-of-region sources — is the server's job,
// via Owns and Owner.
type Model struct {
	shardID   int
	numShards int
	cutLevel  int
	p         float64
	scale     float64
	n         int // total |V| of the unsharded model

	ownedIDs []int32     // sorted global vertex ids this shard owns
	owned    *emb.Matrix // len(ownedIDs) x d exact global rows
	upper    *emb.Matrix // C x d cover-node prefix embeddings (shared)
	coverIdx []int32     // |V| -> row in upper
	owner    []uint8     // |V| -> owning shard (for redirect hints)

	localIdx []int32 // |V| -> row in owned, -1 when unowned (derived)
}

// ShardID returns this shard's id in [0, NumShards).
func (m *Model) ShardID() int { return m.shardID }

// NumShards returns the fleet topology K this shard was cut for.
func (m *Model) NumShards() int { return m.numShards }

// CutLevel returns the hierarchy depth the model was cut at.
func (m *Model) CutLevel() int { return m.cutLevel }

// NumVertices returns the full |V| of the unsharded model, so guards
// and servers built over a shard validate against the whole graph.
func (m *Model) NumVertices() int { return m.n }

// OwnedVertices returns how many vertices this shard owns.
func (m *Model) OwnedVertices() int { return len(m.ownedIDs) }

// Dim returns the embedding dimension d.
func (m *Model) Dim() int { return m.owned.Dim() }

// P returns the metric order.
func (m *Model) P() float64 { return m.p }

// Scale returns the distance normalizer multiplied into estimates.
func (m *Model) Scale() float64 { return m.scale }

// Owns reports whether vertex v's embedding row lives on this shard.
func (m *Model) Owns(v int32) bool {
	return v >= 0 && int(v) < m.n && m.localIdx[v] >= 0
}

// Owner returns the shard that owns vertex v (the redirect hint for a
// misdirected request), or -1 when v is out of range.
func (m *Model) Owner(v int32) int {
	if v < 0 || int(v) >= m.n {
		return -1
	}
	return int(m.owner[v])
}

// Estimate approximates d(s,t). Both endpoints owned: exact L_p over
// the region rows, bit-identical to the unsharded model. Any unowned
// endpoint: the upper-level estimate — L_p between the cut-level
// prefix vectors of the two regions — which the caller should serve
// under an ALT guard certifying bounds.
func (m *Model) Estimate(s, t int32) float64 {
	if s == t {
		return 0
	}
	i, j := m.localIdx[s], m.localIdx[t]
	if i >= 0 && j >= 0 {
		return vecmath.Lp(m.owned.Row(i), m.owned.Row(j), m.p) * m.scale
	}
	return vecmath.Lp(m.upper.Row(m.coverIdx[s]), m.upper.Row(m.coverIdx[t]), m.p) * m.scale
}

// CrossShard reports whether (s,t) would be answered from the shared
// upper levels rather than exact region rows.
func (m *Model) CrossShard(s, t int32) bool {
	return m.localIdx[s] < 0 || m.localIdx[t] < 0
}

// EmbeddingBytes reports the resident size of the region's exact
// embedding rows — the component that must shrink versus the full
// model for sharding to pay.
func (m *Model) EmbeddingBytes() int64 {
	return int64(m.owned.Rows())*int64(m.owned.Dim())*8 + 32
}

// UpperBytes reports the resident size of the shared upper-level
// state replicated to every shard: the cover-node prefix matrix plus
// the per-vertex cover and owner tables.
func (m *Model) UpperBytes() int64 {
	return int64(m.upper.Rows())*int64(m.upper.Dim())*8 + int64(m.n)*5
}

// IndexBytes reports the shard's total resident model size.
func (m *Model) IndexBytes() int64 { return m.EmbeddingBytes() + m.UpperBytes() }

// Split is the output of one Cut: the routing map plus K shard models
// and their region-restricted guards (Guards is nil when Cut ran
// without an ALT index; individual entries are never nil otherwise).
type Split struct {
	Map    *Map
	Shards []*Model
	Guards []*alt.Index
}

// Cut splits a freshly built hierarchical model into K shards at
// cfg.CutLevel. lt, when non-nil, is the full ALT guard to restrict
// per region; a region holding no landmarks keeps the full landmark
// set (valid, just not memory-reduced).
func Cut(m *core.Model, lt *alt.Index, cfg Config) (*Split, error) {
	hh := m.Hier()
	if hh == nil {
		return nil, fmt.Errorf("shard: model has no hierarchy (naive or deserialized model); cut requires a fresh hierarchical build")
	}
	if cfg.CutLevel < 1 {
		return nil, fmt.Errorf("shard: cut level must be >= 1, got %d", cfg.CutLevel)
	}
	h := hh.H
	if cfg.CutLevel > h.MaxDepth() {
		return nil, fmt.Errorf("shard: cut level %d exceeds hierarchy depth %d", cfg.CutLevel, h.MaxDepth())
	}
	if lt != nil && lt.NumVertices() != m.NumVertices() {
		return nil, fmt.Errorf("shard: ALT index covers %d vertices but model covers %d",
			lt.NumVertices(), m.NumVertices())
	}
	cover := h.CoverAtLevel(cfg.CutLevel)
	k := cfg.Shards
	if k <= 0 || k > len(cover) {
		k = len(cover)
	}
	if k > MaxShards {
		return nil, fmt.Errorf("shard: %d shards exceed the %d-shard limit (owner table is one byte per vertex)", k, MaxShards)
	}

	n := m.NumVertices()
	d := m.Dim()

	// Group cover nodes into K shards, heaviest region first onto the
	// currently lightest shard: deterministic and balanced by vertex
	// count.
	type region struct {
		cover int32 // cover node id
		idx   int   // row in the upper matrix
	}
	order := make([]region, len(cover))
	for i, c := range cover {
		order[i] = region{cover: c, idx: i}
	}
	sort.SliceStable(order, func(a, b int) bool {
		na := len(h.SubgraphVertices(order[a].cover))
		nb := len(h.SubgraphVertices(order[b].cover))
		if na != nb {
			return na > nb
		}
		return order[a].cover < order[b].cover
	})
	load := make([]int, k)
	groups := make([][]region, k)
	for _, r := range order {
		best := 0
		for s := 1; s < k; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		groups[best] = append(groups[best], r)
		load[best] += len(h.SubgraphVertices(r.cover))
	}

	// The shared upper-level matrix: one prefix-summed vector per cover
	// node, computed root-first so it is bit-consistent with the
	// flattened global rows (emb.NodeGlobalInto).
	upper := emb.NewMatrix(len(cover), d)
	coverIdx := make([]int32, n)
	owner := make([]uint8, n)
	for i, c := range cover {
		hh.NodeGlobalInto(upper.Row(int32(i)), c)
		for _, v := range h.SubgraphVertices(c) {
			coverIdx[v] = int32(i)
		}
	}
	for sid, grp := range groups {
		for _, r := range grp {
			for _, v := range h.SubgraphVertices(r.cover) {
				owner[v] = uint8(sid)
			}
		}
	}

	split := &Split{
		Map:    &Map{numShards: k, cutLevel: cfg.CutLevel, owner: owner},
		Shards: make([]*Model, k),
	}
	if lt != nil {
		split.Guards = make([]*alt.Index, k)
	}
	full := m.Matrix()
	for sid, grp := range groups {
		var ids []int32
		for _, r := range grp {
			ids = append(ids, h.SubgraphVertices(r.cover)...)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		if len(ids) == 0 {
			return nil, fmt.Errorf("shard: shard %d owns no vertices (cover %d nodes, %d shards)", sid, len(cover), k)
		}
		owned := emb.NewMatrix(len(ids), d)
		for i, v := range ids {
			copy(owned.Row(int32(i)), full.Row(v))
		}
		sm := &Model{
			shardID:   sid,
			numShards: k,
			cutLevel:  cfg.CutLevel,
			p:         m.P(),
			scale:     m.Scale(),
			n:         n,
			ownedIDs:  ids,
			owned:     owned,
			upper:     upper,
			coverIdx:  coverIdx,
			owner:     owner,
		}
		sm.buildLocalIdx()
		split.Shards[sid] = sm
		if lt != nil {
			var keep []int
			for i, u := range lt.Landmarks() {
				if owner[u] == uint8(sid) {
					keep = append(keep, i)
				}
			}
			if len(keep) == 0 {
				// No landmark fell inside this region: keep the full set.
				// Any landmark subset certifies valid bounds, so this only
				// costs memory, never correctness.
				split.Guards[sid] = lt
			} else {
				g, err := lt.Restrict(keep)
				if err != nil {
					return nil, fmt.Errorf("shard: restricting guard for shard %d: %w", sid, err)
				}
				split.Guards[sid] = g
			}
		}
	}
	return split, nil
}

// buildLocalIdx derives the global→local row table from ownedIDs.
func (m *Model) buildLocalIdx() {
	m.localIdx = make([]int32, m.n)
	for i := range m.localIdx {
		m.localIdx[i] = -1
	}
	for i, v := range m.ownedIDs {
		m.localIdx[v] = int32(i)
	}
}
