package server

import (
	"fmt"
	"math"
	"net/http"

	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// ModelSet is the unit of hot swapping: a model (full or one
// geo-shard), its optional spatial index and ALT guard, and the version
// tag reported on /healthz and the rne_model_version metric. The set is
// installed atomically — a request is served entirely by one set, never
// by a mix of old model and new guard.
type ModelSet struct {
	// Model is the full float64 model. Exactly one of Model and Shard
	// is required.
	Model *core.Model
	// Shard is one geo-shard of a split model: the replica serves only
	// its region's sources — out-of-region s gets a 421 redirect hint —
	// answering intra-shard pairs exactly and cross-shard pairs from the
	// shared upper levels.
	Shard *shard.Model
	// Index enables /knn and /range; it requires the full model.
	Index *index.Tree
	// Guard enables ALT-backed clamping and the drift monitor. In
	// shard mode this is the region-restricted guard.
	Guard *hybrid.Estimator
	// Version labels this set ("v3", "boot", ...); empty defaults to
	// "unversioned".
	Version string
}

// servedModel is the served model as every handler sees it, whichever
// kind the set carries (*core.Model or *shard.Model). Features of one
// kind only are reached through snapshot.full and snapshot.shard.
type servedModel interface {
	Estimate(s, t int32) float64
	NumVertices() int
	Dim() int
	Scale() float64
}

// snapshot is one immutable serving state. Handlers load it once per
// request from Server.active, so every answer is internally consistent
// even while a swap is racing in.
type snapshot struct {
	model   servedModel
	idx     *index.Tree
	guard   *hybrid.Estimator
	drift   *telemetry.DriftMonitor
	version string

	// Guard-mode counters, cached as pointers at snapshot build so the
	// query path pays one atomic Add. Registered only for guarded sets,
	// so an unguarded server exports no guard series.
	guardChecked     *telemetry.Counter
	guardClampedLow  *telemetry.Counter
	guardClampedHigh *telemetry.Counter

	// misdirected counts out-of-region requests answered 421; registered
	// only in shard mode.
	misdirected *telemetry.Counter
}

// full returns the served full model, or nil on a shard replica: the
// per-level decomposition behind explain lives only there.
func (sn *snapshot) full() *core.Model {
	m, _ := sn.model.(*core.Model)
	return m
}

// shard returns the served geo-shard, or nil on a full replica.
func (sn *snapshot) shard() *shard.Model {
	m, _ := sn.model.(*shard.Model)
	return m
}

// buildSnapshot validates a ModelSet and assembles the serving state,
// including a drift monitor rebuilt from the *new* model's scale (a
// stale monitor would band and score drift against the old model's
// diameter, silently corrupting the drift signal after every swap).
func (s *Server) buildSnapshot(set ModelSet) (*snapshot, error) {
	var model servedModel
	switch {
	case set.Model != nil && set.Shard != nil:
		return nil, fmt.Errorf("server: a set is either a shard or a whole model, not both")
	case set.Model != nil:
		model = set.Model
	case set.Shard != nil:
		model = set.Shard
	default:
		return nil, fmt.Errorf("server: nil model")
	}
	// Region continuity: a shard replica must keep serving the same
	// region across swaps — a reload that lands shard 2's artifact on
	// shard 0's replica (or changes the fleet topology under the
	// gateway's routing map) is rejected like any other bad set.
	if prev := s.active.Load(); prev != nil {
		switch ps := prev.shard(); {
		case (ps != nil) != (set.Shard != nil):
			return nil, fmt.Errorf("server: swap cannot change shard mode mid-serve")
		case ps != nil && (ps.ShardID() != set.Shard.ShardID() ||
			ps.NumShards() != set.Shard.NumShards()):
			return nil, fmt.Errorf("server: replica serves shard %d/%d, refusing swap to shard %d/%d",
				ps.ShardID(), ps.NumShards(), set.Shard.ShardID(), set.Shard.NumShards())
		}
	}
	n := model.NumVertices()
	if n <= 0 {
		return nil, fmt.Errorf("server: model covers no vertices")
	}
	if sc := model.Scale(); !(sc > 0) || math.IsInf(sc, 0) {
		return nil, fmt.Errorf("server: implausible model scale %v", sc)
	}
	if set.Guard != nil && set.Guard.NumVertices() != n {
		return nil, fmt.Errorf("server: guard estimator covers %d vertices but model covers %d",
			set.Guard.NumVertices(), n)
	}
	if set.Index != nil && set.Model == nil {
		return nil, fmt.Errorf("server: spatial index requires the full model")
	}
	if err := smokeTest(model, set.Guard); err != nil {
		return nil, err
	}
	sn := &snapshot{
		model:   model,
		idx:     set.Index,
		guard:   set.Guard,
		version: set.Version,
	}
	if sn.version == "" {
		sn.version = "unversioned"
	}
	if set.Shard != nil {
		sn.misdirected = s.stats.Counter("shard_misdirected")
	}
	if set.Guard != nil {
		sn.guardChecked = s.stats.Counter("guard_checked")
		sn.guardClampedLow = s.stats.Counter("guard_clamped_low")
		sn.guardClampedHigh = s.stats.Counter("guard_clamped_high")
		// The model's distance normalizer approximates the graph
		// diameter, which is exactly the scale the drift bands need.
		if d, err := telemetry.NewDriftMonitor(s.stats.Registry(), model.Scale(),
			telemetry.DefaultDriftBands, telemetry.DefaultDriftWarmup); err == nil {
			sn.drift = d
		}
	}
	return sn, nil
}

// smokeTest runs a handful of deterministic sample queries before a set
// is allowed to serve: estimates must be finite and non-negative, and
// under a guard every probe must respect its certified interval. A
// model whose embedding rows are NaN-poisoned or whose guard disagrees
// with it is rejected here, before any request can observe it.
func smokeTest(model servedModel, guard *hybrid.Estimator) error {
	n := int32(model.NumVertices())
	if n < 2 {
		return nil
	}
	pairs := [][2]int32{{0, n - 1}, {0, n / 2}, {n / 3, 2 * n / 3}, {n - 1, n / 2}}
	for _, p := range pairs {
		if p[0] == p[1] {
			continue
		}
		est := model.Estimate(p[0], p[1])
		if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
			return fmt.Errorf("server: smoke query (%d,%d) returned implausible estimate %v", p[0], p[1], est)
		}
		if guard == nil {
			continue
		}
		g := guard.Guard(p[0], p[1])
		if math.IsNaN(g.Lo) || math.IsNaN(g.Hi) || math.IsInf(g.Lo, 0) || g.Lo > g.Hi {
			return fmt.Errorf("server: smoke query (%d,%d) has broken guard interval [%v,%v]", p[0], p[1], g.Lo, g.Hi)
		}
		if g.Est < g.Lo || g.Est > g.Hi {
			return fmt.Errorf("server: smoke query (%d,%d) guarded estimate %v escapes [%v,%v]", p[0], p[1], g.Est, g.Lo, g.Hi)
		}
	}
	return nil
}

// Swap validates the set and atomically installs it as the serving
// state. On validation failure the active set is untouched — in-flight
// and future requests keep being served by the previous model — and the
// failure is counted on rne_model_swap_failures_total. On success
// rne_model_swaps_total increments and rne_model_version flips to the
// new version label.
func (s *Server) Swap(set ModelSet) error {
	sn, err := s.buildSnapshot(set)
	if err != nil {
		s.swapFailures.Inc()
		return err
	}
	s.swapMu.Lock()
	prev := s.active.Load()
	s.active.Store(sn)
	s.swaps.Inc()
	s.setVersionGauge(sn.version)
	s.setModelGauges(sn)
	s.swapMu.Unlock()
	if prev != nil {
		telemetry.OrNop(s.cfg.Logger).Info("model swapped",
			"from", prev.version, "to", sn.version,
			"vertices", sn.model.NumVertices(), "dim", sn.model.Dim(),
			"guard", sn.guard != nil, "spatial", sn.idx != nil)
	}
	return nil
}

// setVersionGauge flips rne_model_version{version=...} to the active
// label: the new series reads 1, the previous drops to 0 so dashboards
// see exactly one active version per replica. Callers hold swapMu.
func (s *Server) setVersionGauge(version string) {
	g := s.stats.Registry().Gauge("rne_model_version",
		"Active model version (1 on the serving version's series).",
		"version", version)
	if s.versionGauge != nil && s.versionGauge != g {
		s.versionGauge.Set(0)
	}
	g.Set(1)
	s.versionGauge = g
}

// setModelGauges publishes per-component resident-bytes gauges for the
// active set — rne_model_bytes{component=embeddings|upper|guard|index}
// — so "shards actually shrink replicas" is measurable, plus
// rne_shard_id on shard replicas. Callers hold swapMu.
func (s *Server) setModelGauges(sn *snapshot) {
	reg := s.stats.Registry()
	const help = "Resident bytes of the active model set, by component (embeddings = exact rows held locally, upper = shared upper-level state, guard = ALT label matrix, index = spatial tree)."
	set := func(component string, v int64) {
		reg.Gauge("rne_model_bytes", help, "component", component).Set(float64(v))
	}
	var embBytes, upperBytes int64
	if sv := sn.shard(); sv != nil {
		embBytes, upperBytes = sv.EmbeddingBytes(), sv.UpperBytes()
	} else {
		embBytes = sn.full().IndexBytes()
	}
	set("embeddings", embBytes)
	set("upper", upperBytes)
	var guardBytes int64
	if sn.guard != nil {
		guardBytes = sn.guard.LandmarkBytes()
	}
	set("guard", guardBytes)
	var idxBytes int64
	if sn.idx != nil {
		idxBytes = sn.idx.IndexBytes()
	}
	set("index", idxBytes)
	if sv := sn.shard(); sv != nil {
		reg.Gauge("rne_shard_id",
			"Geo-shard this replica serves (absent on unsharded replicas).").
			Set(float64(sv.ShardID()))
	}
}

// ActiveVersion reports the version label of the currently-serving set.
func (s *Server) ActiveVersion() string { return s.active.Load().version }

// Reload pulls a fresh ModelSet from the configured Reloader and swaps
// it in; it is the shared engine behind POST /admin/reload and the
// SIGHUP handler in rneserver. The returned string is the now-active
// version.
func (s *Server) Reload() (string, error) {
	if s.cfg.Reloader == nil {
		return "", fmt.Errorf("server: no reloader configured")
	}
	set, err := s.cfg.Reloader()
	if err != nil {
		s.swapFailures.Inc()
		return "", fmt.Errorf("server: reload source: %w", err)
	}
	if err := s.Swap(set); err != nil {
		return "", err
	}
	return s.ActiveVersion(), nil
}

// handleReload is POST /admin/reload: resolve a new set via the
// Reloader, validate, swap. A failed reload (source error or
// validation) leaves the previous version serving and reports it in the
// response, so operators see the rollback explicitly.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Reloader == nil {
		s.fail(w, http.StatusNotImplemented, "no reloader configured (start rneserver with -registry or -model)")
		return
	}
	previous := s.ActiveVersion()
	version, err := s.Reload()
	if err != nil {
		s.writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error":          err.Error(),
			"swapped":        false,
			"active_version": previous,
		})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"swapped":        true,
		"version":        version,
		"previous":       previous,
		"swaps_total":    s.swaps.Value(),
		"swap_failures":  s.swapFailures.Value(),
		"active_version": version,
	})
}
