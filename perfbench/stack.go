package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/alt"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/index"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/shard"
)

// The serving configuration the benchmark sets explicitly. Everything
// else is left at the package defaults.
const (
	presetName     = "bj-mini"
	modelName      = "bj-mini"
	altLandmarks   = 16
	shardCutLevel  = 1
	shardCount     = 2
	healthInterval = 100 * time.Millisecond
	// gatewayReadyTimeout bounds the wait for the gateway's first
	// routable answer; it is a failure guard, not part of any metric.
	gatewayReadyTimeout = 10 * time.Second
)

// trainOptions is the fixed training configuration: the paper's
// defaults at d=64 with epochs and sample volumes cut so one build
// takes a few seconds on two cores.
func trainOptions() core.Options {
	opt := core.DefaultOptions(trainSeed)
	opt.Epochs = 3
	opt.VertexSampleRatio = 20
	opt.FineTuneRounds = 1
	opt.HierSampleCap = 10000
	return opt
}

// setupTimes records where one set-up spent its time, from core.Build
// to the first correct answer on the workload's route.
type setupTimes struct {
	total     time.Duration
	build     core.BuildStats
	coreBuild time.Duration
	alt       time.Duration
	index     time.Duration
	cut       time.Duration
	publish   time.Duration
	load      time.Duration
	serverNew time.Duration
	// gatewayReady runs from gateway.New to the first routable answer,
	// including the gateway's first health-probe wait.
	gatewayReady time.Duration
}

// endpoint is one HTTP listener serving a handler on loopback. In a
// traced run the handler sits behind a spanHandler the benchmark can
// switch on.
type endpoint struct {
	url   string
	http  *http.Server
	done  chan struct{}
	spans *spanHandler // nil in untraced runs
}

func serve(h http.Handler, name string, rec *spanRecorder) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &endpoint{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	if rec != nil {
		ep.spans = &spanHandler{next: h, name: name, rec: rec}
		h = ep.spans
	}
	ep.http = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(ep.done)
		_ = ep.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return ep, nil
}

func (ep *endpoint) close() {
	_ = ep.http.Close()
	<-ep.done
}

// replica is one rneserver-equivalent: a server built from a registry
// set, its guard, and its loopback endpoint.
type replica struct {
	set   *registry.Set
	guard *hybrid.Estimator
	srv   *server.Server
	ep    *endpoint
}

// stack is one workload's serving stack, built through the public
// constructors the binaries use.
type stack struct {
	workload string
	url      string // where clients send requests
	replicas []*replica
	gw       *gateway.Gateway
	gwEP     *endpoint
	gwTrans  *http.Transport
	shardMap *shard.Map
	dir      string
	times    setupTimes
}

// setupStack builds the workload's stack from scratch under root:
//
//	core.Build → alt.Build (→ index.Build | shard.Cut) → registry.Publish
//	→ registry.LoadLatest/LoadShard → server.NewFromSet (→ gateway.New)
//
// and returns once first reports a correct answer on the route. rec is
// non-nil only in traced runs.
func setupStack(workload string, g *graph.Graph, root string, targets []int32,
	rec *spanRecorder, first func(*stack) error) (st *stack, err error) {
	st = &stack{workload: workload}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	t0 := time.Now()
	m, bst, err := core.Build(g, trainOptions())
	if err != nil {
		return st, fmt.Errorf("core.Build: %w", err)
	}
	st.times.build = bst
	st.times.coreBuild = time.Since(t0)

	t := time.Now()
	lt, err := alt.Build(g, altLandmarks, altSeed)
	if err != nil {
		return st, fmt.Errorf("alt.Build: %w", err)
	}
	st.times.alt = time.Since(t)

	art := registry.Artifacts{Model: m, ALT: lt}
	switch workload {
	case wlKNN:
		t = time.Now()
		if art.Index, err = index.Build(m, targets); err != nil {
			return st, fmt.Errorf("index.Build: %w", err)
		}
		st.times.index = time.Since(t)
	case wlMatrix:
		t = time.Now()
		if art.Shards, err = shard.Cut(m, lt, shard.Config{CutLevel: shardCutLevel, Shards: shardCount}); err != nil {
			return st, fmt.Errorf("shard.Cut: %w", err)
		}
		st.times.cut = time.Since(t)
	}

	if st.dir, err = os.MkdirTemp(root, "registry-*"); err != nil {
		return st, err
	}
	t = time.Now()
	store, err := registry.Open(st.dir)
	if err != nil {
		return st, err
	}
	version, err := store.Publish(modelName, art)
	if err != nil {
		return st, fmt.Errorf("registry.Publish: %w", err)
	}
	st.times.publish = time.Since(t)

	t = time.Now()
	var sets []*registry.Set
	if workload == wlMatrix {
		for k := 0; k < shardCount; k++ {
			set, err := store.LoadShard(modelName, version, k)
			if err != nil {
				return st, fmt.Errorf("registry.LoadShard(%d): %w", k, err)
			}
			sets = append(sets, set)
		}
		st.shardMap = sets[0].ShardMap
	} else {
		set, err := store.LoadLatest(modelName, registry.LoadOpts{})
		if err != nil {
			return st, fmt.Errorf("registry.LoadLatest: %w", err)
		}
		sets = append(sets, set)
	}
	st.times.load = time.Since(t)

	t = time.Now()
	for k, set := range sets {
		var d hybrid.Distancer = set.Model
		if set.Shard != nil {
			d = set.Shard
		}
		guard, err := hybrid.New(d, set.ALT)
		if err != nil {
			return st, err
		}
		srv, err := server.NewFromSet(server.ModelSet{
			Model: set.Model, Shard: set.Shard, Index: set.Index, Guard: guard, Version: set.Version,
		}, server.Config{})
		if err != nil {
			return st, fmt.Errorf("server.NewFromSet: %w", err)
		}
		rp := &replica{set: set, guard: guard, srv: srv}
		st.replicas = append(st.replicas, rp)
		if rp.ep, err = serve(srv.Handler(), fmt.Sprintf("replica-%d", k), rec); err != nil {
			return st, err
		}
	}
	st.times.serverNew = time.Since(t)

	if workload != wlMatrix {
		st.url = st.replicas[0].ep.url
		if err := first(st); err != nil {
			return st, fmt.Errorf("first answer: %w", err)
		}
		st.times.total = time.Since(t0)
		return st, nil
	}

	t = time.Now()
	backends := make([]string, len(st.replicas))
	for i, rp := range st.replicas {
		backends[i] = rp.ep.url
	}
	st.gwTrans = http.DefaultTransport.(*http.Transport).Clone()
	st.gwTrans.MaxIdleConnsPerHost = 8
	st.gw, err = gateway.New(gateway.Config{
		Backends:       backends,
		ShardMap:       st.shardMap,
		HealthInterval: healthInterval,
		Transport:      st.gwTrans,
	})
	if err != nil {
		return st, fmt.Errorf("gateway.New: %w", err)
	}
	if st.gwEP, err = serve(st.gw.Handler(), "gateway", rec); err != nil {
		return st, err
	}
	st.url = st.gwEP.url
	// The gateway routes a shard only after its first /readyz probe has
	// discovered the replica's shard identity, one HealthInterval after
	// gateway.New; until then batches are refused. That wait is the
	// gateway's readiness, measured as its own layer.
	ctx, cancel := context.WithTimeout(context.Background(), gatewayReadyTimeout)
	defer cancel()
	for {
		err := first(st)
		if err == nil {
			break
		}
		if !errors.Is(err, errNotReady) {
			return st, fmt.Errorf("first answer: %w", err)
		}
		select {
		case <-ctx.Done():
			return st, fmt.Errorf("gateway not ready after %v: %w", gatewayReadyTimeout, err)
		case <-time.After(time.Millisecond):
		}
	}
	st.times.gatewayReady = time.Since(t)
	st.times.total = time.Since(t0)
	return st, nil
}

// close stops every listener and background loop of the stack and
// removes its registry. Safe on a partially built stack.
func (st *stack) close() {
	if st.gwEP != nil {
		st.gwEP.close()
	}
	if st.gw != nil {
		_ = st.gw.Close()
	}
	if st.gwTrans != nil {
		st.gwTrans.CloseIdleConnections()
	}
	for _, rp := range st.replicas {
		if rp.ep != nil {
			rp.ep.close()
		}
		_ = rp.srv.Close()
	}
	if st.dir != "" {
		_ = os.RemoveAll(st.dir)
	}
}

// endpoints lists every listener of the stack, replicas first.
func (st *stack) endpoints() []*endpoint {
	var out []*endpoint
	for _, rp := range st.replicas {
		out = append(out, rp.ep)
	}
	if st.gwEP != nil {
		out = append(out, st.gwEP)
	}
	return out
}
