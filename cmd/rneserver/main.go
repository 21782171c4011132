// Command rneserver serves RNE distance queries over HTTP from a
// versioned model registry (rnebuild publishes into it).
//
// It serves the latest good version of -name under -registry and
// hot-swaps to a newer one — validated first, with automatic rollback
// — on SIGHUP or POST /admin/reload, without dropping a request.
// Corrupt versions are quarantined with fallback to the newest good
// one. A version with a spatial index (rnebuild -target-frac) serves
// the full API including /knn and /range; without one /readyz reports
// degraded mode. -shard k serves geo-shard k of a sharded version
// (rnebuild -publish-shards): exact answers inside its region,
// upper-level estimates for cross-shard pairs, and 421 with an owner
// hint for sources it does not own — put rnegate -shard-map in front
// to route by region.
//
// A version with an ALT guard (rnebuild -alt-landmarks) is served in
// guard mode: every /distance and /batch estimate is clamped into the
// certified landmark interval [lo, hi] containing the true distance,
// responses report the interval and whether clamping occurred, and
// clamp counters appear on /metrics along with the online
// accuracy-drift monitor guard mode feeds.
//
// With -autoheal the server closes the loop under dynamic edge
// weights: a background controller probes served estimates against
// exact distances computed over -heal-graph, and when drift stays past
// -heal-budget for -heal-dwell ticks it fine-tunes the serving model
// against the live graph, publishes the result and hot-swaps it
// through the validated reload path — rolling back and cooling down
// when the retrain or validation fails. Controller state appears on
// /metrics as the rne_autoheal_* families. -faults arms
// fault-injection failpoints for chaos drills.
//
// The server runs hardened for production traffic: handler panics are
// converted to 500s, requests past -max-inflight are shed with 429 +
// Retry-After (health, metrics and admin requests never are), every
// request carries a -request-timeout deadline and an X-Request-Id,
// request/latency counters are served on /metrics (Prometheus text),
// and SIGINT/SIGTERM triggers a graceful shutdown that drains
// in-flight requests. Requests arriving with an X-Rne-Budget-Ms
// deadline budget (set by rnegate) are abandoned with 504 once the
// budget is spent, so a replica never burns capacity on answers the
// gateway can no longer use. -debug-addr serves
// net/http/pprof profiles (plus a /metrics mirror) on a separate,
// operator-only listener. -qlog records a 1-in-N sample of served
// queries as JSONL (never blocking the serving path; overflow is
// dropped and counted on /metrics) for offline replay with rnereplay.
//
// Usage:
//
//	rnebuild -preset bj-mini -registry ./models -publish bj -target-frac 0.1
//	rneserver -registry ./models -name bj -addr :8080
//	curl 'localhost:8080/distance?s=17&t=4242'
//	curl 'localhost:8080/metrics'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	rne "repro"
	"repro/internal/autoheal"
	"repro/internal/faultinject"
	"repro/internal/qlog"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// healSeed seeds the autoheal loop: its prober draws pairs from
// healSeed+11, its fine-tune trains from healSeed+17 and its rebuilt
// ALT guard picks landmarks from healSeed+2, so a heal is
// reproducible byte for byte.
const healSeed = 42

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	registryRoot := flag.String("registry", "", "versioned model registry root (rnebuild -publish), required: serve the latest good version of -name and hot-swap it on SIGHUP or POST /admin/reload")
	regName := flag.String("name", "default", "model name within -registry")
	shardID := flag.Int("shard", -1, "serve geo-shard k of a sharded registry version (out-of-region sources answer 421, /knn and /range answer 501)")
	maxInFlight := flag.Int("max-inflight", 256, "in-flight request cap before shedding with 429 (negative disables)")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline (negative disables)")
	shutdownGrace := flag.Duration("shutdown-grace", 15*time.Second, "drain budget for graceful shutdown")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and a /metrics mirror on this operator-only address (empty disables)")
	qlogPath := flag.String("qlog", "", "record a sampled query log (JSONL, replayable with rnereplay) at this path (empty disables)")
	qlogSample := flag.Int("qlog-sample", 100, "with -qlog: record 1 in N served queries")
	trace := flag.Bool("trace", false, "distributed tracing: handler/admission/kernel/guard spans, gateway traceparent honored, sampled span JSONL at -trace-out")
	traceOut := flag.String("trace-out", "server.spans.jsonl", "with -trace: span JSONL output path")
	traceSample := flag.Int("trace-sample", 1, "with -trace: keep one locally-rooted trace in N (gateway-sampled traces are always kept)")
	autoHeal := flag.Bool("autoheal", false, "run the drift→retrain→swap controller (requires -heal-graph)")
	healGraphPath := flag.String("heal-graph", "", "live graph file the autoheal controller probes for exact truth and retrains against (picked up again when the file changes)")
	healInterval := flag.Duration("heal-interval", 2*time.Second, "autoheal probe tick period")
	healProbes := flag.Int("heal-probes", 32, "autoheal probe pairs per tick")
	healBudget := flag.Float64("heal-budget", 3, "autoheal error budget: probe drift score (recent error over warmup baseline) above this for -heal-dwell consecutive ticks triggers a retrain")
	healDwell := flag.Int("heal-dwell", 3, "consecutive over-budget ticks before a heal triggers")
	healCooldown := flag.Duration("heal-cooldown", 30*time.Second, "minimum wait between heal attempts")
	healWarmup := flag.Int("heal-warmup", 96, "probe observations freezing the autoheal drift baseline")
	healEpochs := flag.Int("heal-epochs", 3, "SGD epochs per phase during an autoheal fine-tune")
	healRounds := flag.Int("heal-rounds", 4, "active fine-tune rounds during an autoheal retrain")
	faults := flag.String("faults", "", "arm fault-injection failpoints for chaos testing: name[:after=N][:count=M],... (e.g. core/checkpoint-save:count=1)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	flag.Parse()

	if *registryRoot == "" {
		fmt.Fprintln(os.Stderr, "rneserver: -registry is required (publish a version with rnebuild -registry DIR -publish NAME)")
		os.Exit(2)
	}
	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rneserver:", err)
		os.Exit(2)
	}
	logger := telemetry.NewLogger(os.Stderr, level, *logFormat)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}
	if spec := *faults; spec != "" {
		if err := faultinject.EnableSpec(spec); err != nil {
			fatal("arming failpoints", "error", err)
		}
		logger.Warn("fault injection armed", "spec", spec)
	}
	if *autoHeal && *healGraphPath == "" {
		fatal("-autoheal requires -heal-graph")
	}
	if *shardID >= 0 && *autoHeal {
		fatal("-autoheal needs the full model to retrain; run it on a full replica, not on a -shard replica (a heal publishes the model and its guard without shards)")
	}

	store, err := rne.OpenExistingModelRegistry(*registryRoot)
	if err != nil {
		fatal("opening registry", "error", err)
	}
	reloader := func() (server.ModelSet, error) {
		var rs *rne.RegistrySet
		var err error
		if *shardID >= 0 {
			rs, err = store.LoadLatestShard(*regName, *shardID)
		} else {
			rs, err = store.LoadLatest(*regName, rne.RegistryLoadOpts{})
		}
		if err != nil {
			return server.ModelSet{}, err
		}
		return registrySet(rs)
	}
	set, err := reloader()
	if err != nil {
		fatal("loading from registry", "error", err)
	}
	if set.Shard != nil {
		logger.Info("loaded shard from registry", "name", *regName, "version", set.Version,
			"shard", set.Shard.ShardID(), "of", set.Shard.NumShards(),
			"owned", set.Shard.OwnedVertices(), "guard", set.Guard != nil)
	} else {
		logger.Info("loaded from registry", "name", *regName, "version", set.Version,
			"guard", set.Guard != nil, "spatial", set.Index != nil)
	}

	srvCfg := server.Config{
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *reqTimeout,
		Logger:         logger,
		QueryLog:       qlog.Config{Path: *qlogPath, SampleEvery: *qlogSample},
		Reloader:       reloader,
	}
	if *trace {
		srvCfg.Trace = telemetry.TraceConfig{
			Path:        *traceOut,
			Service:     "server",
			SampleEvery: *traceSample,
		}
	}
	srv, err := server.NewFromSet(set, srvCfg)
	if err != nil {
		fatal("configuring server", "error", err)
	}
	// SIGHUP triggers the same validated hot swap as POST /admin/reload:
	// re-resolve the registry's latest good version, smoke-test it, and
	// install it atomically; a failed reload leaves the previous version
	// serving.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			previous := srv.ActiveVersion()
			version, err := srv.Reload()
			if err != nil {
				logger.Warn("SIGHUP reload failed; previous model keeps serving",
					"active", previous, "error", err)
				continue
			}
			logger.Info("SIGHUP reload complete", "from", previous, "to", version)
		}
	}()
	if *qlogPath != "" {
		logger.Info("query log on", "path", *qlogPath, "sample", fmt.Sprintf("1-in-%d", *qlogSample))
	}
	if *trace {
		logger.Info("tracing on", "path", *traceOut, "sample", fmt.Sprintf("1-in-%d", *traceSample))
	}

	// The autoheal controller closes the drift→retrain→swap loop: it
	// probes served estimates against exact distances over -heal-graph,
	// and when the error budget stays blown through the dwell window it
	// fine-tunes the serving model against the live graph, publishes the
	// result and drives the same validated hot-swap path as SIGHUP.
	healCancel := func() {}
	if *autoHeal {
		prober := autoheal.NewGraphProber(*healGraphPath, healSeed+11, srv.Estimate)
		ctrl, err := autoheal.New(autoheal.Config{
			Sample:   prober.Sample,
			Heal:     newHealer(store, srv, prober, *regName, *healEpochs, *healRounds, logger),
			Version:  srv.ActiveVersion,
			MaxDist:  srv.Scale,
			Interval: *healInterval,
			Probes:   *healProbes,
			Budget:   *healBudget,
			Dwell:    *healDwell,
			Cooldown: *healCooldown,
			Warmup:   *healWarmup,
			Registry: srv.Stats().Registry(),
			Logger:   logger,
			Tracer:   srv.Tracer(),
		})
		if err != nil {
			fatal("configuring autoheal", "error", err)
		}
		healCtx, cancel := context.WithCancel(context.Background())
		ctrl.Start(healCtx)
		healCancel = func() {
			cancel()
			ctrl.Stop()
		}
		logger.Info("autoheal on", "graph", *healGraphPath, "interval", *healInterval,
			"budget", *healBudget, "dwell", *healDwell, "cooldown", *healCooldown)
	}

	if *debugAddr != "" {
		go serveDebug(*debugAddr, srv, logger)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests through
	// http.Server.Shutdown within the grace budget.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		fatal("serving", "error", err)
	case <-ctx.Done():
		stop()
		healCancel()
		logger.Info("signal received; draining in-flight requests", "grace", *shutdownGrace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("shutdown incomplete; closing remaining connections", "error", err)
			httpSrv.Close()
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("serving", "error", err)
		}
		// Flush and close the sampled query log after the drain so every
		// served request is either on disk or counted as dropped.
		if err := srv.Close(); err != nil {
			logger.Warn("closing query log", "error", err)
		}
		logger.Info("shutdown complete")
	}
}

// newHealer returns the autoheal controller's repair callback: load
// the serving version's full model as a warm start, fine-tune it
// against the prober's live graph, rebuild the ALT guard when the
// serving version carried one, publish the result and hot-swap it
// through the server's validated reload. A version that publishes but
// fails swap validation is quarantined so later reloads skip it.
func newHealer(store *rne.ModelRegistry, srv *server.Server, prober *autoheal.GraphProber,
	name string, epochs, rounds int, logger *slog.Logger) func(context.Context) (string, error) {
	return func(ctx context.Context) (string, error) {
		g := prober.Graph()
		if g == nil {
			return "", fmt.Errorf("heal: no probe graph loaded yet")
		}
		serving := srv.ActiveVersion()
		warm, err := store.LoadVersion(name, serving, rne.RegistryLoadOpts{})
		if err != nil {
			return "", fmt.Errorf("heal: loading warm-start %s %s: %w", name, serving, err)
		}

		opt := rne.DefaultOptions(healSeed + 17)
		opt.Epochs = epochs
		opt.FineTuneRounds = rounds
		opt.Logger = logger
		// Checkpoint with StrictCheckpoints so an injected or real
		// checkpoint-write fault fails this attempt cleanly — the
		// controller rolls back, cools down and retries.
		opt.CheckpointPath = filepath.Join(os.TempDir(), fmt.Sprintf("rne-heal-%d.ckpt", os.Getpid()))
		opt.StrictCheckpoints = true
		defer os.Remove(opt.CheckpointPath)

		start := time.Now()
		_, opt.Trace = telemetry.StartChild(ctx, "finetune")
		tuned, stats, err := rne.FineTune(g, warm.Model, opt)
		opt.Trace.SetError(err)
		opt.Trace.End()
		if err != nil {
			return "", fmt.Errorf("heal: fine-tune from %s: %w", serving, err)
		}
		logger.Info("heal: fine-tune complete", "from", serving,
			"duration", time.Since(start).Round(time.Millisecond),
			"validation", stats.Validation.String())

		art := rne.RegistryArtifacts{Model: tuned}
		if warm.ALT != nil {
			art.ALT, err = rne.BuildALTIndex(g, warm.ALT.NumLandmarks(), healSeed+2)
			if err != nil {
				return "", fmt.Errorf("heal: rebuilding ALT guard: %w", err)
			}
		}
		_, pubSpan := telemetry.StartChild(ctx, "publish")
		version, err := store.Publish(name, art)
		pubSpan.SetError(err)
		pubSpan.End()
		if err != nil {
			return "", fmt.Errorf("heal: publishing: %w", err)
		}
		_, swapSpan := telemetry.StartChild(ctx, "swap")
		_, err = srv.Reload()
		swapSpan.SetAttr("version", version)
		swapSpan.SetError(err)
		swapSpan.End()
		if err != nil {
			if qerr := store.Quarantine(name, version); qerr != nil {
				logger.Error("heal: quarantining rejected version failed", "version", version, "error", qerr)
			}
			return "", fmt.Errorf("heal: swap validation rejected %s: %w", version, err)
		}
		return srv.ActiveVersion(), nil
	}
}

// registrySet converts a registry version into the server's swap
// unit, building the ALT guard over whichever model kind it carries
// (the region-restricted guard, on a shard).
func registrySet(rs *rne.RegistrySet) (server.ModelSet, error) {
	set := server.ModelSet{
		Model:   rs.Model,
		Shard:   rs.Shard,
		Index:   rs.Index,
		Version: rs.Version,
	}
	if rs.ALT != nil {
		var err error
		if rs.Shard != nil {
			set.Guard, err = rne.NewShardBoundedEstimator(rs.Shard, rs.ALT)
		} else {
			set.Guard, err = rne.NewBoundedEstimatorFromIndex(rs.Model, rs.ALT)
		}
		if err != nil {
			return server.ModelSet{}, err
		}
	}
	return set, nil
}

// serveDebug runs the operator-only listener: net/http/pprof profiles
// and a mirror of /metrics, kept off the public mux so profiling
// endpoints are never exposed to query traffic.
func serveDebug(addr string, srv *server.Server, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", srv.Stats().Registry().Handler())
	logger.Info("debug listener up", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Warn("debug listener failed", "addr", addr, "error", err)
	}
}
