// Command rnegate is the scale-out gateway in front of rneserver
// replicas: it fans POST /batch out across the backends by each pair's
// source vertex, merges the replies preserving request order, and
// proxies GET /distance, /knn and /range to the source vertex's owner.
//
// One routing rule serves every fleet: a source vertex's owner is the
// healthy replica of its region with the highest rendezvous hash score
// for that vertex, and a retry or hedge goes to the next-ranked replica
// of the same region. Without -shard-map every backend holds the whole
// model and the fleet is one region. With -shard-map (the routing table
// of a version published by rnebuild -publish-shards) each backend
// serves one geo-shard, discovered from its /readyz probe, and /readyz
// degrades per region: losing every replica of one shard fails only
// that region's vertices, with 503. Backends are health-checked (active
// /readyz probes plus passive failure counting); a repeatedly-failing
// backend is ejected from routing and re-probed on exponential backoff
// until it recovers.
//
// The gateway serves overload-safely: each proxied call forwards the
// remaining request deadline as an X-Rne-Budget-Ms budget so replicas
// abandon work the gateway can no longer use (504), backend 429/503
// answers count as backpressure — relayed or retried, never ejection
// fodder — and retries are bounded by a -retry-budget token bucket so
// a partial outage cannot double the load on the survivors. When the
// budget is drained the gateway degrades: /distance relays the
// backend's own 429 or sheds with jittered Retry-After, and /batch
// answers 206 with the surviving pairs plus per-pair error entries.
// -hedge arms hedged /distance requests (second attempt after the
// observed p95 of backend /distance calls, first answer wins);
// -admit-p99-target swaps the static in-flight cap for the adaptive
// AIMD limiter, as on rneserver.
//
// The gateway exposes the same operational surface as the replicas:
// /healthz, /readyz and /metrics (Prometheus text), including
// per-backend health gauges and ejection counters, plus
// rne_gateway_retries_total, rne_hedges_total{won=},
// rne_batch_partial_total and rne_gateway_backend_backpressure_total. -debug-addr serves
// net/http/pprof and a /metrics mirror on a separate operator-only
// listener, as on rneserver.
//
// Usage:
//
//	rnegate -addr :9090 -backends http://10.0.0.1:8080,http://10.0.0.2:8080
//	curl 'localhost:9090/distance?s=17&t=4242'
//	curl -d '{"pairs":[[17,4242],[3,99]]}' localhost:9090/batch
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
	"strings"
	"syscall"
	"time"

	rne "repro"
	"repro/internal/gateway"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	backends := flag.String("backends", "", "comma-separated rneserver base URLs (required)")
	shardMapPath := flag.String("shard-map", "", "vertex→shard routing map from a sharded registry version (models/<name>/<vN>/shards/shardmap.rnemap): backends are shard replicas and each source goes to a replica of its shard (empty: backends hold the whole model, one region)")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "active /readyz probe period")
	ejectAfter := flag.Int("eject-after", 3, "consecutive failures before a backend is ejected")
	backoffBase := flag.Duration("backoff-base", 500*time.Millisecond, "initial re-probe backoff for an ejected backend")
	backoffMax := flag.Duration("backoff-max", 15*time.Second, "re-probe backoff cap")
	backendTimeout := flag.Duration("backend-timeout", 10*time.Second, "per-backend call deadline")
	retryBudget := flag.Float64("retry-budget", 0.1, "retry/hedge token budget: each primary request earns this many tokens, each retry or hedge spends one (negative disables retries and hedges)")
	hedge := flag.Bool("hedge", false, "hedge slow /distance calls: fire a second attempt to the next-ranked replica of the source's region after the observed p95 backend /distance latency, first answer wins (spends retry-budget tokens)")
	hedgeMinDelay := flag.Duration("hedge-min-delay", time.Millisecond, "with -hedge: floor for the p95-derived hedge delay")
	hedgeMaxDelay := flag.Duration("hedge-max-delay", 250*time.Millisecond, "with -hedge: ceiling for the p95-derived hedge delay (also the cold-start delay)")
	budgetMargin := flag.Duration("budget-margin", 5*time.Millisecond, "proxy-hop margin subtracted from the deadline budget forwarded to backends as X-Rne-Budget-Ms (negative disables)")
	maxInFlight := flag.Int("max-inflight", 256, "in-flight request cap before shedding with 429 (negative disables; superseded by -admit-p99-target)")
	admitTarget := flag.Duration("admit-p99-target", 0, "adaptive admission: adjust the in-flight cap to hold observed p99 at this target, shedding /batch before /distance (0 keeps the static -max-inflight cap)")
	admitMin := flag.Int("admit-min", 4, "with -admit-p99-target: floor for the adapted in-flight cap")
	admitMax := flag.Int("admit-max", 4096, "with -admit-p99-target: ceiling for the adapted in-flight cap")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline (negative disables)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and a /metrics mirror on this operator-only address (empty disables)")
	trace := flag.Bool("trace", false, "distributed tracing: per-attempt backend spans, traceparent propagation to replicas, sampled span JSONL at -trace-out")
	traceOut := flag.String("trace-out", "gateway.spans.jsonl", "with -trace: span JSONL output path")
	traceSample := flag.Int("trace-sample", 1, "with -trace: keep one trace in N (head sampling; children inherit)")
	shutdownGrace := flag.Duration("shutdown-grace", 15*time.Second, "drain budget for graceful shutdown")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	flag.Parse()

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rnegate:", err)
		os.Exit(2)
	}
	logger := telemetry.NewLogger(os.Stderr, level, *logFormat)
	if *backends == "" {
		fmt.Fprintln(os.Stderr, "rnegate: -backends is required")
		os.Exit(2)
	}
	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}

	var shardMap *rne.ShardMap
	if *shardMapPath != "" {
		shardMap, err = rne.LoadShardMap(*shardMapPath)
		if err != nil {
			logger.Error("loading shard map", "path", *shardMapPath, "error", err)
			os.Exit(1)
		}
		logger.Info("region routing on", "path", *shardMapPath,
			"shards", shardMap.NumShards(), "vertices", shardMap.NumVertices(),
			"cut_level", shardMap.CutLevel())
	}

	gwCfg := gateway.Config{
		Backends:       urls,
		ShardMap:       shardMap,
		HealthInterval: *healthInterval,
		EjectAfter:     *ejectAfter,
		BackoffBase:    *backoffBase,
		BackoffMax:     *backoffMax,
		BackendTimeout: *backendTimeout,
		RetryBudget:    *retryBudget,
		Hedge:          *hedge,
		HedgeMinDelay:  *hedgeMinDelay,
		HedgeMaxDelay:  *hedgeMaxDelay,
		BudgetMargin:   *budgetMargin,
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *reqTimeout,
		Logger:         logger,
	}
	if *admitTarget > 0 {
		gwCfg.Admission = &resilience.AdmissionConfig{
			TargetP99: *admitTarget,
			Min:       *admitMin,
			Max:       *admitMax,
		}
		logger.Info("adaptive admission on", "p99_target", *admitTarget,
			"min", *admitMin, "max", *admitMax)
	}
	if *hedge {
		logger.Info("hedged /distance on", "min_delay", *hedgeMinDelay, "max_delay", *hedgeMaxDelay)
	}
	if *trace {
		gwCfg.Trace = telemetry.TraceConfig{
			Path:        *traceOut,
			Service:     "gateway",
			SampleEvery: *traceSample,
		}
		logger.Info("tracing on", "out", *traceOut, "sample_every", *traceSample)
	}
	gw, err := gateway.New(gwCfg)
	if err != nil {
		logger.Error("configuring gateway", "error", err)
		os.Exit(1)
	}
	defer gw.Close()

	if *debugAddr != "" {
		go serveDebug(*debugAddr, gw, logger)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		logger.Info("gateway listening", "addr", *addr, "backends", len(urls))
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		logger.Error("serving", "error", err)
		os.Exit(1)
	case <-ctx.Done():
		stop()
		logger.Info("signal received; draining in-flight requests", "grace", *shutdownGrace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("shutdown incomplete; closing remaining connections", "error", err)
			httpSrv.Close()
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serving", "error", err)
			os.Exit(1)
		}
		logger.Info("shutdown complete")
	}
}

// serveDebug runs the operator-only listener, matching rneserver's:
// net/http/pprof profiles (the load harness captures CPU/heap from
// here mid-step) plus a /metrics mirror, kept off the public address
// so profiling can never be triggered by query traffic.
func serveDebug(addr string, gw *gateway.Gateway, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", gw.Stats().Registry().Handler())
	logger.Info("debug listener up", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Warn("debug listener failed", "addr", addr, "error", err)
	}
}
