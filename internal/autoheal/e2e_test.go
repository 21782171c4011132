package autoheal_test

// The chaos end-to-end test for the drift→retrain→swap loop: a real
// server serves a model trained on the base graph while a request
// hammer runs; the graph file is atomically replaced with a perturbed
// regime variant mid-serve; an armed failpoint kills the first retrain
// attempt's checkpoint write; and the controller must still converge —
// rolled back, cooled down, retrained, published, hot-swapped — with
// zero non-2xx responses across the whole storm. Run with -race.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autoheal"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func e2eOptions(seed int64) core.Options {
	opt := core.DefaultOptions(seed)
	opt.Dim = 8
	opt.Hierarchical = false
	opt.Epochs = 3
	opt.VertexSampleRatio = 30
	opt.FineTuneRounds = 2
	opt.FineTuneSampleRatio = 3
	opt.Landmarks = 16
	opt.ValidationPairs = 300
	return opt
}

func TestChaosDriftRetrainSwapConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e needs real training rounds")
	}
	defer faultinject.Reset()
	dir := t.TempDir()

	// Base world: a graph on disk, a model trained on it, published as
	// v1 in a registry the server hot-swaps from.
	g, err := gen.Grid(12, 12, gen.DefaultConfig(5))
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	graphPath := filepath.Join(dir, "live.gr")
	if err := graph.WriteFile(graphPath, g); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	m, _, err := core.Build(g, e2eOptions(5))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	store, err := registry.Open(filepath.Join(dir, "registry"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := store.Publish("live", registry.Artifacts{Model: m}); err != nil {
		t.Fatalf("Publish: %v", err)
	}

	loadSet := func() (server.ModelSet, error) {
		rs, err := store.LoadLatest("live", registry.LoadOpts{})
		if err != nil {
			return server.ModelSet{}, err
		}
		return server.ModelSet{Model: rs.Model, Version: rs.Version}, nil
	}
	set, err := loadSet()
	if err != nil {
		t.Fatalf("loadSet: %v", err)
	}
	srv, err := server.NewFromSet(set, server.Config{Reloader: loadSet})
	if err != nil {
		t.Fatalf("NewFromSet: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Request hammer: continuous /distance traffic for the full storm;
	// every response must be 2xx no matter what the controller does.
	var total, bad atomic.Int64
	hammerCtx, stopHammer := context.WithCancel(context.Background())
	hammerDone := make(chan struct{})
	go func() {
		defer close(hammerDone)
		n := int32(g.NumVertices())
		for i := int32(0); hammerCtx.Err() == nil; i++ {
			s, u := i%n, (i*7+3)%n
			resp, err := http.Get(fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, s, u))
			if err != nil {
				bad.Add(1)
				continue
			}
			resp.Body.Close()
			total.Add(1)
			if resp.StatusCode < 200 || resp.StatusCode > 299 {
				bad.Add(1)
			}
		}
	}()
	defer func() {
		stopHammer()
		<-hammerDone
	}()

	// The heal path mirrors rneserver's: warm-start from the serving
	// version, fine-tune against the prober's live graph with strict
	// checkpoints (so the armed failpoint can kill an attempt), publish,
	// hot-swap through the validated reload, quarantine on rejection.
	prober := autoheal.NewGraphProber(graphPath, 7, srv.Estimate)
	heal := func(ctx context.Context) (string, error) {
		lg := prober.Graph()
		if lg == nil {
			return "", fmt.Errorf("no probe graph yet")
		}
		warm, err := store.LoadVersion("live", srv.ActiveVersion(), registry.LoadOpts{})
		if err != nil {
			return "", err
		}
		opt := e2eOptions(23)
		opt.CheckpointPath = filepath.Join(dir, "heal.ckpt")
		opt.StrictCheckpoints = true
		defer os.Remove(opt.CheckpointPath)
		_, opt.Trace = telemetry.StartChild(ctx, "finetune")
		tuned, _, err := core.FineTune(lg, warm.Model, opt)
		opt.Trace.SetError(err)
		opt.Trace.End()
		if err != nil {
			return "", err
		}
		version, err := store.Publish("live", registry.Artifacts{Model: tuned})
		if err != nil {
			return "", err
		}
		if _, err := srv.Reload(); err != nil {
			if qerr := store.Quarantine("live", version); qerr != nil {
				t.Logf("quarantine after rejected swap: %v", qerr)
			}
			return "", fmt.Errorf("swap validation rejected %s: %w", version, err)
		}
		return srv.ActiveVersion(), nil
	}

	tracer, err := telemetry.NewRequestTracer(telemetry.TraceConfig{})
	if err != nil {
		t.Fatalf("NewRequestTracer: %v", err)
	}
	ctrl, err := autoheal.New(autoheal.Config{
		Tracer:   tracer,
		Sample:   prober.Sample,
		Heal:     heal,
		Version:  srv.ActiveVersion,
		MaxDist:  srv.Scale,
		Interval: 25 * time.Millisecond,
		Probes:   16,
		Budget:   2,
		Dwell:    2,
		Cooldown: 50 * time.Millisecond,
		Warmup:   24,
		Alpha:    0.5,
		Registry: srv.Stats().Registry(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// First retrain attempt dies at its first checkpoint write; the
	// controller must roll back, cool down and succeed on the retry.
	faultinject.Enable(core.FailpointCheckpointSave, faultinject.Fault{})

	ctrlCtx, stopCtrl := context.WithCancel(context.Background())
	defer func() {
		stopCtrl()
		ctrl.Stop()
	}()
	ctrl.Start(ctrlCtx)

	wait := func(what string, timeout time.Duration, cond func(autoheal.State) bool) autoheal.State {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for {
			st := ctrl.State()
			if cond(st) {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; state %+v", what, st)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Let the probe monitor freeze a healthy baseline, then shift the
	// regime under the serving model: an atomic replace of the graph
	// file with a severely perturbed variant, exactly what the smoke
	// script's chaos step does.
	wait("probe baseline", 30*time.Second, func(st autoheal.State) bool { return st.Warm })
	pg, err := gen.Perturb(g, gen.RegimeConfig{
		Seed: 99, ArterialFrac: 0.5, ArterialFactor: 3.0,
		LocalFactor: 1.4, JitterPct: 0.05,
	})
	if err != nil {
		t.Fatalf("Perturb: %v", err)
	}
	tmp := graphPath + ".tmp"
	if err := graph.WriteFile(tmp, pg); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := os.Rename(tmp, graphPath); err != nil {
		t.Fatalf("Rename: %v", err)
	}

	// Attempt 1 is killed by the failpoint; the rollback must be
	// visible before any success.
	st := wait("failed first heal", 60*time.Second, func(st autoheal.State) bool { return st.HealFails >= 1 })
	if st.Heals != 0 {
		t.Fatalf("a heal succeeded before the injected failure: %+v", st)
	}
	if st.LastError == "" {
		t.Fatalf("failed heal recorded no error: %+v", st)
	}

	// Attempt 2 converges: new version serving, monitor re-warmed
	// against it, score back under the error budget.
	st = wait("successful heal", 120*time.Second, func(st autoheal.State) bool { return st.Heals >= 1 })
	if st.Version != "v2" {
		t.Fatalf("healed version = %s, want v2", st.Version)
	}
	st = wait("post-heal convergence", 60*time.Second, func(st autoheal.State) bool {
		return st.Warm && st.Score < st.Budget
	})
	if st.HealFails != 1 || st.Heals != 1 {
		t.Fatalf("extra heal attempts during convergence: %+v", st)
	}

	// Each attempt's trace nests the fine-tune's phases under
	// autoheal.heal → finetune; the killed attempt's failed write is a
	// checkpoint span with the error.
	spans := tracer.Spans()
	var heals []telemetry.SpanRecord
	for _, s := range spans {
		if s.Name == "autoheal.heal" {
			heals = append(heals, s)
		}
	}
	if len(heals) != 2 || heals[0].Error == "" || heals[1].Error != "" {
		t.Fatalf("heal spans %+v, want one failed then one successful attempt", heals)
	}
	var phases []string
	for _, s := range childrenOf(spans, childNamed(t, spans, heals[1].SpanID, "finetune").SpanID) {
		phases = append(phases, s.Name)
	}
	if got := strings.Join(phases, ","); got != "setup,vertex-phase,finetune-phase,finalize" {
		t.Fatalf("successful fine-tune phases %s", got)
	}
	failedWrite := false
	for _, s := range spans {
		if s.TraceID == heals[0].TraceID && s.Name == "checkpoint" && s.Error != "" {
			failedWrite = true
		}
	}
	if !failedWrite {
		t.Fatal("killed attempt's trace holds no failed checkpoint span")
	}

	stopHammer()
	<-hammerDone
	if total.Load() == 0 {
		t.Fatal("hammer served no requests")
	}
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d non-2xx responses during the chaos storm (of %d)", n, total.Load())
	}
}

// childrenOf returns the spans whose parent is id, in end order.
func childrenOf(spans []telemetry.SpanRecord, id string) []telemetry.SpanRecord {
	var out []telemetry.SpanRecord
	for _, s := range spans {
		if s.ParentID == id {
			out = append(out, s)
		}
	}
	return out
}

// childNamed returns the child of id named name.
func childNamed(t *testing.T, spans []telemetry.SpanRecord, id, name string) telemetry.SpanRecord {
	t.Helper()
	for _, s := range childrenOf(spans, id) {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("span %s has no %q child", id, name)
	return telemetry.SpanRecord{}
}
