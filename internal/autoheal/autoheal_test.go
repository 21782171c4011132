package autoheal

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeEnv is a controllable environment for the controller: obs error
// level is switchable, heals are scripted.
type fakeEnv struct {
	relErr    atomic.Value // float64: current probe relative error
	samples   atomic.Int64
	heals     atomic.Int64
	healErr   atomic.Value  // errBox
	version   atomic.Value  // string
	healGate  chan struct{} // when non-nil, Heal blocks until closed
	healBegan chan struct{} // signaled when Heal starts
}

type errBox struct{ err error }

func newFakeEnv() *fakeEnv {
	e := &fakeEnv{}
	e.relErr.Store(0.05)
	e.version.Store("v1")
	e.healErr.Store(errBox{})
	return e
}

func (e *fakeEnv) config(reg *telemetry.Registry) Config {
	return Config{
		Sample: func(ctx context.Context, n int) ([]Observation, error) {
			e.samples.Add(1)
			re := e.relErr.Load().(float64)
			out := make([]Observation, n)
			for i := range out {
				out[i] = Observation{Est: 100 * (1 + re), Truth: 100}
			}
			return out, nil
		},
		Heal: func(ctx context.Context) (string, error) {
			if e.healBegan != nil {
				e.healBegan <- struct{}{}
			}
			if e.healGate != nil {
				<-e.healGate
			}
			if b := e.healErr.Load().(errBox); b.err != nil {
				return "", b.err
			}
			e.heals.Add(1)
			e.version.Store("v2")
			// A successful heal repairs serving accuracy.
			e.relErr.Store(0.05)
			return "v2", nil
		},
		Version:  func() string { return e.version.Load().(string) },
		MaxDist:  func() float64 { return 1000 },
		Interval: time.Hour, // tests drive tick() directly
		Probes:   10,
		Budget:   3,
		Dwell:    3,
		Cooldown: time.Millisecond,
		Warmup:   10,
		Alpha:    0.5,
		Registry: reg,
	}
}

func newTestController(t *testing.T, e *fakeEnv) *Controller {
	t.Helper()
	c, err := New(e.config(telemetry.NewRegistry()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// warmMetric reads rne_autoheal_warm as a /metrics client does.
func warmMetric(t *testing.T, c *Controller) float64 {
	t.Helper()
	var buf bytes.Buffer
	if _, err := c.cfg.Registry.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := telemetry.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := m["rne_autoheal_warm"]
	if !ok {
		t.Fatal("rne_autoheal_warm missing from the exposition")
	}
	return v
}

func waitCooldown(c *Controller) {
	for {
		c.mu.Lock()
		done := !time.Now().Before(c.cooldownUntil)
		c.mu.Unlock()
		if done {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func TestControllerTriggersAfterDwell(t *testing.T) {
	e := newFakeEnv()
	c := newTestController(t, e)
	ctx := context.Background()

	c.tick(ctx) // warmup: 10 obs freeze the baseline
	e.relErr.Store(1.0)
	for i := 0; i < 2; i++ {
		c.tick(ctx)
		if got := e.heals.Load(); got != 0 {
			t.Fatalf("heal fired after %d over-budget ticks, want dwell of 3", i+1)
		}
	}
	c.tick(ctx) // third consecutive over-budget tick: trigger
	if got := e.heals.Load(); got != 1 {
		t.Fatalf("heals = %d after dwell satisfied, want 1", got)
	}
	if st := c.State(); st.State != StateArmed || st.Version != "v2" || st.Heals != 1 {
		t.Fatalf("post-heal state = %+v", st)
	}
}

func TestControllerHysteresisHoldsDwellInDeadBand(t *testing.T) {
	e := newFakeEnv()
	c := newTestController(t, e)
	ctx := context.Background()

	c.tick(ctx) // warmup
	e.relErr.Store(1.0)
	c.tick(ctx)
	c.tick(ctx) // overBudget = 2
	// Dead band: score drops under Budget but above ReArm*Budget. The
	// dwell counter must hold, not reset. Baseline is 0.05, budget 3,
	// rearm 0.8 -> dead band is score in (2.4, 3), i.e. err ~(0.12, 0.15).
	e.relErr.Store(0.138)
	for i := 0; i < 6; i++ {
		c.tick(ctx)
	}
	c.mu.Lock()
	held := c.overBudget
	c.mu.Unlock()
	if held != 2 {
		t.Fatalf("dead-band ticks changed dwell counter to %d, want held at 2", held)
	}
	// A clearly-healthy stretch resets it.
	e.relErr.Store(0.05)
	for i := 0; i < 8; i++ {
		c.tick(ctx)
	}
	c.mu.Lock()
	reset := c.overBudget
	c.mu.Unlock()
	if reset != 0 {
		t.Fatalf("healthy ticks left dwell counter at %d, want 0", reset)
	}
	if e.heals.Load() != 0 {
		t.Fatal("heal fired without dwell ever completing")
	}
}

func TestControllerFailedHealRollsBackAndReArms(t *testing.T) {
	e := newFakeEnv()
	c := newTestController(t, e)
	ctx := context.Background()

	c.tick(ctx) // warmup
	e.relErr.Store(1.0)
	e.healErr.Store(errBox{errors.New("checkpoint write failed")})
	c.tick(ctx)
	c.tick(ctx)
	c.tick(ctx) // trigger -> heal fails
	if e.heals.Load() != 0 {
		t.Fatal("failed heal counted as success")
	}
	st := c.State()
	if st.State != StateArmed || st.HealFails != 1 || st.LastError == "" || st.Version != "v1" {
		t.Fatalf("post-failure state = %+v", st)
	}
	// The monitor kept its baseline (the model is still the drifted
	// one), so after cooldown the next dwell window re-triggers — and
	// this time the heal succeeds.
	e.healErr.Store(errBox{})
	waitCooldown(c)
	c.tick(ctx)
	c.tick(ctx)
	c.tick(ctx)
	if e.heals.Load() != 1 {
		t.Fatalf("controller did not re-arm after a failed heal: heals = %d", e.heals.Load())
	}
	if st := c.State(); st.Version != "v2" || st.LastError != "" {
		t.Fatalf("post-recovery state = %+v", st)
	}
}

// TestControllerNoSpuriousTriggerAfterSwap is the post-swap warmup
// satellite: the first observations after a hot swap land in a fresh
// warmup window, so even if the new model's error profile differs from
// the old baseline, no trigger can fire until a new baseline freezes —
// and against that new baseline a steady profile scores ~1.
func TestControllerNoSpuriousTriggerAfterSwap(t *testing.T) {
	e := newFakeEnv()
	c := newTestController(t, e)
	ctx := context.Background()

	if w := warmMetric(t, c); w != 0 {
		t.Fatalf("rne_autoheal_warm = %v before any probe, want 0", w)
	}
	c.tick(ctx) // warmup
	if w := warmMetric(t, c); w != 0 {
		t.Fatalf("rne_autoheal_warm = %v with the warmup window just full, want 0", w)
	}
	e.relErr.Store(1.0)
	c.tick(ctx)
	if w := warmMetric(t, c); w != 1 {
		t.Fatalf("rne_autoheal_warm = %v once the baseline froze, want 1", w)
	}
	c.tick(ctx)
	c.tick(ctx) // heal #1
	if e.heals.Load() != 1 {
		t.Fatal("setup heal did not fire")
	}
	// Post-swap serving error (0.12) is 2.4x the OLD baseline (0.05) —
	// over the re-arm threshold and near the budget. Against the old
	// baseline a couple of these ticks would accumulate dwell; against
	// the reset monitor they are just warmup and then a fresh baseline.
	e.relErr.Store(0.12)
	waitCooldown(c)
	if st := c.State(); st.Warm || warmMetric(t, c) != 0 {
		t.Fatalf("monitor still warm immediately after swap: %+v, rne_autoheal_warm %v", st, warmMetric(t, c))
	}
	for i := 0; i < 10; i++ {
		c.tick(ctx)
	}
	if e.heals.Load() != 1 {
		t.Fatalf("spurious post-swap heal: heals = %d", e.heals.Load())
	}
	st := c.State()
	if !st.Warm || warmMetric(t, c) != 1 {
		t.Fatalf("monitor never re-warmed: %+v, rne_autoheal_warm %v", st, warmMetric(t, c))
	}
	if st.Score > 1.5 {
		t.Fatalf("steady post-swap profile scores %v against its own baseline, want ~1", st.Score)
	}
	if st.OverBudget != 0 {
		t.Fatalf("post-swap observations accumulated dwell: %+v", st)
	}
}

func TestControllerSingleFlight(t *testing.T) {
	e := newFakeEnv()
	e.healGate = make(chan struct{})
	e.healBegan = make(chan struct{})
	c := newTestController(t, e)
	ctx := context.Background()

	c.tick(ctx) // warmup
	e.relErr.Store(1.0)
	c.tick(ctx)
	c.tick(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.tick(ctx) // triggers; blocks inside Heal
	}()
	<-e.healBegan
	// Concurrent ticks while a heal is in flight must bail immediately
	// without probing or starting a second heal.
	before := e.samples.Load()
	for i := 0; i < 5; i++ {
		c.tick(ctx)
	}
	if got := e.samples.Load(); got != before {
		t.Fatalf("ticks during heal still probed: %d -> %d", before, got)
	}
	close(e.healGate)
	<-done
	if e.heals.Load() != 1 {
		t.Fatalf("heals = %d, want exactly 1", e.heals.Load())
	}
}

func TestControllerStartStop(t *testing.T) {
	e := newFakeEnv()
	cfg := e.config(telemetry.NewRegistry())
	cfg.Interval = time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.Start(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for e.samples.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	c.Stop()
	if e.samples.Load() < 3 {
		t.Fatal("control loop never probed")
	}
}

func TestConfigValidation(t *testing.T) {
	e := newFakeEnv()
	reg := telemetry.NewRegistry()
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Sample = nil },
		func(c *Config) { c.Heal = nil },
		func(c *Config) { c.Version = nil },
		func(c *Config) { c.MaxDist = nil },
		func(c *Config) { c.Registry = nil },
		func(c *Config) { c.Budget = 0.5 },
		func(c *Config) { c.ReArm = 1.5 },
	} {
		cfg := e.config(reg)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Error("invalid config accepted")
		}
	}
}
