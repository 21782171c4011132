// Package autoheal closes the drift→retrain→swap loop: a background
// controller probes serving accuracy against exact shortest-path
// truth, detects when a regime shift (rush hour, incidents, any edge
// weight change) has pushed model error past an error budget, and
// drives a repair — an incremental retrain published to the registry
// and installed through the server's validate-before-swap path —
// without a human in the loop.
//
// The controller is deliberately mechanism-free: sampling, healing and
// version reporting are injected callbacks, so it composes with any
// serving stack and is unit-testable with fakes. What it owns is the
// control policy: a dedicated drift monitor with its own warmup
// baseline, a dwell requirement before triggering (one bad tick is
// noise, N consecutive bad ticks are a regime), hysteresis on re-arm,
// a cooldown after every heal attempt, a single-flight guard against
// concurrent retrains, and rollback accounting when a heal fails.
//
// Why a dedicated monitor instead of the serving DriftMonitor: the
// serving monitor scores estimates against the ALT guard's certified
// intervals, but after a weight perturbation the serving ALT index is
// itself stale, so the serving signal underestimates real drift
// exactly when it matters. The controller's probes compare served
// estimates against freshly computed exact distances over the live
// graph, a signal that stays honest through the shift.
package autoheal

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Controller states, in lifecycle order. Every transition increments
// rne_autoheal_transitions_total{state=...}.
const (
	StateArmed      = "armed"
	StateTriggered  = "triggered"
	StateRetraining = "retraining"
	StateSwapped    = "swapped"
	StateRolledBack = "rolled-back"
)

// Observation is one accuracy probe: the estimate the serving path
// returned for a pair and the exact shortest-path distance computed
// over the live graph.
type Observation struct {
	Est   float64
	Truth float64
}

// Config wires a Controller to its environment. Sample, Heal and
// Version are required; zero tuning fields select the documented
// defaults.
type Config struct {
	// Sample returns up to n fresh probe observations (served estimate
	// vs exact truth). Called once per tick from the control loop.
	Sample func(ctx context.Context, n int) ([]Observation, error)
	// Heal repairs the model — typically fine-tune against the live
	// graph, publish to the registry, hot-swap — and returns the new
	// serving version. Called at most once at a time (single-flight).
	Heal func(ctx context.Context) (string, error)
	// Version reports the currently-serving model version label.
	Version func() string
	// MaxDist returns the distance scale for drift bands (the serving
	// model's diameter estimate). Re-read after every successful heal,
	// so the rebuilt monitor bands against the new model's scale.
	MaxDist func() float64

	// Interval is the probe tick period (default 2s).
	Interval time.Duration
	// Probes is the number of probe pairs per tick (default 32).
	Probes int
	// Budget is the drift-score error budget: recent error over frozen
	// baseline (default 3; must be > 1).
	Budget float64
	// Dwell is how many consecutive over-budget ticks must accumulate
	// before a heal triggers (default 3). One bad tick is noise.
	Dwell int
	// ReArm is the hysteresis fraction: the dwell counter only resets
	// once the score drops below ReArm*Budget (default 0.8), so a score
	// oscillating around the budget cannot flap the trigger.
	ReArm float64
	// Cooldown is the minimum wait after any heal attempt — success or
	// failure — before the next trigger (default 30s).
	Cooldown time.Duration
	// Warmup is the number of observations freezing the monitor's
	// baseline (default 96); Bands the number of distance bands
	// (default telemetry.DefaultDriftBands).
	Warmup int
	Bands  int
	// Alpha is the probe monitor's EWMA smoothing factor (default
	// 0.05: a half-life of ~14 probes, so a regime shift dominates the
	// recent-error estimate within a couple of ticks).
	Alpha float64

	// Registry receives the rne_autoheal_* metric families.
	Registry *telemetry.Registry
	// Logger receives transition and failure logs (nil discards).
	Logger *slog.Logger
	// Tracer, when non-nil, records every heal attempt as a
	// force-sampled root trace (heal attempts are rare and expensive —
	// head sampling must never lose one), with the Heal callback's
	// fine-tune/publish/swap phases as child spans.
	Tracer *telemetry.RequestTracer
}

func (c Config) withDefaults() (Config, error) {
	if c.Sample == nil || c.Heal == nil || c.Version == nil || c.MaxDist == nil {
		return c, fmt.Errorf("autoheal: Sample, Heal, Version and MaxDist callbacks are required")
	}
	if c.Registry == nil {
		return c, fmt.Errorf("autoheal: Registry is required")
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Probes <= 0 {
		c.Probes = 32
	}
	if c.Budget == 0 {
		c.Budget = 3
	}
	if c.Budget <= 1 {
		return c, fmt.Errorf("autoheal: Budget must be > 1, got %v", c.Budget)
	}
	if c.Dwell <= 0 {
		c.Dwell = 3
	}
	if c.ReArm == 0 {
		c.ReArm = 0.8
	}
	if c.ReArm <= 0 || c.ReArm > 1 {
		return c, fmt.Errorf("autoheal: ReArm must be in (0,1], got %v", c.ReArm)
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.Warmup <= 0 {
		c.Warmup = 96
	}
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	return c, nil
}

// State is the controller's point-in-time view for in-process readers.
// /metrics carries its score, warm flag, heals, heal failures and
// transitions as the rne_autoheal_* families.
type State struct {
	State      string
	Score      float64
	Budget     float64
	Warm       bool
	OverBudget int // consecutive over-budget ticks toward Dwell
	Dwell      int
	Version    string
	Heals      int64
	HealFails  int64
	LastError  string
}

// Controller runs the drift→retrain→swap control loop. Create with
// New, start with Start, stop by canceling the context (Stop waits).
type Controller struct {
	cfg Config

	transitions map[string]*telemetry.Counter
	scoreG      *telemetry.Gauge
	warmG       *telemetry.Gauge
	healsC      *telemetry.Counter
	healFailsC  *telemetry.Counter

	mu            sync.Mutex
	monitor       *telemetry.DriftMonitor
	state         string
	overBudget    int
	heals         int64
	healFails     int64
	lastErr       string
	cooldownUntil time.Time
	healing       bool // single-flight: a heal is in progress

	wg sync.WaitGroup
}

// New validates cfg and returns a stopped controller with a fresh
// probe drift monitor registered on cfg.Registry.
func New(cfg Config) (*Controller, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:         cfg,
		state:       StateArmed,
		transitions: make(map[string]*telemetry.Counter, 6),
		scoreG: cfg.Registry.Gauge("rne_autoheal_score",
			"Probe drift score the controller last observed (recent error over baseline)."),
		warmG: cfg.Registry.Gauge("rne_autoheal_warm",
			"1 once the probe monitor has frozen its baseline, 0 while it warms up (again after every heal)."),
		healsC: cfg.Registry.Counter("rne_autoheal_heals_total",
			"Successful autonomous heal cycles (retrain + hot swap)."),
		healFailsC: cfg.Registry.Counter("rne_autoheal_heal_failures_total",
			"Heal attempts that failed and rolled back to the last good version."),
	}
	for _, st := range []string{StateArmed, StateTriggered, StateRetraining, StateSwapped, StateRolledBack} {
		c.transitions[st] = cfg.Registry.Counter("rne_autoheal_transitions_total",
			"Autoheal controller state transitions, by state entered.", "state", st)
	}
	c.scoreG.Set(1)
	if err := c.resetMonitorLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// resetMonitorLocked rebuilds the probe monitor with a fresh warmup
// baseline at the current model scale. The telemetry registry hands
// back the same series for the same names, so the metric families
// persist across resets; only the baseline/EWMA state restarts —
// which is the point: after a swap the new model must earn a new
// baseline before its scores mean anything, so the first post-swap
// observations can never fire a spurious trigger.
func (c *Controller) resetMonitorLocked() error {
	maxDist := c.cfg.MaxDist()
	m, err := telemetry.NewDriftMonitorNamed(c.cfg.Registry, "rne_autoheal_drift",
		maxDist, c.cfg.Bands, c.cfg.Warmup)
	if err != nil {
		return fmt.Errorf("autoheal: probe monitor: %w", err)
	}
	m.SetAlpha(c.cfg.Alpha)
	c.monitor = m
	c.overBudget = 0
	c.warmG.Set(0)
	return nil
}

// transition records entering a state: counter, gauge-side log.
func (c *Controller) transition(state string) {
	c.state = state
	if ctr := c.transitions[state]; ctr != nil {
		ctr.Inc()
	}
	telemetry.OrNop(c.cfg.Logger).Info("autoheal transition", "state", state, "version", c.cfg.Version())
}

// Start launches the control loop; it runs until ctx is canceled.
func (c *Controller) Start(ctx context.Context) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		ticker := time.NewTicker(c.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				c.tick(ctx)
			}
		}
	}()
}

// Stop blocks until the control loop has exited (cancel the Start
// context first).
func (c *Controller) Stop() { c.wg.Wait() }

// tick runs one probe round and, when the dwell budget is spent,
// a heal. Exported indirectly through Start; tests drive it directly
// for deterministic control.
func (c *Controller) tick(ctx context.Context) {
	c.mu.Lock()
	if c.healing || time.Now().Before(c.cooldownUntil) {
		c.mu.Unlock()
		return
	}
	monitor := c.monitor
	c.mu.Unlock()

	obs, err := c.cfg.Sample(ctx, c.cfg.Probes)
	if err != nil {
		telemetry.OrNop(c.cfg.Logger).Warn("autoheal probe round failed", "error", err)
		return
	}
	for _, o := range obs {
		// An exact truth is a zero-width certified interval: the probe
		// deviation is |est-truth|/truth, the true relative error.
		monitor.Observe(o.Est, o.Truth, o.Truth)
	}
	snap := monitor.Snapshot()
	c.scoreG.Set(snap.Score)
	if snap.Warm {
		c.warmG.Set(1)
	}

	c.mu.Lock()
	if !snap.Warm {
		c.mu.Unlock()
		return
	}
	trigger := false
	switch {
	case snap.Score > c.cfg.Budget:
		c.overBudget++
		trigger = c.overBudget >= c.cfg.Dwell
	case snap.Score < c.cfg.ReArm*c.cfg.Budget:
		// Hysteresis: only a clearly-healthy score resets the dwell
		// counter; scores in the dead band between ReArm*Budget and
		// Budget hold it, so oscillation cannot flap the trigger.
		c.overBudget = 0
	}
	if !trigger {
		c.mu.Unlock()
		return
	}
	c.healing = true // single-flight: later ticks bail until we clear it
	c.transition(StateTriggered)
	c.mu.Unlock()

	c.heal(ctx, snap.Score)
}

// heal runs one repair attempt synchronously and re-arms.
func (c *Controller) heal(ctx context.Context, score float64) {
	log := telemetry.OrNop(c.cfg.Logger)
	from := c.cfg.Version()
	c.mu.Lock()
	c.transition(StateRetraining)
	c.mu.Unlock()
	log.Warn("autoheal: drift past budget, retraining",
		"score", score, "budget", c.cfg.Budget, "serving", from)

	ctx, span := c.cfg.Tracer.StartSpanForced(ctx, "autoheal.heal")
	span.SetAttr("from", from)
	span.SetAttr("score", fmt.Sprintf("%.3f", score))
	version, err := c.cfg.Heal(ctx)
	if err == nil {
		span.SetAttr("to", version)
	}
	span.SetError(err)
	span.End()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.cooldownUntil = time.Now().Add(c.cfg.Cooldown)
	c.healing = false
	if err != nil {
		c.healFails++
		c.healFailsC.Inc()
		c.lastErr = err.Error()
		c.transition(StateRolledBack)
		// Re-arm without resetting the monitor: the model is still the
		// drifted one, so the next dwell window should accumulate from
		// live scores, not from a fresh baseline over a broken model.
		c.overBudget = 0
		c.transition(StateArmed)
		log.Error("autoheal: heal failed, still serving last good version",
			"error", err, "serving", c.cfg.Version(), "cooldown", c.cfg.Cooldown)
		return
	}
	c.heals++
	c.healsC.Inc()
	c.lastErr = ""
	c.transition(StateSwapped)
	// The swap installed a new model: rebuild the probe monitor so the
	// new model earns a fresh warmup baseline at its own scale.
	if merr := c.resetMonitorLocked(); merr != nil {
		log.Error("autoheal: rebuilding probe monitor after swap", "error", merr)
	}
	c.scoreG.Set(1)
	c.transition(StateArmed)
	log.Info("autoheal: healed", "from", from, "to", version, "cooldown", c.cfg.Cooldown)
}

// State returns the controller's current view.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := c.monitor.Snapshot()
	return State{
		State:      c.state,
		Score:      snap.Score,
		Budget:     c.cfg.Budget,
		Warm:       snap.Warm,
		OverBudget: c.overBudget,
		Dwell:      c.cfg.Dwell,
		Version:    c.cfg.Version(),
		Heals:      c.heals,
		HealFails:  c.healFails,
		LastError:  c.lastErr,
	}
}
