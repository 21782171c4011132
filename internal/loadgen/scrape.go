package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Metric names the joiner reads from the target's exposition. These
// are the serving tier's own names (resilience.Stats,
// telemetry.RegisterRuntimeMetrics); the joiner degrades to zero series
// when a target does not export one of them.
const (
	metricInFlight    = "rne_http_in_flight_requests"
	metricShed        = "rne_http_requests_shed_total"
	metricGatewayShed = "rne_gateway_shed_total"
	metricHTTPLat     = "rne_http_request_duration_seconds"
)

// joinSession scrapes every configured target while a step's clients
// run: one scrape before, a timeline at ScrapeInterval, one after.
// stop() blocks until the final scrape and returns the joined view.
type joinSession struct {
	runner *Runner
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu    sync.Mutex
	joins []ServerJoin
}

// startJoin begins scraping the configured targets for one step.
func (r *Runner) startJoin(ctx context.Context) *joinSession {
	ctx, cancel := context.WithCancel(ctx)
	js := &joinSession{runner: r, cancel: cancel}
	start := time.Now()
	for _, sc := range r.cfg.Scrapes {
		js.wg.Add(1)
		go func(sc ScrapeTarget) {
			defer js.wg.Done()
			j := r.joinOne(ctx, sc, start)
			js.mu.Lock()
			js.joins = append(js.joins, j)
			js.mu.Unlock()
		}(sc)
	}
	return js
}

// stop ends the timeline, waits for the final scrapes and returns the
// per-target joins in configuration order.
func (js *joinSession) stop() []ServerJoin {
	js.cancel()
	js.wg.Wait()
	js.mu.Lock()
	defer js.mu.Unlock()
	order := make(map[string]int, len(js.runner.cfg.Scrapes))
	for i, sc := range js.runner.cfg.Scrapes {
		order[sc.Name] = i
	}
	sort.Slice(js.joins, func(a, b int) bool { return order[js.joins[a].Name] < order[js.joins[b].Name] })
	return js.joins
}

// joinOne runs the scrape loop for one target until ctx is canceled,
// then takes the closing scrape and computes the deltas.
func (r *Runner) joinOne(ctx context.Context, sc ScrapeTarget, start time.Time) ServerJoin {
	j := ServerJoin{Name: sc.Name, URL: sc.URL}
	pre, err := r.scrape(ctx, sc.URL)
	if err != nil {
		j.ScrapeError = err.Error()
		return j
	}
	tick := time.NewTicker(r.cfg.ScrapeInterval)
	defer tick.Stop()
	for done := false; !done; {
		select {
		case <-ctx.Done():
			done = true
		case <-tick.C:
			if samples, err := r.scrape(ctx, sc.URL); err == nil {
				j.Timeline = append(j.Timeline, timelineSample(samples, time.Since(start)))
			}
		}
	}
	// The step is over but the closing scrape must still happen: use a
	// detached context so cancelation of the step doesn't truncate it.
	post, err := r.scrapeDetached(sc.URL)
	if err != nil {
		j.ScrapeError = err.Error()
		return j
	}
	j.Timeline = append(j.Timeline, timelineSample(post, time.Since(start)))
	j.CountersDelta = countersDelta(pre, post)
	j.Gauges = map[string]float64{
		metricInFlight:             post[metricInFlight],
		telemetry.MetricGoroutines: post[telemetry.MetricGoroutines],
		telemetry.MetricHeapBytes:  post[telemetry.MetricHeapBytes],
	}
	if hj, ok := histogramDelta(pre, post, metricHTTPLat); ok {
		j.HTTPLatency = &hj
	}
	if hj, ok := histogramDelta(pre, post, telemetry.MetricGCPauses); ok {
		j.GCPause = &hj
	}
	return j
}

func (r *Runner) scrape(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("loadgen: scraping %s/metrics: status %d", base, resp.StatusCode)
	}
	return telemetry.ParseExposition(resp.Body)
}

func (r *Runner) scrapeDetached(base string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.RequestTimeout)
	defer cancel()
	return r.scrape(ctx, base)
}

// timelineSample projects one scrape onto the compact timeline row the
// report keeps: runtime gauges, requests in flight and the cumulative
// shed count, enough to see GC pressure or shedding move in step with
// a latency knee. Sheds counts every 429 the target answered: those of
// the serving pass's in-flight cap and, on a gateway, those its
// handlers answer (a relayed replica 429 or a refused retry).
func timelineSample(samples map[string]float64, offset time.Duration) TimelineSample {
	return TimelineSample{
		OffsetSeconds: offset.Seconds(),
		Goroutines:    samples[telemetry.MetricGoroutines],
		HeapBytes:     samples[telemetry.MetricHeapBytes],
		GCCycles:      samples[telemetry.MetricGCCycles],
		InFlight:      samples[metricInFlight],
		Sheds:         samples[metricShed] + samples[metricGatewayShed],
	}
}

// countersDelta returns post-minus-pre for every rne_*_total series
// that moved during the step, keyed exactly as exposed (labels
// included). Unmoved series are dropped to keep reports readable;
// negative deltas (a target restart mid-step) are kept as-is so the
// restart is visible rather than papered over.
func countersDelta(pre, post map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range post {
		name := k
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if !strings.HasPrefix(name, "rne_") || !strings.HasSuffix(name, "_total") {
			continue
		}
		if d := v - pre[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// histogramDelta computes the windowed quantiles of one server-side
// histogram across the step: reassemble pre and post snapshots from
// the scraped buckets, subtract, interpolate.
func histogramDelta(pre, post map[string]float64, name string) (HistJoin, bool) {
	hPost, ok := telemetry.HistogramFromSamples(post, name)
	if !ok {
		return HistJoin{}, false
	}
	window := hPost
	if hPre, ok := telemetry.HistogramFromSamples(pre, name); ok {
		window = hPost.Sub(hPre)
	}
	hj := HistJoin{Count: window.Count}
	if window.Count > 0 {
		hj.P50MS = window.Quantile(0.50) * 1e3
		hj.P99MS = window.Quantile(0.99) * 1e3
	}
	return hj, true
}

// startProfiles arms the step's pprof captures against the target's
// operator listener: a CPU profile spanning ProfileCPUSeconds from the
// end of warmup (so the profile covers the measured window, not JIT
// and cache warmup), and a heap profile at the step deadline (peak
// live set). No-op without a DebugURL.
func (r *Runner) startProfiles(ctx context.Context, label string, warmEnd, deadline time.Time,
	out *[]ProfileCapture, wg *sync.WaitGroup) {
	if r.cfg.DebugURL == "" || (r.cfg.ProfileCPUSeconds <= 0 && !r.cfg.ProfileHeap) {
		return
	}
	var mu sync.Mutex
	capture := func(kind, u, file string, after time.Time, timeout time.Duration) {
		defer wg.Done()
		if wait := time.Until(after); wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		}
		pc := ProfileCapture{Kind: kind, Path: file}
		if err := r.fetchProfile(u, file, timeout); err != nil {
			pc.Error = err.Error()
		} else if st, err := os.Stat(file); err == nil {
			pc.Bytes = st.Size()
		}
		mu.Lock()
		*out = append(*out, pc)
		mu.Unlock()
	}
	if err := os.MkdirAll(r.cfg.ProfileDir, 0o755); err != nil {
		r.logf("profile dir: %v", err)
		return
	}
	base := strings.TrimRight(r.cfg.DebugURL, "/")
	if r.cfg.ProfileCPUSeconds > 0 {
		wg.Add(1)
		go capture("cpu",
			fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, r.cfg.ProfileCPUSeconds),
			filepath.Join(r.cfg.ProfileDir, label+"-cpu.pprof"),
			warmEnd,
			time.Duration(r.cfg.ProfileCPUSeconds)*time.Second+r.cfg.RequestTimeout)
	}
	if r.cfg.ProfileHeap {
		wg.Add(1)
		go capture("heap",
			base+"/debug/pprof/heap",
			filepath.Join(r.cfg.ProfileDir, label+"-heap.pprof"),
			deadline,
			r.cfg.RequestTimeout)
	}
}

// fetchProfile downloads one pprof endpoint to a file. A detached
// context: the CPU profile intentionally outlives the step's workers.
func (r *Runner) fetchProfile(u, file string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	// The shared client's timeout is tuned for requests, not an
	// N-second blocking profile: use a bare client with the transport.
	client := &http.Client{Transport: r.cfg.Transport}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("loadgen: %s: status %d: %s", u, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
