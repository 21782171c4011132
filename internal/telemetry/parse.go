package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// parseSampleRe matches the prefix of one exposition sample line —
// name, optional label block, value — up to the end of the line or the
// space before whatever follows the value (a timestamp, or an
// OpenMetrics exemplar suffix ` # {...} v ts`), so those lines parse
// the same as plain ones while a value with junk glued on does not.
var parseSampleRe = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[+-]Inf|[0-9eE.+-]+)(?: |$)`)

// ParseExposition parses Prometheus text exposition output into a flat
// sample map keyed by `name{labels}` exactly as rendered (bare `name`
// for label-free series). HELP/TYPE comments and exemplar suffixes are
// skipped; unparseable sample lines are an error. It is the scrape
// half of the exposition pipeline: what Registry.WriteTo writes,
// ParseExposition reads back, so a load harness can join client-side
// latency with the counters a target fleet reports.
func ParseExposition(r io.Reader) (map[string]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	out := make(map[string]float64)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := parseSampleRe.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("telemetry: exposition line %d unparseable: %q", lineNo, line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: exposition line %d value %q: %v", lineNo, m[3], err)
		}
		out[m[1]+m[2]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// bucketRe extracts the le label of one histogram _bucket key.
var bucketRe = regexp.MustCompile(`le="([^"]*)"`)

// HistogramFromSamples reassembles the named histogram from a parsed
// sample map: the `name_bucket{le=...}` series become a HistSnapshot
// with de-cumulated counts, ready for Quantile/Sub — the path a
// scraper uses to compute a target's GC-pause or request-latency p99
// from two scrapes. Series names must match exactly (label sets other
// than le are not supported). Returns ok=false when no buckets exist.
func HistogramFromSamples(samples map[string]float64, name string) (HistSnapshot, bool) {
	type bucket struct {
		le  float64
		cum float64
	}
	var bs []bucket
	var inf float64
	haveInf := false
	prefix := name + "_bucket{"
	for k, v := range samples {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		m := bucketRe.FindStringSubmatch(k)
		if m == nil {
			continue
		}
		if m[1] == "+Inf" {
			inf = v
			haveInf = true
			continue
		}
		le, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le: le, cum: v})
	}
	if len(bs) == 0 {
		return HistSnapshot{}, false
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	s := HistSnapshot{
		Bounds: make([]float64, len(bs)),
		Counts: make([]int64, len(bs)+1),
		Sum:    samples[name+"_sum"],
	}
	prev := 0.0
	for i, b := range bs {
		s.Bounds[i] = b.le
		s.Counts[i] = int64(b.cum - prev)
		prev = b.cum
	}
	total := prev
	if haveInf {
		s.Counts[len(bs)] = int64(inf - prev)
		total = inf
	}
	s.Count = int64(total)
	return s, true
}
