package telemetry

import (
	"bufio"
	"bytes"
	"math"
	"strings"
	"testing"
)

// Round trip: what WriteTo renders, ParseExposition reads back —
// including histogram buckets with exemplar suffixes.
func TestParseExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rne_test_requests_total", "Requests.", "class", "2xx").Add(41)
	reg.Gauge("rne_test_limit", "Limit.").Set(12.5)
	h := reg.Histogram("rne_test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.EnableExemplars()
	h.ObserveExemplar(0.05, "deadbeef")
	h.Observe(0.5)
	h.Observe(3)

	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := CheckExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	samples, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := samples[`rne_test_requests_total{class="2xx"}`]; got != 41 {
		t.Errorf("counter = %v, want 41", got)
	}
	if got := samples["rne_test_limit"]; got != 12.5 {
		t.Errorf("gauge = %v, want 12.5", got)
	}
	if got := samples[`rne_test_latency_seconds_bucket{le="0.1"}`]; got != 1 {
		t.Errorf("le=0.1 bucket = %v, want 1 (exemplar suffix must not break parsing)", got)
	}
	if got := samples[`rne_test_latency_seconds_bucket{le="+Inf"}`]; got != 3 {
		t.Errorf("+Inf bucket = %v, want 3", got)
	}
	if got := samples["rne_test_latency_seconds_count"]; got != 3 {
		t.Errorf("count = %v, want 3", got)
	}

	// The histogram reassembles into a snapshot whose quantiles match
	// the original's.
	hs, ok := HistogramFromSamples(samples, "rne_test_latency_seconds")
	if !ok {
		t.Fatal("HistogramFromSamples found no buckets")
	}
	orig := h.Snapshot()
	for _, q := range []float64{0.5, 0.99} {
		if a, b := hs.Quantile(q), orig.Quantile(q); a != b {
			t.Errorf("q=%v: reassembled %v vs original %v", q, a, b)
		}
	}
	if hs.Count != orig.Count {
		t.Errorf("reassembled count %d, want %d", hs.Count, orig.Count)
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	if _, err := ParseExposition(strings.NewReader("this is not exposition\n")); err == nil {
		t.Fatal("garbage parsed without error")
	}
}

// A sample's value ends at the end of the line or at a space: junk
// glued onto the value is an error, not silently dropped.
func TestParseExpositionValueBoundary(t *testing.T) {
	for _, tc := range []struct {
		line string
		want float64 // value of rne_x; NaN marks a line that must fail
	}{
		{"rne_x 1.5", 1.5},
		{"rne_x 12 1700000000000", 12},
		{`rne_x 7 # {trace_id="ab"} 0.5 1.7e9`, 7},
		{`rne_x{a="b c"} 2`, 2},
		{"rne_x 1.5junk", math.NaN()},
		{"rne_x 12abc", math.NaN()},
		{"rne_x 5\tq", math.NaN()},
		{"rne_x NaNx", math.NaN()},
	} {
		samples, err := ParseExposition(strings.NewReader(tc.line + "\n"))
		if math.IsNaN(tc.want) {
			if err == nil {
				t.Errorf("%q parsed as %v, want an error", tc.line, samples)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.line, err)
			continue
		}
		for k, v := range samples {
			if v != tc.want {
				t.Errorf("%q: %s = %v, want %v", tc.line, k, v, tc.want)
			}
		}
	}
}

// FuzzParseExposition: arbitrary input never panics, and every sample
// line of an accepted input has its value token followed by nothing or
// a space.
func FuzzParseExposition(f *testing.F) {
	for _, seed := range []string{
		"rne_x 1\n",
		"# HELP rne_x X.\n# TYPE rne_x gauge\nrne_x{a=\"b\"} 2.5e-3\n",
		"rne_h_bucket{le=\"+Inf\"} 3 # {trace_id=\"ab\"} 0.5\n",
		"rne_x 1.5junk\n",
		"rne_x NaN\nrne_y -Inf 12\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if _, err := ParseExposition(strings.NewReader(in)); err != nil {
			return
		}
		sc := bufio.NewScanner(strings.NewReader(in))
		sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			m := parseSampleRe.FindStringSubmatchIndex(line)
			if m == nil {
				t.Fatalf("accepted unparseable line %q", line)
			}
			if end := m[7]; end < len(line) && line[end] != ' ' {
				t.Fatalf("accepted %q with %q glued to its value", line, line[end:])
			}
		}
	})
}
