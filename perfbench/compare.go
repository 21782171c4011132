package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json compare mode reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runSet is one side of a comparison: metric values by workload and
// name, one value per run.
type runSet map[string]map[string][]float64

// readRuns collects the records in a file of captured standard output
// from any number of runs; other lines are skipped.
func readRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var line recordLine
		if json.Unmarshal(sc.Bytes(), &line) != nil || line.Record == nil {
			continue
		}
		rec := line.Record
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no perfbench records", path)
	}
	return runs, nil
}

// Verdicts of one workload x metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// spread is the distance between the quartiles as a share of the
// median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		if q1 == q3 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// worsening is how much worse b's median is than a's, as a share of
// a's median (negative when better).
func worsening(a, b []float64, higherBetter bool) float64 {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	d := mb - ma
	if higherBetter {
		d = -d
	}
	if ma == 0 {
		switch {
		case d == 0:
			return 0
		case d > 0:
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	return d / math.Abs(ma)
}

// verdict judges new against old under bound. When either side's
// spread exceeds the bound the comparison cannot resolve a change of
// that size, unless every new run is better than every old run.
func verdict(old, new []float64, bound float64, higherBetter bool) string {
	if len(old) == 0 || len(new) == 0 {
		return verdictMissing
	}
	if math.Max(spread(old), spread(new)) > bound {
		if allBetter(old, new, higherBetter) {
			return verdictOK
		}
		return verdictUnresolved
	}
	if worsening(old, new, higherBetter) > bound {
		return verdictRegressed
	}
	return verdictOK
}

func allBetter(old, new []float64, higherBetter bool) bool {
	oldMin, oldMax := minMax(old)
	newMin, newMax := minMax(new)
	if higherBetter {
		return newMin > oldMax
	}
	return newMax < oldMin
}

func minMax(v []float64) (lo, hi float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[0], s[len(s)-1]
}

// benchmarkPath is BENCHMARK.json at the repository root, where the
// benchmark runs.
const benchmarkPath = "BENCHMARK.json"

// compareMain diffs two sets of results under the bounds in
// BENCHMARK.json. It exits 1 when any workload x end-to-end metric
// regressed, 2 on bad input.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD NEW")
		return 2
	}
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	old, err := readRuns(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	cur, err := readRuns(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	regressed := writeComparison(stdout, bf, old, cur)
	if regressed {
		return 1
	}
	return 0
}

// writeComparison prints one row per workload x metric and reports
// whether any end-to-end metric regressed.
func writeComparison(w io.Writer, bf *benchmarkFile, old, cur runSet) bool {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3] (n)\tnew median [q1, q3] (n)\tchange\tbound\tverdict")
	cell := func(v []float64) string {
		if len(v) == 0 {
			return "-"
		}
		q1, q2, q3 := quartiles(v)
		return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(v))
	}
	change := func(a, b []float64) string {
		if len(a) == 0 || len(b) == 0 {
			return "-"
		}
		_, ma, _ := quartiles(a)
		_, mb, _ := quartiles(b)
		if ma == 0 {
			return "-"
		}
		return fmt.Sprintf("%+.1f%%", 100*(mb-ma)/math.Abs(ma))
	}
	regressed := false
	for _, wl := range bf.Workloads {
		o, c := old[wl.Name], cur[wl.Name]
		if o == nil && c == nil {
			continue
		}
		for _, m := range bf.EndToEnd {
			v := verdict(o[m.Name], c[m.Name], m.Bound, m.Better == "higher")
			if v == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%.2f\t%s\n", wl.Name, m.Name, m.Unit,
				cell(o[m.Name]), cell(c[m.Name]), change(o[m.Name], c[m.Name]), m.Bound, v)
		}
		for _, m := range bf.PerLayer {
			if len(o[m.Name]) == 0 && len(c[m.Name]) == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t-\tinfo\n", wl.Name, m.Name, m.Unit,
				cell(o[m.Name]), cell(c[m.Name]), change(o[m.Name], c[m.Name]))
		}
	}
	tw.Flush()
	return regressed
}
