package bench

import (
	"fmt"
	"time"

	"repro/internal/ach"
	"repro/internal/alt"
	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/h2h"
	"repro/internal/oracle"
	"repro/internal/sssp"
)

// method is one comparator in the Table III/IV suites.
type method struct {
	name       string
	estimate   func(s, t int32) float64
	exact      bool
	indexBytes int64
	buildTime  time.Duration
	skipTiming bool   // coordinate baselines are O(1); timed anyway
	phases     string // RNE only: where the build time went
}

// rneOptions returns paper-style options for a dataset: d = 64 on the
// BJ stand-in, d = 128 on the larger two, shrunk in quick mode.
func rneOptions(ds dataset, cfg Config) core.Options {
	opt := core.DefaultOptions(cfg.Seed)
	if ds.name != "bj-mini" {
		opt.Dim = 128
	}
	if cfg.Quick {
		opt.Dim = 32
		opt.Epochs = 5
		opt.VertexSampleRatio = 60
		opt.FineTuneRounds = 4
		opt.HierSampleCap = 15000
		opt.ValidationPairs = 400
	}
	return opt
}

// ltLandmarks mirrors the paper's LT configuration (BJ 128, larger 256).
func ltLandmarks(ds dataset, cfg Config) int {
	n := 128
	if ds.name != "bj-mini" {
		n = 256
	}
	if cfg.Quick {
		n /= 4
	}
	if n > ds.g.NumVertices() {
		n = ds.g.NumVertices()
	}
	return n
}

// buildRNE trains the RNE model for a dataset.
func buildRNE(ds dataset, cfg Config) (*core.Model, method, error) {
	start := time.Now()
	m, st, err := core.Build(ds.g, rneOptions(ds, cfg))
	if err != nil {
		return nil, method{}, err
	}
	r := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	return m, method{
		name:       "RNE",
		estimate:   m.EstimateL1,
		indexBytes: m.IndexBytes(),
		buildTime:  time.Since(start),
		phases: fmt.Sprintf("setup %v, hierarchy %v, vertex %v, fine-tune %v; labeling %v of it",
			r(st.Setup), r(st.HierPhase), r(st.VertexPhase), r(st.FineTune), r(st.Labeling)),
	}, nil
}

// buildSuite constructs every Table III comparator for a dataset. The
// distance oracle only runs on the BJ stand-in, mirroring the paper's
// scalability note.
func buildSuite(ds dataset, cfg Config) ([]method, error) {
	g := ds.g
	var out []method

	out = append(out,
		method{name: "Euclidean", estimate: g.Euclidean, skipTiming: false},
		method{name: "Manhattan", estimate: g.Manhattan},
	)

	start := time.Now()
	h2hIdx, err := h2h.Build(g)
	if err != nil {
		return nil, err
	}
	out = append(out, method{
		name: "H2H", estimate: h2hIdx.Distance, exact: true,
		indexBytes: h2hIdx.IndexBytes(), buildTime: time.Since(start),
	})

	start = time.Now()
	chIdx, err := ch.Build(g, ch.Options{})
	if err != nil {
		return nil, err
	}
	chQ := chIdx.NewQuery()
	out = append(out, method{
		name: "CH", estimate: chQ.Distance, exact: true,
		indexBytes: chIdx.IndexBytes(), buildTime: time.Since(start),
	})

	if ds.name == "bj-mini" {
		start = time.Now()
		orc, err := oracle.Build(g, 0.5)
		if err != nil {
			return nil, err
		}
		out = append(out, method{
			name: "DistanceOracle", estimate: orc.Estimate,
			indexBytes: orc.IndexBytes(), buildTime: time.Since(start),
		})
	}

	start = time.Now()
	achIdx, err := ach.Build(g, 0.1)
	if err != nil {
		return nil, err
	}
	achQ := achIdx.NewQuery()
	out = append(out, method{
		name: "ACH", estimate: achQ.Distance,
		indexBytes: achIdx.IndexBytes(), buildTime: time.Since(start),
	})

	start = time.Now()
	lt, err := alt.Build(g, ltLandmarks(ds, cfg), cfg.Seed)
	if err != nil {
		return nil, err
	}
	out = append(out, method{
		name: "LT", estimate: lt.Estimate,
		indexBytes: lt.IndexBytes(), buildTime: time.Since(start),
	})

	_, rneMethod, err := buildRNE(ds, cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, rneMethod)
	return out, nil
}

// exactRange computes the true network range-query answer: all targets
// within tau of s.
func exactRange(ws *sssp.Workspace, targets []int32, s int32, tau float64, scratch []float64) ([]int32, []float64) {
	dist := ws.FromSource(s, scratch)
	var out []int32
	for _, v := range targets {
		if dist[v] <= tau {
			out = append(out, v)
		}
	}
	return out, dist
}
