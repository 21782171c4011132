package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
)

// environment is recorded in every result, so two results can be told
// apart by what they ran on and with which settings.
type environment struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	GitSHA     string `json:"git_sha"`

	Graph struct {
		Preset   string `json:"preset"`
		Vertices int    `json:"vertices"`
		Edges    int    `json:"edges"`
	} `json:"graph"`
	Training core.Options `json:"training_options"`

	Seeds struct {
		Requests int64 `json:"requests"`
		Train    int64 `json:"train"`
		ALT      int64 `json:"alt"`
		Targets  int64 `json:"targets"`
	} `json:"seeds"`
	StreamHash string `json:"stream_hash"`

	Serving struct {
		Clients           int     `json:"clients"`
		ALTLandmarks      int     `json:"alt_landmarks"`
		BatchShape        string  `json:"batch_shape"`
		KNNK              int     `json:"knn_k"`
		TargetFraction    float64 `json:"knn_target_fraction"`
		ShardCutLevel     int     `json:"shard_cut_level"`
		Shards            int     `json:"shards"`
		GatewayHealthIntv string  `json:"gateway_health_interval"`
		SetupRepeats      int     `json:"setup_repeats"`
		Warmup            string  `json:"warmup"`
		Window            string  `json:"window"`
		Windows           int     `json:"windows"`
	} `json:"serving"`
}

func newEnvironment(g *graph.Graph, seed int64, s *stream, windows int) environment {
	var e environment
	e.CPUModel = cpuModel()
	e.NProc = runtime.NumCPU()
	e.GOMAXPROCS = runtime.GOMAXPROCS(0)
	e.GoVersion = runtime.Version()
	e.GOGC = os.Getenv("GOGC")
	if e.GOGC == "" {
		e.GOGC = "100 (default)"
	}
	e.GitSHA = os.Getenv("PERFBENCH_GIT_SHA")
	if e.GitSHA == "" {
		e.GitSHA = "unknown"
	}
	e.Graph.Preset, e.Graph.Vertices, e.Graph.Edges = presetName, g.NumVertices(), g.NumEdges()
	e.Training = trainOptions()
	e.Seeds.Requests, e.Seeds.Train, e.Seeds.ALT, e.Seeds.Targets = seed, trainSeed, altSeed, targetsSeed
	e.StreamHash = s.hash()
	e.Serving.Clients = clients
	e.Serving.ALTLandmarks = altLandmarks
	e.Serving.BatchShape = fmt.Sprintf("%dx%d", batchSide, batchSide)
	e.Serving.KNNK = knnK
	e.Serving.TargetFraction = targetFraction
	e.Serving.ShardCutLevel = shardCutLevel
	e.Serving.Shards = shardCount
	e.Serving.GatewayHealthIntv = healthInterval.String()
	e.Serving.SetupRepeats = setupRepeats
	e.Serving.Warmup = warmup.String()
	e.Serving.Window = windowLen.String()
	e.Serving.Windows = windows
	return e
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
