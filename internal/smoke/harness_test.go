//go:build smoke

// Package smoke drives the serving binaries end to end. Each Test is
// one drill: it publishes a model version, starts real rneserver and
// rnegate processes on free loopback ports, sends traffic, and asserts
// what the fleet answered, exported on /metrics and wrote to disk. The
// smoke build tag keeps the drills out of plain builds and tests:
//
//	go test -tags smoke -count=1 ./internal/smoke
//
// -count=1 is required because the drills' inputs are binaries the
// test cache cannot see. With RNE_BENCH_DIR set to an absolute
// directory, the heal, overload, load, shard, trace and telemetry
// drills write their BENCH_<name>.json there. HEAL_SMOKE_PRESET runs
// the heal drill on a named genroad preset (e.g. bj-mini) in place of
// its 10×10 grid.
package smoke

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/telemetry"
)

var (
	binDir   string // the binaries TestMain builds once per run
	benchDir = os.Getenv("RNE_BENCH_DIR")
	client   = &http.Client{Timeout: 30 * time.Second}
	// usedPorts are the ports freeAddr handed out in this run, so two
	// processes started back to back never share one.
	usedPorts = map[int]bool{}
)

func TestMain(m *testing.M) {
	if benchDir != "" && !filepath.IsAbs(benchDir) {
		fmt.Fprintf(os.Stderr, "smoke: RNE_BENCH_DIR %q must be absolute: go test runs in the package directory\n", benchDir)
		os.Exit(2)
	}
	var err error
	if binDir, err = os.MkdirTemp("", "rne-smoke-"); err != nil {
		fmt.Fprintln(os.Stderr, "smoke:", err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "repro/cmd/...")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "smoke: building the binaries:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(binDir)
	os.Exit(code)
}

// fleet is one drill's scratch directory, which every command it runs
// uses as its working directory, and the serving processes it started.
type fleet struct {
	t     *testing.T
	dir   string
	boot  int // readiness polls, 100 ms apart, before a start fails
	procs []*proc
}

// proc is one serving process on a loopback port.
type proc struct {
	name, url, log string
	cmd            *exec.Cmd
	done           chan struct{} // closed once the process has exited
	stopped        bool
}

func newFleet(t *testing.T) *fleet {
	f := &fleet{t: t, dir: t.TempDir(), boot: 100}
	t.Cleanup(f.cleanup)
	return f
}

// cleanup lints /metrics of every process the drill did not stop
// (unless it already failed, so a process that died on its own fails
// the drill), SIGKILLs them, and prints every log if the drill failed.
func (f *fleet) cleanup() {
	for _, p := range f.procs {
		if !p.stopped && !f.t.Failed() {
			f.lint(p)
		}
	}
	for _, p := range f.procs {
		p.cmd.Process.Kill()
		<-p.done
		if f.t.Failed() {
			out, _ := os.ReadFile(p.log)
			f.t.Logf("--- %s log:\n%s", p.name, out)
		}
	}
}

// run runs a one-shot binary to completion and returns its stdout,
// failing the drill with its output when it exits non-zero.
func (f *fleet) run(bin string, args ...string) string {
	f.t.Helper()
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	cmd.Dir = f.dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		f.t.Fatalf("%s %s: %v\n%s%s", bin, strings.Join(args, " "), err, &stdout, &stderr)
	}
	return stdout.String()
}

// grid writes the 10×10 road grid (seed 7) most drills serve to g.txt,
// trains a model on it (dim 8, 2 epochs, seed 1) and publishes it as
// version v1 of "demo" in the registry reg.
func (f *fleet) grid() {
	f.t.Helper()
	f.run("genroad", "-rows", "10", "-cols", "10", "-seed", "7", "-o", "g.txt")
	f.run("rnebuild", "-graph", "g.txt", "-dim", "8", "-epochs", "2", "-seed", "1", "-report", "",
		"-registry", "reg", "-publish", "demo")
}

// start launches rneserver or rnegate with -addr on a free loopback
// port and waits until it answers 200 on /healthz (a replica) or
// /readyz (a gateway). A port taken between choosing and binding it is
// retried on a fresh one.
func (f *fleet) start(name, bin string, args ...string) *proc {
	f.t.Helper()
	ready := "/healthz"
	if bin == "rnegate" {
		ready = "/readyz"
	}
	for attempt := 1; ; attempt++ {
		addr := freeAddr(f.t)
		p := &proc{name: name, url: "http://" + addr, log: filepath.Join(f.dir, name+".log"), done: make(chan struct{})}
		p.cmd = exec.Command(filepath.Join(binDir, bin), append(args, "-addr", addr)...)
		p.cmd.Dir = f.dir
		logf, err := os.Create(p.log)
		if err != nil {
			f.t.Fatal(err)
		}
		p.cmd.Stdout, p.cmd.Stderr = logf, logf
		err = p.cmd.Start()
		logf.Close()
		if err != nil {
			f.t.Fatalf("starting %s: %v", name, err)
		}
		go func() { p.cmd.Wait(); close(p.done) }()
	poll:
		for i := 0; i < f.boot; i++ {
			if code, _ := fetch(p.url+ready, nil); code == http.StatusOK {
				f.procs = append(f.procs, p)
				return p
			}
			select {
			case <-p.done:
				break poll
			case <-time.After(100 * time.Millisecond):
			}
		}
		p.cmd.Process.Kill()
		<-p.done
		out, _ := os.ReadFile(p.log)
		if attempt == 3 || !bytes.Contains(out, []byte("address already in use")) {
			f.t.Fatalf("%s never answered 200 on %s:\n%s", name, ready, out)
		}
	}
}

// freeAddr returns a loopback address on a port the kernel just
// reported free and this run has not handed out before.
func freeAddr(t *testing.T) string {
	for {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		if addr := l.Addr().(*net.TCPAddr); !usedPorts[addr.Port] {
			usedPorts[addr.Port] = true
			return addr.String()
		}
	}
}

// stop lints p's /metrics, sends it SIGTERM, on which it drains and
// flushes its span file, and waits for it to exit.
func (f *fleet) stop(p *proc) {
	f.t.Helper()
	f.lint(p)
	p.stopped = true
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		f.t.Fatalf("%s did not exit on SIGTERM", p.name)
	}
}

// lint checks p's /metrics with telemetry.CheckExposition.
func (f *fleet) lint(p *proc) {
	f.t.Helper()
	code, body := fetch(p.url+"/metrics", nil)
	if err := telemetry.CheckExposition(bytes.NewReader(body)); code != http.StatusOK || err != nil {
		f.t.Errorf("%s /metrics: status %d, %v", p.name, code, err)
	}
}

// readFile reads a file from the drill's scratch directory.
func (f *fleet) readFile(name string) []byte {
	f.t.Helper()
	data, err := os.ReadFile(filepath.Join(f.dir, name))
	if err != nil {
		f.t.Fatal(err)
	}
	return data
}

// fetch GETs url, or POSTs body to it when body is non-nil, and
// returns the status (0 when the request failed) and the whole body.
func fetch(url string, body []byte) (int, []byte) {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = client.Get(url)
	} else {
		resp, err = client.Post(url, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, out
}

// getJSON GETs url and decodes its body into v, returning the status
// (0 when the request failed or the body is not JSON).
func getJSON(url string, v any) int {
	code, body := fetch(url, nil)
	if code == 0 || json.Unmarshal(body, v) != nil {
		return 0
	}
	return code
}

// metrics scrapes url's /metrics through telemetry.ParseExposition; a
// failed scrape is an empty map.
func metrics(url string) map[string]float64 {
	_, body := fetch(url+"/metrics", nil)
	m, _ := telemetry.ParseExposition(bytes.NewReader(body))
	return m
}

// version is the model version a replica's /healthz reports.
func version(p *proc) string {
	var h struct{ Version string }
	getJSON(p.url+"/healthz", &h)
	return h.Version
}

// waitFor polls cond every 100 ms, up to tries times, and fails the
// drill if it never holds.
func waitFor(t *testing.T, what string, tries int, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i == tries {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// hammer GETs url back to back until the returned stop is called (or
// the drill ends); stop reports how many requests failed, by transport
// error or a status of 400 or more.
func hammer(t *testing.T, url string) (stop func() int) {
	var quit atomic.Bool
	fails, done := 0, make(chan struct{})
	go func() {
		defer close(done)
		for !quit.Load() {
			if code, _ := fetch(url, nil); code == 0 || code >= 400 {
				fails++
			}
		}
	}()
	stop = sync.OnceValue(func() int {
		quit.Store(true)
		<-done
		return fails
	})
	t.Cleanup(func() { stop() })
	return stop
}

// writeBench writes a drill's BENCH_<name>.json into RNE_BENCH_DIR
// when it is set: bytes as they are, any other value as indented JSON.
func writeBench(t *testing.T, name string, v any) {
	t.Helper()
	if benchDir == "" {
		return
	}
	data, ok := v.([]byte)
	if !ok {
		var err error
		if data, err = json.MarshalIndent(v, "", "  "); err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
	}
	if err := os.WriteFile(filepath.Join(benchDir, "BENCH_"+name+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// benchEnv is the environment block of a drill's BENCH_*.json, under
// perfbench's key names, so a committed result says what it ran on. A
// git_sha ending in -dirty names the commit the working tree had
// uncommitted changes against.
type benchEnv struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
}

func newBenchEnv() benchEnv {
	e := benchEnv{CPUModel: runtime.GOARCH, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitSHA: "unknown"}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitSHA = strings.TrimSpace(string(out))
		if dirty, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(dirty) > 0 {
			e.GitSHA += "-dirty"
		}
	}
	return e
}
