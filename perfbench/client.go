package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the number of closed-loop client connections. Callers of
// a distance service (route planners, dispatch) each wait for their
// answer before asking again.
const clients = 2

// errNotReady marks a 503, or a partial 206, from a gateway that has
// not yet discovered all its shards; set-up retries it, every other
// phase counts it failed.
var errNotReady = errors.New("route not ready")

// client is one keep-alive connection to the workload's route.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base url.URL
	resp bytes.Buffer
}

func newClient(base string) (*client, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr: tr, base: *u}, nil
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// wire shapes of the point and knn answers; only the fields the checker
// compares are decoded
type pointReply struct {
	Distance float64 `json:"distance"`
}

type knnReply struct {
	Targets   []int32   `json:"targets"`
	Distances []float64 `json:"distances"`
}

// send issues request i of s, from its encoding made when the stream
// was drawn, and decodes the answer. reqID, when non-empty, is sent as
// X-Request-Id so traced spans of one request can be joined across the
// client, gateway and replicas.
func (c *client) send(s *stream, i int, reqID string) (answer, error) {
	u := c.base
	u.Path = s.path()
	req := &http.Request{Method: http.MethodGet, URL: &u, Host: u.Host, Header: http.Header{}}
	if s.workload == wlMatrix {
		body := s.bodies[i]
		req.Method = http.MethodPost
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		req.ContentLength = int64(len(body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		u.RawQuery = s.queries[i]
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return answer{}, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return answer{}, err
	}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusPartialContent:
		return answer{}, fmt.Errorf("%w: status %d", errNotReady, resp.StatusCode)
	case resp.StatusCode != http.StatusOK:
		return answer{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.resp.Bytes()))
	}
	return decodeAnswer(s.workload, c.resp.Bytes())
}

// writeBatch appends the /batch body for pairs.
func writeBatch(w *bytes.Buffer, pairs [][2]int32) {
	var num [12]byte
	w.WriteString(`{"pairs":[`)
	for j, p := range pairs {
		if j > 0 {
			w.WriteByte(',')
		}
		w.WriteByte('[')
		w.Write(strconv.AppendInt(num[:0], int64(p[0]), 10))
		w.WriteByte(',')
		w.Write(strconv.AppendInt(num[:0], int64(p[1]), 10))
		w.WriteByte(']')
	}
	w.WriteString(`]}`)
}

func decodeAnswer(workload string, body []byte) (answer, error) {
	switch workload {
	case wlPoint:
		var r pointReply
		if err := json.Unmarshal(body, &r); err != nil {
			return answer{}, err
		}
		return answer{dist: []float64{r.Distance}}, nil
	case wlMatrix:
		d, err := batchDistances(body)
		return answer{dist: d}, err
	default:
		var r knnReply
		if err := json.Unmarshal(body, &r); err != nil {
			return answer{}, err
		}
		return answer{dist: r.Distances, ids: r.Targets}, nil
	}
}

// batchDistances returns the "distances" array of a /batch answer. A
// batch answer carries three arrays of a thousand numbers; decoding them
// with encoding/json took a fifth of the process's CPU, which the
// clients then added to every latency. Only the array the checker
// compares is parsed, with strconv, which round-trips the server's
// shortest float encoding exactly.
func batchDistances(body []byte) ([]float64, error) {
	const key = `"distances":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return nil, fmt.Errorf("batch answer has no distances: %.200s", body)
	}
	rest := bytes.TrimLeft(body[i+len(key):], " \n")
	if len(rest) == 0 || rest[0] != '[' {
		return nil, errors.New("batch answer: distances is not an array")
	}
	rest = rest[1:]
	out := make([]float64, 0, batchSide*batchSide)
	for {
		rest = bytes.TrimLeft(rest, " \n")
		if len(rest) > 0 && rest[0] == ']' {
			return out, nil
		}
		end := bytes.IndexAny(rest, ",]")
		if end < 0 {
			return nil, errors.New("batch answer: unterminated distances")
		}
		v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest[:end])), 64)
		if err != nil {
			return nil, fmt.Errorf("batch answer: %w", err)
		}
		out = append(out, v)
		if rest[end] == ']' {
			return out, nil
		}
		rest = rest[end+1:]
	}
}

// window is one closed-loop measurement interval.
type window struct {
	lat      []float64 // ms per successful request, ascending
	done     int       // requests completed (successful or not)
	wall     time.Duration
	cpu      time.Duration // process user+sys
	gcCycles uint32
	gcPause  time.Duration
	calib    time.Duration // mean calibration pass on either side of the window
}

func (w window) p(q float64) float64 { return percentile(w.lat, q) }

// cpuUSPerReq is process CPU per completed request.
func (w window) cpuUSPerReq() float64 {
	if w.done == 0 {
		return 0
	}
	return float64(w.cpu.Microseconds()) / float64(w.done)
}

// loop drives the clients in closed loop over a shared cursor into the
// stream, checking every answer.
type loop struct {
	s       *stream
	exp     *expectations
	chk     *checker
	clients []*client
	next    atomic.Uint64
	// rec, when non-nil, records a client span per request and tags it
	// with an X-Request-Id the server-side spans join on.
	rec *spanRecorder
}

// run measures one window of duration d.
func (l *loop) run(d time.Duration) window {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	lats := make([][]float64, len(l.clients))
	dones := make([]int, len(l.clients))
	var wg sync.WaitGroup
	for ci, c := range l.clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				seq := l.next.Add(1) - 1
				i := int(seq % uint64(l.s.len()))
				var id string
				if l.rec != nil {
					id = spanID(seq)
				}
				t0 := time.Now()
				a, err := c.send(l.s, i, id)
				t1 := time.Now()
				if err == nil {
					err = l.chk.verify(l.exp, i, a)
				}
				l.chk.record(err)
				dones[ci]++
				if err != nil {
					continue
				}
				lats[ci] = append(lats[ci], float64(t1.Sub(t0).Nanoseconds())/1e6)
				if l.rec != nil {
					l.rec.add(seq, "client", t0, t1)
				}
			}
		}(ci, c)
	}
	wg.Wait()
	w := window{wall: time.Since(start), cpu: processCPU() - cpu0}
	runtime.ReadMemStats(&ms1)
	w.gcCycles = ms1.NumGC - ms0.NumGC
	w.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	for ci := range lats {
		w.lat = append(w.lat, lats[ci]...)
		w.done += dones[ci]
	}
	sort.Float64s(w.lat)
	return w
}

// processCPU returns the process's cumulative user+sys CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
