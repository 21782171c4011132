package main

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request
// share its id: the client's sequence number, carried as X-Request-Id
// through the gateway to every replica leg.
type span struct {
	id         uint64
	name       string // "client", "gateway" or "replica-<k>"
	start, end time.Time
}

// spanRecorder keeps spans in memory until the run ends.
type spanRecorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *spanRecorder) add(id uint64, name string, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{id: id, name: name, start: start, end: end})
	r.mu.Unlock()
}

func (r *spanRecorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

const spanIDPrefix = "pb-"

func spanID(seq uint64) string { return spanIDPrefix + strconv.FormatUint(seq, 16) }

func parseSpanID(s string) (uint64, bool) {
	rest, ok := strings.CutPrefix(s, spanIDPrefix)
	if !ok {
		return 0, false
	}
	id, err := strconv.ParseUint(rest, 16, 64)
	return id, err == nil
}

// spanHandler wraps a listener's handler in a traced run: while on, it
// records a span around the layer's Handler().ServeHTTP for every
// request carrying a benchmark request id.
type spanHandler struct {
	next http.Handler
	name string
	rec  *spanRecorder
	on   atomic.Bool
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	id, ok := parseSpanID(r.Header.Get("X-Request-Id"))
	start := time.Now()
	h.next.ServeHTTP(w, r)
	if ok {
		h.rec.add(id, h.name, start, time.Now())
	}
}

// rungs splits one traced request's client round trip into the self
// time of each network rung, in µs. transport and gateway are
// remainders, so the three rungs add up to total by construction; legSum
// is the independent figure, set against the in-process handler time.
type rungs struct {
	total     float64 // client round trip
	transport float64 // round trip minus the top server-side span
	gateway   float64 // gateway span minus the part its replica legs cover
	replica   float64 // replica handler time (legs' covered interval via the gateway)
	legSum    float64 // replica handler time summed over legs
	legs      float64 // replica legs of the request
}

// analyzeSpans joins the spans of each request and derives self times.
// A request contributes only when its client span and top server span
// were both recorded.
func analyzeSpans(spans []span) []rungs {
	type req struct {
		client, gw *span
		legs       []*span
	}
	byID := make(map[uint64]*req)
	for i := range spans {
		sp := &spans[i]
		r := byID[sp.id]
		if r == nil {
			r = &req{}
			byID[sp.id] = r
		}
		switch {
		case sp.name == "client":
			r.client = sp
		case sp.name == "gateway":
			r.gw = sp
		default:
			r.legs = append(r.legs, sp)
		}
	}
	var out []rungs
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for _, r := range byID {
		if r.client == nil {
			continue
		}
		rt := r.client.end.Sub(r.client.start)
		if r.gw == nil {
			if len(r.legs) != 1 {
				continue
			}
			h := r.legs[0].end.Sub(r.legs[0].start)
			out = append(out, rungs{total: us(rt), transport: us(rt - h), replica: us(h), legSum: us(h), legs: 1})
			continue
		}
		g := r.gw.end.Sub(r.gw.start)
		covered := union(r.legs)
		var sum time.Duration
		for _, l := range r.legs {
			sum += l.end.Sub(l.start)
		}
		out = append(out, rungs{
			total: us(rt), transport: us(rt - g), gateway: us(g - covered), replica: us(covered),
			legSum: us(sum), legs: float64(len(r.legs)),
		})
	}
	return out
}

// medianBand averages the rungs of the requests whose round trip lies
// between the 45th and 55th percentile. Unlike per-rung medians, these
// means add up to the band's mean round trip, which sits at the traced
// p50, so the ladder accounts for the median request.
func medianBand(rs []rungs) rungs {
	if len(rs) == 0 {
		return rungs{}
	}
	sorted := append([]rungs(nil), rs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].total < sorted[b].total })
	band := sorted[len(sorted)*45/100 : len(sorted)*55/100+1]
	var m rungs
	for _, r := range band {
		m.total += r.total
		m.transport += r.transport
		m.gateway += r.gateway
		m.replica += r.replica
		m.legSum += r.legSum
		m.legs += r.legs
	}
	n := float64(len(band))
	return rungs{
		total: m.total / n, transport: m.transport / n, gateway: m.gateway / n,
		replica: m.replica / n, legSum: m.legSum / n, legs: m.legs / n,
	}
}

// union returns the length of time the spans cover together.
func union(spans []*span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	s := append([]*span(nil), spans...)
	sort.Slice(s, func(a, b int) bool { return s[a].start.Before(s[b].start) })
	var total time.Duration
	curStart, curEnd := s[0].start, s[0].end
	for _, sp := range s[1:] {
		if sp.start.After(curEnd) {
			total += curEnd.Sub(curStart)
			curStart, curEnd = sp.start, sp.end
			continue
		}
		if sp.end.After(curEnd) {
			curEnd = sp.end
		}
	}
	return total + curEnd.Sub(curStart)
}
