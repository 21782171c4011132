package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/alt"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hybrid"
	"repro/internal/index"
)

// guardedIndexServer builds a d=64 model of a 10x10 grid, its ALT guard
// and a spatial index over every other vertex, and serves them with the
// default configuration: untraced, no logger, no query log.
func guardedIndexServer(tb testing.TB) (*Server, *core.Model, *hybrid.Estimator) {
	tb.Helper()
	g, err := gen.Grid(10, 10, gen.DefaultConfig(1))
	if err != nil {
		tb.Fatal(err)
	}
	opt := core.DefaultOptions(1)
	opt.Dim = 64
	opt.Epochs = 3
	opt.VertexSampleRatio = 20
	opt.FineTuneRounds = 1
	opt.HierSampleCap = 5000
	opt.ValidationPairs = 100
	m, _, err := core.Build(g, opt)
	if err != nil {
		tb.Fatal(err)
	}
	lt, err := alt.Build(g, 8, 2)
	if err != nil {
		tb.Fatal(err)
	}
	guard, err := hybrid.New(m, lt)
	if err != nil {
		tb.Fatal(err)
	}
	var targets []int32
	for v := int32(0); v < int32(g.NumVertices()); v += 2 {
		targets = append(targets, v)
	}
	idx, err := index.Build(m, targets)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewWithConfig(m, idx, Config{Guard: guard})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return srv, m, guard
}

// benchRequests returns n GET requests for path with queries made by q.
func benchRequests(n int, path string, q func(i int) string) []*http.Request {
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, path+"?"+q(i), nil)
	}
	return reqs
}

func benchHandler(b *testing.B, reqs []*http.Request, h http.Handler) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, reqs[i%len(reqs)])
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkHandlerDistance is one guarded, untraced GET /distance
// through Server.Handler(): the serving pass, the query parse, the
// guard and the encoded answer.
func BenchmarkHandlerDistance(b *testing.B) {
	srv, m, _ := guardedIndexServer(b)
	n := m.NumVertices()
	reqs := benchRequests(256, "/distance", func(i int) string {
		return fmt.Sprintf("s=%d&t=%d", (i*37)%n, (i*61+11)%n)
	})
	benchHandler(b, reqs, srv.Handler())
}

// BenchmarkHandlerKNN is one untraced GET /knn?k=10 through
// Server.Handler(), index traversal included.
func BenchmarkHandlerKNN(b *testing.B) {
	srv, m, _ := guardedIndexServer(b)
	n := m.NumVertices()
	reqs := benchRequests(256, "/knn", func(i int) string {
		return fmt.Sprintf("s=%d&k=10", (i*37)%n)
	})
	benchHandler(b, reqs, srv.Handler())
}
