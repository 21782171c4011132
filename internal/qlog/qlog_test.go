package qlog

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func readRecords(t *testing.T, path string) []Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRoundTripAndSampling(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	l, err := New(Config{Path: path, SampleEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	const total = 100
	for i := 0; i < total; i++ {
		l.Observe(Record{
			TimeUnixNano: int64(i),
			RequestID:    "req",
			Route:        "/distance",
			S:            int32(i),
			T:            int32(i + 1),
			Estimate:     float64(i) * 1.5,
			Raw:          float64(i),
			Lo:           float64(i) - 1,
			Hi:           float64(i) + 1,
			HasBounds:    true,
			Clamp:        "low",
			LatencyUS:    42,
		})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Seen() != total {
		t.Fatalf("seen %d, want %d", l.Seen(), total)
	}
	// Deterministic 1-in-10: exactly Observe calls 10, 20, ..., 100.
	if l.Sampled() != total/10 {
		t.Fatalf("sampled %d, want %d", l.Sampled(), total/10)
	}
	if l.Dropped() != 0 {
		t.Fatalf("dropped %d with an idle queue", l.Dropped())
	}
	recs := readRecords(t, path)
	if len(recs) != total/10 {
		t.Fatalf("persisted %d records, want %d", len(recs), total/10)
	}
	if l.Written() != int64(len(recs)) {
		t.Fatalf("Written %d but file has %d", l.Written(), len(recs))
	}
	// The Nth observation is sampled, so records carry S = 9, 19, ...
	for i, r := range recs {
		if want := int32(10*i + 9); r.S != want {
			t.Fatalf("record %d has S=%d, want %d (non-deterministic sampler?)", i, r.S, want)
		}
	}
	got := recs[0]
	if got.Route != "/distance" || got.RequestID != "req" || !got.HasBounds ||
		got.Clamp != "low" || got.LatencyUS != 42 || got.Estimate != 9*1.5 {
		t.Fatalf("round-trip mangled record: %+v", got)
	}
}

// Observe must never block, even with the writer wedged: drops are
// counted and the call returns promptly.
func TestSaturatedQueueNeverBlocks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	var drops int
	release := make(chan struct{})
	l, err := New(Config{
		Path:      path,
		QueueSize: 4,
		OnDrop:    func() { drops++ },
		// Wedge the writer: the first write blocks until released, so the
		// queue saturates deterministically.
		OnWrite: func() { <-release },
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 500
	start := time.Now()
	for i := 0; i < total; i++ {
		l.Observe(Record{S: int32(i)})
	}
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("500 observes against a wedged writer took %v: Observe blocked", elapsed)
	}
	if l.Dropped() == 0 {
		t.Fatal("wedged writer produced no drops")
	}
	if drops != int(l.Dropped()) {
		t.Fatalf("OnDrop fired %d times, Dropped()=%d", drops, l.Dropped())
	}
	// Nothing lost silently: every sampled record was either queued
	// (written after release) or counted as dropped.
	close(release)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Written()+l.Dropped() != l.Sampled() {
		t.Fatalf("written %d + dropped %d != sampled %d",
			l.Written(), l.Dropped(), l.Sampled())
	}
	if got := readRecords(t, path); int64(len(got)) != l.Written() {
		t.Fatalf("file has %d records, Written()=%d", len(got), l.Written())
	}
}

func TestRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	// Each record encodes to about 50 bytes, so the ten cross 400
	// bytes and force a rotation.
	l, err := New(Config{Path: path, MaxBytes: 400})
	if err != nil {
		t.Fatal(err)
	}
	const total = 10
	for i := 0; i < total; i++ {
		if !l.Observe(Record{S: int32(i)}) {
			t.Fatalf("record %d not enqueued", i)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cur := readRecords(t, path)
	prev := readRecords(t, path+".1")
	if len(prev) == 0 {
		t.Fatal("no rotated generation was produced")
	}
	// One generation may have been rotated away (only .1 is kept), but
	// the live file plus the previous generation must both parse and the
	// newest record must be in the live file.
	if len(cur) == 0 || cur[len(cur)-1].S != total-1 {
		t.Fatalf("live log lost the tail: %+v", cur)
	}
	if l.Written() != total {
		t.Fatalf("Written %d, want %d", l.Written(), total)
	}
}

func TestObserveAfterCloseDrops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	l, err := New(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	l.Observe(Record{S: 1})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Observe(Record{S: 2}) {
		t.Fatal("Observe accepted a record after Close")
	}
	if l.Dropped() != 1 {
		t.Fatalf("post-close drop not counted: %d", l.Dropped())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err) // Close is idempotent
	}
}

func TestConcurrentObserve(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	l, err := New(Config{Path: path, SampleEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Observe(Record{S: int32(w), T: int32(i)})
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Seen() != 1600 {
		t.Fatalf("seen %d, want 1600", l.Seen())
	}
	// Atomic counter sampling: exactly floor(1600/3) selected regardless
	// of interleaving.
	if l.Sampled() != 1600/3 {
		t.Fatalf("sampled %d, want %d", l.Sampled(), 1600/3)
	}
	if l.Written()+l.Dropped() != l.Sampled() {
		t.Fatalf("written %d + dropped %d != sampled %d",
			l.Written(), l.Dropped(), l.Sampled())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty path accepted")
	}
	if _, err := New(Config{Path: filepath.Join(t.TempDir(), "no", "such", "dir", "q.jsonl")}); err == nil {
		t.Fatal("unwritable path accepted")
	}
}
