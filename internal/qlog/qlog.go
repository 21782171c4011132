// Package qlog records a deterministic sample of serving traffic as a
// JSONL query log, built for the hot path: the serving goroutine pays
// one atomic counter tick per query and, for sampled queries, one
// non-blocking channel send. A background goroutine does all encoding
// and file IO. When the bounded queue is full the record is dropped
// and counted — a slow or dead disk degrades the log, never a request.
//
// Logs rotate atomically (via internal/fsx) once the active file
// exceeds a size budget, keeping one previous generation, so an
// unattended server cannot fill its disk. The recorded traffic is the
// input to cmd/rnereplay: re-run it against an exact oracle and diff
// error profiles across model versions.
package qlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/fsx"
)

// Record is one sampled query. Raw/Lo/Hi carry the guard provenance
// when the server runs in guard mode (Raw is the unclamped model
// estimate, [Lo, Hi] the certified interval) and are zero otherwise;
// HasBounds distinguishes the two so replay tooling does not mistake
// a missing interval for a degenerate one.
type Record struct {
	TimeUnixNano int64   `json:"ts"`
	RequestID    string  `json:"request_id,omitempty"`
	Route        string  `json:"route,omitempty"`
	S            int32   `json:"s"`
	T            int32   `json:"t"`
	Estimate     float64 `json:"estimate"`
	Raw          float64 `json:"raw,omitempty"`
	Lo           float64 `json:"lo,omitempty"`
	Hi           float64 `json:"hi,omitempty"`
	HasBounds    bool    `json:"has_bounds,omitempty"`
	// Clamp is "", "low" or "high": whether (and which way) the guard
	// corrected the raw estimate.
	Clamp     string  `json:"clamp,omitempty"`
	LatencyUS float64 `json:"latency_us"`
	// TraceID is the W3C trace ID of the request that served this query
	// when tracing is enabled, so recorded workloads can be joined
	// against the span JSONL offline.
	TraceID string `json:"trace_id,omitempty"`
	// Attempt marks queries served on a non-primary gateway leg
	// ("retry", "hedge", "shard-retry"), relayed via the X-Rne-Attempt
	// header — the difference between one slow query and one query that
	// cost the fleet two backends.
	Attempt string `json:"attempt,omitempty"`
	// Outcome is "" for fully-served queries and "partial" for pairs
	// whose batch was abandoned mid-loop (deadline/cancel): they were
	// computed, but the client never saw them.
	Outcome string `json:"outcome,omitempty"`
}

// Config tunes a Logger. Zero values select the documented defaults.
type Config struct {
	// Path is the JSONL file appended to (required). Rotation moves it
	// to Path+".1".
	Path string
	// SampleEvery records one query in N (deterministic: every Nth
	// Observe call is sampled). <= 1 records everything.
	SampleEvery int
	// QueueSize bounds the records buffered between the serving path
	// and the writer goroutine (default 1024). A full queue drops.
	QueueSize int
	// MaxBytes rotates the active file once it grows past this size
	// (default 64 MiB; negative disables rotation).
	MaxBytes int64
	// OnDrop and OnWrite, when non-nil, are invoked once per dropped
	// and per persisted record (e.g. to feed metrics counters). OnDrop
	// runs on the serving path and must be cheap.
	OnDrop  func()
	OnWrite func()
}

const (
	defaultQueueSize = 1024
	defaultMaxBytes  = 64 << 20
)

// Logger is the async sampled writer. All methods are safe for
// concurrent use.
type Logger struct {
	cfg   Config
	queue chan Record

	seen    atomic.Int64 // Observe calls, sampled or not
	sampled atomic.Int64
	dropped atomic.Int64
	written atomic.Int64

	// mu serialises sends against Close: a sampled Observe holds the
	// read side around its non-blocking send so Close can never close
	// the queue mid-send.
	mu        sync.RWMutex
	closed    bool
	closeOnce sync.Once
	done      chan struct{} // closed when the writer goroutine exits
}

// New opens (appending) the log file and starts the writer goroutine.
func New(cfg Config) (*Logger, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("qlog: need a log file path")
	}
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = defaultQueueSize
	}
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = defaultMaxBytes
	}
	f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("qlog: opening log: %w", err)
	}
	size, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("qlog: sizing log: %w", err)
	}
	l := &Logger{
		cfg:   cfg,
		queue: make(chan Record, cfg.QueueSize),
		done:  make(chan struct{}),
	}
	go l.run(f, size)
	return l, nil
}

// Observe offers one query to the sampler. It never blocks: unsampled
// queries cost one atomic increment, sampled queries one channel send
// that drops (and counts) when the queue is full. It reports whether
// the record was enqueued.
func (l *Logger) Observe(rec Record) bool {
	n := l.seen.Add(1)
	if n%int64(l.cfg.SampleEvery) != 0 {
		return false
	}
	l.sampled.Add(1)
	l.mu.RLock()
	if l.closed {
		l.mu.RUnlock()
		l.drop()
		return false
	}
	select {
	case l.queue <- rec:
		l.mu.RUnlock()
		return true
	default:
		l.mu.RUnlock()
		l.drop()
		return false
	}
}

func (l *Logger) drop() {
	l.dropped.Add(1)
	if l.cfg.OnDrop != nil {
		l.cfg.OnDrop()
	}
}

// Seen returns the number of Observe calls.
func (l *Logger) Seen() int64 { return l.seen.Load() }

// Sampled returns the number of queries the sampler selected.
func (l *Logger) Sampled() int64 { return l.sampled.Load() }

// Dropped returns the number of sampled records lost to a full queue.
func (l *Logger) Dropped() int64 { return l.dropped.Load() }

// Written returns the number of records persisted so far.
func (l *Logger) Written() int64 { return l.written.Load() }

// Close stops accepting records, flushes the queue to disk and closes
// the file. Records offered after Close are counted as drops.
func (l *Logger) Close() error {
	l.closeOnce.Do(func() {
		l.mu.Lock()
		l.closed = true
		close(l.queue)
		l.mu.Unlock()
	})
	<-l.done
	return nil
}

// run is the writer goroutine: drain the queue, encode, rotate.
func (l *Logger) run(f *os.File, size int64) {
	defer close(l.done)
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	flushClose := func() {
		bw.Flush()
		f.Close()
	}
	for {
		rec, ok := <-l.queue
		if !ok {
			flushClose()
			return
		}
		if err := enc.Encode(rec); err != nil {
			// An encode failure (unlikely: Record is all scalars) loses
			// this record only.
			l.drop()
			continue
		}
		size += int64(approxRecordBytes)
		l.written.Add(1)
		if l.cfg.OnWrite != nil {
			l.cfg.OnWrite()
		}
		// Flush opportunistically when the queue is empty so tailers see
		// records promptly without a per-record syscall under load.
		if len(l.queue) == 0 {
			bw.Flush()
		}
		if l.cfg.MaxBytes > 0 && size >= l.cfg.MaxBytes {
			bw.Flush()
			f.Close()
			if err := fsx.Rotate(l.cfg.Path); err != nil {
				// Rotation failed (e.g. read-only dir): keep appending to
				// the old handle's path on best effort by reopening.
				_ = err
			}
			nf, err := os.OpenFile(l.cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				// Disk gone: drain the rest of the queue as drops.
				for range l.queue {
					l.drop()
				}
				return
			}
			f, size = nf, 0
			bw = bufio.NewWriter(f)
			enc = json.NewEncoder(bw)
		}
	}
}

// approxRecordBytes estimates one encoded record's size for rotation
// accounting; exactness does not matter, only that growth is tracked.
const approxRecordBytes = 160
