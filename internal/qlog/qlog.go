// Package qlog records a deterministic sample of serving traffic as a
// JSONL query log, built for the hot path: the serving goroutine pays
// one atomic counter tick per query and, for sampled queries, one
// non-blocking channel send. The writer goroutine of an fsx.Appender
// does all encoding and file IO. When the bounded queue is full the
// record is dropped and counted — a slow or dead disk degrades the
// log, never a request.
//
// Logs rotate atomically once the active file holds a size budget,
// keeping one previous generation, so an unattended server cannot fill
// its disk. The recorded traffic is the input to cmd/rnereplay: re-run
// it against an exact oracle and diff error profiles across model
// versions.
package qlog

import (
	"fmt"
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
	// MaxBytes rotates the active file once the bytes written to it
	// reach this size (default 64 MiB; negative disables rotation).
	MaxBytes int64
	// OnDrop and OnWrite, when non-nil, are invoked once per dropped
	// and per persisted record (e.g. to feed metrics counters). OnDrop
	// runs on the serving path and must be cheap.
	OnDrop  func()
	OnWrite func()
}

// Logger is the async sampled writer. All methods are safe for
// concurrent use.
type Logger struct {
	every int64
	out   *fsx.Appender[Record]

	seen    atomic.Int64 // Observe calls, sampled or not
	sampled atomic.Int64
}

// New opens (appending) the log file and starts its writer.
func New(cfg Config) (*Logger, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("qlog: need a log file path")
	}
	out, err := fsx.OpenAppender[Record](cfg.Path, cfg.QueueSize, cfg.MaxBytes, cfg.OnDrop, cfg.OnWrite)
	if err != nil {
		return nil, fmt.Errorf("qlog: %w", err)
	}
	return &Logger{every: int64(max(cfg.SampleEvery, 1)), out: out}, nil
}

// Observe offers one query to the sampler. It never blocks: unsampled
// queries cost one atomic increment, sampled queries one channel send
// that drops (and counts) when the queue is full. It reports whether
// the record was enqueued.
func (l *Logger) Observe(rec Record) bool {
	if l.seen.Add(1)%l.every != 0 {
		return false
	}
	l.sampled.Add(1)
	return l.out.Append(rec)
}

// Seen returns the number of Observe calls.
func (l *Logger) Seen() int64 { return l.seen.Load() }

// Sampled returns the number of queries the sampler selected.
func (l *Logger) Sampled() int64 { return l.sampled.Load() }

// Dropped returns the number of sampled records lost to a full queue.
func (l *Logger) Dropped() int64 { return l.out.Dropped() }

// Written returns the number of records persisted so far.
func (l *Logger) Written() int64 { return l.out.Written() }

// Close stops accepting records, flushes the queue to disk and closes
// the file. Records offered after Close are counted as drops.
func (l *Logger) Close() error { return l.out.Close() }
