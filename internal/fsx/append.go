package fsx

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Appender is the bounded, non-blocking JSONL writer behind the query
// log and the span tracer. Append hands a record to one writer
// goroutine, which encodes it as one line at the end of the file and
// moves the file aside (Rotate) once the bytes written to it reach
// maxBytes. A full queue, or a closed Appender, drops the record and
// counts it: a slow or dead disk degrades the log, never the caller.
// All methods are safe for concurrent use.
type Appender[T any] struct {
	path     string
	maxBytes int64
	onDrop   func()
	onWrite  func()
	queue    chan T

	dropped atomic.Int64
	written atomic.Int64

	// mu serialises sends against Close: Append holds the read side
	// around its non-blocking send, so Close never closes the queue
	// mid-send.
	mu        sync.RWMutex
	closed    bool
	closeOnce sync.Once
	done      chan struct{} // closed when the writer goroutine exits
	err       error         // the final flush and close, read after done
}

const appendFlags = os.O_CREATE | os.O_WRONLY | os.O_APPEND

// OpenAppender opens path for appending and starts the writer
// goroutine. queue bounds the records waiting for the writer (<= 0
// selects 1024). The file rotates to path+".1" once it holds maxBytes
// (0 selects 64 MiB; negative never rotates). onDrop runs once per
// dropped record, on the goroutine calling Append when the queue is
// full or closed, and must be cheap; onWrite runs once per record
// written, on the writer goroutine. Either may be nil.
func OpenAppender[T any](path string, queue int, maxBytes int64, onDrop, onWrite func()) (*Appender[T], error) {
	if queue <= 0 {
		queue = 1024
	}
	if maxBytes == 0 {
		maxBytes = 64 << 20
	}
	f, err := os.OpenFile(path, appendFlags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fsx: opening %s: %w", path, err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fsx: sizing %s: %w", path, err)
	}
	a := &Appender[T]{
		path:     path,
		maxBytes: maxBytes,
		onDrop:   onDrop,
		onWrite:  onWrite,
		queue:    make(chan T, queue),
		done:     make(chan struct{}),
	}
	go a.run(f, size)
	return a, nil
}

// Append offers rec to the writer without blocking and reports whether
// it was queued; a full queue or a closed Appender drops it.
func (a *Appender[T]) Append(rec T) bool {
	a.mu.RLock()
	if !a.closed {
		select {
		case a.queue <- rec:
			a.mu.RUnlock()
			return true
		default:
		}
	}
	a.mu.RUnlock()
	a.drop()
	return false
}

func (a *Appender[T]) drop() {
	a.dropped.Add(1)
	if a.onDrop != nil {
		a.onDrop()
	}
}

// Dropped returns the number of records lost to a full queue, a closed
// Appender or a failed write.
func (a *Appender[T]) Dropped() int64 { return a.dropped.Load() }

// Written returns the number of records written so far.
func (a *Appender[T]) Written() int64 { return a.written.Load() }

// Close stops accepting records, writes out the queue and closes the
// file, returning the error of that last flush and close. Calling it
// again waits for the same end and returns the same error.
func (a *Appender[T]) Close() error {
	a.closeOnce.Do(func() {
		a.mu.Lock()
		a.closed = true
		close(a.queue)
		a.mu.Unlock()
	})
	<-a.done
	return a.err
}

// countingWriter counts the bytes that reach the file's buffer, so
// rotation measures the file rather than estimating record sizes.
type countingWriter struct {
	bw *bufio.Writer
	n  int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.bw.Write(p)
	c.n += int64(n)
	return n, err
}

// run is the writer goroutine: encode, flush when the queue runs
// empty, rotate.
func (a *Appender[T]) run(f *os.File, size int64) {
	defer close(a.done)
	w := &countingWriter{bw: bufio.NewWriter(f), n: size}
	enc := json.NewEncoder(w)
	for rec := range a.queue {
		if err := enc.Encode(rec); err != nil {
			a.drop()
			continue
		}
		a.written.Add(1)
		if a.onWrite != nil {
			a.onWrite()
		}
		// Flush when the queue runs empty, so tailers see records
		// promptly without a write per record under load.
		if len(a.queue) == 0 {
			w.bw.Flush()
		}
		if a.maxBytes > 0 && w.n >= a.maxBytes {
			w.bw.Flush()
			f.Close()
			// A failed move (say, a read-only directory) leaves the
			// full file in place: the reopen below appends to it, and
			// the next attempt comes after another maxBytes.
			_ = Rotate(a.path)
			nf, err := os.OpenFile(a.path, appendFlags, 0o644)
			if err != nil {
				// The disk is gone: what is still queued, and whatever
				// arrives until Close, is dropped.
				for range a.queue {
					a.drop()
				}
				return
			}
			f = nf
			w.bw.Reset(f)
			w.n = 0
		}
	}
	a.err = errors.Join(w.bw.Flush(), f.Close())
}
