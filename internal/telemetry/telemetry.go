// Package telemetry is the unified runtime-instrumentation layer: a
// stdlib-only metrics registry (atomic counters, gauges, fixed-bucket
// histograms) exposed in Prometheus text exposition format, structured
// leveled logging via log/slog with per-request IDs, one span tracer
// for requests, autoheal attempts and builds (persisted as JSONL, or
// kept in memory for a bounded run such as a build), and an online
// accuracy-drift monitor for the guarded serving path.
//
// The paper's methodology is measurement-heavy — per-bucket error
// distributions drive active fine-tuning (Algorithm 2) and the whole
// Section VII evaluation — and the same visibility is what production
// serving needs online: latency distributions rather than means, and
// per-distance-band accuracy rather than a single offline score. This
// package provides both without any dependency beyond the standard
// library.
package telemetry

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// discardHandler drops every record. Equivalent to Go 1.24's
// slog.DiscardHandler, reimplemented here so the module's declared Go
// version stays authoritative.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

var nopLogger = slog.New(discardHandler{})

// NopLogger returns a logger that discards every record. Useful as a
// safe default where logging is optional.
func NopLogger() *slog.Logger { return nopLogger }

// OrNop returns l unchanged, or a discarding logger when l is nil, so
// call sites never need a nil check before logging.
func OrNop(l *slog.Logger) *slog.Logger {
	if l == nil {
		return nopLogger
	}
	return l
}

// NewLogger returns a leveled structured logger writing to w. format
// "json" selects the JSON handler; anything else selects the
// human-readable text handler.
func NewLogger(w io.Writer, level slog.Level, format string) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if strings.EqualFold(format, "json") {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// ParseLevel maps the conventional level names to slog levels.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("telemetry: unknown log level %q (want debug, info, warn or error)", s)
}

// Logf adapts a structured logger to the printf-style callback shape
// used by older option seams; the formatted message is logged at Info.
func Logf(l *slog.Logger) func(format string, args ...any) {
	l = OrNop(l)
	return func(format string, args ...any) {
		l.Info(fmt.Sprintf(format, args...))
	}
}
