package core

import (
	"bytes"
	"context"
	"log/slog"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// tracedBuild runs Build under the root span of an in-memory tracer,
// logging into the returned buffer, and returns the spans it recorded.
func tracedBuild(t *testing.T, opt Options) (BuildStats, []telemetry.SpanRecord, string, error) {
	t.Helper()
	tr, err := telemetry.NewRequestTracer(telemetry.TraceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	opt.Logger = slog.New(slog.NewTextHandler(&logBuf, nil))
	_, root := tr.StartSpanForced(context.Background(), "build")
	opt.Trace = root
	_, st, err := Build(ckptTestGraph(t), opt)
	root.End()
	return st, tr.Spans(), logBuf.String(), err
}

// childrenOf returns the spans whose parent is id, in end order.
func childrenOf(spans []telemetry.SpanRecord, id string) []telemetry.SpanRecord {
	var out []telemetry.SpanRecord
	for _, s := range spans {
		if s.ParentID == id {
			out = append(out, s)
		}
	}
	return out
}

func names(spans []telemetry.SpanRecord) string {
	var out []string
	for _, s := range spans {
		out = append(out, s.Name)
	}
	return strings.Join(out, ",")
}

func hasAttr(s telemetry.SpanRecord, k string) bool { _, ok := s.Attrs[k]; return ok }

// A traced build records setup with its four steps, the three training
// phases and finalize under the run's span, every unit under its phase
// with a finite loss, a positive learning rate and its recovery count,
// and one Info log line per phase and per unit.
func TestBuildRecordsTrace(t *testing.T) {
	opt := fastOptions(7)
	opt.Dim = 16
	opt.Epochs = 3
	opt.FineTuneRounds = 2
	_, spans, logs, err := tracedBuild(t, opt)
	if err != nil {
		t.Fatal(err)
	}
	root := spans[len(spans)-1]
	if root.Name != "build" || root.ParentID != "" {
		t.Fatalf("last span %+v, want the root build span", root)
	}
	phases := childrenOf(spans, root.SpanID)
	if got := names(phases); got != "setup,hier-phase,vertex-phase,finetune-phase,finalize" {
		t.Fatalf("phases %s", got)
	}
	if got := names(childrenOf(spans, phases[0].SpanID)); got != "partition,landmarks,grid,validation-set" {
		t.Fatalf("setup steps %s", got)
	}
	units := 0
	for _, ph := range phases[1:4] {
		us := childrenOf(spans, ph.SpanID)
		if len(us) == 0 {
			t.Fatalf("phase %s has no units", ph.Name)
		}
		for _, u := range us {
			units++
			if !strings.HasPrefix(u.Name, map[string]string{
				"hier-phase": "hierarchy level ", "vertex-phase": "vertex epoch ", "finetune-phase": "fine-tune round ",
			}[ph.Name]) {
				t.Fatalf("unit %q under %s", u.Name, ph.Name)
			}
			loss, lerr := strconv.ParseFloat(u.Attrs["loss_mean_rel"], 64)
			lr, rerr := strconv.ParseFloat(u.Attrs["lr"], 64)
			if lerr != nil || rerr != nil || math.IsNaN(loss) || math.IsInf(loss, 0) || loss < 0 || lr <= 0 ||
				u.Attrs["recoveries"] != "0" || u.Error != "" || u.DurationUS < 0 {
				t.Fatalf("bad unit span %+v", u)
			}
		}
	}
	if got := childrenOf(spans, phases[4].SpanID); len(got) != 0 {
		t.Fatalf("finalize has children %s", names(got))
	}
	if n := strings.Count(logs, `msg="phase done"`); n != len(phases) {
		t.Fatalf("%d phase log lines, want %d:\n%s", n, len(phases), logs)
	}
	if n := strings.Count(logs, `msg="training unit done"`); n != units {
		t.Fatalf("%d unit log lines, want %d:\n%s", n, units, logs)
	}
}

// A unit the sentinel rolls back ends with a rollback event and an
// error; its retry is a fresh span with a loss. The rollback logs one
// Warn line.
func TestBuildTracesRollback(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Enable(FailpointEmbeddingCorrupt, faultinject.Fault{After: 2})
	st, spans, logs, err := tracedBuild(t, chaosOptions(filepath.Join(t.TempDir(), "c.ckpt")))
	if err != nil {
		t.Fatal(err)
	}
	if st.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", st.Recoveries)
	}
	for i, s := range spans {
		if len(s.Events) == 0 {
			continue
		}
		if s.Events[0].Name != "rollback" || s.Events[0].Detail != st.Rollbacks[0] || s.Error == "" || hasAttr(s, "loss_mean_rel") {
			t.Fatalf("rolled-back unit span %+v", s)
		}
		for _, retry := range spans[i+1:] {
			if retry.Name == s.Name {
				if retry.Error != "" || !hasAttr(retry, "loss_mean_rel") || retry.Attrs["recoveries"] != "1" {
					t.Fatalf("retried unit span %+v", retry)
				}
				if n := strings.Count(logs, "level=WARN"); n != 1 {
					t.Fatalf("%d Warn lines for one rollback:\n%s", n, logs)
				}
				return
			}
		}
		t.Fatalf("no retry span after %q", s.Name)
	}
	t.Fatalf("no span has a rollback event: %s", names(spans))
}

// A failed checkpoint write without StrictCheckpoints is a checkpoint
// span with the error under its unit, and the build goes on.
func TestBuildTracesCheckpointFailure(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Enable(FailpointCheckpointSave, faultinject.Fault{After: 1})
	st, spans, _, err := tracedBuild(t, chaosOptions(filepath.Join(t.TempDir(), "c.ckpt")))
	if err != nil {
		t.Fatalf("build failed on a tolerated checkpoint failure: %v", err)
	}
	units := map[string]bool{}
	for _, s := range spans {
		if hasAttr(s, "loss_mean_rel") {
			units[s.SpanID] = true
		}
	}
	var writes, failed int
	for _, s := range spans {
		if s.Name != "checkpoint" {
			continue
		}
		writes++
		if !units[s.ParentID] {
			t.Fatalf("checkpoint span %+v is not under a unit", s)
		}
		if s.Error != "" {
			failed++
		}
	}
	if writes != len(units) || failed != 1 || st.CheckpointFailures != 1 {
		t.Fatalf("%d checkpoint spans (%d failed) over %d units; CheckpointFailures = %d",
			writes, failed, len(units), st.CheckpointFailures)
	}
}
