package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	pai "repro"
)

// writeStampedColbinTrace records a Poisson-stamped trace to a colbin file —
// the input shape the replay smoke CI generates with tracegen -rate.
func writeStampedColbinTrace(t *testing.T, jobs int, ratePerHour float64) string {
	t.Helper()
	p := pai.DefaultTraceParams()
	p.NumJobs = jobs
	p.ArrivalRate = ratePerHour
	src, err := pai.NewTraceSource(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stamped.colbin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := pai.NewColumnWriterBlockRecords(f, 512)
	for {
		rec, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayMode: -replay emits a result whose replay section carries
// coherent fleet aggregates, and two runs write byte-identical snapshot
// files — at different -par values — which is the determinism check the CI
// smoke performs with cmp.
func TestReplayMode(t *testing.T) {
	trace := writeStampedColbinTrace(t, 5000, 72000)
	snapA := filepath.Join(t.TempDir(), "a.snap")
	snapB := filepath.Join(t.TempDir(), "b.snap")

	a := runToFile(t, []string{"-trace", trace, "-replay", "-servers", "32",
		"-straggler-frac", "0.1", "-par", "1", "-replay-snapshot", snapA})
	b := runToFile(t, []string{"-trace", trace, "-replay", "-servers", "32",
		"-straggler-frac", "0.1", "-par", "4", "-replay-snapshot", snapB})

	if a.Replay == nil {
		t.Fatal("-replay result carries no replay section")
	}
	r := a.Replay
	if r.Policy != "fifo" {
		t.Errorf("policy = %q, want the fifo default", r.Policy)
	}
	if r.Servers != 32 || r.GPUs != 32*8 {
		t.Errorf("capacity = %d servers / %d GPUs", r.Servers, r.GPUs)
	}
	if r.Submitted != 5000 || r.Submitted != r.Completed+r.Rejected {
		t.Errorf("admission counters don't add up: %+v", r)
	}
	if r.Stragglers == 0 {
		t.Error("straggler injection sampled nothing at fraction 0.1")
	}
	if r.Utilization < 0 || r.Utilization > 1 {
		t.Errorf("utilization = %v outside [0, 1]", r.Utilization)
	}
	if r.MakespanSec < r.HorizonSec {
		t.Errorf("makespan %v precedes the arrival horizon %v", r.MakespanSec, r.HorizonSec)
	}
	if r.QueueDelayP99 < r.QueueDelayP50 || r.QueueDelayP50 < 0 {
		t.Errorf("queue-delay quantiles inverted: p50 %v, p99 %v", r.QueueDelayP50, r.QueueDelayP99)
	}
	if a.Jobs != 5000 || a.Schema != "paibench/1" {
		t.Errorf("top-level result: jobs %d, schema %q", a.Jobs, a.Schema)
	}

	if b.Replay == nil || *b.Replay != *r {
		t.Errorf("replay sections differ across -par:\npar 1: %+v\npar 4: %+v", r, b.Replay)
	}
	sa, err := os.ReadFile(snapA)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := os.ReadFile(snapB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Error("replay snapshots differ across -par (determinism broken)")
	}
	// The snapshot decodes through the public registry into the three fleet
	// sinks.
	sink, err := pai.ReadSinkSnapshot(bytes.NewReader(sa))
	if err != nil {
		t.Fatal(err)
	}
	multi, ok := sink.(*pai.MultiSink)
	if !ok {
		t.Fatalf("snapshot decoded to %T, want *pai.MultiSink", sink)
	}
	if got := len(multi.Sinks()); got != 3 {
		t.Errorf("fleet snapshot carries %d sinks, want 3", got)
	}
}

// TestReplayModeFlagValidation: -replay requires -trace, composes with no
// other mode, and its satellite flags refuse to appear without it.
func TestReplayModeFlagValidation(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-replay"}, &out, &errw); err == nil {
		t.Error("-replay without -trace should fail")
	}
	if err := run([]string{"-replay", "-trace", "x.colbin", "-merge"}, &out, &errw); err == nil {
		t.Error("-replay with -merge should fail")
	}
	if err := run([]string{"-replay", "-trace", "x.colbin", "-full"}, &out, &errw); err == nil {
		t.Error("-replay with -full should fail")
	}
	if err := run([]string{"-jobs", "100", "-policy", "sjf"}, &out, &errw); err == nil {
		t.Error("-policy without -replay should fail")
	}
	if err := run([]string{"-jobs", "100", "-servers", "4"}, &out, &errw); err == nil {
		t.Error("-servers without -replay should fail")
	}
}

// TestReplayModeSJF: the -policy flag reaches the replay scheduler.
func TestReplayModeSJF(t *testing.T) {
	trace := writeStampedColbinTrace(t, 800, 72000)
	r := runToFile(t, []string{"-trace", trace, "-replay", "-servers", "16", "-policy", "sjf"})
	if r.Replay == nil || r.Replay.Policy != "sjf" {
		t.Fatalf("replay section policy = %+v, want sjf", r.Replay)
	}
	var out, errw bytes.Buffer
	if err := run([]string{"-trace", trace, "-replay", "-policy", "nope"}, &out, &errw); err == nil {
		t.Error("unknown -policy should fail")
	}
}
