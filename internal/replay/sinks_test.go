package replay

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/workload"
)

func completedOutcome(class workload.Class, gpus int, arrival, start, finish float64) Outcome {
	return Outcome{
		Job:     workload.Features{Name: "j", Class: class, CNodes: gpus, BatchSize: 8, FLOPs: 1e12},
		Times:   core.Times{ComputeFLOPs: finish - start},
		Steps:   1,
		GPUs:    gpus,
		Servers: 1,
		Arrival: arrival, Start: start, Finish: finish,
		Duration: finish - start,
	}
}

func sinkBytes(t *testing.T, s analyze.Sink) []byte {
	t.Helper()
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestQueueDelaySink(t *testing.T) {
	s := NewQueueDelaySink()
	if err := s.AddOutcome(completedOutcome(workload.OneWorkerOneGPU, 1, 0, 0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddOutcome(completedOutcome(workload.OneWorkerOneGPU, 1, 0, 10, 15)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddOutcome(completedOutcome(workload.PSWorker, 4, 0, 100, 200)); err != nil {
		t.Fatal(err)
	}
	// Rejected jobs never queue; they must not contribute.
	if err := s.AddOutcome(Outcome{Rejected: true, Job: workload.Features{Class: workload.PSWorker}}); err != nil {
		t.Fatal(err)
	}

	if got := s.Overall().Weight(); got != 3 {
		t.Errorf("overall weight = %v, want 3", got)
	}
	if got := s.Overall().Max(); math.Abs(got-100) > 1e-9 {
		t.Errorf("overall max delay = %v, want 100", got)
	}
	ps, err := s.Class(workload.PSWorker)
	if err != nil {
		t.Fatal(err)
	}
	// One PS job waited 100 s, so the sketch holds that one delay.
	if ps.Weight() != 1 || ps.Min() != 100 || ps.Max() != 100 {
		t.Errorf("PS delays: weight %v over [%v, %v], want one delay of 100", ps.Weight(), ps.Min(), ps.Max())
	}
	if _, err := s.Class(workload.AllReduceLocal); err == nil {
		t.Error("unseen class should error")
	}
	if got := len(s.Classes()); got != 2 {
		t.Errorf("classes = %d, want 2", got)
	}

	// Round trip and split-merge byte-identity.
	restored := NewQueueDelaySink()
	if err := restored.UnmarshalBinary(sinkBytes(t, s)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sinkBytes(t, s), sinkBytes(t, restored)) {
		t.Error("queue-delay snapshot round trip not byte-identical")
	}
	// Merging the same shard states in the same order is deterministic (the
	// sharded-fold contract); the merged population is the union.
	merged := func() *QueueDelaySink {
		a, b := NewQueueDelaySink(), NewQueueDelaySink()
		a.AddOutcome(completedOutcome(workload.OneWorkerOneGPU, 1, 0, 0, 5))
		a.AddOutcome(completedOutcome(workload.OneWorkerOneGPU, 1, 0, 10, 15))
		b.AddOutcome(completedOutcome(workload.PSWorker, 4, 0, 100, 200))
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		return a
	}
	m := merged()
	if !bytes.Equal(sinkBytes(t, m), sinkBytes(t, merged())) {
		t.Error("identical shard merges produced different bytes")
	}
	if got := m.Overall().Weight(); got != 3 {
		t.Errorf("merged weight = %v, want 3", got)
	}
	if got := len(m.Classes()); got != 2 {
		t.Errorf("merged classes = %d, want 2", got)
	}
}

func TestUtilizationSink(t *testing.T) {
	if _, err := NewUtilizationSink(3600, -1); err == nil {
		t.Error("negative capacity should error")
	}
	s, err := NewUtilizationSink(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if s.WindowSec() != DefaultUtilizationWindow {
		t.Errorf("window = %v, want the %vs default", s.WindowSec(), DefaultUtilizationWindow)
	}

	s, err = NewUtilizationSink(3600, 32)
	if err != nil {
		t.Fatal(err)
	}
	// 4 GPUs over [0, 7200): 14400 GPU-seconds in each of two windows.
	if err := s.AddOutcome(completedOutcome(workload.OneWorkerNGPU, 4, 0, 0, 7200)); err != nil {
		t.Fatal(err)
	}
	// 2 GPUs over [1800, 5400): 3600 GPU-seconds split across the same two.
	if err := s.AddOutcome(completedOutcome(workload.OneWorkerNGPU, 2, 0, 1800, 5400)); err != nil {
		t.Fatal(err)
	}
	if got := s.Windows(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("windows = %v, want [0 1]", got)
	}
	for _, w := range []int64{0, 1} {
		if got := s.Busy(w); math.Abs(got-18000) > 1e-6 {
			t.Errorf("busy[%d] = %v, want 18000", w, got)
		}
		u, err := s.Utilization(w)
		if err != nil {
			t.Fatal(err)
		}
		if want := 18000.0 / (32 * 3600); math.Abs(u-want) > 1e-12 {
			t.Errorf("utilization[%d] = %v, want %v", w, u, want)
		}
	}
	if peak := s.Peak(); math.Abs(peak-18000.0/(32*3600)) > 1e-12 {
		t.Errorf("peak = %v", peak)
	}

	// Merge requires equal windows; a capacity-0 decode shell adopts the
	// other side's capacity.
	other, err := NewUtilizationSink(1800, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(other); err == nil {
		t.Error("window-width mismatch should refuse to merge")
	}
	shell := newUtilizationSinkEmpty()
	if err := shell.Merge(s); err != nil {
		t.Fatal(err)
	}
	if shell.Capacity() != 32 {
		t.Errorf("decode shell capacity = %d, want 32 (adopted)", shell.Capacity())
	}
	if !bytes.Equal(sinkBytes(t, s), sinkBytes(t, shell)) {
		t.Error("shell merge differs from the original state")
	}

	restored := newUtilizationSinkEmpty()
	if err := restored.UnmarshalBinary(sinkBytes(t, s)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sinkBytes(t, s), sinkBytes(t, restored)) {
		t.Error("utilization snapshot round trip not byte-identical")
	}
}

func TestCounterSink(t *testing.T) {
	s := NewCounterSink()
	done := completedOutcome(workload.OneWorkerOneGPU, 1, 0, 10, 20)
	done.Straggler = true
	if err := s.AddOutcome(done); err != nil {
		t.Fatal(err)
	}
	if err := s.AddOutcome(completedOutcome(workload.PSWorker, 4, 5, 5, 15)); err != nil {
		t.Fatal(err)
	}
	rej := Outcome{Rejected: true, Job: workload.Features{Class: workload.PSWorker}}
	if err := s.AddOutcome(rej); err != nil {
		t.Fatal(err)
	}

	total := s.Total()
	if total.Submitted != 3 || total.Completed != 2 || total.Rejected != 1 || total.Stragglers != 1 {
		t.Errorf("totals = %+v", total)
	}
	if math.Abs(total.GPUSeconds-50) > 1e-9 {
		t.Errorf("GPU-seconds = %v, want 50 (1x10 + 4x10)", total.GPUSeconds)
	}
	if math.Abs(total.MeanQueueDelay()-5) > 1e-9 {
		t.Errorf("mean queue delay = %v, want 5", total.MeanQueueDelay())
	}
	ps := s.Class(workload.PSWorker)
	if ps.Submitted != 2 || ps.Completed != 1 || ps.Rejected != 1 {
		t.Errorf("PS counters = %+v", ps)
	}
	if unseen := s.Class(workload.AllReduceLocal); unseen.Submitted != 0 {
		t.Error("unseen class should return zero counters")
	}

	restored := NewCounterSink()
	if err := restored.UnmarshalBinary(sinkBytes(t, s)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sinkBytes(t, s), sinkBytes(t, restored)) {
		t.Error("counter snapshot round trip not byte-identical")
	}
}

// TestPlainAddMatchesSyntheticOutcome pins the totality contract: outside a
// replay, every fleet sink folds Add(f, times) exactly as if the job ran
// unqueued at its arrival — so the sinks are valid plain sinks on the
// generic streaming path.
func TestPlainAddMatchesSyntheticOutcome(t *testing.T) {
	f := workload.Features{
		Name: "j", Class: workload.OneWorkerNGPU, CNodes: 4, BatchSize: 8,
		FLOPs: 1e12, ArrivalSec: 120,
	}
	times := core.Times{ComputeFLOPs: 2, DataIO: 1}

	utilA, err := NewUtilizationSink(60, 0)
	if err != nil {
		t.Fatal(err)
	}
	utilB, err := NewUtilizationSink(60, 0)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		added, synthetic analyze.Sink
	}{
		{NewQueueDelaySink(), NewQueueDelaySink()},
		{NewCounterSink(), NewCounterSink()},
		{utilA, utilB},
	}
	for _, p := range pairs {
		if err := p.added.Add(f, times); err != nil {
			t.Fatal(err)
		}
		if err := p.synthetic.(OutcomeSink).AddOutcome(syntheticOutcome(f, times)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sinkBytes(t, p.added), sinkBytes(t, p.synthetic)) {
			t.Errorf("%s: Add and synthetic AddOutcome disagree", p.added.Kind())
		}
	}
}

// TestFleetSinksRegistered: all three kinds reconstruct through the snapshot
// registry, which is what lets merged shard snapshots round-trip across
// processes.
func TestFleetSinksRegistered(t *testing.T) {
	util, err := NewUtilizationSink(3600, 16)
	if err != nil {
		t.Fatal(err)
	}
	util.AddOutcome(completedOutcome(workload.OneWorkerOneGPU, 1, 0, 0, 100))
	qd := NewQueueDelaySink()
	qd.AddOutcome(completedOutcome(workload.OneWorkerOneGPU, 1, 0, 50, 100))
	cs := NewCounterSink()
	cs.AddOutcome(completedOutcome(workload.PSWorker, 4, 0, 0, 10))

	for _, s := range []analyze.Sink{qd, util, cs} {
		var buf bytes.Buffer
		if err := analyze.WriteSnapshot(&buf, s); err != nil {
			t.Fatalf("%s: %v", s.Kind(), err)
		}
		decoded, err := analyze.ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("%s: %v", s.Kind(), err)
		}
		if decoded.Kind() != s.Kind() {
			t.Errorf("decoded kind %q, want %q", decoded.Kind(), s.Kind())
		}
		if !bytes.Equal(sinkBytes(t, s), sinkBytes(t, decoded)) {
			t.Errorf("%s: registry round trip not byte-identical", s.Kind())
		}
	}
}
