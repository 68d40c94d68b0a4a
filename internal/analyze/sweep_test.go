package analyze

import (
	"context"
	"math"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/workload"
)

// sweepPanels folds one SweepSink per class over jobs in a single pass and
// returns their panels in class order.
func sweepPanels(t *testing.T, bk backend.Backend, jobs []workload.Features, classes ...workload.Class) []SweepPanel {
	t.Helper()
	sinks := make([]*SweepSink, len(classes))
	bundle := make([]Sink, len(classes))
	for i, class := range classes {
		s, err := NewSweepSink(bk, class)
		if err != nil {
			t.Fatal(err)
		}
		sinks[i], bundle[i] = s, s
	}
	if err := foldJobs(bk, jobs, bundle...); err != nil {
		t.Fatal(err)
	}
	panels := make([]SweepPanel, len(classes))
	for i, s := range sinks {
		p, err := s.Panel(classes[i].String())
		if err != nil {
			t.Fatal(err)
		}
		panels[i] = p
	}
	return panels
}

func TestHardwareSweepShapes(t *testing.T) {
	jobs := testTrace(t)
	bk := testBackend(t)
	panels := sweepPanels(t, bk, jobs, workload.OneWorkerOneGPU, workload.OneWorkerNGPU, workload.PSWorker)
	panelA, panelB, panel := panels[0], panels[1], panels[2]

	// Panel (c): PS/Worker jobs are most sensitive to Ethernet.
	if len(panel.Series) != 4 {
		t.Fatalf("got %d series, want 4", len(panel.Series))
	}
	res, gain, err := panel.MostSensitiveResource()
	if err != nil {
		t.Fatal(err)
	}
	if res != hw.ResEthernet {
		t.Errorf("PS most sensitive to %v, want Ethernet", res)
	}
	if gain <= 1 {
		t.Errorf("best gain = %v, want > 1", gain)
	}
	// Headline: ~1.7x average from 25 -> 100 Gbps Ethernet.
	sp, err := panel.SpeedupAt(hw.ResEthernet, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sp < 1.5 || sp > 1.95 {
		t.Errorf("Ethernet 4x speedup = %v, paper reports ~1.7x", sp)
	}
	// Downgrade to 10 Gbps slows jobs down (speedup < 1).
	down, err := panel.SpeedupAt(hw.ResEthernet, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if down >= 1 {
		t.Errorf("Ethernet 0.4x speedup = %v, want < 1", down)
	}

	// Panel (a): 1w1g most sensitive to GPU memory bandwidth.
	resA, _, err := panelA.MostSensitiveResource()
	if err != nil {
		t.Fatal(err)
	}
	if resA != hw.ResGPUMemory {
		t.Errorf("1w1g most sensitive to %v, want GPU_memory", resA)
	}
	// 1w1g never uses Ethernet: speedup stays 1.
	ethSp, err := panelA.SpeedupAt(hw.ResEthernet, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ethSp-1) > 1e-9 {
		t.Errorf("1w1g Ethernet speedup = %v, want 1", ethSp)
	}

	// Panel (b): 1wng varies most with PCIe.
	resB, _, err := panelB.MostSensitiveResource()
	if err != nil {
		t.Fatal(err)
	}
	if resB != hw.ResPCIe {
		t.Errorf("1wng most sensitive to %v, want PCIe", resB)
	}

	// Panel (d): after projection to AllReduce-Local, GPU memory matters
	// most (bottleneck shift, Sec. III-D).
	projected, err := ProjectedFeatures(jobs, bk.Spec().Config.GPUsPerServer)
	if err != nil {
		t.Fatal(err)
	}
	panelD := sweepPanels(t, bk, projected, workload.AllReduceLocal)[0]
	resD, _, err := panelD.MostSensitiveResource()
	if err != nil {
		t.Fatal(err)
	}
	if resD != hw.ResGPUMemory {
		t.Errorf("projected jobs most sensitive to %v, want GPU_memory", resD)
	}
}

func TestHardwareSweepErrors(t *testing.T) {
	bk := testBackend(t)
	empty, err := NewSweepSink(bk, workload.PSWorker)
	if err != nil {
		t.Fatal(err)
	}
	if err := foldJobs(bk, nil, empty); err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Panel("empty"); err == nil {
		t.Error("expected error for empty job set")
	}
	bad, err := NewSweepSink(bk, workload.PSWorker)
	if err != nil {
		t.Fatal(err)
	}
	if err := foldJobs(bk, []workload.Features{{Name: "bad", Class: workload.PSWorker}}, bad); err == nil {
		t.Error("expected error for invalid job")
	}
	if _, err := NewSweepSink(nil, workload.PSWorker); err == nil {
		t.Error("expected error for nil backend")
	}
	var emptyPanel SweepPanel
	if _, _, err := emptyPanel.MostSensitiveResource(); err == nil {
		t.Error("expected error for empty panel")
	}
	if _, err := emptyPanel.SpeedupAt(hw.ResPCIe, 1); err == nil {
		t.Error("expected error for missing point")
	}
}

func TestEfficiencySensitivity(t *testing.T) {
	jobs := testTrace(t)
	bk := testBackend(t)
	cases, err := EfficiencySensitivity(context.Background(), bk, 4, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 4 {
		t.Fatalf("got %d cases, want 4", len(cases))
	}
	byLabel := map[string]SensitivityCase{}
	for _, c := range cases {
		byLabel[c.Label] = c
	}
	base := byLabel["All eff. 70%"].MeanShare
	// Lower communication efficiency -> more time in weight traffic.
	if byLabel["Communication eff. 50%"].MeanShare <= base {
		t.Error("comm eff 50% should raise the weight-traffic share")
	}
	// Lower computation efficiency -> less relative weight traffic.
	if byLabel["Computation eff. 25%"].MeanShare >= base {
		t.Error("comp eff 25% should lower the weight-traffic share")
	}
	// Fig. 15's key claim: even at 25% computation efficiency, PS jobs
	// still average more time in weight traffic than anything else.
	if byLabel["Computation eff. 25%"].MeanShare < 0.4 {
		t.Errorf("comp eff 25%% mean weight share = %v, paper says comm still dominates",
			byLabel["Computation eff. 25%"].MeanShare)
	}
	if _, err := EfficiencySensitivity(context.Background(), bk, 4, nil); err == nil {
		t.Error("expected error without PS jobs")
	}
}

func TestOverlapComparison(t *testing.T) {
	jobs := testTrace(t)
	bk := testBackend(t)
	study, err := OverlapComparison(context.Background(), bk, 4, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Ideal overlap exposes weight traffic: its share CDF shifts right.
	noneMean := study.WeightShareCDF[core.OverlapNone].Mean()
	idealMean := study.WeightShareCDF[core.OverlapIdeal].Mean()
	if idealMean <= noneMean {
		t.Errorf("ideal-overlap weight share %v should exceed non-overlap %v", idealMean, noneMean)
	}
	// Fraction not sped up stays similar (22.6% vs 20.2% in the paper).
	dn := study.FracNotSped[core.OverlapNone]
	di := study.FracNotSped[core.OverlapIdeal]
	if math.Abs(dn-di) > 0.15 {
		t.Errorf("not-sped fractions diverge too much: %v vs %v", dn, di)
	}
	// A visible population hits the Eq. 3 21x bound under ideal overlap.
	if study.FracAt21x < 0.05 {
		t.Errorf("FracAt21x = %v, want a visible 21x population", study.FracAt21x)
	}
	// Speedups never exceed the Eq. 3 bound by more than rounding.
	if max := study.SpeedupCDF[core.OverlapIdeal].Max(); max > 21.01 {
		t.Errorf("ideal overlap max speedup = %v, bound is 21", max)
	}
	if _, err := OverlapComparison(context.Background(), bk, 4, nil); err == nil {
		t.Error("expected error without PS jobs")
	}
}

func TestFilterAndProjectedFeatures(t *testing.T) {
	jobs := testTrace(t)
	ps := Filter(jobs, workload.PSWorker)
	for _, j := range ps {
		if j.Class != workload.PSWorker {
			t.Fatal("filter returned wrong class")
		}
	}
	projected, err := ProjectedFeatures(jobs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(projected) != len(ps) {
		t.Errorf("projected %d, want %d", len(projected), len(ps))
	}
	for _, j := range projected {
		if j.Class != workload.AllReduceLocal || j.CNodes > 8 {
			t.Fatalf("bad projected job: %v/%d", j.Class, j.CNodes)
		}
	}
	if _, err := ProjectedFeatures(nil, 8); err == nil {
		t.Error("expected error without PS jobs")
	}
	bad := []workload.Features{{Name: "b", Class: workload.PSWorker}}
	if _, err := ProjectedFeatures(bad, 8); err == nil {
		t.Error("expected error for invalid PS job")
	}
}
