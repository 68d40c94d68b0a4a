package core

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/workload"
)

func newModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(hw.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func psJob(sw float64) workload.Features {
	return workload.Features{
		Name: "ps", Class: workload.PSWorker, CNodes: 16, BatchSize: 32,
		FLOPs: 1e12, MemAccessBytes: 10 * hw.GB, InputBytes: 10 * hw.MB,
		DenseWeightBytes: 100 * hw.MB, WeightTrafficBytes: sw,
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	bad := hw.Baseline()
	bad.PCIeBandwidth = 0
	if _, err := New(bad); err == nil {
		t.Error("expected error for invalid config")
	}
}

func TestBreakdownComponents(t *testing.T) {
	m := newModel(t)
	f := psJob(1 * hw.GB)
	tm, err := m.Breakdown(f)
	if err != nil {
		t.Fatal(err)
	}
	// Td = 10MB / (10GB/s * 0.7), coloc=1 for PS.
	wantTd := 10 * hw.MB / (10 * hw.GB * 0.7)
	if math.Abs(tm.DataIO-wantTd)/wantTd > 1e-9 {
		t.Errorf("DataIO = %v, want %v", tm.DataIO, wantTd)
	}
	// TcFLOPs = 1e12 / (11e12 * 0.7).
	wantCF := 1e12 / (11 * hw.TFLOPS * 0.7)
	if math.Abs(tm.ComputeFLOPs-wantCF)/wantCF > 1e-9 {
		t.Errorf("ComputeFLOPs = %v, want %v", tm.ComputeFLOPs, wantCF)
	}
	// TcMem = 10GB / (1TB/s * 0.7).
	wantCM := 10 * hw.GB / (1 * hw.TB * 0.7)
	if math.Abs(tm.ComputeMem-wantCM)/wantCM > 1e-9 {
		t.Errorf("ComputeMem = %v, want %v", tm.ComputeMem, wantCM)
	}
	// Tw = Sw/Ethernet_eff + Sw/PCIe_eff.
	wantTw := 1*hw.GB/(hw.Gbps(25)*0.7) + 1*hw.GB/(10*hw.GB*0.7)
	if math.Abs(tm.Weights-wantTw)/wantTw > 1e-9 {
		t.Errorf("Weights = %v, want %v", tm.Weights, wantTw)
	}
	if tm.WeightsByLink[hw.LinkEthernet] <= tm.WeightsByLink[hw.LinkPCIe] {
		t.Error("Ethernet leg should dominate the PCIe leg for PS jobs")
	}
	// Total = sum under OverlapNone.
	if got := tm.Total(); math.Abs(got-(tm.DataIO+tm.Compute()+tm.Weights)) > 1e-12 {
		t.Errorf("Total = %v, want component sum", got)
	}
}

// Paper validation arithmetic (Sec. IV-B): ResNet50 compute-bound time on the
// testbed is 1.56T / (15T * 70%) = 0.149 s.
func TestResNet50PaperArithmetic(t *testing.T) {
	m, err := New(hw.Testbed())
	if err != nil {
		t.Fatal(err)
	}
	cs, err := workload.Lookup("ResNet50")
	if err != nil {
		t.Fatal(err)
	}
	tm, err := m.Breakdown(cs.Features)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tm.ComputeFLOPs-0.1486) > 0.001 {
		t.Errorf("ResNet50 compute-bound = %v s, paper reports ~0.149 s", tm.ComputeFLOPs)
	}
}

// Eq. 3: communication-bound PS jobs gain exactly 21x when ported to
// AllReduce-Local under the baseline bandwidths.
func TestEquation3Ratio(t *testing.T) {
	m := newModel(t)
	sw := 5 * hw.GB
	ps := psJob(sw)
	psT, err := m.Breakdown(ps)
	if err != nil {
		t.Fatal(err)
	}
	ar := ps
	ar.Class = workload.AllReduceLocal
	ar.CNodes = 8
	arT, err := m.Breakdown(ar)
	if err != nil {
		t.Fatal(err)
	}
	ratio := psT.Weights / arT.Weights
	if math.Abs(ratio-21.0) > 1e-9 {
		t.Errorf("comm-time ratio = %v, Eq. 3 gives exactly 21", ratio)
	}
}

// AllReduce-Cluster improves on PS/Worker by at most ~1.2x (Sec. III-C1).
func TestAllReduceClusterBoundedGain(t *testing.T) {
	m := newModel(t)
	ps := psJob(5 * hw.GB)
	psT, err := m.Breakdown(ps)
	if err != nil {
		t.Fatal(err)
	}
	arc := ps
	arc.Class = workload.AllReduceCluster
	arcT, err := m.Breakdown(arc)
	if err != nil {
		t.Fatal(err)
	}
	ratio := psT.Weights / arcT.Weights
	if ratio < 1.2 || ratio > 1.3 {
		t.Errorf("PS->ARC comm ratio = %v, want ~1.235 (<=1.2x end-to-end per paper)", ratio)
	}
}

func TestOverlapModes(t *testing.T) {
	m := newModel(t)
	f := psJob(10 * hw.GB)
	none, err := m.Breakdown(f)
	if err != nil {
		t.Fatal(err)
	}
	m.Overlap = OverlapIdeal
	ideal, err := m.Breakdown(f)
	if err != nil {
		t.Fatal(err)
	}
	if ideal.Total() >= none.Total() {
		t.Error("ideal overlap must be faster than non-overlap")
	}
	want := math.Max(ideal.DataIO, math.Max(ideal.Compute(), ideal.Weights))
	if ideal.Total() != want {
		t.Errorf("ideal Total = %v, want max %v", ideal.Total(), want)
	}
	// Fractions still sum to 1 under ideal overlap.
	var sum float64
	for _, c := range Components() {
		fr, err := ideal.Fraction(c)
		if err != nil {
			t.Fatal(err)
		}
		sum += fr
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
}

func TestFractionsSumToOne(t *testing.T) {
	m := newModel(t)
	for _, name := range workload.ZooNames() {
		cs, err := workload.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := m.Breakdown(cs.Features)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sum, hwSum float64
		for _, c := range Components() {
			fr, err := tm.Fraction(c)
			if err != nil {
				t.Fatal(err)
			}
			if fr < 0 || fr > 1 {
				t.Errorf("%s %v fraction out of range: %v", name, c, fr)
			}
			sum += fr
		}
		for _, h := range HardwareComponents() {
			fr, err := tm.HardwareFraction(h)
			if err != nil {
				t.Fatal(err)
			}
			hwSum += fr
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s component fractions sum to %v", name, sum)
		}
		if math.Abs(hwSum-1) > 1e-9 {
			t.Errorf("%s hardware fractions sum to %v", name, hwSum)
		}
	}
}

func TestHardwareAttribution(t *testing.T) {
	m := newModel(t)
	f := psJob(1 * hw.GB)
	tm, err := m.Breakdown(f)
	if err != nil {
		t.Fatal(err)
	}
	pcie, err := tm.HardwareTime(HWPCIe)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pcie-(tm.DataIO+tm.WeightsByLink[hw.LinkPCIe])) > 1e-15 {
		t.Error("PCIe attribution should include data I/O and PCIe weight hop")
	}
	eth, err := tm.HardwareTime(HWEthernet)
	if err != nil {
		t.Fatal(err)
	}
	if eth != tm.WeightsByLink[hw.LinkEthernet] {
		t.Error("Ethernet attribution mismatch")
	}
	nv, err := tm.HardwareTime(HWNVLink)
	if err != nil {
		t.Fatal(err)
	}
	if nv != 0 {
		t.Error("PS job should have no NVLink time")
	}
	if _, err := tm.HardwareTime(HardwareComponent(9)); err == nil {
		t.Error("expected error for unknown hardware component")
	}
	if _, err := tm.HardwareFraction(HardwareComponent(9)); err == nil {
		t.Error("expected error for unknown hardware component fraction")
	}

	// HardwareFractions is HardwareTime(h) / component sum, bit for bit,
	// in HardwareComponents order; a zero breakdown has all-zero shares.
	if n := len(HardwareComponents()); n != NumHardwareComponents {
		t.Fatalf("%d hardware components, NumHardwareComponents = %d", n, NumHardwareComponents)
	}
	frs := tm.HardwareFractions()
	sum := tm.DataIO + tm.Compute() + tm.Weights
	for i, h := range HardwareComponents() {
		v, err := tm.HardwareTime(h)
		if err != nil {
			t.Fatal(err)
		}
		if frs[i] != v/sum {
			t.Errorf("HardwareFractions()[%v] = %v, want %v", h, frs[i], v/sum)
		}
	}
	if z := (Times{}).HardwareFractions(); z != [NumHardwareComponents]float64{} {
		t.Errorf("zero breakdown fractions = %v", z)
	}
}

func TestThroughputEq2(t *testing.T) {
	m := newModel(t)
	f := psJob(1 * hw.GB)
	tp, err := m.Throughput(f)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.StepTime(f)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(f.CNodes) / st * float64(f.BatchSize)
	if math.Abs(tp-want)/want > 1e-12 {
		t.Errorf("Throughput = %v, want %v", tp, want)
	}
}

func TestDataIOContention(t *testing.T) {
	m := newModel(t)
	// Same per-replica input volume; AllReduce-Local with 8 replicas
	// contends 8x on PCIe.
	single := workload.Features{
		Name: "s", Class: workload.OneWorkerOneGPU, CNodes: 1, BatchSize: 8,
		FLOPs: 1e9, MemAccessBytes: 1e6, InputBytes: 100 * hw.MB,
	}
	local := single
	local.Class = workload.AllReduceLocal
	local.CNodes = 8
	local.DenseWeightBytes = 10 * hw.MB
	ts, err := m.Breakdown(single)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := m.Breakdown(local)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tl.DataIO/ts.DataIO-8) > 1e-9 {
		t.Errorf("AR-Local data I/O contention = %v, want 8x", tl.DataIO/ts.DataIO)
	}
}

func TestBottleneck(t *testing.T) {
	m := newModel(t)
	// Heavy weight traffic: bottleneck is Ethernet.
	f := psJob(50 * hw.GB)
	h, frac, err := m.Bottleneck(f)
	if err != nil {
		t.Fatal(err)
	}
	if h != HWEthernet {
		t.Errorf("bottleneck = %v, want Ethernet", h)
	}
	if frac < 0.5 {
		t.Errorf("bottleneck fraction = %v, want > 0.5", frac)
	}
	// Compute-dominated 1w1g job: bottleneck on the GPU.
	g := workload.Features{
		Name: "c", Class: workload.OneWorkerOneGPU, CNodes: 1, BatchSize: 1,
		FLOPs: 100e12, MemAccessBytes: 1e6, InputBytes: 1e3,
	}
	h, _, err = m.Bottleneck(g)
	if err != nil {
		t.Fatal(err)
	}
	if h != HWGPUFLOPs {
		t.Errorf("bottleneck = %v, want GPU_FLOPs", h)
	}
}

func TestBreakdownErrors(t *testing.T) {
	m := newModel(t)
	bad := psJob(1 * hw.GB)
	bad.CNodes = 0
	if _, err := m.Breakdown(bad); err == nil {
		t.Error("expected error for invalid features")
	}
	m2 := newModel(t)
	m2.Eff = workload.Efficiency{} // invalid
	if _, err := m2.Breakdown(psJob(1 * hw.GB)); err == nil {
		t.Error("expected error for invalid efficiency")
	}
	m3 := newModel(t)
	m3.Config.GPU.PeakFLOPS = -1
	if _, err := m3.Breakdown(psJob(1 * hw.GB)); err == nil {
		t.Error("expected error for invalid config")
	}
	// AllReduce job on a no-NVLink config cannot run.
	m4, err := New(hw.BaselineNoNVLink())
	if err != nil {
		t.Fatal(err)
	}
	ar := psJob(1 * hw.GB)
	ar.Class = workload.AllReduceLocal
	ar.CNodes = 8
	if _, err := m4.Breakdown(ar); err == nil {
		t.Error("expected error for AllReduce on no-NVLink server")
	}
	if _, err := m4.Throughput(ar); err == nil {
		t.Error("Throughput should propagate breakdown error")
	}
	if _, _, err := m4.Bottleneck(ar); err == nil {
		t.Error("Bottleneck should propagate breakdown error")
	}
	if _, err := m4.StepTime(ar); err == nil {
		t.Error("StepTime should propagate breakdown error")
	}
}

func TestStringers(t *testing.T) {
	if OverlapNone.String() != "non-overlap" || OverlapIdeal.String() != "ideal-overlap" {
		t.Error("overlap mode names wrong")
	}
	if OverlapMode(9).String() == "" {
		t.Error("unknown overlap mode should render")
	}
	if CompDataIO.String() != "Data I/O" || CompComputeMem.String() != "Comp.(memory-bound)" {
		t.Error("component names should match figure legends")
	}
	if Component(9).String() == "" || HardwareComponent(9).String() == "" {
		t.Error("unknown enum strings should render")
	}
	if HWGPUFLOPs.String() != "GPU_FLOPs" {
		t.Error("hardware component name wrong")
	}
	if len(Components()) != 4 || len(HardwareComponents()) != 5 {
		t.Error("enum lists wrong length")
	}
}

func TestComponentAccessErrors(t *testing.T) {
	var tm Times
	if _, err := tm.Component(Component(42)); err == nil {
		t.Error("expected error for unknown component")
	}
	if _, err := tm.Fraction(Component(42)); err == nil {
		t.Error("expected error for unknown component fraction")
	}
	// Zero breakdown: fractions are 0, not NaN.
	fr, err := tm.Fraction(CompDataIO)
	if err != nil || fr != 0 {
		t.Errorf("zero breakdown fraction = %v, %v", fr, err)
	}
	hf, err := tm.HardwareFraction(HWPCIe)
	if err != nil || hf != 0 {
		t.Errorf("zero breakdown hw fraction = %v, %v", hf, err)
	}
}
