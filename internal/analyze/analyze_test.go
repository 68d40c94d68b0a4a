package analyze

import (
	"context"
	"math"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/tracegen"
	"repro/internal/workload"
)

// testTrace caches a mid-size trace for the package's tests.
func testTrace(t *testing.T) []workload.Features {
	t.Helper()
	p := tracegen.Default()
	p.NumJobs = 3000
	tr, err := tracegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Jobs
}

func testModel(t *testing.T) *core.Model {
	t.Helper()
	m, err := core.New(hw.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testBackend builds the registered analytical backend under the defaults.
func testBackend(t *testing.T) backend.Backend {
	t.Helper()
	b, err := backend.New(backend.AnalyticalName, backend.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLevelString(t *testing.T) {
	if JobLevel.String() != "job-level" || CNodeLevel.String() != "cNode-level" {
		t.Error("level names wrong")
	}
	if Level(9).String() == "" {
		t.Error("unknown level should render")
	}
}

func TestConstitute(t *testing.T) {
	jobs := testTrace(t)
	c, err := Constitute(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var jobSum, cnodeSum float64
	for _, s := range c.JobShare {
		jobSum += s
	}
	for _, s := range c.CNodeShare {
		cnodeSum += s
	}
	if math.Abs(jobSum-1) > 1e-9 || math.Abs(cnodeSum-1) > 1e-9 {
		t.Errorf("shares sum to %v / %v, want 1", jobSum, cnodeSum)
	}
	// Fig. 5 shape: 1w1g dominates jobs, PS dominates cNodes.
	if c.JobShare[workload.OneWorkerOneGPU] < c.JobShare[workload.PSWorker] {
		t.Error("1w1g should dominate job counts")
	}
	if c.CNodeShare[workload.PSWorker] < 0.7 {
		t.Errorf("PS cNode share = %v, want > 0.7", c.CNodeShare[workload.PSWorker])
	}
	if c.TotalJobs != len(jobs) {
		t.Errorf("TotalJobs = %d, want %d", c.TotalJobs, len(jobs))
	}
	if _, err := Constitute(nil); err == nil {
		t.Error("expected error for empty trace")
	}
}

func TestScales(t *testing.T) {
	jobs := testTrace(t)
	s, err := Scales(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// 1w1g cNodes are all 1.
	if c := s.CNodes[workload.OneWorkerOneGPU]; c.Min() != 1 || c.Max() != 1 {
		t.Error("1w1g cNode CDF should be degenerate at 1")
	}
	// 1wng bounded by 8.
	if c := s.CNodes[workload.OneWorkerNGPU]; c.Max() > 8 {
		t.Errorf("1wng max cNodes = %v, want <= 8", c.Max())
	}
	// Fig. 6a: about half of PS jobs above 8 cNodes.
	ps := s.CNodes[workload.PSWorker]
	if p8 := ps.P(8); p8 < 0.35 || p8 > 0.70 {
		t.Errorf("PS P(cNodes<=8) = %v, want around 0.5", p8)
	}
	// Fig. 6b: PS weight sizes span into the >10 GB regime.
	if w := s.Weights[workload.PSWorker]; w.Max() < 10*hw.GB {
		t.Error("PS weight CDF should reach beyond 10 GB")
	}
	if _, err := Scales(nil); err == nil {
		t.Error("expected error for empty trace")
	}
}

// foldJobs streams jobs through ev into every given sink in one pass.
func foldJobs(ev backend.Evaluator, jobs []workload.Features, sinks ...Sink) error {
	_, err := FoldInto(context.Background(), ev, 4, stream.Blocks(stream.NewSliceSource(jobs)), NewMultiSink(sinks...))
	return err
}

func TestBreakdowns(t *testing.T) {
	jobs := testTrace(t)
	m := testModel(t)
	acc := NewBreakdownAccumulator()
	if err := foldJobs(m, jobs, acc); err != nil {
		t.Fatal(err)
	}
	rows := acc.Rows()
	// Three classes x two levels.
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		var sum float64
		for _, v := range r.Share {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%v/%v shares sum to %v", r.Class, r.Level, sum)
		}
		if r.N == 0 {
			t.Errorf("%v/%v has zero jobs", r.Class, r.Level)
		}
		// 1w1g never communicates weights.
		if r.Class == workload.OneWorkerOneGPU && r.Share[core.CompWeights] != 0 {
			t.Error("1w1g should have zero weight share")
		}
	}
	empty := NewBreakdownAccumulator()
	if err := foldJobs(m, nil, empty); err != nil {
		t.Fatal(err)
	}
	if rows := empty.Rows(); len(rows) != 0 {
		t.Errorf("empty trace gave %d rows", len(rows))
	}
	bad := []workload.Features{{Name: "x"}}
	if err := foldJobs(m, bad, NewBreakdownAccumulator()); err == nil {
		t.Error("expected error for invalid job")
	}
}

func TestOverallBreakdownHeadlines(t *testing.T) {
	jobs := testTrace(t)
	m := testModel(t)
	acc := NewBreakdownAccumulator()
	if err := foldJobs(m, jobs, acc); err != nil {
		t.Fatal(err)
	}
	cn, err := acc.Overall(CNodeLevel)
	if err != nil {
		t.Fatal(err)
	}
	// Sec. III-D: ~62% comm, ~35% compute at cNode level.
	if v := cn[core.CompWeights]; v < 0.5 || v > 0.72 {
		t.Errorf("cNode-level comm share = %v, want ~0.62", v)
	}
	comp := cn[core.CompComputeFLOPs] + cn[core.CompComputeMem]
	if comp < 0.25 || comp > 0.45 {
		t.Errorf("cNode-level compute share = %v, want ~0.35", comp)
	}
	// Communication outweighs computation at cNode level.
	if cn[core.CompWeights] <= comp {
		t.Errorf("cNode-level comm %v should exceed compute %v", cn[core.CompWeights], comp)
	}
	// Memory-bound exceeds compute-bound.
	if cn[core.CompComputeMem] <= cn[core.CompComputeFLOPs] {
		t.Error("memory-bound share should exceed compute-bound share")
	}
	jb, err := acc.Overall(JobLevel)
	if err != nil {
		t.Fatal(err)
	}
	// ~22% comm at job level.
	if v := jb[core.CompWeights]; v < 0.15 || v > 0.30 {
		t.Errorf("job-level comm share = %v, want ~0.22", v)
	}
	empty := NewBreakdownAccumulator()
	if err := foldJobs(m, nil, empty); err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Overall(JobLevel); err == nil {
		t.Error("expected error for empty trace")
	}
}

func TestBreakdownCDFs(t *testing.T) {
	jobs := testTrace(t)
	m := testModel(t)
	sink := NewComponentCDFSink()
	if err := foldJobs(m, jobs, sink); err != nil {
		t.Fatal(err)
	}
	ps, err := sink.Panel(workload.PSWorker, JobLevel)
	if err != nil {
		t.Fatal(err)
	}
	// >40% of PS jobs spend >80% of time in weight traffic.
	w := ps.CDF[core.CompWeights]
	if frac := 1 - w.P(0.8); frac < 0.40 {
		t.Errorf("PS jobs >80%% comm = %v, want > 0.40", frac)
	}
	// cNode level shifts comm right (bigger jobs more comm-bound).
	psCN, err := sink.Panel(workload.PSWorker, CNodeLevel)
	if err != nil {
		t.Fatal(err)
	}
	if sketchMean(psCN.CDF[core.CompWeights]) <= sketchMean(w) {
		t.Error("cNode-level comm share should exceed job-level for PS jobs")
	}
	if _, err := sink.Panel(workload.AllReduceLocal, JobLevel); err == nil {
		t.Error("expected error for class with no jobs")
	}
}

func TestBreakdownHardwareCDFs(t *testing.T) {
	jobs := testTrace(t)
	m := testModel(t)
	sink := NewHardwareCDFSink()
	if err := foldJobs(m, jobs, sink); err != nil {
		t.Fatal(err)
	}
	h, err := sink.Panel(CNodeLevel)
	if err != nil {
		t.Fatal(err)
	}
	for _, hc := range core.HardwareComponents() {
		if h.CDF[hc] == nil {
			t.Fatalf("missing CDF for %v", hc)
		}
	}
	// Trace jobs never touch NVLink (no AllReduce in the window).
	if h.CDF[core.HWNVLink].Max() != 0 {
		t.Error("NVLink share should be zero across the trace")
	}
	// Ethernet dominates at cNode level (PS jobs are comm-bound).
	if sketchMean(h.CDF[core.HWEthernet]) < sketchMean(h.CDF[core.HWGPUFLOPs]) {
		t.Error("Ethernet mean share should exceed GPU FLOPs at cNode level")
	}
	// An empty trace has no panel, at either level.
	empty := NewHardwareCDFSink()
	if err := foldJobs(m, nil, empty); err != nil {
		t.Fatal(err)
	}
	for _, lvl := range []Level{JobLevel, CNodeLevel} {
		if _, err := empty.Panel(lvl); err == nil {
			t.Errorf("empty trace: %v panel has no error", lvl)
		}
	}
}

// sketchMean is the mean of a sketched distribution, integrated from its
// quantile function on a fine grid: within a bin width of the weighted mean
// of the folded samples.
func sketchMean(d stats.Distribution) float64 {
	const n = 4096
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.Quantile((float64(i) + 0.5) / n)
	}
	return sum / n
}
