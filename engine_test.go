package pai_test

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	pai "repro"
)

func engineTestJob() pai.Features {
	return pai.Features{
		Name: "reco", Class: pai.PSWorker, CNodes: 16, BatchSize: 512,
		FLOPs: 0.4e12, MemAccessBytes: 12e9, InputBytes: 80e6,
		DenseWeightBytes: 1.5e9, WeightTrafficBytes: 2.2e9,
	}
}

func TestEngineOptionCombinations(t *testing.T) {
	job := engineTestJob()
	lowComm := pai.DefaultEfficiency()
	lowComm.Network = 0.5

	cases := []struct {
		name    string
		opts    []pai.Option
		check   func(t *testing.T, e *pai.Engine, total float64)
		wantErr bool
	}{
		{name: "defaults", opts: nil,
			check: func(t *testing.T, e *pai.Engine, total float64) {
				if e.Backend() != "analytical" {
					t.Errorf("default backend = %q", e.Backend())
				}
				if e.Parallelism() != runtime.GOMAXPROCS(0) {
					t.Errorf("default parallelism = %d", e.Parallelism())
				}
			}},
		{name: "testbed config", opts: []pai.Option{pai.WithConfig(pai.TestbedConfig())},
			check: func(t *testing.T, e *pai.Engine, total float64) {
				if e.Config().GPU.Name != pai.TestbedConfig().GPU.Name {
					t.Error("config option not applied")
				}
			}},
		{name: "ideal overlap", opts: []pai.Option{pai.WithOverlap(pai.OverlapIdeal)},
			check: func(t *testing.T, e *pai.Engine, total float64) {
				if e.Overlap() != pai.OverlapIdeal {
					t.Error("overlap option not applied")
				}
			}},
		{name: "partial overlap", opts: []pai.Option{pai.WithOverlapAlpha(0.5)},
			check: func(t *testing.T, e *pai.Engine, total float64) {
				if e.Overlap() != pai.OverlapPartial {
					t.Error("WithOverlapAlpha should switch to OverlapPartial")
				}
			}},
		{name: "efficiency", opts: []pai.Option{pai.WithEfficiency(lowComm)},
			check: func(t *testing.T, e *pai.Engine, total float64) {
				if e.Efficiency().Network != 0.5 {
					t.Error("efficiency option not applied")
				}
			}},
		{name: "roofline backend", opts: []pai.Option{pai.WithBackend("roofline")},
			check: func(t *testing.T, e *pai.Engine, total float64) {
				if e.Backend() != "roofline" {
					t.Errorf("backend = %q", e.Backend())
				}
			}},
		{name: "parallelism", opts: []pai.Option{pai.WithParallelism(2)},
			check: func(t *testing.T, e *pai.Engine, total float64) {
				if e.Parallelism() != 2 {
					t.Errorf("parallelism = %d", e.Parallelism())
				}
			}},
		{name: "combined",
			opts: []pai.Option{
				pai.WithConfig(pai.BaselineConfig()),
				pai.WithOverlap(pai.OverlapIdeal),
				pai.WithEfficiency(pai.DefaultEfficiency()),
				pai.WithBackend("analytical"),
				pai.WithParallelism(4),
			},
			check: func(t *testing.T, e *pai.Engine, total float64) {
				if e.Backend() != "analytical" || e.Parallelism() != 4 || e.Overlap() != pai.OverlapIdeal {
					t.Error("combined options not applied")
				}
			}},
		{name: "unknown backend", opts: []pai.Option{pai.WithBackend("no-such")}, wantErr: true},
		{name: "empty backend", opts: []pai.Option{pai.WithBackend("")}, wantErr: true},
		{name: "zero parallelism", opts: []pai.Option{pai.WithParallelism(0)}, wantErr: true},
		{name: "bad alpha", opts: []pai.Option{pai.WithOverlapAlpha(1.5)}, wantErr: true},
		{name: "bad config", opts: []pai.Option{pai.WithConfig(pai.Config{})}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := pai.New(tc.opts...)
			if tc.wantErr {
				if err == nil {
					t.Fatal("expected construction error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			total, err := e.StepTime(job)
			if err != nil {
				t.Fatal(err)
			}
			if total <= 0 {
				t.Errorf("step time = %v, want > 0", total)
			}
			tc.check(t, e, total)
		})
	}
}

func TestEngineUnknownBackendErrorListsNames(t *testing.T) {
	_, err := pai.New(pai.WithBackend("no-such"))
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "analytical") {
		t.Errorf("error should list registered backends, got %v", err)
	}
	names := pai.Backends()
	if len(names) < 2 {
		t.Errorf("expected at least analytical+roofline registered, got %v", names)
	}
}

func TestZeroValueEngine(t *testing.T) {
	var e pai.Engine
	total, err := e.StepTime(engineTestJob())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Errorf("zero-value engine step time = %v", total)
	}
	if e.Backend() != "analytical" {
		t.Errorf("zero-value backend = %q", e.Backend())
	}
	if e.Parallelism() < 1 {
		t.Errorf("zero-value parallelism = %d", e.Parallelism())
	}
	// Accessors agree with an explicitly constructed default engine.
	d, err := pai.New()
	if err != nil {
		t.Fatal(err)
	}
	if e.Config().GPU.Name != d.Config().GPU.Name {
		t.Error("zero-value config should be the baseline")
	}
}

func TestEngineConstructionPathsAgree(t *testing.T) {
	// The zero-value defaults and an engine built with every default spelled
	// out must evaluate identically — a regression hook on config plumbing
	// now that the pre-Engine free-function model path is gone.
	e, err := pai.New()
	if err != nil {
		t.Fatal(err)
	}
	d, err := pai.New(
		pai.WithConfig(pai.BaselineConfig()),
		pai.WithEfficiency(pai.DefaultEfficiency()),
		pai.WithOverlap(pai.OverlapNone),
		pai.WithBackend("analytical"),
	)
	if err != nil {
		t.Fatal(err)
	}
	job := engineTestJob()
	et, err := e.Evaluate(job)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := d.Evaluate(job)
	if err != nil {
		t.Fatal(err)
	}
	if et.Total() != dt.Total() {
		t.Errorf("engine breakdown differs across construction paths: %v vs %v", et.Total(), dt.Total())
	}
	eth, err := e.Throughput(job)
	if err != nil {
		t.Fatal(err)
	}
	dth, err := d.Throughput(job)
	if err != nil {
		t.Fatal(err)
	}
	if eth != dth {
		t.Errorf("throughput mismatch: %v vs %v", eth, dth)
	}
}

func TestEngineEvaluateBatch(t *testing.T) {
	p := pai.DefaultTraceParams()
	p.NumJobs = 500
	trace, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := pai.New(pai.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := e.EvaluateBatch(context.Background(), trace.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(trace.Jobs) {
		t.Fatalf("got %d results, want %d", len(batch), len(trace.Jobs))
	}
	// Batch results match serial per-job evaluation, in order.
	for i, j := range trace.Jobs {
		serial, err := e.Evaluate(j)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Total() != serial.Total() {
			t.Fatalf("job %d: batch %v != serial %v", i, batch[i].Total(), serial.Total())
		}
	}
}

func TestEngineEvaluateBatchCancellation(t *testing.T) {
	p := pai.DefaultTraceParams()
	p.NumJobs = 2000
	trace, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := pai.New(pai.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.EvaluateBatch(ctx, trace.Jobs); err == nil {
		t.Fatal("expected cancellation error")
	}

	// Cancel concurrently with the batch: either the batch finishes first
	// (returning results) or the cancellation wins (returning ctx.Err);
	// both must be race-free under -race.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.EvaluateBatch(ctx2, trace.Jobs)
		done <- err
	}()
	cancel2()
	<-done
}

// foldReport streams jobs once through eng into a breakdown accumulator, a
// PS -> AllReduce-Local projection sink and a PS/Worker sweep sink.
func foldReport(t *testing.T, eng *pai.Engine, jobs []pai.Features) (*pai.BreakdownAccumulator, *pai.ProjectionSink, *pai.SweepSink) {
	t.Helper()
	acc := pai.NewBreakdownAccumulator()
	proj, err := eng.NewProjectionSink(pai.ToAllReduceLocal)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := eng.NewSweepSink(pai.PSWorker)
	if err != nil {
		t.Fatal(err)
	}
	n, err := eng.StreamInto(context.Background(), pai.NewSliceJobSource(jobs), pai.NewMultiSink(acc, proj, sweep))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(jobs) {
		t.Fatalf("folded %d of %d jobs", n, len(jobs))
	}
	return acc, proj, sweep
}

func TestEngineAnalysisPipelines(t *testing.T) {
	p := pai.DefaultTraceParams()
	p.NumJobs = 400
	trace, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := pai.New(pai.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	acc, proj, sweep := foldReport(t, e, trace.Jobs)

	if len(acc.Rows()) == 0 {
		t.Fatal("no breakdown rows")
	}
	overall, err := acc.Overall(pai.CNodeLevel)
	if err != nil {
		t.Fatal(err)
	}
	if overall[pai.CompWeights] <= 0 {
		t.Error("cNode-level weight share should be positive")
	}

	ps := pai.FilterClass(trace.Jobs, pai.PSWorker)
	if proj.N() != len(ps) {
		t.Errorf("projected %d jobs, want %d", proj.N(), len(ps))
	}
	sum, err := proj.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != len(ps) {
		t.Errorf("summary covers %d, want %d", sum.N, len(ps))
	}

	panel, err := sweep.Panel("PS/Worker")
	if err != nil {
		t.Fatal(err)
	}
	if len(panel.Series) != 4 {
		t.Errorf("sweep panel has %d series, want 4", len(panel.Series))
	}
}

func TestEngineWithDerivation(t *testing.T) {
	base, err := pai.New(pai.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := base.With(pai.WithOverlap(pai.OverlapIdeal))
	if err != nil {
		t.Fatal(err)
	}
	if base.Overlap() != pai.OverlapNone {
		t.Error("With mutated the receiver")
	}
	if ideal.Overlap() != pai.OverlapIdeal || ideal.Parallelism() != 2 {
		t.Error("derived engine lost settings")
	}
	job := engineTestJob()
	t0, err := base.StepTime(job)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := ideal.StepTime(job)
	if err != nil {
		t.Fatal(err)
	}
	if t1 >= t0 {
		t.Errorf("ideal overlap %v should beat non-overlap %v", t1, t0)
	}
}

func TestEngineRooflineBackend(t *testing.T) {
	// Memory-bound recommender: under the classic roofline the memory
	// stream binds, the compute stream hides beneath it, and the device is
	// charged once — so total compute time is max(tFLOPs, tMem), strictly
	// below the analytical model's sequential sum.
	cs, err := pai.LookupCaseStudy("Multi-Interests")
	if err != nil {
		t.Fatal(err)
	}
	ana, err := pai.New(pai.WithConfig(pai.TestbedConfig()))
	if err != nil {
		t.Fatal(err)
	}
	rf, err := ana.With(pai.WithBackend("roofline"))
	if err != nil {
		t.Fatal(err)
	}
	ta, err := ana.Evaluate(cs.Features)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rf.Evaluate(cs.Features)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ComputeMem != ta.ComputeMem || tr.ComputeFLOPs != 0 {
		t.Errorf("Multi-Interests is memory-bound: want compute folded under the transfer, got FLOPs %v mem %v (analytical mem %v)",
			tr.ComputeFLOPs, tr.ComputeMem, ta.ComputeMem)
	}
	if tr.Compute() >= ta.Compute() {
		t.Errorf("roofline overlapped compute %v should beat analytical sum %v",
			tr.Compute(), ta.Compute())
	}
}

func TestEngineEvaluateStreamMatchesBatch(t *testing.T) {
	p := pai.DefaultTraceParams()
	p.NumJobs = 1200
	trace, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	eng, err := pai.New(pai.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := eng.EvaluateBatch(ctx, trace.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	src, err := pai.OpenTraceSource(&buf, "ndjson")
	if err != nil {
		t.Fatal(err)
	}
	var got []pai.Times
	n, err := eng.EvaluateSource(ctx, src, func(r pai.StreamResult) error {
		if r.Index != len(got) {
			t.Fatalf("result %d arrived at position %d", r.Index, len(got))
		}
		got = append(got, r.Times)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) || len(got) != len(want) {
		t.Fatalf("streamed %d of %d jobs", n, len(want))
	}
	for i := range want {
		if got[i].Total() != want[i].Total() {
			t.Fatalf("job %d: stream %v vs batch %v", i, got[i].Total(), want[i].Total())
		}
	}
}

func TestEngineEvaluateStreamDecodeError(t *testing.T) {
	eng, err := pai.New()
	if err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader(`{"name":"x","class":"1w1g","c_nodes":1,"batch_size":8,"flops":1e9}` + "\n" + "garbage\n")
	src, err := pai.OpenTraceSource(in, "ndjson")
	if err != nil {
		t.Fatal(err)
	}
	n, err := eng.EvaluateSource(context.Background(), src, nil)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-numbered decode error, got %v (n=%d)", err, n)
	}
}

// TestEngineStreamBreakdownsFromSource: folding the streaming generator
// must reproduce the cNode-level shares computed directly from the
// materialized trace's batch breakdowns, correctly rounded.
func TestEngineStreamBreakdownsFromSource(t *testing.T) {
	p := pai.DefaultTraceParams()
	p.NumJobs = 1500
	src, err := pai.NewTraceSource(p)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pai.New(pai.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := streamBreakdowns(context.Background(), eng, src)
	if err != nil {
		t.Fatal(err)
	}
	if acc.N() != p.NumJobs {
		t.Fatalf("folded %d of %d jobs", acc.N(), p.NumJobs)
	}
	overallStream, err := acc.Overall(pai.CNodeLevel)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	times, err := eng.EvaluateBatch(context.Background(), trace.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	comps := []pai.Component{pai.CompDataIO, pai.CompWeights, pai.CompComputeFLOPs, pai.CompComputeMem}
	sums := make([]float64, len(comps))
	exact := make([]*bigSum, len(comps))
	for k := range exact {
		exact[k] = newBigSum()
	}
	var weight float64
	for i, tm := range times {
		w := float64(trace.Jobs[i].CNodes)
		for k, c := range comps {
			fr, err := tm.Fraction(c)
			if err != nil {
				t.Fatal(err)
			}
			sums[k] += fr * w
			exact[k].addProduct(fr, w)
		}
		weight += w
	}
	// The stream's shares are the exact weighted sums rounded once; the
	// batch's plain float sums agree to 1e-12.
	for k, c := range comps {
		checkExact(t, c.String(), overallStream[c], exact[k].quo(weight), sums[k]/weight)
	}
}

// TestEngineWithCache: a cached engine must return identical breakdowns to
// an uncached one and report hits once a record recurs.
func TestEngineWithCache(t *testing.T) {
	plain, err := pai.New(pai.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := pai.New(pai.WithParallelism(2), pai.WithCache(1024))
	if err != nil {
		t.Fatal(err)
	}
	job := engineTestJob()
	want, err := plain.Evaluate(job)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := cached.Evaluate(job)
		if err != nil {
			t.Fatal(err)
		}
		if got.Total() != want.Total() || got.Weights != want.Weights {
			t.Fatalf("cached breakdown differs on call %d: %v vs %v", i, got.Total(), want.Total())
		}
	}
	st := cached.CacheStats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Errorf("cache stats = %+v, want 1 miss / 2 hits", st)
	}
	if st.HitRate() <= 0.6 || st.HitRate() >= 0.7 {
		t.Errorf("hit rate = %v, want 2/3", st.HitRate())
	}
	// Batch evaluation over a repetitive trace flows through the same cache.
	jobs := make([]pai.Features, 100)
	for i := range jobs {
		jobs[i] = job
	}
	times, err := cached.EvaluateBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, tm := range times {
		if tm.Total() != want.Total() {
			t.Fatalf("batch result %d differs under cache", i)
		}
	}
	if got := cached.CacheStats(); got.Hits < 100 {
		t.Errorf("batch over repetitive trace produced only %d hits", got.Hits)
	}
	// Derivation carries the cache configuration.
	derived, err := cached.With(pai.WithOverlap(pai.OverlapIdeal))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := derived.Evaluate(job); err != nil {
		t.Fatal(err)
	}
	if got := derived.CacheStats(); got.Misses != 1 {
		t.Errorf("derived engine should have a fresh cache with 1 miss, got %+v", got)
	}
	// An uncached engine reports zero stats.
	if got := plain.CacheStats(); got != (pai.CacheStats{}) {
		t.Errorf("uncached engine stats = %+v, want zero", got)
	}
}

// streamBreakdowns folds src into a fresh breakdown accumulator.
func streamBreakdowns(ctx context.Context, eng *pai.Engine, src pai.JobSource) (*pai.BreakdownAccumulator, error) {
	acc := pai.NewBreakdownAccumulator()
	if _, err := eng.StreamInto(ctx, src, acc); err != nil {
		return nil, err
	}
	return acc, nil
}

// evaluateSources is the sharded breakdown fold: EvaluateSourcesInto with a
// breakdown-accumulator factory.
func evaluateSources(ctx context.Context, eng *pai.Engine, srcs ...pai.JobSource) (*pai.BreakdownAccumulator, []int, error) {
	s, counts, err := eng.EvaluateSourcesInto(ctx, func() (pai.Sink, error) {
		return pai.NewBreakdownAccumulator(), nil
	}, srcs...)
	if err != nil {
		return nil, counts, err
	}
	return s.(*pai.BreakdownAccumulator), counts, nil
}

// TestEngineEvaluateSources: the sharded multi-source fold must agree with
// the single-source streaming fold over the same jobs.
func TestEngineEvaluateSources(t *testing.T) {
	p := pai.DefaultTraceParams()
	p.NumJobs = 4000
	trace, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pai.New(pai.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bulk, err := streamBreakdowns(ctx, eng, pai.NewSliceJobSource(trace.Jobs))
	if err != nil {
		t.Fatal(err)
	}
	mid := len(trace.Jobs) / 2
	merged, counts, err := evaluateSources(ctx, eng,
		pai.NewSliceJobSource(trace.Jobs[:mid]),
		pai.NewSliceJobSource(trace.Jobs[mid:]))
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 || counts[0] != mid || counts[1] != len(trace.Jobs)-mid {
		t.Fatalf("per-shard counts = %v", counts)
	}
	if merged.N() != bulk.N() {
		t.Fatalf("merged %d jobs, want %d", merged.N(), bulk.N())
	}
	gotO, err := merged.Overall(pai.CNodeLevel)
	if err != nil {
		t.Fatal(err)
	}
	wantO, err := bulk.Overall(pai.CNodeLevel)
	if err != nil {
		t.Fatal(err)
	}
	for comp, want := range wantO {
		if d := gotO[comp] - want; d > 1e-12 || d < -1e-12 {
			t.Errorf("%v: sharded %v vs bulk %v", comp, gotO[comp], want)
		}
	}
	// Sharded evaluation through a cached engine stays correct.
	cached, err := eng.With(pai.WithCache(4096))
	if err != nil {
		t.Fatal(err)
	}
	mergedC, _, err := evaluateSources(ctx, cached,
		pai.NewSliceJobSource(trace.Jobs[:mid]),
		pai.NewSliceJobSource(trace.Jobs[mid:]))
	if err != nil {
		t.Fatal(err)
	}
	gotC, err := mergedC.Overall(pai.CNodeLevel)
	if err != nil {
		t.Fatal(err)
	}
	for comp, want := range gotO {
		if d := gotC[comp] - want; d > 1e-12 || d < -1e-12 {
			t.Errorf("%v: cached sharded %v vs %v", comp, gotC[comp], want)
		}
	}
}
