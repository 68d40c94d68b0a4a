package pai_test

import (
	"bytes"
	"context"
	"sort"
	"testing"

	pai "repro"
	"repro/internal/backend"
	"repro/internal/hw"
)

// sinkTestTrace returns a small calibrated trace slice.
func sinkTestTrace(t *testing.T, n int) []pai.Features {
	t.Helper()
	p := pai.DefaultTraceParams()
	p.NumJobs = n
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Jobs
}

// TestEngineStreamIntoMatchesStreamBreakdowns: the generic sink fold over a
// breakdown accumulator must equal the record-at-a-time breakdown fold.
func TestEngineStreamIntoMatchesStreamBreakdowns(t *testing.T) {
	eng, err := pai.New()
	if err != nil {
		t.Fatal(err)
	}
	jobs := sinkTestTrace(t, 600)
	ctx := context.Background()

	acc := pai.NewBreakdownAccumulator()
	n, err := eng.StreamInto(ctx, pai.NewSliceJobSource(jobs), acc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(jobs) {
		t.Fatalf("folded %d of %d jobs", n, len(jobs))
	}
	want := pai.NewBreakdownAccumulator()
	for _, j := range jobs {
		tm, err := eng.Evaluate(j)
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Add(j, tm); err != nil {
			t.Fatal(err)
		}
	}
	gotSnap, err := acc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Error("StreamInto breakdown state differs from the record-at-a-time fold")
	}
}

// TestEngineDistributedMergeThroughPublicAPI pins the acceptance criterion
// end to end on the public surface: per-shard report sinks snapshot through
// WriteSinkSnapshot/ReadSinkSnapshot and merge into state byte-identical to
// the single-process sharded fold — with a result cache in front of the
// backend on one side, proving caching cannot perturb aggregates.
func TestEngineDistributedMergeThroughPublicAPI(t *testing.T) {
	jobs := sinkTestTrace(t, 900)
	shard0, shard1 := jobs[:450], jobs[450:]

	eng, err := pai.New(pai.WithCacheBytes(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := pai.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	factory := func() (pai.Sink, error) { return plain.NewReportSink(pai.ToAllReduceLocal) }

	single, counts, err := plain.EvaluateSourcesInto(ctx, factory,
		pai.NewSliceJobSource(shard0), pai.NewSliceJobSource(shard1))
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 450 || counts[1] != 450 {
		t.Fatalf("shard counts = %v", counts)
	}

	// "Two processes": independent engines (one cached, one not) fold one
	// shard each; only snapshot bytes cross the boundary.
	var merged pai.Sink
	for i, shard := range [][]pai.Features{shard0, shard1} {
		worker := eng
		if i == 1 {
			worker = plain
		}
		sink, err := worker.NewReportSink(pai.ToAllReduceLocal)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := worker.StreamInto(ctx, pai.NewSliceJobSource(shard), sink); err != nil {
			t.Fatal(err)
		}
		var wire bytes.Buffer
		if err := pai.WriteSinkSnapshot(&wire, sink); err != nil {
			t.Fatal(err)
		}
		decoded, err := pai.ReadSinkSnapshot(bytes.NewReader(wire.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = decoded
			continue
		}
		if err := merged.Merge(decoded); err != nil {
			t.Fatal(err)
		}
	}

	var singleSnap, mergedSnap bytes.Buffer
	if err := pai.WriteSinkSnapshot(&singleSnap, single); err != nil {
		t.Fatal(err)
	}
	if err := pai.WriteSinkSnapshot(&mergedSnap, merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(singleSnap.Bytes(), mergedSnap.Bytes()) {
		t.Fatal("two-engine snapshot merge differs from single-process sharded fold")
	}

	// The cache served the first worker without perturbing anything; its
	// stats must reflect byte-budget mode.
	st := eng.CacheStats()
	if st.TargetBytes != 1<<20 {
		t.Errorf("TargetBytes = %d", st.TargetBytes)
	}
	if st.Misses == 0 {
		t.Error("cached worker recorded no evaluations")
	}
}

// TestEngineWithCacheBytes: byte-budget caching serves hits and surfaces
// the new counters; With derivation preserves the byte budget.
func TestEngineWithCacheBytes(t *testing.T) {
	eng, err := pai.New(pai.WithCacheBytes(512 << 10))
	if err != nil {
		t.Fatal(err)
	}
	f := engineTestJob()
	for i := 0; i < 3; i++ {
		if _, err := eng.Evaluate(f); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.CacheStats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
	if st.AvgEntryBytes <= 0 {
		t.Error("no measured entry footprint")
	}

	derived, err := eng.With(pai.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := derived.Evaluate(f); err != nil {
		t.Fatal(err)
	}
	if got := derived.CacheStats().TargetBytes; got != 512<<10 {
		t.Errorf("derived engine lost the byte budget: TargetBytes = %d", got)
	}

	// Last-wins override semantics between the two cache options.
	entries, err := pai.New(pai.WithCacheBytes(1<<20), pai.WithCache(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := entries.Evaluate(f); err != nil {
		t.Fatal(err)
	}
	if got := entries.CacheStats().TargetBytes; got != 0 {
		t.Errorf("WithCache after WithCacheBytes should win, TargetBytes = %d", got)
	}
}

// TestEngineSweepSinkMatchesHardwareSweep: the streamed sweep sink must
// reproduce the Fig. 11 hardware sweep computed independently — for every
// Table III grid point, the plain mean over the PS jobs of the baseline
// step time divided by the step time under a Reconfigure'd backend.
func TestEngineSweepSinkMatchesHardwareSweep(t *testing.T) {
	eng, err := pai.New()
	if err != nil {
		t.Fatal(err)
	}
	jobs := sinkTestTrace(t, 400)
	ps := pai.FilterClass(jobs, pai.PSWorker)
	if len(ps) == 0 {
		t.Skip("no PS jobs in trace slice")
	}
	sweep, err := eng.NewSweepSink(pai.PSWorker)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.StreamInto(context.Background(), pai.NewSliceJobSource(jobs), sweep); err != nil {
		t.Fatal(err)
	}
	got, err := sweep.Panel("PS/Worker")
	if err != nil {
		t.Fatal(err)
	}

	base, err := backend.New(backend.AnalyticalName, backend.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	baseTimes := make([]float64, len(ps))
	for i, j := range ps {
		bd, err := base.Breakdown(j)
		if err != nil {
			t.Fatal(err)
		}
		baseTimes[i] = bd.Total()
	}
	resources := hw.AllResources()
	if len(got.Series) != len(resources) {
		t.Fatalf("series count %d vs %d", len(got.Series), len(resources))
	}
	const tol = 1e-9
	for i, res := range resources {
		vars := append([]hw.Variation(nil), hw.TableIII()[res]...)
		sort.Slice(vars, func(a, b int) bool { return vars[a].Normalized < vars[b].Normalized })
		gs := got.Series[i]
		if gs.Resource != res || len(gs.Points) != len(vars) {
			t.Fatalf("series %d shape mismatch", i)
		}
		for k, v := range vars {
			cfg, err := base.Spec().Config.Apply(v)
			if err != nil {
				t.Fatal(err)
			}
			b, err := base.Reconfigure(base.Spec().WithConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for j, job := range ps {
				bd, err := b.Breakdown(job)
				if err != nil {
					t.Fatal(err)
				}
				sum += baseTimes[j] / bd.Total()
			}
			want := sum / float64(len(ps))
			gp := gs.Points[k]
			if gp.Normalized != v.Normalized {
				t.Fatalf("series %d point %d grid mismatch", i, k)
			}
			if d := gp.MeanSpeedup - want; d < -tol || d > tol {
				t.Errorf("%v x%.1f: streamed %.12f vs reconfigured %.12f", res, v.Normalized, gp.MeanSpeedup, want)
			}
		}
	}
}
