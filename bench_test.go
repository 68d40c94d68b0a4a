// Benchmark harness: one benchmark per table and figure of the paper, plus
// ablation benches for the design choices DESIGN.md §5 calls out. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates its artifact from the calibrated synthetic
// trace through the same code path cmd/repro uses, and reports the artifact
// text once via b.Log at verbosity.
package pai_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	pai "repro"
	"repro/internal/arch"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/project"
	"repro/internal/train"
	"repro/internal/workload"
)

// benchSuite is shared across benchmarks; generating the trace is itself
// benchmarked separately.
var (
	benchOnce  sync.Once
	benchSuite *pai.ExperimentSuite
	benchErr   error
)

func suite(b *testing.B) *pai.ExperimentSuite {
	b.Helper()
	benchOnce.Do(func() {
		benchSuite, benchErr = pai.NewExperimentSuite(4000)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

func benchArtifact(b *testing.B, id string) {
	s := suite(b)
	b.ResetTimer()
	var text string
	for i := 0; i < b.N; i++ {
		a, err := s.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		text = a.Text
	}
	if testing.Verbose() {
		b.Log("\n" + text)
	}
}

func BenchmarkTableI_Baseline(b *testing.B)      { benchArtifact(b, "Table I") }
func BenchmarkTableII_Classes(b *testing.B)      { benchArtifact(b, "Table II") }
func BenchmarkTableIII_Grid(b *testing.B)        { benchArtifact(b, "Table III") }
func BenchmarkTableIV_ModelZoo(b *testing.B)     { benchArtifact(b, "Table IV") }
func BenchmarkTableV_Features(b *testing.B)      { benchArtifact(b, "Table V") }
func BenchmarkTableVI_Efficiency(b *testing.B)   { benchArtifact(b, "Table VI") }
func BenchmarkFig5_Constitution(b *testing.B)    { benchArtifact(b, "Fig. 5") }
func BenchmarkFig6_ScaleCDF(b *testing.B)        { benchArtifact(b, "Fig. 6") }
func BenchmarkFig7_Breakdown(b *testing.B)       { benchArtifact(b, "Fig. 7") }
func BenchmarkFig8_BreakdownCDF(b *testing.B)    { benchArtifact(b, "Fig. 8") }
func BenchmarkFig9_Projection(b *testing.B)      { benchArtifact(b, "Fig. 9") }
func BenchmarkFig10_PostProjection(b *testing.B) { benchArtifact(b, "Fig. 10") }
func BenchmarkFig11_HardwareSweep(b *testing.B)  { benchArtifact(b, "Fig. 11") }
func BenchmarkFig12_Validation(b *testing.B)     { benchArtifact(b, "Fig. 12") }
func BenchmarkFig13_Optimizations(b *testing.B)  { benchArtifact(b, "Fig. 13") }
func BenchmarkFig14_PEARL(b *testing.B)          { benchArtifact(b, "Fig. 14") }
func BenchmarkFig15_Sensitivity(b *testing.B)    { benchArtifact(b, "Fig. 15") }
func BenchmarkFig16_Overlap(b *testing.B)        { benchArtifact(b, "Fig. 16") }

// Extension experiments (EXT-1..4, see DESIGN.md and EXPERIMENTS.md).
func benchExtension(b *testing.B, run func(s *pai.ExperimentSuite) (pai.Artifact, error)) {
	s := suite(b)
	b.ResetTimer()
	var text string
	for i := 0; i < b.N; i++ {
		a, err := run(s)
		if err != nil {
			b.Fatal(err)
		}
		text = a.Text
	}
	if testing.Verbose() {
		b.Log("\n" + text)
	}
}

func BenchmarkExt1_ResourceSavings(b *testing.B) {
	benchExtension(b, (*pai.ExperimentSuite).Ext1ResourceSavings)
}
func BenchmarkExt2_OverlapSweep(b *testing.B) {
	benchExtension(b, (*pai.ExperimentSuite).Ext2OverlapSweep)
}
func BenchmarkExt3_MemoryEligibility(b *testing.B) {
	benchExtension(b, (*pai.ExperimentSuite).Ext3MemoryEligibility)
}
func BenchmarkExt4_StragglerStudy(b *testing.B) {
	benchExtension(b, (*pai.ExperimentSuite).Ext4StragglerStudy)
}
func BenchmarkExt5_MechanisticOverlap(b *testing.B) {
	benchExtension(b, (*pai.ExperimentSuite).Ext5MechanisticOverlap)
}
func BenchmarkExt6_ClusterReplay(b *testing.B) {
	benchExtension(b, (*pai.ExperimentSuite).Ext6ClusterReplay)
}

// BenchmarkTraceGeneration measures synthesizing the calibrated trace.
func BenchmarkTraceGeneration(b *testing.B) {
	p := pai.DefaultTraceParams()
	p.NumJobs = 4000
	for i := 0; i < b.N; i++ {
		if _, err := pai.GenerateTrace(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineEvaluateBatch measures batch evaluation of the calibrated
// trace through the Engine's worker pool at 1, 4 and NumCPU workers — the
// serial-vs-parallel baseline for the batch path.
func BenchmarkEngineEvaluateBatch(b *testing.B) {
	p := pai.DefaultTraceParams()
	p.NumJobs = 4000
	trace, err := pai.GenerateTrace(p)
	if err != nil {
		b.Fatal(err)
	}
	workers := []int{1, 4, runtime.NumCPU()}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng, err := pai.New(pai.WithParallelism(w))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				times, err := eng.EvaluateBatch(ctx, trace.Jobs)
				if err != nil {
					b.Fatal(err)
				}
				if len(times) != len(trace.Jobs) {
					b.Fatal("short batch")
				}
			}
			b.ReportMetric(float64(len(trace.Jobs)), "jobs/op")
		})
	}
}

// BenchmarkEngineEvaluateStream measures the bounded-memory streaming
// pipeline end to end: synthetic-trace generation, sharded evaluation and
// the aggregate fold, with and without the NDJSON codec round-trip. Run with
// -benchmem: allocations are O(1) per job and the live heap O(workers),
// which is what the paibench CI gate holds the pipeline to.
func BenchmarkEngineEvaluateStream(b *testing.B) {
	const jobs = 4000
	p := pai.DefaultTraceParams()
	p.NumJobs = jobs
	eng, err := pai.New()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			src, err := pai.NewTraceSource(p)
			if err != nil {
				b.Fatal(err)
			}
			acc := pai.NewBreakdownAccumulator()
			if _, err := eng.StreamInto(ctx, src, acc); err != nil {
				b.Fatal(err)
			}
			if acc.N() != jobs {
				b.Fatal("short stream")
			}
		}
		b.ReportMetric(jobs, "jobs/op")
	})

	b.Run("ndjson", func(b *testing.B) {
		var buf bytes.Buffer
		tr, err := pai.GenerateTrace(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.WriteNDJSON(&buf); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		b.SetBytes(int64(len(raw)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src, err := pai.OpenTraceSource(bytes.NewReader(raw), "ndjson")
			if err != nil {
				b.Fatal(err)
			}
			n, err := eng.EvaluateSource(ctx, src, nil)
			if err != nil {
				b.Fatal(err)
			}
			if n != jobs {
				b.Fatal("short stream")
			}
		}
		b.ReportMetric(jobs, "jobs/op")
	})
}

// inPlace forwards a sink but carries no fold-memo key, so every block
// folds into it record by record.
type inPlace struct{ pai.Sink }

func (s inPlace) AddColumns(c *pai.Columns, ts []pai.Times) error {
	return s.Sink.(pai.ColumnSink).AddColumns(c, ts)
}

func (s inPlace) Merge(o pai.Sink) error { return s.Sink.Merge(o.(inPlace).Sink) }

// BenchmarkFoldMemo measures the fold memo on the report workload's shape:
// a trace of 3,072 distinct jobs resubmitted in 4,096-record colbin blocks
// (so three distinct blocks, each seen four times per pass) folded through
// a warm cached engine into NewReportSink. "hit" merges each block's
// memoized partials, and its frames hit the cache by key, so no block is
// decoded; "stamped" is "hit" over the same trace with every submission
// stamped with its own arrival time, so no block repeats byte for byte and
// the resubmitted ones repeat all but their ArrivalSec column;
// "hit-decode" adds one member without a memo key, so every hit still
// decodes its block for that member, and runs two workers, where decoding
// the hits on them rather than on the consumer shows; "miss" wraps the
// report sink's members so the memo does not apply and every block folds
// record by record, as without it. Each case warms its own cached engine
// and reports its frame hits per pass.
func BenchmarkFoldMemo(b *testing.B) {
	const records = 12 * 4096
	encode := func(arrivalRate float64) []byte {
		p := pai.DefaultTraceParams()
		p.NumJobs = records
		p.DistinctJobs = 3072
		p.ArrivalRate = arrivalRate
		tr, err := pai.GenerateTrace(p)
		if err != nil {
			b.Fatal(err)
		}
		var cb bytes.Buffer
		w := pai.NewColumnWriterBlockRecords(&cb, 4096)
		for _, f := range tr.Jobs {
			if err := w.Write(f); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		return cb.Bytes()
	}
	plain, stamped := encode(0), encode(3600)
	ctx := context.Background()
	for _, c := range []struct {
		name  string
		cb    []byte
		par   int
		wrap  bool
		extra bool
	}{
		{"miss", plain, 1, true, false},
		{"hit", plain, 1, false, false},
		{"stamped", stamped, 1, false, false},
		{"hit-decode", plain, 2, false, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			eng, err := pai.New(pai.WithParallelism(c.par), pai.WithCache(1<<16))
			if err != nil {
				b.Fatal(err)
			}
			pass := func() {
				ms, err := eng.NewReportSink(pai.ToAllReduceLocal)
				if err != nil {
					b.Fatal(err)
				}
				var s pai.Sink = ms
				members := ms.Sinks()
				if c.wrap {
					wrapped := make([]pai.Sink, len(members))
					for i, m := range members {
						wrapped[i] = inPlace{m}
					}
					s = pai.NewMultiSink(wrapped...)
				}
				if c.extra {
					s = pai.NewMultiSink(append(members[:len(members):len(members)], inPlace{pai.NewBreakdownAccumulator()})...)
				}
				n, err := eng.StreamColumnsInto(ctx, pai.NewColumnReader(bytes.NewReader(c.cb)), s)
				if err != nil || n != records {
					b.Fatalf("folded %d of %d records: %v", n, records, err)
				}
			}
			// Warm the cache: blocks memoize on their second sighting and
			// build their partials on the first hit.
			pass()
			pass()
			frames := eng.CacheStats().FrameHits
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
			b.ReportMetric(float64(eng.CacheStats().FrameHits-frames)/float64(b.N), "frame-hits/pass")
		})
	}
}

// BenchmarkSnapshotRebuild measures the three stages of a report rebuild
// one at a time: encode (the framed snapshot WriteSinkSnapshot writes),
// decode (ReadSinkSnapshot) and merge (the decoded sink into a fresh one).
// "report" is the full report sink over 20,000 distinct jobs; "replay" is
// the fleet sinks (admission counters, queue-delay sketches, occupancy
// timeline) of a congested 3,000-job replay. Each reports its snapshot
// size as snapshot-B.
func BenchmarkSnapshotRebuild(b *testing.B) {
	eng, err := pai.New(pai.WithParallelism(2))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	p := pai.DefaultTraceParams()
	p.NumJobs = 20000
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		b.Fatal(err)
	}
	newReport := func() (pai.Sink, error) { return eng.NewReportSink(pai.ToAllReduceLocal) }
	report, err := newReport()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.StreamInto(ctx, pai.NewSliceJobSource(tr.Jobs), report); err != nil {
		b.Fatal(err)
	}

	const servers = 16
	newFleet := func() (pai.Sink, error) {
		util, err := pai.NewUtilizationSink(60, servers*pai.BaselineConfig().GPUsPerServer)
		if err != nil {
			return nil, err
		}
		return pai.NewMultiSink(pai.NewReplayCounterSink(), pai.NewQueueDelaySink(), util), nil
	}
	p = pai.DefaultTraceParams()
	p.Seed = 7
	p.NumJobs = 3000
	p.ArrivalRate = 900
	if tr, err = pai.GenerateTrace(p); err != nil {
		b.Fatal(err)
	}
	fleet, err := newFleet()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.ReplayInto(ctx, pai.NewSliceJobSource(tr.Jobs), fleet, pai.WithReplayServers(servers)); err != nil {
		b.Fatal(err)
	}

	for _, c := range []struct {
		name    string
		live    pai.Sink
		factory func() (pai.Sink, error)
	}{{"report", report, newReport}, {"replay", fleet, newFleet}} {
		var frame bytes.Buffer
		if err := pai.WriteSinkSnapshot(&frame, c.live); err != nil {
			b.Fatal(err)
		}
		decoded, err := pai.ReadSinkSnapshot(bytes.NewReader(frame.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		size := float64(frame.Len())
		b.Run(c.name+"/encode", func(b *testing.B) {
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := pai.WriteSinkSnapshot(&buf, c.live); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(size, "snapshot-B")
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pai.ReadSinkSnapshot(bytes.NewReader(frame.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(size, "snapshot-B")
		})
		b.Run(c.name+"/merge", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh, err := c.factory()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := fresh.Merge(decoded); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(size, "snapshot-B")
		})
	}
}

// BenchmarkAnalyticalBreakdown measures a single model evaluation — the
// primitive every cluster-scale analysis runs per job.
func BenchmarkAnalyticalBreakdown(b *testing.B) {
	eng, err := pai.New(pai.WithConfig(pai.BaselineConfig()))
	if err != nil {
		b.Fatal(err)
	}
	cs, err := pai.LookupCaseStudy("Multi-Interests")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Evaluate(cs.Features); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationRingVsNaiveAllReduce compares the ring traffic factor
// 2(n-1)/n against naive 2x volume in projection outcomes.
func BenchmarkAblationRingVsNaiveAllReduce(b *testing.B) {
	base, err := core.New(hw.Baseline())
	if err != nil {
		b.Fatal(err)
	}
	job := workload.Features{
		Name: "ablate", Class: workload.AllReduceLocal, CNodes: 8, BatchSize: 64,
		FLOPs: 1e12, MemAccessBytes: 10e9, InputBytes: 1e7,
		DenseWeightBytes: 2e9,
	}
	for _, cfg := range []struct {
		name string
		ring bool
	}{{"ring", true}, {"naive", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			m := *base
			m.Arch = arch.Options{RingAllReduce: cfg.ring, SparseAccessFraction: 0.01}
			var total float64
			for i := 0; i < b.N; i++ {
				t, err := m.StepTime(job)
				if err != nil {
					b.Fatal(err)
				}
				total += t
			}
			b.ReportMetric(total/float64(b.N), "step-seconds")
		})
	}
}

// BenchmarkAblationCNodeCap varies the AllReduce-Local cNode cap (the
// paper fixes it at 8 = GPUs per server).
func BenchmarkAblationCNodeCap(b *testing.B) {
	for _, cap := range []int{2, 4, 8} {
		b.Run(map[int]string{2: "cap2", 4: "cap4", 8: "cap8"}[cap], func(b *testing.B) {
			cfg := hw.Baseline()
			cfg.GPUsPerServer = cap
			m, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			pr, err := project.New(m)
			if err != nil {
				b.Fatal(err)
			}
			job := workload.Features{
				Name: "ps", Class: workload.PSWorker, CNodes: 64, BatchSize: 64,
				FLOPs: 1e12, MemAccessBytes: 10e9, InputBytes: 1e7,
				DenseWeightBytes: 1e9, WeightTrafficBytes: 5e9,
			}
			var sp float64
			for i := 0; i < b.N; i++ {
				r, err := pr.Project(job, project.ToAllReduceLocal)
				if err != nil {
					b.Fatal(err)
				}
				sp = r.ThroughputSpeedup
			}
			b.ReportMetric(sp, "throughput-speedup")
		})
	}
}

// BenchmarkAblationOverlapModel compares the non-overlap sum against the
// ideal-overlap max as the step-time combiner.
func BenchmarkAblationOverlapModel(b *testing.B) {
	job := workload.Features{
		Name: "ps", Class: workload.PSWorker, CNodes: 16, BatchSize: 64,
		FLOPs: 1e12, MemAccessBytes: 10e9, InputBytes: 1e7,
		DenseWeightBytes: 1e9, WeightTrafficBytes: 2e9,
	}
	for _, mode := range []core.OverlapMode{core.OverlapNone, core.OverlapIdeal} {
		b.Run(mode.String(), func(b *testing.B) {
			m, err := core.New(hw.Baseline())
			if err != nil {
				b.Fatal(err)
			}
			m.Overlap = mode
			var total float64
			for i := 0; i < b.N; i++ {
				t, err := m.StepTime(job)
				if err != nil {
					b.Fatal(err)
				}
				total += t
			}
			b.ReportMetric(total/float64(b.N), "step-seconds")
		})
	}
}

// BenchmarkAblationPEARLSparsity sweeps the embedding-access fraction that
// drives PEARL's derived traffic volume.
func BenchmarkAblationPEARLSparsity(b *testing.B) {
	job := workload.Features{
		Name: "pearl", Class: workload.PEARL, CNodes: 8, BatchSize: 512,
		FLOPs: 330e9, MemAccessBytes: 25e9, InputBytes: 1.2e6,
		DenseWeightBytes: 207e6, EmbeddingWeightBytes: 54e9,
	}
	for _, frac := range []float64{0.001, 0.01, 0.1} {
		name := map[float64]string{0.001: "f0.001", 0.01: "f0.01", 0.1: "f0.1"}[frac]
		b.Run(name, func(b *testing.B) {
			m, err := core.New(hw.Testbed())
			if err != nil {
				b.Fatal(err)
			}
			m.Arch = arch.Options{RingAllReduce: true, SparseAccessFraction: frac}
			var total float64
			for i := 0; i < b.N; i++ {
				t, err := m.StepTime(job)
				if err != nil {
					b.Fatal(err)
				}
				total += t
			}
			b.ReportMetric(total/float64(b.N), "step-seconds")
		})
	}
}

// BenchmarkCollectiveAllReduce measures the executable ring AllReduce across
// goroutine workers (the substrate behind PEARL).
func BenchmarkCollectiveAllReduce(b *testing.B) {
	const workers, size = 4, 1 << 14
	bufs := make([][]float32, workers)
	for w := range bufs {
		bufs[w] = make([]float32, size)
	}
	b.SetBytes(int64(4 * size * workers))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := collective.NewGroup(workers)
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = g.AllReduce(w, bufs[w])
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPEARLTrainingStep measures one full PEARL training step end to
// end (id exchange, row gather, backward, gradient sync).
func BenchmarkPEARLTrainingStep(b *testing.B) {
	const vocab, dim, workers = 5000, 16, 4
	m0, err := train.NewModel(vocab, dim, 3)
	if err != nil {
		b.Fatal(err)
	}
	batches, err := train.SynthesizeBatches(vocab, 8, 128, 1, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := train.RunPEARL(m0, batches, workers, train.SGD{LR: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}
