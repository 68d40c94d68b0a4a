package pai_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	pai "repro"
)

// Example demonstrates the Engine on a single PS/Worker job: the Sec. II-B
// breakdown, the Eq. 2 throughput and the bottleneck.
func Example() {
	eng, err := pai.New(pai.WithConfig(pai.BaselineConfig()))
	if err != nil {
		log.Fatal(err)
	}
	job := pai.Features{
		Name: "reco", Class: pai.PSWorker, CNodes: 16, BatchSize: 512,
		FLOPs: 0.4e12, MemAccessBytes: 12e9, InputBytes: 80e6,
		DenseWeightBytes: 1.5e9, WeightTrafficBytes: 2.2e9,
	}
	bd, err := eng.Evaluate(job)
	if err != nil {
		log.Fatal(err)
	}
	hw, frac, err := eng.Bottleneck(job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step %.3fs, weights %.3fs, bottleneck %s (%.0f%%)\n",
		bd.Total(), bd.Weights, hw, frac*100)
	// Output:
	// step 1.401s, weights 1.320s, bottleneck Ethernet (72%)
}

// ExampleNew mirrors the package comment's typical use: build a configured
// Engine once, then batch-evaluate a whole synthetic trace through its
// worker pool.
func ExampleNew() {
	eng, _ := pai.New(pai.WithConfig(pai.BaselineConfig()))
	trace, _ := pai.GenerateTrace(pai.DefaultTraceParams())
	times, _ := eng.EvaluateBatch(context.Background(), trace.Jobs)
	fmt.Printf("first job: %.3fs\n", times[0].Total())
	// Output:
	// first job: 0.967s
}

// ExampleEngine_Project shows the Fig. 9 projection of a communication-bound
// PS job to AllReduce-Local: the Eq. 3 arithmetic gives exactly 21x on the
// weight-communication time.
func ExampleEngine_Project() {
	eng, err := pai.New()
	if err != nil {
		log.Fatal(err)
	}
	// A purely communication-bound job: node speedup hits the Eq. 3 bound.
	job := pai.Features{
		Name: "comm-bound", Class: pai.PSWorker, CNodes: 64, BatchSize: 32,
		FLOPs: 1e9, MemAccessBytes: 1e6, InputBytes: 1e3,
		DenseWeightBytes: 1e9, WeightTrafficBytes: 100e9,
	}
	r, err := eng.Project(job, pai.ToAllReduceLocal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("weight-time ratio %.1fx, cNodes %d -> %d\n",
		r.OriginalTimes.Weights/r.ProjectedTimes.Weights,
		r.Original.CNodes, r.Projected.CNodes)
	// Output:
	// weight-time ratio 21.0x, cNodes 64 -> 8
}

// ExampleEngine_StreamInto characterizes a small synthetic trace at the
// cNode level, recovering the paper's headline: weight/gradient
// communication dominates.
func ExampleEngine_StreamInto() {
	p := pai.DefaultTraceParams()
	p.NumJobs = 2000
	src, err := pai.NewTraceSource(p)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := pai.New(pai.WithParallelism(4))
	if err != nil {
		log.Fatal(err)
	}
	acc := pai.NewBreakdownAccumulator()
	if _, err := eng.StreamInto(context.Background(), src, acc); err != nil {
		log.Fatal(err)
	}
	overall, err := acc.Overall(pai.CNodeLevel)
	if err != nil {
		log.Fatal(err)
	}
	comm := overall[pai.CompWeights]
	compute := overall[pai.CompComputeFLOPs] + overall[pai.CompComputeMem]
	fmt.Printf("communication dominates: %v\n", comm > compute)
	// Output:
	// communication dominates: true
}

// ExampleCoordinateMicroShards folds a trace over the network: a
// coordinator hands the cells of a 3-cell grid (one generated trace
// partition per cell) to two loopback workers, each worker folds every cell
// it is given into a fresh report sink and emits it, and the coordinator
// merges the cell sinks in cell order. The merged snapshot is byte-identical
// to EvaluateSourcesInto over the same partitions in one process.
func ExampleCoordinateMicroShards() {
	ctx := context.Background()
	eng, err := pai.New()
	if err != nil {
		log.Fatal(err)
	}
	const cells, base = 3, "example run=1"
	partition := func(cell int) (pai.JobSource, error) {
		p := pai.DefaultTraceParams()
		p.Seed = 11 + int64(cell)
		p.NumJobs = 300
		return pai.NewTraceSource(p)
	}
	newSink := func() (pai.Sink, error) { return eng.NewReportSink(pai.ToAllReduceLocal) }

	// The worker side: fold each assigned cell and emit it stamped with
	// the run's provenance and the cell index.
	runner := func(ctx context.Context, a pai.MicroShardAssignment, emit func(cell int, sink pai.Sink, meta string, jobs int) error) error {
		for cell := a.Lo; cell < a.Hi; cell++ {
			src, err := partition(cell)
			if err != nil {
				return err
			}
			sink, err := newSink()
			if err != nil {
				return err
			}
			n, err := eng.StreamInto(ctx, src, sink)
			if err != nil {
				return err
			}
			if err := emit(cell, sink, pai.ShardSnapshotMeta(base, cell), n); err != nil {
				return err
			}
		}
		return nil
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A worker that dials after the last cell is folded finds the
			// run over; the coordinator's result is what counts.
			_ = pai.ServeMicroShardWorker(ctx, ln.Addr().String(), 0, runner)
		}()
	}
	dist, counts, _, err := pai.CoordinateMicroShards(ctx, ln, cells, nil, pai.MicroShardOptions{
		NewSink:       newSink,
		Provenance:    base,
		ExpectWorkers: true,
		CellTimeout:   30 * time.Second,
	})
	wg.Wait()
	if err != nil {
		log.Fatal(err)
	}

	srcs := make([]pai.JobSource, cells)
	for i := range srcs {
		if srcs[i], err = partition(i); err != nil {
			log.Fatal(err)
		}
	}
	local, _, err := eng.EvaluateSourcesInto(ctx, newSink, srcs...)
	if err != nil {
		log.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := pai.WriteSinkSnapshot(&a, dist); err != nil {
		log.Fatal(err)
	}
	if err := pai.WriteSinkSnapshot(&b, local); err != nil {
		log.Fatal(err)
	}
	fmt.Println("jobs per cell:", counts)
	fmt.Println("byte-identical to EvaluateSourcesInto:", bytes.Equal(a.Bytes(), b.Bytes()))
	// Output:
	// jobs per cell: [300 300 300]
	// byte-identical to EvaluateSourcesInto: true
}
