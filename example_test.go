package pai_test

import (
	"context"
	"fmt"
	"log"

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
