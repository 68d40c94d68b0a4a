// Clustersweep: cluster-level characterization of a synthetic PAI trace —
// the Sec. III pipeline end to end. Streams a calibrated trace once through
// the report sinks plus a PS/Worker sweep sink, then reports the
// constitution and breakdown headlines, the PS -> AllReduce projection, and
// the Table III hardware sweep.
package main

import (
	"context"
	"fmt"
	"log"

	pai "repro"
)

func main() {
	p := pai.DefaultTraceParams()
	p.NumJobs = 8000
	src, err := pai.NewTraceSource(p)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := pai.New(pai.WithConfig(pai.BaselineConfig()))
	if err != nil {
		log.Fatal(err)
	}
	report, err := eng.NewReportSink(pai.ToAllReduceLocal)
	if err != nil {
		log.Fatal(err)
	}
	sweep, err := eng.NewSweepSink(pai.PSWorker)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.StreamInto(context.Background(), src, pai.NewMultiSink(report, sweep)); err != nil {
		log.Fatal(err)
	}
	var (
		acc  *pai.BreakdownAccumulator
		proj *pai.ProjectionSink
	)
	for _, s := range report.Sinks() {
		switch s := s.(type) {
		case *pai.BreakdownAccumulator:
			acc = s
		case *pai.ProjectionSink:
			proj = s
		}
	}

	c, err := acc.Constitution()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d jobs, %d cNodes\n", c.TotalJobs, c.TotalCNodes)
	for _, class := range []pai.Class{pai.OneWorkerOneGPU, pai.OneWorkerNGPU, pai.PSWorker} {
		fmt.Printf("  %-10s %5.1f%% of jobs, %5.1f%% of cNodes\n",
			class, 100*c.JobShare[class], 100*c.CNodeShare[class])
	}

	for _, lvl := range []pai.Level{pai.JobLevel, pai.CNodeLevel} {
		overall, err := acc.Overall(lvl)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s breakdown: weights %.1f%%, compute %.1f%%, data I/O %.1f%%\n",
			lvl,
			100*overall[pai.CompWeights],
			100*(overall[pai.CompComputeFLOPs]+overall[pai.CompComputeMem]),
			100*overall[pai.CompDataIO])
	}

	// Projection study.
	sum, err := proj.Summary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PS -> AllReduce-Local: %.1f%% of %d jobs gain throughput (paper: ~60%%)\n",
		100*(1-sum.FracThroughputNotSped), sum.N)

	// Hardware sweep: what does upgrading each resource buy PS jobs?
	panel, err := sweep.Panel("PS/Worker")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("hardware sweep (mean speedup at largest Table III candidate):")
	for _, s := range panel.Series {
		last := s.Points[len(s.Points)-1]
		fmt.Printf("  %-10s x%.1f -> %.2fx\n", s.Resource, last.Normalized, last.MeanSpeedup)
	}
	res, gain, err := panel.MostSensitiveResource()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PS jobs are most sensitive to %s (%.2fx; paper: Ethernet, ~1.7x at 100 Gbps)\n", res, gain)
}
