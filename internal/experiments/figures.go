package experiments

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/project"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/workload"
)

// Fig5 regenerates the workload constitution (job- and cNode-level shares).
func (s *Suite) Fig5() (Artifact, error) {
	c, err := analyze.Constitute(s.Trace.Jobs)
	if err != nil {
		return Artifact{}, err
	}
	t := &report.Table{Title: "Constitution of workloads",
		Headers: []string{"class", "job share", "cNode share"}}
	for _, class := range classOrder() {
		t.AddRow(class.String(), report.Pct(c.JobShare[class]), report.Pct(c.CNodeShare[class]))
	}
	var buf bytes.Buffer
	if err := t.Render(&buf); err != nil {
		return Artifact{}, err
	}
	fmt.Fprintf(&buf, "total jobs: %d, total cNodes: %d\n", c.TotalJobs, c.TotalCNodes)
	return Artifact{ID: "Fig. 5", Title: "Constitution of workloads (job-level / cNode-level)",
		Text: buf.String()}, nil
}

// Fig6 regenerates the scale CDFs (cNodes and weight sizes).
func (s *Suite) Fig6() (Artifact, error) {
	sc, err := analyze.Scales(s.Trace.Jobs)
	if err != nil {
		return Artifact{}, err
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "## Workload scale distribution")
	fmt.Fprintln(&buf, "(a) cNode count quantiles:")
	for _, class := range classOrder() {
		if class == workload.OneWorkerOneGPU {
			continue // always 1
		}
		if err := report.CDFSeries(&buf, "  "+class.String(), sc.CNodes[class], nil); err != nil {
			return Artifact{}, err
		}
	}
	fmt.Fprintln(&buf, "(b) weight size (bytes) quantiles:")
	for _, class := range classOrder() {
		if err := report.CDFSeries(&buf, "  "+class.String(), sc.Weights[class], nil); err != nil {
			return Artifact{}, err
		}
	}
	// Headline: fraction of models under 10 GB.
	var small, total int
	for _, j := range s.Trace.Jobs {
		if j.TotalWeightBytes() < 10*hw.GB {
			small++
		}
		total++
	}
	fmt.Fprintf(&buf, "models < 10GB: %s (paper: ~90%%)\n", report.Pct(float64(small)/float64(total)))
	return Artifact{ID: "Fig. 6", Title: "Workload scale distribution", Text: buf.String()}, nil
}

// Fig7 regenerates the average execution-time breakdown per class and level.
func (s *Suite) Fig7() (Artifact, error) {
	acc := analyze.NewBreakdownAccumulator()
	if err := s.fold(s.Trace.Jobs, acc); err != nil {
		return Artifact{}, err
	}
	t := &report.Table{Title: "Average execution-time breakdown",
		Headers: []string{"class", "level", "data I/O", "weights", "compute-bound", "memory-bound"}}
	for _, r := range acc.Rows() {
		t.AddRow(r.Class.String(), r.Level.String(),
			report.Pct(r.Share[core.CompDataIO]),
			report.Pct(r.Share[core.CompWeights]),
			report.Pct(r.Share[core.CompComputeFLOPs]),
			report.Pct(r.Share[core.CompComputeMem]))
	}
	var buf bytes.Buffer
	if err := t.Render(&buf); err != nil {
		return Artifact{}, err
	}
	for _, lvl := range []analyze.Level{analyze.JobLevel, analyze.CNodeLevel} {
		overall, err := acc.Overall(lvl)
		if err != nil {
			return Artifact{}, err
		}
		fmt.Fprintf(&buf, "overall %s: weights %s, compute %s, data %s\n",
			lvl,
			report.Pct(overall[core.CompWeights]),
			report.Pct(overall[core.CompComputeFLOPs]+overall[core.CompComputeMem]),
			report.Pct(overall[core.CompDataIO]))
	}
	return Artifact{ID: "Fig. 7", Title: "Average percentage of execution-time components",
		Text: buf.String()}, nil
}

// Fig8 regenerates the breakdown CDFs (hardware view plus per-class views).
func (s *Suite) Fig8() (Artifact, error) {
	hwSink, compSink := analyze.NewHardwareCDFSink(), analyze.NewComponentCDFSink()
	if err := s.fold(s.Trace.Jobs, hwSink, compSink); err != nil {
		return Artifact{}, err
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "## CDFs of execution-time component shares")
	for _, lvl := range []analyze.Level{analyze.JobLevel, analyze.CNodeLevel} {
		hcdf, err := hwSink.Panel(lvl)
		if err != nil {
			return Artifact{}, err
		}
		fmt.Fprintf(&buf, "(a) all workloads by hardware, %s:\n", lvl)
		for _, h := range core.HardwareComponents() {
			if err := report.CDFSeries(&buf, "  "+h.String(), hcdf.CDF[h], nil); err != nil {
				return Artifact{}, err
			}
		}
	}
	for _, class := range classOrder() {
		cdfs, err := compSink.Panel(class, analyze.JobLevel)
		if err != nil {
			return Artifact{}, err
		}
		fmt.Fprintf(&buf, "%s (job-level):\n", class)
		for _, c := range core.Components() {
			if err := report.CDFSeries(&buf, "  "+c.String(), cdfs.CDF[c], nil); err != nil {
				return Artifact{}, err
			}
		}
	}
	// Headline: fraction of PS jobs spending > 80% in communication.
	psComm, err := compSink.CDF(workload.PSWorker, analyze.JobLevel, core.CompWeights)
	if err != nil {
		return Artifact{}, err
	}
	frac := 1 - psComm.P(0.8)
	fmt.Fprintf(&buf, "PS/Worker jobs > 80%% comm: %s (paper: > 40%%)\n", report.Pct(frac))
	return Artifact{ID: "Fig. 8", Title: "CDF of execution-time components", Text: buf.String()}, nil
}

// Fig9 regenerates the AllReduce projection speedups.
func (s *Suite) Fig9() (Artifact, error) {
	pr, err := project.NewFromBackend(s.Backend)
	if err != nil {
		return Artifact{}, err
	}
	ps := analyze.Filter(s.Trace.Jobs, workload.PSWorker)
	local, err := pr.ProjectBatch(context.Background(), ps, project.ToAllReduceLocal, s.Parallelism)
	if err != nil {
		return Artifact{}, err
	}
	cluster, err := pr.ProjectBatch(context.Background(), ps, project.ToAllReduceCluster, s.Parallelism)
	if err != nil {
		return Artifact{}, err
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "## Improvement by mapping PS/Worker workloads to AllReduce")

	nodeSp := make([]float64, len(local))
	tpSp := make([]float64, len(local))
	for i, r := range local {
		nodeSp[i] = r.NodeSpeedup
		tpSp[i] = r.ThroughputSpeedup
	}
	nodeCDF, err := stats.NewCDF(nodeSp)
	if err != nil {
		return Artifact{}, err
	}
	tpCDF, err := stats.NewCDF(tpSp)
	if err != nil {
		return Artifact{}, err
	}
	fmt.Fprintln(&buf, "(a) AllReduce-Local:")
	if err := report.CDFSeries(&buf, "  single-cNode speedup", nodeCDF, nil); err != nil {
		return Artifact{}, err
	}
	if err := report.CDFSeries(&buf, "  throughput speedup", tpCDF, nil); err != nil {
		return Artifact{}, err
	}
	sum, err := project.Summarize(local)
	if err != nil {
		return Artifact{}, err
	}
	fmt.Fprintf(&buf, "  node speedup <= 1: %s (paper: 22.6%%)\n", report.Pct(sum.FracNodeNotSped))
	fmt.Fprintf(&buf, "  throughput speedup <= 1: %s (paper: 40.2%%; i.e. ~60%% improve)\n",
		report.Pct(sum.FracThroughputNotSped))

	var arcSp []float64
	var arcWin, rescued, losers int
	var maxSp float64
	for i, r := range cluster {
		arcSp = append(arcSp, r.ThroughputSpeedup)
		if r.ThroughputSpeedup > 1 {
			arcWin++
		}
		if r.ThroughputSpeedup > maxSp {
			maxSp = r.ThroughputSpeedup
		}
		if local[i].ThroughputSpeedup <= 1 {
			losers++
			if r.ThroughputSpeedup > 1 {
				rescued++
			}
		}
	}
	arcCDF, err := stats.NewCDF(arcSp)
	if err != nil {
		return Artifact{}, err
	}
	fmt.Fprintln(&buf, "(b) AllReduce-Cluster:")
	if err := report.CDFSeries(&buf, "  all-workload speedup", arcCDF, nil); err != nil {
		return Artifact{}, err
	}
	fmt.Fprintf(&buf, "  sped up: %s (paper: 67.9%%), max speedup %.3f (bound ~1.24)\n",
		report.Pct(float64(arcWin)/float64(len(cluster))), maxSp)
	if losers > 0 {
		fmt.Fprintf(&buf, "  AllReduce-Local losers rescued: %s (paper: 37.8%%)\n",
			report.Pct(float64(rescued)/float64(losers)))
	}
	return Artifact{ID: "Fig. 9", Title: "Improvement by mapping workloads to AllReduce",
		Text: buf.String()}, nil
}

// Fig10 regenerates the post-projection breakdown of PS jobs on
// AllReduce-Local.
func (s *Suite) Fig10() (Artifact, error) {
	projected, err := analyze.ProjectedFeatures(s.Trace.Jobs, s.Config.GPUsPerServer)
	if err != nil {
		return Artifact{}, err
	}
	before := analyze.NewBreakdownAccumulator()
	if err := s.fold(analyze.Filter(s.Trace.Jobs, workload.PSWorker), before); err != nil {
		return Artifact{}, err
	}
	after, cdfs := analyze.NewBreakdownAccumulator(), analyze.NewComponentCDFSink()
	if err := s.fold(projected, after, cdfs); err != nil {
		return Artifact{}, err
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "## PS/Worker workloads after mapping to AllReduce-Local")
	panel, err := cdfs.Panel(workload.AllReduceLocal, analyze.JobLevel)
	if err != nil {
		return Artifact{}, err
	}
	for _, c := range core.Components() {
		if err := report.CDFSeries(&buf, "  "+c.String(), panel.CDF[c], nil); err != nil {
			return Artifact{}, err
		}
	}
	avgBefore, err := before.Overall(analyze.JobLevel)
	if err != nil {
		return Artifact{}, err
	}
	avgAfter, err := after.Overall(analyze.JobLevel)
	if err != nil {
		return Artifact{}, err
	}
	t := &report.Table{Title: "Average breakdown before/after projection",
		Headers: []string{"component", "PS/Worker", "AllReduce-Local"}}
	for _, c := range core.Components() {
		t.AddRow(c.String(), report.Pct(avgBefore[c]), report.Pct(avgAfter[c]))
	}
	if err := t.Render(&buf); err != nil {
		return Artifact{}, err
	}
	return Artifact{ID: "Fig. 10", Title: "Breakdown after mapping to AllReduce-Local",
		Text: buf.String()}, nil
}

// Fig11 regenerates the hardware-evolution sweeps (four panels): the three
// class panels fold in one pass over the trace, the projected panel in a
// second pass over the PS jobs mapped to AllReduce-Local.
func (s *Suite) Fig11() (Artifact, error) {
	labels := []string{"1w1g", "1wng", "PS/Worker", "AllReduce-Local (projected)"}
	classes := []workload.Class{workload.OneWorkerOneGPU, workload.OneWorkerNGPU,
		workload.PSWorker, workload.AllReduceLocal}
	sinks := make([]*analyze.SweepSink, len(classes))
	for i, class := range classes {
		sink, err := analyze.NewSweepSink(s.Backend, class)
		if err != nil {
			return Artifact{}, err
		}
		sinks[i] = sink
	}
	if err := s.fold(s.Trace.Jobs, sinks[0], sinks[1], sinks[2]); err != nil {
		return Artifact{}, err
	}
	projected, err := analyze.ProjectedFeatures(s.Trace.Jobs, s.Config.GPUsPerServer)
	if err != nil {
		return Artifact{}, err
	}
	if err := s.fold(projected, sinks[3]); err != nil {
		return Artifact{}, err
	}

	var buf bytes.Buffer
	fmt.Fprintln(&buf, "## Speedup with different hardware configurations")
	for i, sink := range sinks {
		panel, err := sink.Panel(labels[i])
		if err != nil {
			return Artifact{}, err
		}
		fmt.Fprintf(&buf, "(%s)\n", labels[i])
		for _, series := range panel.Series {
			fmt.Fprintf(&buf, "  %-10s:", series.Resource)
			for _, pt := range series.Points {
				fmt.Fprintf(&buf, " x%.1f->%.3f", pt.Normalized, pt.MeanSpeedup)
			}
			fmt.Fprintln(&buf)
		}
		res, gain, err := panel.MostSensitiveResource()
		if err != nil {
			return Artifact{}, err
		}
		fmt.Fprintf(&buf, "  most sensitive: %s (max mean speedup %.3f)\n", res, gain)
	}
	return Artifact{ID: "Fig. 11", Title: "Speedup with different hardware configurations",
		Text: buf.String()}, nil
}

// fold streams jobs through the suite's backend into every given sink in
// one pass.
func (s *Suite) fold(jobs []workload.Features, sinks ...analyze.Sink) error {
	src := stream.Blocks(stream.NewSliceSource(jobs))
	_, err := analyze.FoldInto(context.Background(), s.Backend, s.Parallelism, src, analyze.NewMultiSink(sinks...))
	return err
}
