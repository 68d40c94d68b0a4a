// Command paichar characterizes a cluster trace the way the paper's
// framework does: workload constitution, execution-time breakdowns at job
// and cNode level, component/hardware CDFs, the PS->AllReduce projection
// study, and the hardware sweep for a chosen class.
//
// Usage:
//
//	paichar [-trace FILE]... [-format auto|json|ndjson|colbin] [-jobs N] [-class PS/Worker]
//
// Without -trace a calibrated synthetic trace of -jobs jobs is streamed
// from the generator. A trace file's codec is sniffed from its leading
// bytes (or forced with -format): record-stream codecs (ndjson, colbin) are
// streamed through the bounded pipeline, so they can hold millions of jobs,
// and a whole-document JSON trace is read into memory first. Every input
// takes the same path: the whole characterization — breakdown aggregates,
// CDF sketches, the projection summary, and the hardware sweep for -class —
// folds through one MultiSink in a single pass (CDFs are quantile sketches:
// exact at the q=0/1 boundaries, interior error under one bin, < 0.2%
// absolute for fractions), so one trace renders the same report whatever
// its encoding.
//
// -trace may repeat: multiple record-stream traces are drained concurrently
// as shards, each by its own worker set into its own sink, and folded with
// the exact merge into one characterization (Engine.EvaluateSourcesInto).
// -cache N puts a content-keyed result cache in front of the backend
// (-cache-bytes N for an adaptive byte budget instead), which pays off on
// production-shaped traces where the same jobs recur. The cache covers the
// base evaluation only: the sweep section re-evaluates each swept job under
// every Table III grid point through reconfigured backends (concurrently,
// inside the sink), which the engine cache does not front.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	pai "repro"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/version"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paichar:", err)
		os.Exit(1)
	}
}

// traceList collects repeated -trace flags.
type traceList []string

func (t *traceList) String() string { return strings.Join(*t, ",") }
func (t *traceList) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("paichar", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var traces traceList
	fs.Var(&traces, "trace", "trace file (codec sniffed, or forced with -format); repeat for sharded multi-trace evaluation (record-stream codecs only)")
	format := fs.String("format", pai.TraceFormatAuto,
		fmt.Sprintf("trace codec for -trace files, one of %v (auto = sniff each file's leading bytes)", pai.TraceFormats()))
	jobs := fs.Int("jobs", 5000, "synthetic trace size when no -trace given")
	sweepClass := fs.String("class", "PS/Worker", "class for the hardware sweep panel")
	backendName := fs.String("backend", "analytical",
		"evaluation backend ("+strings.Join(pai.Backends(), ", ")+")")
	par := fs.Int("par", 0, "evaluation worker-pool size (0 = GOMAXPROCS)")
	cacheEntries := fs.Int("cache", 0, "content-keyed result-cache entry budget (0 = off)")
	cacheBytes := fs.Int64("cache-bytes", 0, "content-keyed result-cache byte budget; adapts to the measured entry footprint (overrides -cache; 0 = off)")
	showVersion := fs.Bool("version", false, "print build/version information and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.Get())
		return nil
	}

	target, err := resolveClass(*sweepClass)
	if err != nil {
		return err
	}
	engOpts := engineOptions(*backendName, *par, *cacheEntries, *cacheBytes)

	// Resolve each trace file's codec — by sniffing its leading bytes
	// unless -format forces one. Record-stream codecs are streamed; a
	// whole-document JSON trace is read into memory and cannot shard, since
	// it is not a record stream.
	srcs := make([]pai.JobSource, len(traces))
	for i, path := range traces {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		name, r := *format, io.Reader(f)
		if name == pai.TraceFormatAuto || name == "" {
			if name, r, err = pai.SniffTraceFormat(f); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
		}
		if name == "json" {
			if len(traces) > 1 {
				return fmt.Errorf("multi-trace mode streams record codecs only; %s is whole-document JSON (convert it with tracegen -convert)", path)
			}
			trace, err := pai.ReadTrace(r)
			if err != nil {
				return err
			}
			srcs[i] = pai.NewSliceJobSource(trace.Jobs)
			continue
		}
		if srcs[i], err = pai.OpenTraceSource(r, name); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if len(traces) == 0 {
		p := pai.DefaultTraceParams()
		p.NumJobs = *jobs
		src, err := pai.NewTraceSource(p)
		if err != nil {
			return err
		}
		srcs = []pai.JobSource{src}
	}
	return characterize(srcs, traces, engOpts, target, stdout)
}

// resolveClass maps a class flag value to the workload class.
func resolveClass(name string) (pai.Class, error) {
	for _, class := range workload.AllClasses() {
		if class.String() == name {
			return class, nil
		}
	}
	return 0, fmt.Errorf("unknown class %q", name)
}

// engineOptions assembles the engine configuration from the flags.
func engineOptions(backendName string, par, cacheEntries int, cacheBytes int64) []pai.Option {
	opts := []pai.Option{
		pai.WithConfig(pai.BaselineConfig()),
		pai.WithBackend(backendName),
	}
	if par > 0 {
		opts = append(opts, pai.WithParallelism(par))
	}
	switch {
	case cacheBytes > 0:
		opts = append(opts, pai.WithCacheBytes(cacheBytes))
	case cacheEntries > 0:
		opts = append(opts, pai.WithCache(cacheEntries))
	}
	return opts
}

// renderSweep prints the Fig. 11 panel.
func renderSweep(stdout io.Writer, target pai.Class, panel pai.SweepPanel) error {
	fmt.Fprintf(stdout, "Hardware sweep for %s:\n", target)
	for _, s := range panel.Series {
		fmt.Fprintf(stdout, "  %-10s:", s.Resource)
		for _, pt := range s.Points {
			fmt.Fprintf(stdout, " x%.1f->%.3f", pt.Normalized, pt.MeanSpeedup)
		}
		fmt.Fprintln(stdout)
	}
	res, gain, err := panel.MostSensitiveResource()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "  most sensitive resource: %s (max mean speedup %.3f)\n", res, gain)
	return err
}

// renderConstitution prints the Fig. 5 composition table.
func renderConstitution(stdout io.Writer, title string, c pai.Constitution) error {
	t := &report.Table{Title: title,
		Headers: []string{"class", "jobs", "job share", "cNode share"}}
	for _, class := range []pai.Class{pai.OneWorkerOneGPU, pai.OneWorkerNGPU, pai.PSWorker} {
		t.AddRow(class.String(), fmt.Sprintf("%d", c.Jobs[class]),
			report.Pct(c.JobShare[class]), report.Pct(c.CNodeShare[class]))
	}
	return t.Render(stdout)
}

// renderBreakdowns prints the Fig. 7 averages table and the Sec. III-D
// cNode-level overall line.
func renderBreakdowns(stdout io.Writer, rows []pai.BreakdownRow, overall map[pai.Component]float64) error {
	bt := &report.Table{Title: "Execution-time breakdown (averages)",
		Headers: []string{"class", "level", "data I/O", "weights", "compute-bound", "memory-bound"}}
	for _, r := range rows {
		bt.AddRow(r.Class.String(), r.Level.String(),
			report.Pct(r.Share[core.CompDataIO]),
			report.Pct(r.Share[core.CompWeights]),
			report.Pct(r.Share[core.CompComputeFLOPs]),
			report.Pct(r.Share[core.CompComputeMem]))
	}
	if err := bt.Render(stdout); err != nil {
		return err
	}
	_, err := fmt.Fprintf(stdout, "cNode-level overall: weights %s, compute %s, data I/O %s\n",
		report.Pct(overall[pai.CompWeights]),
		report.Pct(overall[pai.CompComputeFLOPs]+overall[pai.CompComputeMem]),
		report.Pct(overall[pai.CompDataIO]))
	return err
}

// characterize folds every source through the streaming pipeline and
// renders the report. Record-stream sources are never materialized, so
// they can be arbitrarily large, and multiple traces drain concurrently as
// shards folded with the exact merge (columnar sources ride the
// block-granular path automatically). Every report section folds through
// one MultiSink in a single pass — breakdown aggregates, CDF sketches, the
// projection summary, and the hardware sweep for the chosen class.
func characterize(srcs []pai.JobSource, paths []string, engOpts []pai.Option, target pai.Class, stdout io.Writer) error {
	eng, err := pai.New(engOpts...)
	if err != nil {
		return err
	}
	factory := func() (pai.Sink, error) {
		report, err := eng.NewReportSink(pai.ToAllReduceLocal)
		if err != nil {
			return nil, err
		}
		sweep, err := eng.NewSweepSink(target)
		if err != nil {
			return nil, err
		}
		return pai.NewMultiSink(append(report.Sinks(), sweep)...), nil
	}
	sink, counts, err := eng.EvaluateSourcesInto(context.Background(), factory, srcs...)
	if err != nil {
		return err
	}
	ms := sink.(*pai.MultiSink)
	var (
		acc      *pai.BreakdownAccumulator
		cdfs     *pai.ComponentCDFSink
		hwCDFs   *pai.HardwareCDFSink
		projSink *pai.ProjectionSink
		sweep    *pai.SweepSink
	)
	for _, inner := range ms.Sinks() {
		switch s := inner.(type) {
		case *pai.BreakdownAccumulator:
			acc = s
		case *pai.ComponentCDFSink:
			cdfs = s
		case *pai.HardwareCDFSink:
			hwCDFs = s
		case *pai.ProjectionSink:
			projSink = s
		case *pai.SweepSink:
			sweep = s
		}
	}

	// Constitution (Fig. 5) and breakdowns (Fig. 7 / Sec. III-D).
	c, err := acc.Constitution()
	if err != nil {
		return err
	}
	// A trace without the sweep class is an error, returned before any
	// section renders.
	if sweep.N() == 0 {
		return fmt.Errorf("trace has no %s jobs", target)
	}
	title := fmt.Sprintf("Workload constitution (%d jobs, streamed)", acc.N())
	if len(paths) > 1 {
		title = fmt.Sprintf("Workload constitution (%d jobs over %d trace shards, streamed)", acc.N(), len(paths))
	}
	if err := renderConstitution(stdout, title, c); err != nil {
		return err
	}
	overall, err := acc.Overall(pai.CNodeLevel)
	if err != nil {
		return err
	}
	if err := renderBreakdowns(stdout, acc.Rows(), overall); err != nil {
		return err
	}
	fmt.Fprintln(stdout)

	// CDF sketches (Fig. 8): the weights-traffic fraction per class plus
	// the all-workloads hardware attribution, job level.
	fmt.Fprintln(stdout, "Weights-traffic time fraction CDFs (job-level, sketched):")
	for _, class := range cdfs.Classes() {
		sk, err := cdfs.CDF(class, pai.JobLevel, pai.CompWeights)
		if err != nil {
			return err
		}
		if err := report.CDFSeries(stdout, "  "+class.String(), sk, nil); err != nil {
			return err
		}
	}
	for _, hw := range []pai.HardwareComponent{pai.HWEthernet, pai.HWGPUFLOPs} {
		sk, err := hwCDFs.CDF(pai.JobLevel, hw)
		if err != nil {
			return err
		}
		if err := report.CDFSeries(stdout, "  all workloads "+hw.String(), sk, nil); err != nil {
			return err
		}
	}
	fmt.Fprintln(stdout)

	// Projection (Fig. 9), streamed.
	if projSink.N() > 0 {
		sum, err := projSink.Summary()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "PS -> AllReduce-Local: %d jobs, %s gain throughput, mean node speedup %.2fx\n\n",
			sum.N, report.Pct(1-sum.FracThroughputNotSped), sum.MeanNodeSpeedup)
	}

	// Hardware sweep (Fig. 11 panel), streamed.
	panel, err := sweep.Panel(target.String())
	if err != nil {
		return err
	}
	if err := renderSweep(stdout, target, panel); err != nil {
		return err
	}

	p50, err := acc.StepTimeQuantile(0.5)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "step time: mean %.4fs, p50 %.4fs over %d jobs (%s backend, %d workers)\n",
		acc.StepTime().Mean(), p50, acc.N(), eng.Backend(), eng.Parallelism())
	if len(paths) > 1 {
		for i, path := range paths {
			fmt.Fprintf(stdout, "  shard %d: %d jobs from %s\n", i, counts[i], path)
		}
	}
	if st := eng.CacheStats(); st.Hits+st.Misses > 0 {
		fmt.Fprintf(stdout, "result cache: %.1f%% hit rate (%d hits, %d misses, %d resident, %d evicted)\n",
			st.HitRate()*100, st.Hits, st.Misses, st.Entries, st.Evictions)
	}
	return nil
}
