package serve

import (
	"fmt"
	"io"
	"time"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/workload"
)

// This file renders a folded window sink as a live report: a human text
// form (the paichar sections), and a JSON form carrying the "paibench/1"
// schema — its sections built by internal/report, as cmd/paibench's are —
// so `benchdiff -smoke -assert` and `benchdiff -fidelity-only` gate daemon
// reports exactly like batch results. Fields beyond the paibench set
// (tenant, window metadata) are strictly additive.

// reportJSON is the daemon's machine-readable report (schema "paibench/1").
type reportJSON struct {
	Schema  string `json:"schema"`
	Jobs    int    `json:"jobs"`
	Backend string `json:"backend"`
	Workers int    `json:"workers"`

	Tenant string `json:"tenant"`
	// WindowSec and WindowsFolded describe the fold: the newest
	// WindowsFolded windows of WindowSec each.
	WindowSec     float64 `json:"window_sec"`
	WindowsFolded int     `json:"windows_folded"`

	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	Fidelity   *report.Fidelity    `json:"fidelity,omitempty"`
	CDF        *report.CDFSection  `json:"cdf,omitempty"`
	Projection *report.ProjSection `json:"projection,omitempty"`

	Note string `json:"note,omitempty"`
}

// parts splits a report sink into its constituent sinks.
func parts(ms *analyze.MultiSink) (acc *analyze.BreakdownAccumulator,
	cdfs *analyze.ComponentCDFSink, hwCDFs *analyze.HardwareCDFSink,
	proj *analyze.ProjectionSink, err error) {
	for _, inner := range ms.Sinks() {
		switch s := inner.(type) {
		case *analyze.BreakdownAccumulator:
			acc = s
		case *analyze.ComponentCDFSink:
			cdfs = s
		case *analyze.HardwareCDFSink:
			hwCDFs = s
		case *analyze.ProjectionSink:
			proj = s
		}
	}
	if acc == nil {
		return nil, nil, nil, nil, fmt.Errorf("serve: report sink carries no breakdown accumulator")
	}
	return acc, cdfs, hwCDFs, proj, nil
}

// reportJSON assembles the machine-readable report of one folded sink.
func (s *Server) reportJSON(tenant string, lastN, jobs int, sink *analyze.MultiSink) (*reportJSON, error) {
	cs := s.cfg.Engine.CacheStats()
	rep := &reportJSON{
		Schema:        "paibench/1",
		Jobs:          jobs,
		Backend:       s.cfg.Engine.Backend(),
		Workers:       s.cfg.Engine.Parallelism(),
		Tenant:        tenant,
		WindowSec:     s.cfg.WindowWidth.Seconds(),
		WindowsFolded: lastN,
		CacheHits:     cs.Hits,
		CacheMisses:   cs.Misses,
		CacheHitRate:  cs.HitRate(),
	}
	if jobs == 0 {
		rep.Note = "no jobs in the folded windows"
		return rep, nil
	}
	acc, _, _, _, err := parts(sink)
	if err != nil {
		return nil, err
	}
	if rep.Fidelity, err = report.FidelityOf(acc); err != nil {
		return nil, err
	}
	if rep.CDF, rep.Projection, err = report.SketchSections(sink); err != nil {
		return nil, err
	}
	return rep, nil
}

// renderText writes the human report: constitution, breakdown averages,
// CDF series and the projection line — the paichar sections over the
// folded windows.
func renderText(w io.Writer, tenant string, lastN int, width time.Duration,
	jobs int, sink *analyze.MultiSink) error {
	fmt.Fprintf(w, "tenant %s — newest %d windows of %s\n\n", tenant, lastN, width)
	if jobs == 0 {
		_, err := fmt.Fprintln(w, "no jobs in the folded windows")
		return err
	}
	acc, cdfs, hwCDFs, projSink, err := parts(sink)
	if err != nil {
		return err
	}
	c, err := acc.Constitution()
	if err != nil {
		return err
	}
	ct := &report.Table{
		Title:   fmt.Sprintf("Workload constitution (%d jobs, windowed)", acc.N()),
		Headers: []string{"class", "jobs", "job share", "cNode share"}}
	for _, class := range workload.TraceClasses() {
		ct.AddRow(class.String(), fmt.Sprintf("%d", c.Jobs[class]),
			report.Pct(c.JobShare[class]), report.Pct(c.CNodeShare[class]))
	}
	if err := ct.Render(w); err != nil {
		return err
	}
	bt := &report.Table{Title: "Execution-time breakdown (averages)",
		Headers: []string{"class", "level", "data I/O", "weights", "compute-bound", "memory-bound"}}
	for _, r := range acc.Rows() {
		bt.AddRow(r.Class.String(), r.Level.String(),
			report.Pct(r.Share[core.CompDataIO]),
			report.Pct(r.Share[core.CompWeights]),
			report.Pct(r.Share[core.CompComputeFLOPs]),
			report.Pct(r.Share[core.CompComputeMem]))
	}
	if err := bt.Render(w); err != nil {
		return err
	}
	overall, err := acc.Overall(analyze.CNodeLevel)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cNode-level overall: weights %s, compute %s, data I/O %s\n\n",
		report.Pct(overall[core.CompWeights]),
		report.Pct(overall[core.CompComputeFLOPs]+overall[core.CompComputeMem]),
		report.Pct(overall[core.CompDataIO]))

	if cdfs != nil && hwCDFs != nil {
		fmt.Fprintln(w, "Weights-traffic time fraction CDFs (job-level, sketched):")
		for _, class := range cdfs.Classes() {
			sk, err := cdfs.CDF(class, analyze.JobLevel, core.CompWeights)
			if err != nil {
				return err
			}
			if err := report.CDFSeries(w, "  "+class.String(), sk, nil); err != nil {
				return err
			}
		}
		sk, err := hwCDFs.CDF(analyze.JobLevel, core.HWEthernet)
		if err != nil {
			return err
		}
		if err := report.CDFSeries(w, "  all workloads "+core.HWEthernet.String(), sk, nil); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if projSink != nil && projSink.N() > 0 {
		sum, err := projSink.Summary()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "PS -> AllReduce projection over %d PS jobs: mean node speedup %s, mean throughput speedup %s, not sped up %s (node) / %s (throughput)\n",
			sum.N, report.F2(sum.MeanNodeSpeedup), report.F2(sum.MeanThroughputSpeedup),
			report.Pct(sum.FracNodeNotSped), report.Pct(sum.FracThroughputNotSped))
	}
	fmt.Fprintf(w, "step time: mean %ss over %d jobs\n", report.F2(acc.StepTime().Mean()), acc.N())
	return nil
}
