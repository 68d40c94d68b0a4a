package report

import (
	"math"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file builds the deterministic sections of the "paibench/1" result
// schema — fidelity, cdf and projection — from folded report sinks. Both
// paibench and paiserve emit them, so `benchdiff -fidelity-only` compares a
// daemon report against a batch result section by section.

// Paper headline references: Fig. 5b (PS/Worker cNode share ~81%) and
// Sec. III-D (cNode-level communication 62%, computation 35%).
const (
	PaperPSCNodeShare  = 0.81
	PaperOverallComm   = 0.62
	PaperOverallComput = 0.35
)

// Fidelity holds the streamed trace's collective aggregates next to the
// paper's published headline values, so a baseline diff catches both
// performance and statistical drift.
type Fidelity struct {
	ClassJobShare   map[string]float64 `json:"class_job_share"`
	ClassCNodeShare map[string]float64 `json:"class_cnode_share"`
	// OverallCNode maps data_io/weights/compute to the cNode-level overall
	// share (Sec. III-D reports weights 62%, compute 35%).
	OverallCNode map[string]float64 `json:"overall_cnode_level"`
	MeanStepSec  float64            `json:"mean_step_sec"`
	P50StepSec   float64            `json:"p50_step_sec"`
	P99StepSec   float64            `json:"p99_step_sec"`
	// PaperAbsDelta maps headline-stat name to |streamed - paper|:
	// ps_cnode_share (0.81), overall_weights (0.62), overall_compute (0.35).
	PaperAbsDelta map[string]float64 `json:"paper_abs_delta"`
}

// Quantiles is a compact p50/p90/p99 triple of one sketched distribution.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// CDFSection carries the per-class CDF headline quantiles of the Fig. 8
// sketches (job level).
type CDFSection struct {
	// WeightsFraction maps class -> quantiles of the weights-traffic time
	// fraction (Fig. 8b-d headline lines).
	WeightsFraction map[string]Quantiles `json:"weights_fraction"`
	// EthernetFraction is the all-workloads Ethernet-attribution fraction
	// (Fig. 8a headline line).
	EthernetFraction Quantiles `json:"ethernet_fraction"`
}

// ProjSection carries the streamed Fig. 9 projection summary.
type ProjSection struct {
	N                     int     `json:"n"`
	FracNodeNotSped       float64 `json:"frac_node_not_sped"`
	FracThroughputNotSped float64 `json:"frac_throughput_not_sped"`
	MeanNodeSpeedup       float64 `json:"mean_node_speedup"`
	MeanThroughputSpeedup float64 `json:"mean_throughput_speedup"`
	NodeSpeedupP50        float64 `json:"node_speedup_p50"`
	NodeSpeedupP99        float64 `json:"node_speedup_p99"`
}

// FidelityOf extracts the headline aggregates of a folded accumulator and
// their deltas vs the paper.
func FidelityOf(acc *analyze.BreakdownAccumulator) (*Fidelity, error) {
	c, err := acc.Constitution()
	if err != nil {
		return nil, err
	}
	overall, err := acc.Overall(analyze.CNodeLevel)
	if err != nil {
		return nil, err
	}
	p50, err := acc.StepTimeQuantile(0.50)
	if err != nil {
		return nil, err
	}
	p99, err := acc.StepTimeQuantile(0.99)
	if err != nil {
		return nil, err
	}
	fid := &Fidelity{
		ClassJobShare:   map[string]float64{},
		ClassCNodeShare: map[string]float64{},
		OverallCNode: map[string]float64{
			"data_io": overall[core.CompDataIO],
			"weights": overall[core.CompWeights],
			"compute": overall[core.CompComputeFLOPs] + overall[core.CompComputeMem],
		},
		MeanStepSec: acc.StepTime().Mean(),
		P50StepSec:  p50,
		P99StepSec:  p99,
	}
	for class, share := range c.JobShare {
		fid.ClassJobShare[class.String()] = share
	}
	for class, share := range c.CNodeShare {
		fid.ClassCNodeShare[class.String()] = share
	}
	fid.PaperAbsDelta = map[string]float64{
		"ps_cnode_share":  math.Abs(fid.ClassCNodeShare[workload.PSWorker.String()] - PaperPSCNodeShare),
		"overall_weights": math.Abs(fid.OverallCNode["weights"] - PaperOverallComm),
		"overall_compute": math.Abs(fid.OverallCNode["compute"] - PaperOverallComput),
	}
	return fid, nil
}

// SketchSections assembles the cdf and projection sections of a full report
// sink. The projection section is nil when no PS/Worker job was folded
// (tiny traces), rather than failing the whole report.
func SketchSections(ms *analyze.MultiSink) (*CDFSection, *ProjSection, error) {
	cdf := &CDFSection{WeightsFraction: map[string]Quantiles{}}
	var proj *ProjSection
	for _, inner := range ms.Sinks() {
		switch s := inner.(type) {
		case *analyze.ComponentCDFSink:
			for _, class := range s.Classes() {
				sk, err := s.CDF(class, analyze.JobLevel, core.CompWeights)
				if err != nil {
					return nil, nil, err
				}
				cdf.WeightsFraction[class.String()] = quantilesOf(sk)
			}
		case *analyze.HardwareCDFSink:
			sk, err := s.CDF(analyze.JobLevel, core.HWEthernet)
			if err != nil {
				return nil, nil, err
			}
			cdf.EthernetFraction = quantilesOf(sk)
		case *analyze.ProjectionSink:
			if s.N() == 0 {
				continue
			}
			sum, err := s.Summary()
			if err != nil {
				return nil, nil, err
			}
			node := s.NodeSpeedups()
			proj = &ProjSection{
				N:                     sum.N,
				FracNodeNotSped:       sum.FracNodeNotSped,
				FracThroughputNotSped: sum.FracThroughputNotSped,
				MeanNodeSpeedup:       sum.MeanNodeSpeedup,
				MeanThroughputSpeedup: sum.MeanThroughputSpeedup,
				NodeSpeedupP50:        node.Quantile(0.50),
				NodeSpeedupP99:        node.Quantile(0.99),
			}
		}
	}
	return cdf, proj, nil
}

func quantilesOf(s *stats.Sketch) Quantiles {
	return Quantiles{P50: s.Quantile(0.50), P90: s.Quantile(0.90), P99: s.Quantile(0.99)}
}
