// Package analyze implements the collective-behavior analysis pipelines of
// Sec. III: workload constitution (Fig. 5), scale distributions (Fig. 6),
// execution-time breakdowns at job and cNode level (Figs. 7 and 8),
// post-projection breakdowns (Fig. 10), hardware-evolution sweeps (Fig. 11),
// the efficiency-sensitivity study (Fig. 15) and the overlap study (Fig. 16).
//
// The trace aggregates (Figs. 7, 8, 10 and 11) are sinks: FoldInto streams
// a block source through an evaluation backend over a bounded worker pool
// and folds every result into a Sink (BreakdownAccumulator,
// ComponentCDFSink, HardwareCDFSink, ProjectionSink, SweepSink, or a
// MultiSink bundling several), so one pass fills every figure it carries.
// The figures that print exact CDFs (Figs. 6, 15 and 16) and Fig. 5's job
// count take a job slice instead. Every evaluating pipeline accepts a
// context for cancellation and a parallelism cap.
package analyze

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Level selects job-level (each job weighs 1) or cNode-level (each job
// weighs its cNode count) aggregation — the left/right columns of Fig. 7 and
// the top/bottom rows of Fig. 8.
type Level int

const (
	// JobLevel weighs every job equally.
	JobLevel Level = iota
	// CNodeLevel weighs every job by its cNode count.
	CNodeLevel
)

// String names the aggregation level.
func (l Level) String() string {
	switch l {
	case JobLevel:
		return "job-level"
	case CNodeLevel:
		return "cNode-level"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

func (l Level) weight(f workload.Features) float64 {
	if l == CNodeLevel {
		return float64(f.CNodes)
	}
	return 1
}

// Constitution is the Fig. 5 workload composition: per-class shares of job
// count and of cNode count.
type Constitution struct {
	// JobShare and CNodeShare map class -> fraction; each sums to 1.
	JobShare, CNodeShare map[workload.Class]float64
	// Jobs and CNodes are the absolute counts behind the shares.
	Jobs, CNodes map[workload.Class]int
	TotalJobs    int
	TotalCNodes  int
}

// Constitute computes Fig. 5 over a trace.
func Constitute(jobs []workload.Features) (Constitution, error) {
	if len(jobs) == 0 {
		return Constitution{}, fmt.Errorf("analyze: empty trace")
	}
	c := Constitution{
		JobShare:   map[workload.Class]float64{},
		CNodeShare: map[workload.Class]float64{},
		Jobs:       map[workload.Class]int{},
		CNodes:     map[workload.Class]int{},
	}
	for _, j := range jobs {
		c.Jobs[j.Class]++
		c.CNodes[j.Class] += j.CNodes
		c.TotalJobs++
		c.TotalCNodes += j.CNodes
	}
	for class, n := range c.Jobs {
		c.JobShare[class] = float64(n) / float64(c.TotalJobs)
	}
	for class, n := range c.CNodes {
		c.CNodeShare[class] = float64(n) / float64(c.TotalCNodes)
	}
	return c, nil
}

// ScaleCDFs is the Fig. 6 pair: per-class CDFs of cNode counts and of weight
// sizes (bytes).
type ScaleCDFs struct {
	CNodes  map[workload.Class]*stats.CDF
	Weights map[workload.Class]*stats.CDF
}

// Scales computes Fig. 6 over a trace. Classes with no jobs are omitted.
// The cNode CDF is only meaningful for distributed classes, but is computed
// for all for completeness.
func Scales(jobs []workload.Features) (ScaleCDFs, error) {
	if len(jobs) == 0 {
		return ScaleCDFs{}, fmt.Errorf("analyze: empty trace")
	}
	byClass := map[workload.Class][]workload.Features{}
	for _, j := range jobs {
		byClass[j.Class] = append(byClass[j.Class], j)
	}
	out := ScaleCDFs{
		CNodes:  map[workload.Class]*stats.CDF{},
		Weights: map[workload.Class]*stats.CDF{},
	}
	for class, js := range byClass {
		var ns, ws []float64
		for _, j := range js {
			ns = append(ns, float64(j.CNodes))
			ws = append(ws, j.TotalWeightBytes())
		}
		nc, err := stats.NewCDF(ns)
		if err != nil {
			return ScaleCDFs{}, fmt.Errorf("analyze: cNode CDF for %v: %w", class, err)
		}
		wc, err := stats.NewCDF(ws)
		if err != nil {
			return ScaleCDFs{}, fmt.Errorf("analyze: weight CDF for %v: %w", class, err)
		}
		out.CNodes[class] = nc
		out.Weights[class] = wc
	}
	return out, nil
}

// BreakdownRow is one bar of Fig. 7: the average share of each execution-time
// component for one class at one level.
type BreakdownRow struct {
	Class workload.Class
	Level Level
	// Share maps component -> mean fraction; sums to 1.
	Share map[core.Component]float64
	// N is the number of jobs aggregated.
	N int
}

// ComponentCDFs is one panel of Fig. 8(b-d): per-component CDF sketches of
// the time fraction across jobs of one class, at one level.
type ComponentCDFs struct {
	Class workload.Class
	Level Level
	// CDF maps component -> sketched distribution of its per-job fraction
	// (exact at the q=0/1 boundaries, interior quantile error under one
	// fraction-sketch bin, i.e. < 0.2% absolute).
	CDF map[core.Component]*stats.Sketch
}

// HardwareCDFs is the Fig. 8(a) panel: CDF sketches of the time fraction
// attributed to each hardware component, over all jobs, at one level.
type HardwareCDFs struct {
	Level Level
	CDF   map[core.HardwareComponent]*stats.Sketch
}
