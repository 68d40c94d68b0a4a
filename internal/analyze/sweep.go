package analyze

import (
	"context"
	"fmt"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/project"
	"repro/internal/stats"
	"repro/internal/workload"
)

// SweepPoint is one marker of a Fig. 11 panel: the average speedup of a
// class's jobs when one resource is scaled to a normalized value.
type SweepPoint struct {
	Resource   hw.Resource
	Normalized float64
	// MeanSpeedup is the arithmetic mean of per-job step-time speedups
	// against the baseline configuration.
	MeanSpeedup float64
}

// SweepSeries is one legend entry of a Fig. 11 panel.
type SweepSeries struct {
	Resource hw.Resource
	Points   []SweepPoint
}

// SweepPanel is one subplot of Fig. 11: all resource series for one class
// (or for the AllReduce-Local projection of the PS jobs in panel (d)).
type SweepPanel struct {
	Label  string
	Series []SweepSeries
}

// MostSensitiveResource returns the resource whose largest grid point yields
// the highest mean speedup in the panel — the headline of Sec. III-C2
// ("PS/Worker workloads are most sensitive to Ethernet bandwidth").
func (p SweepPanel) MostSensitiveResource() (hw.Resource, float64, error) {
	if len(p.Series) == 0 {
		return 0, 0, fmt.Errorf("analyze: empty sweep panel")
	}
	var best hw.Resource
	var bestGain float64
	for _, s := range p.Series {
		if len(s.Points) == 0 {
			continue
		}
		last := s.Points[len(s.Points)-1]
		if last.MeanSpeedup > bestGain {
			best, bestGain = s.Resource, last.MeanSpeedup
		}
	}
	return best, bestGain, nil
}

// SpeedupAt returns the mean speedup of one resource at one normalized grid
// value.
func (p SweepPanel) SpeedupAt(r hw.Resource, normalized float64) (float64, error) {
	for _, s := range p.Series {
		if s.Resource != r {
			continue
		}
		for _, pt := range s.Points {
			if pt.Normalized == normalized {
				return pt.MeanSpeedup, nil
			}
		}
	}
	return 0, fmt.Errorf("analyze: no sweep point for %v at %v", r, normalized)
}

// SensitivityCase is one curve of Fig. 15: the CDF of the PS/Worker weight
// traffic share when the efficiency assumption deviates from 70%.
type SensitivityCase struct {
	Label string
	Eff   workload.Efficiency
	CDF   *stats.CDF
	// MeanShare is the average weight-traffic fraction under this
	// efficiency setting.
	MeanShare float64
}

// Fig15Cases returns the four efficiency settings the paper plots: all 70%,
// communication 50%, computation 50%, computation 25%.
func Fig15Cases() []struct {
	Label string
	Eff   workload.Efficiency
} {
	mk := func(comp, comm float64) workload.Efficiency {
		return workload.Efficiency{
			GPUCompute: comp, GPUMemory: comp,
			PCIe: comm, Network: comm,
		}
	}
	return []struct {
		Label string
		Eff   workload.Efficiency
	}{
		{"All eff. 70%", mk(0.7, 0.7)},
		{"Communication eff. 50%", mk(0.7, 0.5)},
		{"Computation eff. 50%", mk(0.5, 0.7)},
		{"Computation eff. 25%", mk(0.25, 0.7)},
	}
}

// EfficiencySensitivity computes Fig. 15 over the PS/Worker jobs of a trace.
// Each efficiency setting re-instantiates the backend via Reconfigure.
func EfficiencySensitivity(ctx context.Context, base backend.Backend, parallelism int, jobs []workload.Features) ([]SensitivityCase, error) {
	ps := Filter(jobs, workload.PSWorker)
	if len(ps) == 0 {
		return nil, fmt.Errorf("analyze: no PS/Worker jobs for sensitivity study")
	}
	var out []SensitivityCase
	for _, c := range Fig15Cases() {
		spec := base.Spec()
		spec.Eff = c.Eff
		b, err := base.Reconfigure(spec)
		if err != nil {
			return nil, fmt.Errorf("analyze: sensitivity %q: %w", c.Label, err)
		}
		times, err := backend.EvaluateBatch(ctx, b, ps, parallelism)
		if err != nil {
			return nil, fmt.Errorf("analyze: sensitivity %q: %w", c.Label, err)
		}
		var shares []float64
		var sum float64
		for _, bd := range times {
			fr, err := bd.Fraction(core.CompWeights)
			if err != nil {
				return nil, err
			}
			shares = append(shares, fr)
			sum += fr
		}
		cdf, err := stats.NewCDF(shares)
		if err != nil {
			return nil, err
		}
		out = append(out, SensitivityCase{
			Label: c.Label, Eff: c.Eff, CDF: cdf,
			MeanShare: sum / float64(len(shares)),
		})
	}
	return out, nil
}

// OverlapStudy is Fig. 16: the PS/Worker weight-share CDF and the
// AllReduce-Local projection speedup CDF under non-overlap vs ideal overlap.
type OverlapStudy struct {
	// WeightShareCDF maps overlap mode -> CDF of per-job weight fraction of
	// Ttotal (left panel). Under ideal overlap the fraction is
	// Tw / max(Td, Tc, Tw), which can exceed 1; the paper plots it against
	// total, we report Tw/Ttotal with Ttotal per mode.
	WeightShareCDF map[core.OverlapMode]*stats.CDF
	// SpeedupCDF maps overlap mode -> CDF of AR-Local node speedups (right
	// panel).
	SpeedupCDF map[core.OverlapMode]*stats.CDF
	// FracNotSped maps overlap mode -> fraction of jobs with speedup
	// strictly below 1 (22.6% vs 20.2% in the paper). Strict comparison
	// matters under ideal overlap, where compute-bound jobs land exactly at
	// 1.0 (their max component is untouched by the projection).
	FracNotSped map[core.OverlapMode]float64
	// FracAt21x is the fraction of ideal-overlap jobs with speedup >= 20
	// (the 23.4%-at-21x population of Eq. 3).
	FracAt21x float64
}

// OverlapComparison computes Fig. 16 over the PS/Worker jobs of a trace.
// Each overlap mode re-instantiates the backend via Reconfigure; the
// projections run through the evaluator-based projector.
func OverlapComparison(ctx context.Context, base backend.Backend, parallelism int, jobs []workload.Features) (OverlapStudy, error) {
	ps := Filter(jobs, workload.PSWorker)
	if len(ps) == 0 {
		return OverlapStudy{}, fmt.Errorf("analyze: no PS/Worker jobs for overlap study")
	}
	study := OverlapStudy{
		WeightShareCDF: map[core.OverlapMode]*stats.CDF{},
		SpeedupCDF:     map[core.OverlapMode]*stats.CDF{},
		FracNotSped:    map[core.OverlapMode]float64{},
	}
	for _, mode := range []core.OverlapMode{core.OverlapNone, core.OverlapIdeal} {
		spec := base.Spec()
		spec.Overlap = mode
		b, err := base.Reconfigure(spec)
		if err != nil {
			return OverlapStudy{}, err
		}
		pr, err := project.NewFromBackend(b)
		if err != nil {
			return OverlapStudy{}, err
		}
		results, err := pr.ProjectBatch(ctx, ps, project.ToAllReduceLocal, parallelism)
		if err != nil {
			return OverlapStudy{}, err
		}
		var shares, speedups []float64
		var notSped, at21 int
		for i, j := range ps {
			// Result.OriginalTimes carries the per-job breakdown under this
			// overlap mode, so no separate batch evaluation is needed.
			bd := results[i].OriginalTimes
			total := bd.Total()
			if total <= 0 {
				return OverlapStudy{}, fmt.Errorf("analyze: overlap %s: zero total", j.Name)
			}
			shares = append(shares, bd.Weights/total)
			r := results[i]
			speedups = append(speedups, r.NodeSpeedup)
			if r.NodeSpeedup < 1 {
				notSped++
			}
			if mode == core.OverlapIdeal && r.NodeSpeedup >= 20 {
				at21++
			}
		}
		sc, err := stats.NewCDF(shares)
		if err != nil {
			return OverlapStudy{}, err
		}
		spc, err := stats.NewCDF(speedups)
		if err != nil {
			return OverlapStudy{}, err
		}
		study.WeightShareCDF[mode] = sc
		study.SpeedupCDF[mode] = spc
		study.FracNotSped[mode] = float64(notSped) / float64(len(ps))
		if mode == core.OverlapIdeal {
			study.FracAt21x = float64(at21) / float64(len(ps))
		}
	}
	return study, nil
}

// Filter returns the jobs of one class.
func Filter(jobs []workload.Features, class workload.Class) []workload.Features {
	var out []workload.Features
	for _, j := range jobs {
		if j.Class == class {
			out = append(out, j)
		}
	}
	return out
}

// ProjectedFeatures maps every PS/Worker job in the trace to
// AllReduce-Local features (for panel (d) of Fig. 11 and for Fig. 10).
func ProjectedFeatures(jobs []workload.Features, gpusPerServer int) ([]workload.Features, error) {
	var out []workload.Features
	for _, j := range jobs {
		if j.Class != workload.PSWorker {
			continue
		}
		mapped, err := project.Map(j, project.ToAllReduceLocal, gpusPerServer)
		if err != nil {
			return nil, err
		}
		out = append(out, mapped)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analyze: no PS/Worker jobs to project")
	}
	return out, nil
}
