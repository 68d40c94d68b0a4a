// Package project implements the architecture-projection study of
// Sec. III-C1: estimating how PS/Worker workloads would perform if ported to
// the AllReduce-Local or AllReduce-Cluster architectures.
//
// Mapping rules follow the paper: AllReduce-Local caps the job at one
// server's GPUs (cNodes' = min(cNodes, 8)), AllReduce-Cluster keeps the
// replica count. The per-step weight volume Sw is preserved across the
// projection (only the medium changes), which is what makes Eq. 3's 21x
// bound exact for communication-bound jobs.
package project

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/workload"
)

// Target selects the projection destination architecture.
type Target int

const (
	// ToAllReduceLocal ports the job onto a single NVLink server.
	ToAllReduceLocal Target = iota
	// ToAllReduceCluster ports the job onto AllReduce across servers.
	ToAllReduceCluster
)

// String names the target.
func (t Target) String() string {
	switch t {
	case ToAllReduceLocal:
		return "AllReduce-Local"
	case ToAllReduceCluster:
		return "AllReduce-Cluster"
	default:
		return fmt.Sprintf("Target(%d)", int(t))
	}
}

// Map rewrites a PS/Worker workload's features for the target architecture.
// Only PS/Worker jobs are mappable (the paper's study). The weight-traffic
// volume is preserved; the class and replica count change.
func Map(f workload.Features, target Target, gpusPerServer int) (workload.Features, error) {
	if err := f.Validate(); err != nil {
		return workload.Features{}, err
	}
	if f.Class != workload.PSWorker {
		return workload.Features{}, fmt.Errorf(
			"project: only PS/Worker workloads are projected, got %v", f.Class)
	}
	if gpusPerServer <= 0 {
		return workload.Features{}, fmt.Errorf(
			"project: gpusPerServer must be positive, got %d", gpusPerServer)
	}
	out := f
	switch target {
	case ToAllReduceLocal:
		out.Class = workload.AllReduceLocal
		if out.CNodes > gpusPerServer {
			out.CNodes = gpusPerServer
		}
	case ToAllReduceCluster:
		out.Class = workload.AllReduceCluster
	default:
		return workload.Features{}, fmt.Errorf("project: unknown target %v", target)
	}
	return out, nil
}

// Result reports the outcome of projecting one workload.
type Result struct {
	// Original and Projected are the feature records before/after mapping.
	Original, Projected workload.Features
	// NodeSpeedup is Ttotal(original) / Ttotal(projected): per-cNode step
	// speedup ("Single cNode speedup" series in Fig. 9a).
	NodeSpeedup float64
	// ThroughputSpeedup is throughput(projected) / throughput(original)
	// under Eq. 2, accounting for the possible cNode reduction
	// ("Throughput speedup" series in Fig. 9a).
	ThroughputSpeedup float64
	// OriginalTimes and ProjectedTimes carry the breakdowns for the
	// bottleneck-shift analysis (Fig. 10).
	OriginalTimes, ProjectedTimes core.Times
}

// Projector evaluates projections under one evaluation backend. The
// configuration must include NVLink (the projection destinations are NVLink
// architectures).
type Projector struct {
	// Model is the analytical model when the Projector was built via New;
	// nil when built over a generic evaluator via NewWithEvaluator.
	//
	// Deprecated: use the evaluator-based construction; Model is retained
	// for callers of the legacy New path.
	Model *core.Model

	ev  backend.Evaluator
	cfg hw.Config
}

// New returns a Projector over the analytical model.
func New(m *core.Model) (*Projector, error) {
	if m == nil {
		return nil, fmt.Errorf("project: nil model")
	}
	p, err := NewWithEvaluator(m, m.Config)
	if err != nil {
		return nil, err
	}
	p.Model = m
	return p, nil
}

// NewWithEvaluator returns a Projector over any per-job evaluator (an
// Engine backend, the analytical model, ...) under the given configuration.
func NewWithEvaluator(ev backend.Evaluator, cfg hw.Config) (*Projector, error) {
	if ev == nil {
		return nil, fmt.Errorf("project: nil evaluator")
	}
	if !cfg.HasNVLink {
		return nil, fmt.Errorf("project: projection target requires NVLink in the configuration")
	}
	return &Projector{ev: ev, cfg: cfg}, nil
}

// NewFromBackend returns a Projector over a registered backend, enforcing
// its Projectable capability (breakdowns comparable across the
// PS -> AllReduce mapping).
func NewFromBackend(b backend.Backend) (*Projector, error) {
	if b == nil {
		return nil, fmt.Errorf("project: nil backend")
	}
	if !b.Capabilities().Projectable {
		return nil, fmt.Errorf("project: backend %q does not support projections", b.Name())
	}
	return NewWithEvaluator(b, b.Spec().Config)
}

// projectorKey identifies a projector's evaluation: its evaluator and its
// configuration.
type projectorKey struct {
	ev  backend.Evaluator
	cfg hw.Config
}

// MemoKey returns a comparable value that is equal for two projectors
// exactly when they evaluate through the same evaluator under the same
// configuration, so their projections agree. ok is false when the
// evaluator is not a pointer and so cannot be compared safely.
func (p *Projector) MemoKey() (any, bool) {
	if reflect.TypeOf(p.ev).Kind() != reflect.Pointer {
		return nil, false
	}
	return projectorKey{ev: p.ev, cfg: p.cfg}, true
}

// Project maps one PS/Worker workload to the target and evaluates both
// sides.
func (p *Projector) Project(f workload.Features, target Target) (Result, error) {
	mapped, err := Map(f, target, p.cfg.GPUsPerServer)
	if err != nil {
		return Result{}, err
	}
	origT, err := p.ev.Breakdown(f)
	if err != nil {
		return Result{}, err
	}
	projT, err := p.ev.Breakdown(mapped)
	if err != nil {
		return Result{}, err
	}
	return assembleResult(f, mapped, origT, projT)
}

// assembleResult derives the speedup figures from the two evaluated sides of
// a projection (shared by the serial and batch paths).
func assembleResult(f, mapped workload.Features, origT, projT core.Times) (Result, error) {
	origTotal, projTotal := origT.Total(), projT.Total()
	if origTotal <= 0 || projTotal <= 0 {
		return Result{}, fmt.Errorf("project: degenerate step time for %q", f.Name)
	}
	r := Result{
		Original: f, Projected: mapped,
		OriginalTimes: origT, ProjectedTimes: projT,
		NodeSpeedup: origTotal / projTotal,
	}
	// Eq. 2 on both sides; batch size cancels.
	origTp := float64(f.CNodes) / origTotal
	projTp := float64(mapped.CNodes) / projTotal
	r.ThroughputSpeedup = projTp / origTp
	return r, nil
}

// ProjectAll maps every PS/Worker workload in the list; non-PS jobs are
// skipped. The returned slice preserves input order of the projected jobs.
func (p *Projector) ProjectAll(fs []workload.Features, target Target) ([]Result, error) {
	out := make([]Result, 0, len(fs))
	for _, f := range fs {
		if f.Class != workload.PSWorker {
			continue
		}
		r, err := p.Project(f, target)
		if err != nil {
			return nil, fmt.Errorf("project: job %q: %w", f.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// ProjectBatch is ProjectAll over a bounded worker pool: every PS/Worker
// workload in the list is projected concurrently (parallelism <= 1 falls
// back to the serial path). Results preserve the input order of the
// projected jobs; the first error or context cancellation stops the batch.
func (p *Projector) ProjectBatch(ctx context.Context, fs []workload.Features, target Target, parallelism int) ([]Result, error) {
	ps := make([]workload.Features, 0, len(fs))
	for _, f := range fs {
		if f.Class == workload.PSWorker {
			ps = append(ps, f)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if parallelism <= 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return p.ProjectAll(ps, target)
	}
	// Evaluate both sides of every projection through the shared pool, then
	// assemble results serially.
	mapped := make([]workload.Features, len(ps))
	for i, f := range ps {
		m, err := Map(f, target, p.cfg.GPUsPerServer)
		if err != nil {
			return nil, fmt.Errorf("project: job %q: %w", f.Name, err)
		}
		mapped[i] = m
	}
	both := make([]workload.Features, 0, 2*len(ps))
	both = append(both, ps...)
	both = append(both, mapped...)
	times, err := backend.EvaluateBatch(ctx, p.ev, both, parallelism)
	if err != nil {
		return nil, fmt.Errorf("project: %w", err)
	}
	out := make([]Result, len(ps))
	for i, f := range ps {
		r, err := assembleResult(f, mapped[i], times[i], times[len(ps)+i])
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// Summary aggregates a projection run the way Fig. 9 reports it.
type Summary struct {
	// N is the number of projected jobs.
	N int
	// FracNodeNotSped is the fraction with NodeSpeedup <= 1 (the 22.6%
	// annotation in Fig. 9a).
	FracNodeNotSped float64
	// FracThroughputNotSped is the fraction with ThroughputSpeedup <= 1
	// (the 40.2% annotation; its complement is the "60% can be improved"
	// headline).
	FracThroughputNotSped float64
	// MeanNodeSpeedup and MeanThroughputSpeedup are arithmetic means.
	MeanNodeSpeedup, MeanThroughputSpeedup float64
}

// Summarize computes the Fig. 9 aggregates over projection results. It is
// the materialized-slice entry to the same streaming SummaryAccumulator the
// sink pipeline folds, so both paths produce identical numbers.
func Summarize(rs []Result) (Summary, error) {
	var acc SummaryAccumulator
	for _, r := range rs {
		acc.Add(r)
	}
	return acc.Summary()
}
