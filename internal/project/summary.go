package project

import (
	"fmt"

	"repro/internal/binenc"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ProjectTimed maps one PS/Worker workload to the target and evaluates only
// the projected side, reusing an already-computed breakdown of the original
// — the streamed-fold path, where the pipeline has just evaluated the
// original job and handing the breakdown over halves the projection's
// evaluation cost.
func (p *Projector) ProjectTimed(f workload.Features, origT core.Times, target Target) (Result, error) {
	mapped, err := Map(f, target, p.cfg.GPUsPerServer)
	if err != nil {
		return Result{}, err
	}
	projT, err := p.ev.Breakdown(mapped)
	if err != nil {
		return Result{}, err
	}
	return assembleResult(f, mapped, origT, projT)
}

// speedupSketchGrid is the one log-spaced bin grid every speedup sketch
// shares, so per-shard accumulators always merge without comparing edges.
// The range covers 1/1000x to 1000x, far beyond the paper's 21x
// communication bound (Eq. 3).
var speedupSketchGrid = stats.MustGrid(stats.LogGrid(1e-3, 1e3, 241))

// SummaryAccumulator folds projection results into the Fig. 9 aggregates —
// the not-sped fractions, mean speedups, and fixed-memory speedup
// distribution sketches — in O(1) memory per result. The speedup sums are
// exact (stats.ExactSum) and the means are rounded once, when read, so
// per-shard accumulators merge exactly in any order, and snapshots
// round-trip bit-exactly: the projection summary participates in the same
// multi-process fold as the breakdown aggregates.
//
// The zero value is usable: Add and Merge initialize it lazily.
type SummaryAccumulator struct {
	n              int
	notNode, notTp int
	sumNode, sumTp stats.ExactSum

	nodeSketch, tpSketch *stats.Sketch
}

// init backfills the sketches so the zero value works.
func (a *SummaryAccumulator) init() {
	if a.nodeSketch != nil {
		return
	}
	a.nodeSketch = stats.NewGridSketch(speedupSketchGrid)
	a.tpSketch = stats.NewGridSketch(speedupSketchGrid)
}

// Add folds one projection result into the aggregates.
func (a *SummaryAccumulator) Add(r Result) {
	a.init()
	a.n++
	if r.NodeSpeedup <= 1 {
		a.notNode++
	}
	if r.ThroughputSpeedup <= 1 {
		a.notTp++
	}
	a.sumNode.Add(r.NodeSpeedup)
	a.sumTp.Add(r.ThroughputSpeedup)
	a.nodeSketch.Add(r.NodeSpeedup)
	a.tpSketch.Add(r.ThroughputSpeedup)
}

// Merge folds another accumulator into the receiver (the per-shard
// reduction step).
func (a *SummaryAccumulator) Merge(b *SummaryAccumulator) error {
	if b == nil || b.n == 0 {
		return nil
	}
	a.init()
	b.init()
	a.n += b.n
	a.notNode += b.notNode
	a.notTp += b.notTp
	a.sumNode.Merge(&b.sumNode)
	a.sumTp.Merge(&b.sumTp)
	if err := a.nodeSketch.Merge(b.nodeSketch); err != nil {
		return fmt.Errorf("project: merge node-speedup sketch: %w", err)
	}
	if err := a.tpSketch.Merge(b.tpSketch); err != nil {
		return fmt.Errorf("project: merge throughput-speedup sketch: %w", err)
	}
	return nil
}

// N reports the number of projection results folded in.
func (a *SummaryAccumulator) N() int { return a.n }

// Summary assembles the Fig. 9 aggregates.
func (a *SummaryAccumulator) Summary() (Summary, error) {
	if a.n == 0 {
		return Summary{}, fmt.Errorf("project: no results to summarize")
	}
	return Summary{
		N:                     a.n,
		FracNodeNotSped:       float64(a.notNode) / float64(a.n),
		FracThroughputNotSped: float64(a.notTp) / float64(a.n),
		MeanNodeSpeedup:       a.sumNode.Quo(float64(a.n)),
		MeanThroughputSpeedup: a.sumTp.Quo(float64(a.n)),
	}, nil
}

// NodeSpeedups returns the distribution sketch of per-cNode step speedups
// (the "Single cNode speedup" CDF of Fig. 9a, sketched).
func (a *SummaryAccumulator) NodeSpeedups() *stats.Sketch {
	a.init()
	return a.nodeSketch
}

// ThroughputSpeedups returns the distribution sketch of throughput speedups
// (the "Throughput speedup" CDF of Fig. 9a, sketched).
func (a *SummaryAccumulator) ThroughputSpeedups() *stats.Sketch {
	a.init()
	return a.tpSketch
}

// summaryAccVersion tags the SummaryAccumulator snapshot layout.
const summaryAccVersion = 2

// MarshalBinary encodes the accumulator as a versioned binary snapshot.
// Identical state always yields identical bytes.
func (a *SummaryAccumulator) MarshalBinary() ([]byte, error) {
	a.init()
	w := binenc.NewWriter(64)
	w.U8(summaryAccVersion)
	w.Int(a.n)
	w.Int(a.notNode)
	w.Int(a.notTp)
	a.sumNode.AppendBinary(w)
	a.sumTp.AppendBinary(w)
	for _, s := range []*stats.Sketch{a.nodeSketch, a.tpSketch} {
		raw, err := s.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.Raw(raw)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a MarshalBinary snapshot, replacing the receiver.
func (a *SummaryAccumulator) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != summaryAccVersion {
		return fmt.Errorf("project: summary snapshot version %d, want %d", v, summaryAccVersion)
	}
	var b SummaryAccumulator
	b.n = int(r.Uvarint())
	b.notNode = int(r.Uvarint())
	b.notTp = int(r.Uvarint())
	for _, s := range []*stats.ExactSum{&b.sumNode, &b.sumTp} {
		if err := s.ReadBinary(r); err != nil {
			return fmt.Errorf("project: summary snapshot: %w", err)
		}
	}
	nodeRaw := r.View()
	tpRaw := r.View()
	if err := r.Err(); err != nil {
		return fmt.Errorf("project: summary snapshot: %w", err)
	}
	b.nodeSketch = new(stats.Sketch)
	if err := b.nodeSketch.UnmarshalBinary(nodeRaw); err != nil {
		return err
	}
	b.tpSketch = new(stats.Sketch)
	if err := b.tpSketch.UnmarshalBinary(tpRaw); err != nil {
		return err
	}
	*a = b
	return nil
}
