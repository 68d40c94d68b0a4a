package analyze

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/backend"
	"repro/internal/binenc"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/workload"
)

// compAcc accumulates weighted component-fraction sums at one (class, level)
// cell. The sums are exact (stats.ExactSum) and the weights are integral
// (one per job, or the job's cNodes), so cells merge exactly and the
// shares, rounded once when read, do not depend on how the stream was split
// or merged. The sums live in a fixed array indexed by core.Component — the
// accumulator sits on the per-job hot path of the streaming fold.
type compAcc struct {
	sum [numComponents]stats.ExactSum
	w   float64
	n   int
}

// numComponents covers the closed component set (data I/O, weights,
// compute-bound, memory-bound) the array cells index by.
const numComponents = 4

// fractions computes the component-fraction vector of one breakdown once
// per job, in the exact expression Times.Fraction uses, so array cells
// accumulate bit-identical values to the former per-component calls.
func fractions(t core.Times) [numComponents]float64 {
	sum := t.DataIO + t.Compute() + t.Weights
	if sum == 0 {
		return [numComponents]float64{}
	}
	return [numComponents]float64{
		core.CompDataIO:       t.DataIO / sum,
		core.CompWeights:      t.Weights / sum,
		core.CompComputeFLOPs: t.ComputeFLOPs / sum,
		core.CompComputeMem:   t.ComputeMem / sum,
	}
}

func (a *compAcc) add(fr *[numComponents]float64, w float64) {
	for c := range fr {
		a.sum[c].AddProduct(fr[c], w)
	}
	a.w += w
	a.n++
}

func (a *compAcc) merge(b *compAcc) {
	for c := range b.sum {
		a.sum[c].Merge(&b.sum[c])
	}
	a.w += b.w
	a.n += b.n
}

// shares returns each component's weighted mean fraction, the exact sum
// divided by the total weight and rounded once.
func (a *compAcc) shares() map[core.Component]float64 {
	out := make(map[core.Component]float64, numComponents)
	for c := range a.sum {
		out[core.Component(c)] = a.sum[c].Quo(a.w)
	}
	return out
}

// classCell bundles everything the accumulator tracks per workload class —
// both aggregation levels plus the constitution counters — so the hot path
// pays one map lookup per job instead of one per statistic.
type classCell struct {
	level  [2]compAcc // indexed by Level (JobLevel, CNodeLevel)
	jobs   int
	cnodes int
}

// stepHistGrid is the shared log-spaced bin grid of the step-time
// histogram every accumulator uses, so per-shard histograms always merge.
// The range covers 100 µs to ~3 hours per step, far beyond the calibrated
// lognormal's support.
var stepHistGrid = stats.MustGrid(stats.LogGrid(1e-4, 1e4, 161))

// BreakdownAccumulator folds per-job evaluation results into every
// collective aggregate the characterization reports — constitution (Fig. 5),
// average component breakdowns per class and overall at both levels
// (Fig. 7 / Sec. III-D), and step-time summary statistics — in O(1) memory
// per job. It is the sink the streaming pipeline hands results to. Every
// aggregate is exact until read (the overall shares are summed from the
// class cells at read time), so per-shard accumulators merge into the bulk
// result exactly, in any grouping and order.
//
// An accumulator is not safe for concurrent use; the streaming pipeline
// calls Add from a single goroutine.
type BreakdownAccumulator struct {
	byClass map[workload.Class]*classCell

	totalJobs   int
	totalCNodes int

	step     stats.MeanVar
	stepHist *stats.Histogram
}

// NewBreakdownAccumulator returns an empty accumulator. The zero value is
// also usable: Add and Merge initialize it lazily.
func NewBreakdownAccumulator() *BreakdownAccumulator {
	a := &BreakdownAccumulator{}
	a.init()
	return a
}

// init backfills the map and histogram state, so the zero value works like
// the rest of the package's API objects.
func (a *BreakdownAccumulator) init() {
	if a.byClass != nil {
		return
	}
	a.byClass = map[workload.Class]*classCell{}
	a.stepHist = stats.NewGridHistogram(stepHistGrid)
}

// Add folds one evaluated job into every aggregate.
func (a *BreakdownAccumulator) Add(f workload.Features, t core.Times) error {
	a.init()
	cell := a.byClass[f.Class]
	if cell == nil {
		cell = &classCell{}
		a.byClass[f.Class] = cell
	}
	fr := fractions(t)
	cell.level[JobLevel].add(&fr, JobLevel.weight(f))
	cell.level[CNodeLevel].add(&fr, CNodeLevel.weight(f))
	cell.jobs++
	cell.cnodes += f.CNodes
	a.totalJobs++
	a.totalCNodes += f.CNodes
	total := t.Total()
	a.step.Add(total)
	a.stepHist.Add(total)
	return nil
}

// Kind implements Sink.
func (a *BreakdownAccumulator) Kind() string { return kindBreakdown }

// Merge folds another accumulator into the receiver (the per-shard
// reduction step). Merging is exact: merging shard accumulators in any
// grouping and order equals accumulating the whole stream.
func (a *BreakdownAccumulator) Merge(other Sink) error {
	if other == nil {
		return nil
	}
	b, ok := other.(*BreakdownAccumulator)
	if !ok {
		return fmt.Errorf("analyze: cannot merge %T into BreakdownAccumulator", other)
	}
	if b == nil || b.byClass == nil {
		return nil
	}
	a.init()
	for class, cell := range b.byClass {
		mine := a.byClass[class]
		if mine == nil {
			mine = &classCell{}
			a.byClass[class] = mine
		}
		for lvl := range cell.level {
			mine.level[lvl].merge(&cell.level[lvl])
		}
		mine.jobs += cell.jobs
		mine.cnodes += cell.cnodes
	}
	a.totalJobs += b.totalJobs
	a.totalCNodes += b.totalCNodes
	a.step.Merge(&b.step)
	return a.stepHist.Merge(b.stepHist)
}

// N reports the number of jobs folded in.
func (a *BreakdownAccumulator) N() int { return a.totalJobs }

// Rows returns the Fig. 7 average breakdown rows: classes in
// workload.AllClasses order, job level before cNode level.
func (a *BreakdownAccumulator) Rows() []BreakdownRow {
	var rows []BreakdownRow
	for _, class := range workload.AllClasses() {
		cell, ok := a.byClass[class]
		if !ok {
			continue
		}
		for _, lvl := range []Level{JobLevel, CNodeLevel} {
			acc := &cell.level[lvl]
			rows = append(rows, BreakdownRow{
				Class: class, Level: lvl,
				Share: acc.shares(), N: acc.n,
			})
		}
	}
	return rows
}

// Overall returns the aggregate component shares over all jobs at one level
// (the Sec. III-D headline numbers).
func (a *BreakdownAccumulator) Overall(lvl Level) (map[core.Component]float64, error) {
	if lvl != JobLevel && lvl != CNodeLevel {
		return nil, fmt.Errorf("analyze: unknown level %v", lvl)
	}
	if a.totalJobs == 0 {
		return nil, fmt.Errorf("analyze: empty accumulator")
	}
	var acc compAcc
	for _, class := range sortedClasses(a.byClass) {
		acc.merge(&a.byClass[class].level[lvl])
	}
	return acc.shares(), nil
}

// Constitution returns the Fig. 5 workload composition.
func (a *BreakdownAccumulator) Constitution() (Constitution, error) {
	if a.totalJobs == 0 {
		return Constitution{}, fmt.Errorf("analyze: empty accumulator")
	}
	c := Constitution{
		JobShare:    map[workload.Class]float64{},
		CNodeShare:  map[workload.Class]float64{},
		Jobs:        map[workload.Class]int{},
		CNodes:      map[workload.Class]int{},
		TotalJobs:   a.totalJobs,
		TotalCNodes: a.totalCNodes,
	}
	for class, cell := range a.byClass {
		c.Jobs[class] = cell.jobs
		c.JobShare[class] = float64(cell.jobs) / float64(a.totalJobs)
		c.CNodes[class] = cell.cnodes
		if a.totalCNodes > 0 {
			c.CNodeShare[class] = float64(cell.cnodes) / float64(a.totalCNodes)
		}
	}
	return c, nil
}

// StepTime returns the streaming summary of per-step total times.
func (a *BreakdownAccumulator) StepTime() *stats.MeanVar { return &a.step }

// StepTimeQuantile returns an interpolated quantile of the per-step total
// time from the accumulator's histogram sketch.
func (a *BreakdownAccumulator) StepTimeQuantile(q float64) (float64, error) {
	a.init()
	return a.stepHist.Quantile(q)
}

// breakdownAccVersion tags the BreakdownAccumulator snapshot layout.
const breakdownAccVersion = 2

// marshalCompAcc appends one component accumulator's exact state.
func marshalCompAcc(w *binenc.Writer, c *compAcc) {
	for i := range c.sum {
		c.sum[i].AppendBinary(w)
	}
	w.F64(c.w)
	w.Int(c.n)
}

// unmarshalCompAcc reads one component accumulator.
func unmarshalCompAcc(r *binenc.Reader, c *compAcc) error {
	for i := range c.sum {
		if err := c.sum[i].ReadBinary(r); err != nil {
			return err
		}
	}
	c.w = r.F64()
	c.n = int(r.Uvarint())
	return nil
}

// MarshalBinary encodes the accumulator as a versioned binary snapshot.
// Classes are written in sorted order, so identical state always yields
// identical bytes regardless of map iteration order — the property the
// multi-process byte-identity guarantee rests on.
func (a *BreakdownAccumulator) MarshalBinary() ([]byte, error) {
	a.init()
	w := binenc.NewWriter(512)
	w.U8(breakdownAccVersion)
	w.Int(a.totalJobs)
	w.Int(a.totalCNodes)
	stepRaw, err := a.step.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Raw(stepRaw)
	histRaw, err := a.stepHist.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Raw(histRaw)
	classes := make([]workload.Class, 0, len(a.byClass))
	for class := range a.byClass {
		classes = append(classes, class)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	w.Int(len(classes))
	for _, class := range classes {
		cell := a.byClass[class]
		w.Uvarint(uint64(class))
		for lvl := range cell.level {
			marshalCompAcc(w, &cell.level[lvl])
		}
		w.Int(cell.jobs)
		w.Int(cell.cnodes)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a MarshalBinary snapshot, replacing the receiver.
func (a *BreakdownAccumulator) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != breakdownAccVersion {
		return fmt.Errorf("analyze: breakdown snapshot version %d, want %d", v, breakdownAccVersion)
	}
	b := NewBreakdownAccumulator()
	b.totalJobs = int(r.Uvarint())
	b.totalCNodes = int(r.Uvarint())
	stepRaw := r.View()
	histRaw := r.View()
	nClasses := r.Int()
	for i := 0; i < nClasses && r.Err() == nil; i++ {
		class := workload.Class(r.Uvarint())
		cell := &classCell{}
		for lvl := range cell.level {
			if err := unmarshalCompAcc(r, &cell.level[lvl]); err != nil {
				return fmt.Errorf("analyze: breakdown snapshot: %w", err)
			}
		}
		cell.jobs = int(r.Uvarint())
		cell.cnodes = int(r.Uvarint())
		if _, dup := b.byClass[class]; dup {
			return fmt.Errorf("analyze: breakdown snapshot repeats class %v", class)
		}
		b.byClass[class] = cell
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("analyze: breakdown snapshot: %w", err)
	}
	if err := b.step.UnmarshalBinary(stepRaw); err != nil {
		return err
	}
	if err := b.stepHist.UnmarshalBinary(histRaw); err != nil {
		return err
	}
	*a = *b
	return nil
}

// FoldInto streams every block of src through ev over the worker pool and
// folds each result into sink — the generic core every analysis fold runs
// through. Record sources come in through stream.Blocks, which cuts them
// into 256-record blocks. A ColumnSink folds whole blocks, so no per-record
// Result is ever materialized; any other sink gets the row loop. Both
// produce byte-identical sink snapshots — that is the ColumnSink contract.
// It returns the number of jobs folded.
func FoldInto(ctx context.Context, ev backend.Evaluator, parallelism int, src stream.BlockSource, sink Sink) (int, error) {
	if sink == nil {
		return 0, fmt.Errorf("analyze: FoldInto with nil sink")
	}
	n, err := stream.EvaluateBlocksInto(ctx, ev, src, parallelism, readsColumns(sink), func(b *stream.Evaluated) error {
		return addBlock(sink, b)
	})
	if err != nil {
		return n, fmt.Errorf("analyze: %w", err)
	}
	return n, nil
}
