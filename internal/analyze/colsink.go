package analyze

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// ColumnSink is the block-granular calling convention beside Sink.Add: one
// call folds a whole evaluated structure-of-arrays block. Sinks implement it
// to keep the columnar pipeline columnar end-to-end — a colbin block that was
// decoded in bulk and evaluated in one backend call folds in one sink call
// too, never materializing per-record Features or Results on the hot path.
//
// Contract: AddColumns(c, ts) must leave the sink in exactly the state a
// row-by-row Add(c.Row(i), ts[i]) loop would, so snapshots stay
// byte-identical between the columnar and scalar paths (the invariant the
// engine-level identity tests pin).
// ts has length c.Len(); both buffers are owned by the pipeline and must not
// be retained after the call returns.
type ColumnSink interface {
	// AddColumns folds one evaluated block into the aggregate.
	AddColumns(c *workload.Columns, ts []core.Times) error
}

// checkBlockShape verifies the block/times pairing every AddColumns starts
// with.
func checkBlockShape(c *workload.Columns, ts []core.Times) error {
	if c == nil {
		return fmt.Errorf("analyze: AddColumns with nil block")
	}
	if len(ts) != c.Len() {
		return fmt.Errorf("analyze: AddColumns with %d times for %d records", len(ts), c.Len())
	}
	return nil
}

// AddColumns implements ColumnSink: the block loop reads the class and
// cNodes columns directly (the only feature fields the breakdown weights
// depend on) and replays the exact Add arithmetic per record.
func (a *BreakdownAccumulator) AddColumns(c *workload.Columns, ts []core.Times) error {
	if err := checkBlockShape(c, ts); err != nil {
		return err
	}
	a.init()
	for i := range ts {
		cell := a.byClass[c.Class[i]]
		if cell == nil {
			cell = &classCell{}
			a.byClass[c.Class[i]] = cell
		}
		fr := fractions(ts[i])
		cn := c.CNodes[i]
		cell.level[JobLevel].add(&fr, 1)
		cell.level[CNodeLevel].add(&fr, float64(cn))
		cell.jobs++
		cell.cnodes += cn
		a.totalJobs++
		a.totalCNodes += cn
		total := ts[i].Total()
		a.step.Add(total)
		a.stepHist.Add(total)
	}
	return nil
}

// AddColumns implements ColumnSink for the per-class component-fraction CDF
// sketches.
func (s *ComponentCDFSink) AddColumns(c *workload.Columns, ts []core.Times) error {
	if err := checkBlockShape(c, ts); err != nil {
		return err
	}
	s.init()
	for i := range ts {
		cell := s.cell(c.Class[i])
		fr := fractions(ts[i])
		wj, wc := 1.0, float64(c.CNodes[i])
		for comp := range fr {
			cell[JobLevel][comp].AddWeighted(fr[comp], wj)
			cell[CNodeLevel][comp].AddWeighted(fr[comp], wc)
		}
	}
	return nil
}

// AddColumns implements ColumnSink for the hardware-fraction CDF sketches.
func (s *HardwareCDFSink) AddColumns(c *workload.Columns, ts []core.Times) error {
	if err := checkBlockShape(c, ts); err != nil {
		return err
	}
	s.init()
	for i := range ts {
		s.add(ts[i].HardwareFractions(), 1.0, float64(c.CNodes[i]))
	}
	return nil
}

// AddColumns implements ColumnSink for the projection study: the class
// column pre-filters the block, so only PS/Worker rows materialize Features
// for the projector. A projection does not depend on arrival, and the rows
// are projected with ArrivalSec cleared, so the fold reads only the keyed
// columns the fold memo requires (Name appears only in error messages).
func (s *ProjectionSink) AddColumns(c *workload.Columns, ts []core.Times) error {
	if err := checkBlockShape(c, ts); err != nil {
		return err
	}
	for i := range ts {
		if c.Class[i] != workload.PSWorker {
			continue
		}
		f := c.Row(i)
		f.ArrivalSec = 0
		if err := s.Add(f, ts[i]); err != nil {
			return err
		}
	}
	return nil
}

// AddColumns implements ColumnSink for the hardware-evolution sweep: the
// class column pre-filters the block, so only swept rows materialize
// Features, and the block's swept rows re-evaluate as one batch, so the
// grid fan-out starts once per block rather than once per job.
func (s *SweepSink) AddColumns(c *workload.Columns, ts []core.Times) error {
	if err := checkBlockShape(c, ts); err != nil {
		return err
	}
	var jobs []workload.Features
	var base []float64
	for i := range ts {
		if c.Class[i] == s.class {
			jobs = append(jobs, c.Row(i))
			base = append(base, ts[i].Total())
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	return s.addJobs(jobs, base)
}

// AddColumns implements ColumnSink: the block fans out to every bundled
// sink, using the member's own columnar path when it has one and a row loop
// otherwise. Member sinks hold independent state, so folding sink-by-sink
// instead of row-by-row leaves each member exactly as the scalar pass would.
func (m *MultiSink) AddColumns(c *workload.Columns, ts []core.Times) error {
	if err := checkBlockShape(c, ts); err != nil {
		return err
	}
	for _, s := range m.sinks {
		if cs, ok := s.(ColumnSink); ok {
			if err := cs.AddColumns(c, ts); err != nil {
				return err
			}
			continue
		}
		for i := range ts {
			if err := s.Add(c.Row(i), ts[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
