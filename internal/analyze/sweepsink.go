package analyze

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/binenc"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/stats"
	"repro/internal/workload"
)

// sweepCell is one Table III grid point: the resource variation plus the
// streaming mean of per-job speedups against the baseline.
type sweepCell struct {
	res        hw.Resource
	normalized float64
	mv         stats.MeanVar
}

// SweepSink folds the Fig. 11 hardware-evolution sweep for one class during
// the streamed pass: each job of the class is re-evaluated under every
// Table III variation (via backends reconfigured once at construction) and
// the per-point speedup means accumulate in O(grid) memory, so the sweep
// section never materializes the trace.
//
// A sink restored from a snapshot has no backends attached: it merges and
// reports, but Add returns an error.
type SweepSink struct {
	class workload.Class
	cells []sweepCell
	evs   []backend.Evaluator // one per cell; nil after snapshot restore

	// scratch holds the per-cell speedups of the jobs addJobs is folding,
	// cell major.
	scratch []float64
}

// NewSweepSink builds a sweep sink for one class over a Sweepable base
// backend. Grid points are ordered deterministically (resources in
// hw.AllResources order, variations ascending by normalized value), so
// per-shard sinks always merge cell-by-cell.
func NewSweepSink(base backend.Backend, class workload.Class) (*SweepSink, error) {
	if base == nil {
		return nil, fmt.Errorf("analyze: NewSweepSink with nil backend")
	}
	if !base.Capabilities().Sweepable {
		return nil, fmt.Errorf("analyze: backend %q does not support hardware sweeps", base.Name())
	}
	s := &SweepSink{class: class}
	grid := hw.TableIII()
	for _, res := range hw.AllResources() {
		vars := append([]hw.Variation(nil), grid[res]...)
		sort.Slice(vars, func(i, j int) bool { return vars[i].Normalized < vars[j].Normalized })
		for _, v := range vars {
			cfg, err := base.Spec().Config.Apply(v)
			if err != nil {
				return nil, err
			}
			b, err := base.Reconfigure(base.Spec().WithConfig(cfg))
			if err != nil {
				return nil, fmt.Errorf("analyze: sweep %v: %w", v, err)
			}
			s.cells = append(s.cells, sweepCell{res: res, normalized: v.Normalized})
			s.evs = append(s.evs, b)
		}
	}
	return s, nil
}

// Kind implements Sink.
func (s *SweepSink) Kind() string { return kindSweep }

// Class returns the class the sink sweeps.
func (s *SweepSink) Class() workload.Class { return s.class }

// Add re-evaluates one job of the sink's class under every grid point. The
// baseline step time comes from the streamed breakdown, so the base
// configuration is never re-evaluated.
func (s *SweepSink) Add(f workload.Features, t core.Times) error {
	if f.Class != s.class {
		return nil
	}
	return s.addJobs([]workload.Features{f}, []float64{t.Total()})
}

// addJobs evaluates jobs under every grid point, the grid points
// concurrently (bounded by GOMAXPROCS): the sink is fed from the pipeline's
// single collector goroutine, and the grid, not the base evaluation,
// dominates the sweep's cost. It then adds each cell's speedups to the
// cell's mean serially, in job order. Cells are independent, so the state is
// the same whether the jobs arrive one by one or a block at a time.
func (s *SweepSink) addJobs(jobs []workload.Features, base []float64) error {
	if s.evs == nil {
		return fmt.Errorf("analyze: sweep sink restored from a snapshot is merge/report-only")
	}
	for j, b := range base {
		if b <= 0 {
			return fmt.Errorf("analyze: sweep: job %q has zero step time", jobs[j].Name)
		}
	}
	n := len(jobs)
	if need := len(s.cells) * n; cap(s.scratch) < need {
		s.scratch = make([]float64, need)
	}
	speedups := s.scratch[:len(s.cells)*n]
	evalCell := func(i int) error {
		for j, f := range jobs {
			bd, err := s.evs[i].Breakdown(f)
			if err != nil {
				return fmt.Errorf("analyze: sweep job %q: %w", f.Name, err)
			}
			speedups[i*n+j] = base[j] / bd.Total()
		}
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(s.cells) {
		workers = len(s.cells)
	}
	var firstErr error
	if workers <= 1 {
		for i := range s.cells {
			if err := evalCell(i); err != nil {
				return err
			}
		}
	} else {
		var (
			next    atomic.Int64
			errOnce sync.Once
			wg      sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(s.cells) {
						return
					}
					if err := evalCell(i); err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	if firstErr != nil {
		return firstErr
	}
	for i := range s.cells {
		for _, sp := range speedups[i*n : (i+1)*n] {
			s.cells[i].mv.Add(sp)
		}
	}
	return nil
}

// Merge folds another SweepSink with the same class and grid into the
// receiver.
func (s *SweepSink) Merge(other Sink) error {
	if other == nil {
		return nil
	}
	o, ok := other.(*SweepSink)
	if !ok {
		return fmt.Errorf("analyze: cannot merge %T into SweepSink", other)
	}
	if len(o.cells) == 0 {
		return nil
	}
	if len(s.cells) == 0 {
		// The receiver is an empty registry-made sink: adopt the grid.
		s.class = o.class
		s.cells = append([]sweepCell(nil), o.cells...)
		return nil
	}
	if o.class != s.class {
		return fmt.Errorf("analyze: merge of sweep sinks for classes %v vs %v", s.class, o.class)
	}
	if len(o.cells) != len(s.cells) {
		return fmt.Errorf("analyze: merge of sweep sinks with %d vs %d grid points", len(s.cells), len(o.cells))
	}
	for i := range s.cells {
		if s.cells[i].res != o.cells[i].res || s.cells[i].normalized != o.cells[i].normalized {
			return fmt.Errorf("analyze: sweep grid mismatch at point %d", i)
		}
		s.cells[i].mv.Merge(&o.cells[i].mv)
	}
	return nil
}

// N reports the number of swept jobs folded in.
func (s *SweepSink) N() int {
	if len(s.cells) == 0 {
		return 0
	}
	return int(s.cells[0].mv.N())
}

// Panel assembles the Fig. 11 panel from the folded means.
func (s *SweepSink) Panel(label string) (SweepPanel, error) {
	if s.N() == 0 {
		return SweepPanel{}, fmt.Errorf("analyze: empty sweep sink for %q", label)
	}
	panel := SweepPanel{Label: label}
	var cur *SweepSeries
	for i := range s.cells {
		c := &s.cells[i]
		if cur == nil || cur.Resource != c.res {
			panel.Series = append(panel.Series, SweepSeries{Resource: c.res})
			cur = &panel.Series[len(panel.Series)-1]
		}
		cur.Points = append(cur.Points, SweepPoint{
			Resource:    c.res,
			Normalized:  c.normalized,
			MeanSpeedup: c.mv.Mean(),
		})
	}
	return panel, nil
}

// sweepSinkVersion tags the SweepSink snapshot layout.
const sweepSinkVersion = 1

// MarshalBinary encodes the class, grid, and per-point aggregates (never
// the backends).
func (s *SweepSink) MarshalBinary() ([]byte, error) {
	w := binenc.NewWriter(64 + 64*len(s.cells))
	w.U8(sweepSinkVersion)
	w.Uvarint(uint64(s.class))
	w.Int(len(s.cells))
	for i := range s.cells {
		c := &s.cells[i]
		w.Uvarint(uint64(c.res))
		w.F64(c.normalized)
		raw, err := c.mv.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.Raw(raw)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a MarshalBinary snapshot into a merge/report-only
// sink.
func (s *SweepSink) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != sweepSinkVersion {
		return fmt.Errorf("analyze: sweep snapshot version %d, want %d", v, sweepSinkVersion)
	}
	fresh := SweepSink{class: workload.Class(r.Uvarint())}
	n := r.Int()
	for i := 0; i < n && r.Err() == nil; i++ {
		c := sweepCell{res: hw.Resource(r.Uvarint()), normalized: r.F64()}
		raw := r.View()
		if r.Err() != nil {
			break
		}
		if err := c.mv.UnmarshalBinary(raw); err != nil {
			return err
		}
		fresh.cells = append(fresh.cells, c)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("analyze: sweep snapshot: %w", err)
	}
	*s = fresh
	return nil
}
