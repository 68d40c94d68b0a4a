package analyze

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/stream"
)

// FoldRanges is the grid-cell fold every sharded analysis runs on: `cells`
// block sources — N trace sources (one cell per source) or the micro-shards
// of one deterministic partition grid (colbin Index.Partition) — each fold
// by FoldInto into their own sink built by factory, and the per-cell sinks
// merge in cell order into a fresh factory sink. Because the grid is a pure
// function of the trace and the grain, every run over the same file — one
// consumer, N consumers, or N processes — folds the same records into the
// same cells and merges them in the same order, so the merged sink's
// snapshot is byte-identical across all of them for any sink whose Merge is
// deterministic. The report sinks merge exactly, so for them the grid and
// the merge order do not change the bytes at all.
//
// `consumers` goroutines pull cell indexes from a shared counter; each
// opens its cell, builds the cell's sink, and folds the cell with an even
// share of the parallelism budget (at least one worker), so no two
// consumers ever contend on one frame sequence. open is called at most once
// per cell, from several consumers at once. Factory calls are serialized,
// so a factory need not be safe for concurrent use, and one goroutine owns
// each cell's sink, so the sinks need no locking. The first error — open,
// factory, decode, evaluation, fold or cancellation — names its cell and
// cancels every other cell. It returns the merged sink and per-cell record
// counts.
func FoldRanges(ctx context.Context, ev backend.Evaluator, parallelism, consumers, cells int, open func(cell int) (stream.BlockSource, error), factory func() (Sink, error)) (Sink, []int, error) {
	if ev == nil {
		return nil, nil, fmt.Errorf("analyze: FoldRanges with nil evaluator")
	}
	if open == nil || factory == nil {
		return nil, nil, fmt.Errorf("analyze: FoldRanges with nil open or sink factory")
	}
	if cells < 0 {
		return nil, nil, fmt.Errorf("analyze: FoldRanges with %d cells", cells)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var factoryMu sync.Mutex
	newSink := func() (Sink, error) {
		factoryMu.Lock()
		defer factoryMu.Unlock()
		s, err := factory()
		if err == nil && s == nil {
			err = fmt.Errorf("sink factory returned nil")
		}
		return s, err
	}
	consumers = min(max(consumers, 1), max(cells, 1))
	per := max(parallelism/consumers, 1)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		sinks    = make([]Sink, cells)
		counts   = make([]int, cells)
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	foldCell := func(cell int) error {
		if err := context.Cause(ctx); err != nil {
			return err
		}
		src, err := open(cell)
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		if sinks[cell], err = newSink(); err != nil {
			return err
		}
		counts[cell], err = FoldInto(ctx, ev, per, src, sinks[cell])
		return err
	}
	for w := 0; w < consumers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cell := int(next.Add(1) - 1); cell < cells; cell = int(next.Add(1) - 1) {
				if err := foldCell(cell); err != nil {
					errOnce.Do(func() {
						firstErr = fmt.Errorf("analyze: cell %d: %w", cell, err)
						cancel()
					})
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, counts, firstErr
	}
	total, err := newSink()
	if err != nil {
		return nil, counts, fmt.Errorf("analyze: %w", err)
	}
	for _, s := range sinks {
		if err := total.Merge(s); err != nil {
			return nil, counts, fmt.Errorf("analyze: %w", err)
		}
	}
	return total, counts, nil
}
