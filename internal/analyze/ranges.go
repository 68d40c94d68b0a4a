package analyze

import (
	"context"
	"fmt"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/evalcache"
	"repro/internal/stream"
	"repro/internal/workload"
)

// FoldRanges is the grid-cell fold every sharded analysis runs on: `cells`
// block sources — N trace sources (FoldSinks) or the micro-shards of one
// deterministic partition grid (colbin Index.Partition) — each fold into
// their own sink built by factory, and the per-cell sinks merge in cell
// order into one aggregate. Because the
// grid is a pure function of the trace and the grain, every run over the
// same file — one consumer, N consumers, or N processes — folds the same
// records into the same cells and merges them in the same order, so the
// merged sink's snapshot is byte-identical across all of them for any sink
// whose Merge is deterministic. The report sinks merge exactly, so for
// them the grid and the merge order do not change the bytes at all.
//
// open is called at most once per cell, from a consumer goroutine, and one
// goroutine owns each cell's sink at a time, so the sinks need no locking.
// Column-capable sinks fold whole blocks (ColumnSink.AddColumns); others
// get the row loop. It returns the merged sink and per-cell record counts.
func FoldRanges(ctx context.Context, ev backend.Evaluator, parallelism, consumers, cells int, open func(cell int) (stream.BlockSource, error), factory func() (Sink, error)) (Sink, []int, error) {
	if factory == nil {
		return nil, nil, fmt.Errorf("analyze: FoldRanges with nil sink factory")
	}
	sinks := make([]Sink, cells)
	for i := range sinks {
		s, err := factory()
		if err != nil {
			return nil, nil, fmt.Errorf("analyze: %w", err)
		}
		if s == nil {
			return nil, nil, fmt.Errorf("analyze: sink factory returned nil")
		}
		sinks[i] = s
	}
	counts, err := stream.EvaluateBlocksMulti(ctx, ev, cells, consumers, parallelism, open, func(cell int, cols *workload.Columns, times []core.Times, blk *evalcache.Block) error {
		return addBlock(sinks[cell], cols, times, blk)
	})
	if err != nil {
		return nil, counts, fmt.Errorf("analyze: %w", err)
	}
	total, err := factory()
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

// FoldRange folds one block source into a single fresh factory sink — the
// per-cell unit FoldRanges runs once per grid cell, exposed on its own so
// distributed workers can produce the identical per-cell sinks out of
// process: a coordinator that merges them in cell order reconstructs the
// FoldRanges aggregate byte for byte. It returns the filled sink and the
// record count.
func FoldRange(ctx context.Context, ev backend.Evaluator, parallelism int, src stream.BlockSource, factory func() (Sink, error)) (Sink, int, error) {
	if factory == nil {
		return nil, 0, fmt.Errorf("analyze: FoldRange with nil sink factory")
	}
	sink, err := factory()
	if err != nil {
		return nil, 0, fmt.Errorf("analyze: %w", err)
	}
	if sink == nil {
		return nil, 0, fmt.Errorf("analyze: sink factory returned nil")
	}
	n, err := FoldInto(ctx, ev, parallelism, src, sink)
	if err != nil {
		return nil, n, err
	}
	return sink, n, nil
}
