package stream

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/evalcache"
	"repro/internal/workload"
)

// EvaluateBlocksMulti is the file-parallel EvaluateBlocksInto: `cells`
// independent block sources — typically disjoint segments of one indexed
// colbin file (colbin.IndexedReader.Range) — are drained by `consumers`
// concurrent block pipelines. Consumers pull cell indexes from a shared
// counter, open each cell's source lazily via open, and run a full
// EvaluateBlocksInto pipeline over it with the parallelism budget split
// evenly, so each segment keeps the pipelined decode-overlaps-evaluation
// shape while no two consumers ever contend on one frame sequence.
//
// blockFn receives every evaluated block tagged with its cell; blocks of
// one cell arrive in that cell's input order, but calls for different cells
// interleave from different goroutines — per-cell state needs no locking,
// shared state does. The cache entry handle is passed through as in
// EvaluateBlocksInto. The returned slice holds per-cell record counts. The
// first error (open, decode, evaluation, blockFn, or cancellation), tagged
// with its cell, cancels every in-flight pipeline.
func EvaluateBlocksMulti(ctx context.Context, ev backend.Evaluator, cells, consumers, parallelism int, open func(cell int) (BlockSource, error), blockFn func(cell int, cols *workload.Columns, times []core.Times, memo *evalcache.Block) error) ([]int, error) {
	if ev == nil {
		return nil, fmt.Errorf("stream: EvaluateBlocksMulti with nil evaluator")
	}
	if open == nil {
		return nil, fmt.Errorf("stream: EvaluateBlocksMulti with nil open")
	}
	if cells < 0 {
		return nil, fmt.Errorf("stream: EvaluateBlocksMulti with %d cells", cells)
	}
	counts := make([]int, cells)
	if cells == 0 {
		return counts, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if consumers < 1 {
		consumers = 1
	}
	if consumers > cells {
		consumers = cells
	}
	if parallelism < 1 {
		parallelism = 1
	}
	per := parallelism / consumers
	if per < 1 {
		per = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < consumers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				cell := int(next.Add(1) - 1)
				if cell >= cells || ctx.Err() != nil {
					return
				}
				src, err := open(cell)
				if err != nil {
					fail(fmt.Errorf("stream: open cell %d: %w", cell, err))
					return
				}
				var cellFn func(*workload.Columns, []core.Times, *evalcache.Block) error
				if blockFn != nil {
					cellFn = func(cols *workload.Columns, ts []core.Times, memo *evalcache.Block) error {
						return blockFn(cell, cols, ts, memo)
					}
				}
				n, err := EvaluateBlocksInto(ctx, ev, src, per, cellFn)
				counts[cell] = n
				if err != nil {
					fail(fmt.Errorf("stream: cell %d: %w", cell, err))
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return counts, firstErr
	}
	return counts, nil
}
