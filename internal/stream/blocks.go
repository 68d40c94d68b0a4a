package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/evalcache"
	"repro/internal/workload"
)

// BlockSource yields whole structure-of-arrays blocks — the bulk calling
// convention a columnar trace reader (internal/colbin) serves. NextBlock
// resets c and fills it with the next block, returning io.EOF after the
// last. Sources are consumed from a single goroutine.
//
// A source that implements both Source and BlockSource (colbin.Reader does)
// passes through Blocks as it is, so every caller of the streaming pipeline
// gets decoded-block evaluation the moment its input is columnar — no
// call-site changes.
type BlockSource interface {
	NextBlock(c *workload.Columns) error
}

// PayloadSource is the pipelined handoff beside BlockSource: NextPayload
// does only the work that must stay sequential — frame read, checksum,
// name-dictionary interning — and returns a single-use decode closure plus
// the block's record count. The pipeline runs the closure on a worker, so
// decode of block N+1 overlaps evaluation of block N instead of serializing
// behind it. The closure must be called exactly once; calling it with a nil
// Columns releases the payload without decoding (the drain paths use that).
//
// colbin.Reader implements it; the block pipeline upgrades any BlockSource
// that does.
type PayloadSource interface {
	NextPayload() (dec func(*workload.Columns) error, n int, err error)
}

// blockChunk is one in-flight block. In decoded form cols is set; in payload
// form (PayloadSource upgrade) dec carries the pending decode, and the
// worker that picks the chunk up decodes it.
type blockChunk struct {
	seq  int
	cols *workload.Columns
	dec  func(*workload.Columns) error
}

type evaluatedBlock struct {
	blockChunk
	times []core.Times
	memo  *evalcache.Block
}

// Block buffers recycle through pools: at millions of jobs per second the
// pipeline would otherwise retire a Columns block and a times slice per
// block, and the garbage-collection pressure becomes visible next to
// sub-microsecond evaluations.
var (
	colsPool = sync.Pool{New: func() any { return new(workload.Columns) }}

	// Times buffers grow to the block they first serve, so a 256-record
	// block cut from a record source does not pin a colbin-sized buffer.
	blockTimesPool = sync.Pool{New: func() any { return new([]core.Times) }}

	// colsBalance and timesBalance count pool gets minus puts. Both sit at
	// zero whenever no block pipeline is running, which is exactly what the
	// leak test asserts across every error and cancellation path: a buffer
	// dropped instead of returned shows up as a positive residue.
	colsBalance, timesBalance atomic.Int64
)

func getCols() *workload.Columns {
	colsBalance.Add(1)
	c := colsPool.Get().(*workload.Columns)
	c.Reset()
	return c
}

func putCols(c *workload.Columns) {
	if c == nil {
		return
	}
	colsBalance.Add(-1)
	colsPool.Put(c)
}

func getTimes(n int) []core.Times {
	timesBalance.Add(1)
	ts := *blockTimesPool.Get().(*[]core.Times)
	if cap(ts) < n {
		ts = make([]core.Times, n)
	}
	return ts[:n]
}

func putTimes(ts []core.Times) {
	if ts == nil {
		return
	}
	timesBalance.Add(-1)
	blockTimesPool.Put(&ts)
}

// releaseChunk returns whatever a chunk holds — an undecoded payload or a
// pooled block — so drain paths can drop work without leaking buffers.
func releaseChunk(c blockChunk) {
	if c.dec != nil {
		_ = c.dec(nil)
		return
	}
	putCols(c.cols)
}

// evaluateBlock evaluates one block through backend.EvaluateColumns, or
// through the result cache's block path when ev is one, returning the
// cache's entry handle on a block-cache hit.
func evaluateBlock(ev backend.Evaluator, cols *workload.Columns, ts []core.Times) (*evalcache.Block, error) {
	if c, ok := ev.(*evalcache.Cache); ok {
		return c.EvaluateBlock(cols, ts)
	}
	return nil, backend.EvaluateColumns(ev, cols, ts)
}

// EvaluateBlocks evaluates every block of src (a record Source comes in
// through Blocks) and delivers the results to fn record by record, in input
// order. Each block is one work unit: decoded in bulk upstream and
// evaluated in one backend call (backend.EvaluateColumns, which uses the
// backend's column fast path when it has one). Peak
// memory is O(parallelism) blocks. It returns the delivered count and the
// first error; any error or cancellation stops the pipeline, and a nil fn
// discards results.
func EvaluateBlocks(ctx context.Context, ev backend.Evaluator, src BlockSource, parallelism int, fn func(Result) error) (int, error) {
	// Blocks arrive in input order, so the running count is each record's
	// stream index; it also counts the records before a failing fn call.
	delivered := 0
	_, err := EvaluateBlocksInto(ctx, ev, src, parallelism, func(cols *workload.Columns, times []core.Times, _ *evalcache.Block) error {
		if fn == nil {
			delivered += cols.Len()
			return nil
		}
		for i := 0; i < cols.Len(); i++ {
			if err := fn(Result{Index: delivered, Job: cols.Row(i), Times: times[i]}); err != nil {
				return err
			}
			delivered++
		}
		return nil
	})
	return delivered, err
}

// EvaluateBlocksInto is the one worker pipeline — reader, workers and the
// in-order collector — and EvaluateBlocks with block-granular delivery:
// blockFn receives each whole evaluated block (columns plus times, parallel
// by index) in input order instead of per-record Results, so a
// column-capable sink folds one call per block and no Result is ever
// materialized. Both buffers are owned by the pipeline and recycled after
// blockFn returns — do not retain them. A nil blockFn discards results. The
// count returned is records (not blocks), matching EvaluateBlocks.
//
// When ev is a result cache (evalcache.Cache) and a block's evaluation is a
// block-cache hit, blockFn also receives the handle of the memoized entry
// that answered it — taken by the evaluating worker, so the consumer can
// memoize what it derives from the block without hashing or verifying it
// again. Otherwise the handle is nil.
func EvaluateBlocksInto(ctx context.Context, ev backend.Evaluator, src BlockSource, parallelism int, blockFn func(*workload.Columns, []core.Times, *evalcache.Block) error) (int, error) {
	if ev == nil {
		return 0, fmt.Errorf("stream: EvaluateBlocks with nil evaluator")
	}
	if src == nil {
		return 0, fmt.Errorf("stream: EvaluateBlocks with nil source")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if parallelism < 1 {
		parallelism = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	maxOutstanding := 2 * parallelism
	tokens := make(chan struct{}, maxOutstanding)
	work := make(chan blockChunk, parallelism)
	done := make(chan evaluatedBlock, parallelism)

	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	// Reader: pull blocks — whole decoded blocks from a plain BlockSource,
	// or checksummed payload closures from a PayloadSource, so the decode
	// itself lands on the worker pool and overlaps evaluation.
	ps, pipelined := src.(PayloadSource)
	go func() {
		defer close(work)
		seq := 0
		for {
			var c blockChunk
			if pipelined {
				dec, n, err := ps.NextPayload()
				if errors.Is(err, io.EOF) {
					return
				}
				if err != nil {
					fail(err)
					return
				}
				if n == 0 {
					_ = dec(nil)
					continue // tolerate empty blocks
				}
				c = blockChunk{seq: seq, dec: dec}
			} else {
				cols := getCols()
				err := src.NextBlock(cols)
				if errors.Is(err, io.EOF) {
					putCols(cols)
					return
				}
				if err != nil {
					putCols(cols)
					fail(err)
					return
				}
				if cols.Len() == 0 {
					putCols(cols)
					continue // tolerate empty blocks
				}
				c = blockChunk{seq: seq, cols: cols}
			}
			select {
			case tokens <- struct{}{}:
			case <-ctx.Done():
				releaseChunk(c)
				fail(context.Cause(ctx))
				return
			}
			select {
			case work <- c:
			case <-ctx.Done():
				releaseChunk(c)
				fail(context.Cause(ctx))
				return
			}
			seq++
		}
	}()

	// Workers: decode (payload mode) and evaluate whole blocks.
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				if ctx.Err() != nil {
					releaseChunk(c)
					fail(context.Cause(ctx))
					return
				}
				if c.dec != nil {
					cols := getCols()
					if err := c.dec(cols); err != nil {
						putCols(cols)
						fail(err)
						return
					}
					c.dec = nil
					c.cols = cols
				}
				ts := getTimes(c.cols.Len())
				memo, err := evaluateBlock(ev, c.cols, ts)
				if err != nil {
					putTimes(ts)
					putCols(c.cols)
					fail(fmt.Errorf("stream: %w", err))
					return
				}
				select {
				case done <- evaluatedBlock{blockChunk: c, times: ts, memo: memo}:
				case <-ctx.Done():
					putTimes(ts)
					putCols(c.cols)
					fail(context.Cause(ctx))
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		// Workers that exited early leave queued chunks behind; drain them
		// (the reader has closed work by now — any failure cancels it) so
		// their buffers and payloads go back where they came from.
		for c := range work {
			releaseChunk(c)
		}
		close(done)
	}()

	// Collector (caller's goroutine): reorder and deliver.
	var (
		delivered int
		next      int
		pending   = make(map[int]evaluatedBlock, maxOutstanding)
		failed    bool
	)
	for e := range done {
		if !failed && ctx.Err() != nil {
			fail(context.Cause(ctx))
			failed = true
		}
		if failed {
			putCols(e.cols)
			putTimes(e.times)
			<-tokens
			continue
		}
		pending[e.seq] = e
		for {
			c, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if blockFn != nil {
				if err := blockFn(c.cols, c.times, c.memo); err != nil {
					fail(fmt.Errorf("stream: sink: %w", err))
					failed = true
				}
			}
			if !failed {
				delivered += c.cols.Len()
			}
			putCols(c.cols)
			putTimes(c.times)
			<-tokens
			next++
			if failed {
				break
			}
		}
	}
	// A failure can leave reordered blocks parked; their buffers recycle too.
	for _, e := range pending {
		putCols(e.cols)
		putTimes(e.times)
	}
	if firstErr != nil {
		return delivered, firstErr
	}
	return delivered, nil
}
