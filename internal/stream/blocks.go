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
// does only the work that must stay sequential — frame read and checksum —
// and returns a single-use decode closure plus the block's record count.
// The pipeline runs the closure on a worker, so decode of block N+1
// (name-dictionary interning included) overlaps evaluation of block N
// instead of serializing behind it. The closure must be called exactly
// once; calling it with a nil Columns releases the payload without decoding
// (the drain paths use that).
//
// colbin.Reader implements it; the block pipeline upgrades any BlockSource
// that does.
type PayloadSource interface {
	NextPayload() (dec func(*workload.Columns) error, n int, err error)
}

// FrameSource is the frame handoff beside PayloadSource: NextFrame reads
// and checksums the next frame and returns its key — the encoded block
// without its ArrivalSec column — and the key's checksum with a decode
// closure, and decodes nothing. Byte-identical keys decode to identical
// keyed columns (everything the model reads), so when the evaluator is a
// result cache the pipeline looks each key up in the cache's frame index
// (evalcache.Cache.Frame) first, and a hit skips the decode. A nil key is
// never looked up.
//
// dec(c) with a non-nil c decodes into c and may be called more than once;
// dec(nil) releases the frame and must be the last call, made exactly once.
// key stays valid, and unmodified, until then.
//
// colbin.Reader implements it; the block pipeline upgrades any BlockSource
// that does when it evaluates through a cache.
type FrameSource interface {
	NextFrame() (key []byte, sum uint64, dec func(*workload.Columns) error, err error)
}

// blockChunk is one in-flight block. In decoded form cols is set; in payload
// and frame form (PayloadSource and FrameSource upgrades) dec carries the
// pending decode under FrameSource's contract, and the worker that picks
// the chunk up decodes it unless a frame chunk's key hits the cache.
type blockChunk struct {
	seq  int
	cols *workload.Columns
	dec  func(*workload.Columns) error
	key  []byte
	sum  uint64
}

// payloadDec gives a PayloadSource's single-use closure the FrameSource
// contract for the pipeline's use of it — one decode, then dec(nil) — by
// making every call after the first a no-op.
func payloadDec(dec func(*workload.Columns) error) func(*workload.Columns) error {
	used := false
	return func(c *workload.Columns) error {
		if used {
			return nil
		}
		used = true
		return dec(c)
	}
}

// Evaluated is one evaluated block as the pipeline hands it to its
// consumer. A block that is a frame hit may arrive undecoded: Columns
// decodes it on first use. Its buffers are owned by the pipeline and
// recycled after the consumer returns — do not retain them.
type Evaluated struct {
	seq   int
	n     int
	cols  *workload.Columns // pooled; nil until decoded
	times []core.Times      // pooled; nil until decoded
	memo  *evalcache.Block
	dec   func(*workload.Columns) error // a frame hit's frame decode
}

// Len returns the block's record count.
func (b *Evaluated) Len() int { return b.n }

// Memo returns the handle of the block-cache entry that answered the block,
// or nil when its evaluation was not a block-cache hit. It lets the
// consumer memoize what it derives from the block without hashing or
// verifying it again.
func (b *Evaluated) Memo() *evalcache.Block { return b.memo }

// Columns returns the block's columns and times (parallel by index),
// decoding a frame hit on first use; a hit's times are copied out of the
// cache entry then, so the consumer may use both buffers as its own until
// it returns.
func (b *Evaluated) Columns() (*workload.Columns, []core.Times, error) {
	if b.cols == nil {
		cols := getCols()
		if err := b.dec(cols); err != nil {
			putCols(cols)
			return nil, nil, err
		}
		b.cols, b.times = cols, getTimes(b.n)
		copy(b.times, b.memo.Times())
	}
	return b.cols, b.times, nil
}

// release returns whatever the block holds to where it came from.
func (b *Evaluated) release() {
	putCols(b.cols)
	putTimes(b.times)
	if b.dec != nil {
		_ = b.dec(nil)
	}
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

// evaluateChunk decodes and evaluates one chunk — through the result
// cache's block path when ev is one, returning the entry's handle on a
// block-cache hit. A frame chunk is looked up by its key first, and a hit
// skips the decode unless decodeHits is set. On error every buffer the
// chunk held has been released.
func evaluateChunk(ev backend.Evaluator, c blockChunk, decodeHits bool) (Evaluated, error) {
	cache, _ := ev.(*evalcache.Cache)
	b := Evaluated{seq: c.seq, cols: c.cols}
	if c.key != nil {
		if blk := cache.Frame(c.key, c.sum); blk != nil {
			b.n, b.memo, b.dec = blk.Len(), blk, c.dec
			if decodeHits {
				if _, _, err := b.Columns(); err != nil {
					b.release()
					return Evaluated{}, err
				}
			}
			return b, nil
		}
	}
	if c.dec != nil {
		// The frame stays until the cache has linked its key.
		defer c.dec(nil)
		b.cols = getCols()
		if err := c.dec(b.cols); err != nil {
			putCols(b.cols)
			return Evaluated{}, err
		}
	}
	b.n = b.cols.Len()
	b.times = getTimes(b.n)
	var err error
	if cache != nil {
		b.memo, err = cache.EvaluateBlock(b.cols, b.times, c.key, c.sum)
	} else {
		err = backend.EvaluateColumns(ev, b.cols, b.times)
	}
	if err != nil {
		b.release()
		return Evaluated{}, fmt.Errorf("stream: %w", err)
	}
	return b, nil
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
	_, err := EvaluateBlocksInto(ctx, ev, src, parallelism, fn != nil, func(b *Evaluated) error {
		if fn == nil {
			delivered += b.Len()
			return nil
		}
		cols, times, err := b.Columns()
		if err != nil {
			return err
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
// blockFn receives each whole evaluated block in input order instead of
// per-record Results, so a column-capable sink folds one call per block and
// no Result is ever materialized. A nil blockFn discards results. The count
// returned is records (not blocks), matching EvaluateBlocks.
//
// When ev is a result cache (evalcache.Cache) and a block's evaluation is a
// block-cache hit, the block carries the handle of the memoized entry that
// answered it (Evaluated.Memo) — taken by the evaluating worker, so the
// consumer can memoize what it derives from the block without hashing or
// verifying it again. A source that hands off frames (FrameSource) is then
// looked up by its frame key before anything is decoded; a frame hit reaches
// blockFn undecoded unless decodeHits is set, and Evaluated.Columns decodes
// it on the consumer's goroutine if the consumer asks. A consumer that
// reads the columns of every block sets decodeHits, so that decode stays on
// the workers.
func EvaluateBlocksInto(ctx context.Context, ev backend.Evaluator, src BlockSource, parallelism int, decodeHits bool, blockFn func(*Evaluated) error) (int, error) {
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
	done := make(chan Evaluated, parallelism)

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

	// Reader: pull blocks — checksummed frames from a FrameSource when a
	// result cache can answer them by key, checksummed payload closures
	// from a PayloadSource, or whole decoded blocks from a plain
	// BlockSource — so any decode lands on the worker pool and overlaps
	// evaluation.
	fs, framed := src.(FrameSource)
	if _, cached := ev.(*evalcache.Cache); !cached {
		framed = false
	}
	ps, pipelined := src.(PayloadSource)
	go func() {
		defer close(work)
		seq := 0
		for {
			var c blockChunk
			switch {
			case framed:
				key, sum, dec, err := fs.NextFrame()
				if errors.Is(err, io.EOF) {
					return
				}
				if err != nil {
					fail(err)
					return
				}
				c = blockChunk{seq: seq, dec: dec, key: key, sum: sum}
			case pipelined:
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
				c = blockChunk{seq: seq, dec: payloadDec(dec)}
			default:
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

	// Workers: look up (frame mode), decode and evaluate whole blocks.
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
				b, err := evaluateChunk(ev, c, decodeHits)
				if err != nil {
					fail(err)
					return
				}
				select {
				case done <- b:
				case <-ctx.Done():
					b.release()
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
		pending   = make(map[int]Evaluated, maxOutstanding)
		failed    bool
		b         Evaluated // the block in delivery; one holder per run
	)
	for e := range done {
		if !failed && ctx.Err() != nil {
			fail(context.Cause(ctx))
			failed = true
		}
		if failed {
			e.release()
			<-tokens
			continue
		}
		pending[e.seq] = e
		for {
			var ok bool
			if b, ok = pending[next]; !ok {
				break
			}
			delete(pending, next)
			if blockFn != nil {
				if err := blockFn(&b); err != nil {
					fail(fmt.Errorf("stream: sink: %w", err))
					failed = true
				}
			}
			if !failed {
				delivered += b.Len()
			}
			b.release()
			<-tokens
			next++
			if failed {
				break
			}
		}
	}
	// A failure can leave reordered blocks parked; their buffers recycle too.
	for _, e := range pending {
		e.release()
	}
	if firstErr != nil {
		return delivered, firstErr
	}
	return delivered, nil
}
