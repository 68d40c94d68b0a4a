package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/colbin"
	"repro/internal/evalcache"
	"repro/internal/tracegen"
	"repro/internal/workload"
)

// payloadSliceSource serves a job slice through the pipelined PayloadSource
// convention (NextBlock staged into a closure), optionally failing the
// decode of every block from failDecodeAt (1-based) on.
type payloadSliceSource struct {
	inner        blockSliceSource
	failDecodeAt int
	served       int
}

func (s *payloadSliceSource) NextBlock(c *workload.Columns) error {
	dec, _, err := s.NextPayload()
	if err != nil {
		return err
	}
	return dec(c)
}

func (s *payloadSliceSource) NextPayload() (func(*workload.Columns) error, int, error) {
	var staged workload.Columns
	if err := s.inner.NextBlock(&staged); err != nil {
		return nil, 0, err
	}
	s.served++
	jobs := make([]workload.Features, staged.Len())
	for i := range jobs {
		jobs[i] = staged.Row(i)
	}
	fail := s.failDecodeAt > 0 && s.served >= s.failDecodeAt
	dec := func(c *workload.Columns) error {
		if c == nil {
			return nil
		}
		if fail {
			return errors.New("payload decode exploded")
		}
		c.Reset()
		for _, f := range jobs {
			c.Append(f)
		}
		return nil
	}
	return dec, len(jobs), nil
}

// frameSource serves a colbin trace through the FrameSource handoff and
// counts the frames it has handed out and not yet seen released.
type frameSource struct {
	r   *colbin.Reader
	out *atomic.Int64
}

func (s *frameSource) NextBlock(c *workload.Columns) error { return s.r.NextBlock(c) }

func (s *frameSource) NextFrame() ([]byte, uint64, func(*workload.Columns) error, error) {
	key, sum, dec, err := s.r.NextFrame()
	if err != nil {
		return nil, 0, nil, err
	}
	s.out.Add(1)
	released := false
	return key, sum, func(c *workload.Columns) error {
		if released {
			panic("frame used after its release")
		}
		if c == nil {
			released = true
			s.out.Add(-1)
		}
		return dec(c)
	}, nil
}

// repeatingColbin encodes n jobs cycling through distinct ones into colbin
// blocks of blockRecords.
func repeatingColbin(t *testing.T, n, distinct, blockRecords int) []byte {
	t.Helper()
	p := tracegen.Default()
	p.NumJobs = n
	p.DistinctJobs = distinct
	tr, err := tracegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := colbin.NewWriterBlockRecords(&buf, blockRecords)
	for _, f := range tr.Jobs {
		if err := w.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEvaluateBlocksBufferBalance is the pooled-buffer leak audit: across
// success, every error path, and cancellation — in decoded-block,
// pipelined-payload, frame-hit and cut-record (Blocks adapter) modes — the
// pool get/put balances must return to their starting values, and every
// frame handed off must be released. A Columns or times buffer dropped on
// an error path shows up as a positive residue.
func TestEvaluateBlocksBufferBalance(t *testing.T) {
	jobs := testJobs(t, 2000)
	ev := testBackend(t)

	balanced := func(name string, run func()) {
		t.Helper()
		c0, t0 := colsBalance.Load(), timesBalance.Load()
		run()
		if dc, dt := colsBalance.Load()-c0, timesBalance.Load()-t0; dc != 0 || dt != 0 {
			t.Errorf("%s: leaked pooled buffers (cols %+d, times %+d)", name, dc, dt)
		}
	}

	balanced("success/record-fn", func() {
		if _, err := EvaluateBlocks(context.Background(), ev, &blockSliceSource{jobs: jobs, blockSize: 64}, 4, func(Result) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	balanced("success/blockFn", func() {
		if _, err := EvaluateBlocksInto(context.Background(), ev, &blockSliceSource{jobs: jobs, blockSize: 64}, 4, true, func(*Evaluated) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	balanced("success/payload", func() {
		src := &payloadSliceSource{inner: blockSliceSource{jobs: jobs, blockSize: 64}}
		n, err := EvaluateBlocks(context.Background(), ev, src, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(jobs) {
			t.Fatalf("payload mode delivered %d of %d", n, len(jobs))
		}
	})
	balanced("source-error", func() {
		src := &failingBlockSource{inner: blockSliceSource{jobs: jobs, blockSize: 64}, after: 5}
		if _, err := EvaluateBlocks(context.Background(), ev, src, 4, nil); err == nil {
			t.Fatal("source error lost")
		}
	})
	balanced("sink-error", func() {
		sinkErr := errors.New("sink full")
		_, err := EvaluateBlocks(context.Background(), ev, &blockSliceSource{jobs: jobs, blockSize: 64}, 4, func(r Result) error {
			if r.Index == 300 {
				return sinkErr
			}
			return nil
		})
		if !errors.Is(err, sinkErr) {
			t.Fatalf("err = %v", err)
		}
	})
	balanced("blockFn-error", func() {
		blockErr := errors.New("columnar sink broke")
		calls := 0
		_, err := EvaluateBlocksInto(context.Background(), ev, &blockSliceSource{jobs: jobs, blockSize: 64}, 4, true, func(*Evaluated) error {
			calls++
			if calls == 3 {
				return blockErr
			}
			return nil
		})
		if !errors.Is(err, blockErr) {
			t.Fatalf("err = %v", err)
		}
	})
	balanced("decode-error", func() {
		src := &payloadSliceSource{inner: blockSliceSource{jobs: jobs, blockSize: 64}, failDecodeAt: 4}
		if _, err := EvaluateBlocks(context.Background(), ev, src, 4, nil); err == nil {
			t.Fatal("decode error lost")
		}
	})
	balanced("cancellation", func() {
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		_, err := EvaluateBlocks(ctx, ev, &blockSliceSource{jobs: jobs, blockSize: 16}, 4, func(Result) error {
			n++
			if n == 200 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
	})
	balanced("adapter/source-error", func() {
		sentinel := errors.New("line 700: bad record")
		src := &errSource{jobs: jobs, k: 700, err: sentinel}
		if _, err := evaluate(context.Background(), ev, src, 4, nil); !errors.Is(err, sentinel) {
			t.Fatalf("err = %v", err)
		}
	})
	balanced("adapter/cancellation", func() {
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		_, err := evaluate(ctx, ev, NewSliceSource(testJobs(t, 6000)), 4, func(Result) error {
			n++
			if n == 600 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
	})
	balanced("pre-canceled", func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := EvaluateBlocks(ctx, ev, &blockSliceSource{jobs: jobs, blockSize: 64}, 4, nil); err == nil {
			t.Fatal("pre-canceled context accepted")
		}
	})

	// Frame-hit mode: a colbin trace of two distinct 64-record frame keys
	// through a result cache, so from the fifth block on (each payload's
	// third sighting) blocks reach blockFn as frame hits, undecoded unless
	// decodeHits is set.
	cb := repeatingColbin(t, 2048, 128, 64)
	cache, err := evalcache.New(ev, ev.Spec(), 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	var frames atomic.Int64
	frameSrc := func() *frameSource {
		return &frameSource{r: colbin.NewReader(bytes.NewReader(cb)), out: &frames}
	}
	balancedFrames := func(name string, run func()) {
		t.Helper()
		balanced(name, run)
		if n := frames.Swap(0); n != 0 {
			t.Errorf("%s: %d frames never released", name, n)
		}
	}
	for _, decodeHits := range []bool{false, true} {
		balancedFrames(fmt.Sprintf("frame/success/decodeHits=%v", decodeHits), func() {
			hits0 := cache.Stats().FrameHits
			n, err := EvaluateBlocksInto(context.Background(), cache, frameSrc(), 4, decodeHits, func(b *Evaluated) error {
				if b.cols == nil && (decodeHits || b.Memo() == nil) {
					t.Errorf("block %d reached blockFn undecoded (decodeHits %v, hit %v)", b.seq, decodeHits, b.Memo() != nil)
				}
				if b.seq%2 == 0 {
					c, ts, err := b.Columns()
					if err != nil {
						return err
					}
					if c.Len() != b.Len() || len(ts) != b.Len() {
						t.Errorf("block %d: %d columns and %d times for %d records", b.seq, c.Len(), len(ts), b.Len())
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n != 2048 {
				t.Fatalf("frame mode delivered %d of 2048", n)
			}
			if cache.Stats().FrameHits == hits0 {
				t.Error("the pass had no frame hit")
			}
		})
		balancedFrames(fmt.Sprintf("frame/cancellation/decodeHits=%v", decodeHits), func() {
			ctx, cancel := context.WithCancel(context.Background())
			calls := 0
			_, err := EvaluateBlocksInto(ctx, cache, frameSrc(), 4, decodeHits, func(*Evaluated) error {
				calls++
				if calls == 5 {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v", err)
			}
		})
	}
	balancedFrames("frame/sink-error-on-hit", func() {
		hitErr := errors.New("sink broke on a frame hit")
		_, err := EvaluateBlocksInto(context.Background(), cache, frameSrc(), 4, false, func(b *Evaluated) error {
			if b.Memo() != nil && b.cols == nil {
				return hitErr
			}
			return nil
		})
		if !errors.Is(err, hitErr) {
			t.Fatalf("err = %v (no undecoded frame hit reached the sink?)", err)
		}
	})
}

// TestEvaluateBlocksIntoDeliversWholeBlocks: blockFn receives whole evaluated
// blocks in input order, with times parallel to the columns.
func TestEvaluateBlocksIntoDeliversWholeBlocks(t *testing.T) {
	jobs := testJobs(t, 500)
	ev := testBackend(t)
	next := 0
	n, err := EvaluateBlocksInto(context.Background(), ev, &blockSliceSource{jobs: jobs, blockSize: 64}, 4, true, func(b *Evaluated) error {
		c, ts, err := b.Columns()
		if err != nil {
			return err
		}
		if len(ts) != c.Len() {
			t.Fatalf("block of %d records came with %d times", c.Len(), len(ts))
		}
		for i := 0; i < c.Len(); i++ {
			if c.Name[i] != jobs[next].Name {
				t.Fatalf("record %d out of order: %q vs %q", next, c.Name[i], jobs[next].Name)
			}
			want, err := ev.Breakdown(jobs[next])
			if err != nil {
				t.Fatal(err)
			}
			if ts[i].Total() != want.Total() {
				t.Fatalf("record %d times differ from direct evaluation", next)
			}
			next++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(jobs) || next != len(jobs) {
		t.Fatalf("delivered %d (folded %d), want %d", n, next, len(jobs))
	}
}
