package stream

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/evalcache"
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

// TestEvaluateBlocksBufferBalance is the pooled-buffer leak audit: across
// success, every error path, and cancellation — in decoded-block,
// pipelined-payload and cut-record (Blocks adapter) modes — the pool get/put
// balances must return to their starting values. A Columns or times buffer dropped on an error path shows
// up as a positive residue.
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
		if _, err := EvaluateBlocksInto(context.Background(), ev, &blockSliceSource{jobs: jobs, blockSize: 64}, 4, func(*workload.Columns, []core.Times, *evalcache.Block) error { return nil }); err != nil {
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
		_, err := EvaluateBlocksInto(context.Background(), ev, &blockSliceSource{jobs: jobs, blockSize: 64}, 4, func(*workload.Columns, []core.Times, *evalcache.Block) error {
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
}

// TestEvaluateBlocksIntoDeliversWholeBlocks: blockFn receives whole evaluated
// blocks in input order, with times parallel to the columns.
func TestEvaluateBlocksIntoDeliversWholeBlocks(t *testing.T) {
	jobs := testJobs(t, 500)
	ev := testBackend(t)
	next := 0
	n, err := EvaluateBlocksInto(context.Background(), ev, &blockSliceSource{jobs: jobs, blockSize: 64}, 4, func(c *workload.Columns, ts []core.Times, _ *evalcache.Block) error {
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
