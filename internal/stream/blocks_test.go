package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
	"repro/internal/workload"
)

// blockSliceSource serves a job slice as structure-of-arrays blocks.
type blockSliceSource struct {
	jobs      []workload.Features
	blockSize int
	off       int
}

func (s *blockSliceSource) NextBlock(c *workload.Columns) error {
	c.Reset()
	if s.off >= len(s.jobs) {
		return io.EOF
	}
	end := s.off + s.blockSize
	if end > len(s.jobs) {
		end = len(s.jobs)
	}
	for _, f := range s.jobs[s.off:end] {
		c.Append(f)
	}
	s.off = end
	return nil
}

// TestEvaluateBlocksMatchesBatch: the block pipeline must produce exactly
// the breakdowns EvaluateBatch produces, in input order, at any parallelism
// and block size (including blocks of one and a final ragged block).
func TestEvaluateBlocksMatchesBatch(t *testing.T) {
	jobs := testJobs(t, 1500)
	ev := testBackend(t)
	want, err := backend.EvaluateBatch(context.Background(), ev, jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 3, 8} {
		for _, blockSize := range []int{1, 64, 333, 4096} {
			t.Run(fmt.Sprintf("par=%d/block=%d", par, blockSize), func(t *testing.T) {
				src := &blockSliceSource{jobs: jobs, blockSize: blockSize}
				var got []Result
				n, err := EvaluateBlocks(context.Background(), ev, src, par, func(r Result) error {
					got = append(got, r)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if n != len(jobs) || len(got) != len(jobs) {
					t.Fatalf("delivered %d/%d jobs", n, len(jobs))
				}
				for i, r := range got {
					if r.Index != i {
						t.Fatalf("result %d carries index %d (out of order)", i, r.Index)
					}
					if !reflect.DeepEqual(r.Job, jobs[i]) {
						t.Fatalf("result %d job mismatch", i)
					}
					if !reflect.DeepEqual(r.Times, want[i]) {
						t.Fatalf("result %d breakdown differs from EvaluateBatch", i)
					}
				}
			})
		}
	}
}

// upgradeSource implements both Source and BlockSource; Blocks must take
// the block path and never call Next.
type upgradeSource struct {
	blockSliceSource
	nextCalls atomic.Int64
}

func (s *upgradeSource) Next() (workload.Features, error) {
	s.nextCalls.Add(1)
	return workload.Features{}, io.EOF
}

func TestEvaluateUpgradesBlockSources(t *testing.T) {
	jobs := testJobs(t, 500)
	src := &upgradeSource{blockSliceSource: blockSliceSource{jobs: jobs, blockSize: 128}}
	n, err := evaluate(context.Background(), testBackend(t), src, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(jobs) {
		t.Fatalf("delivered %d, want %d", n, len(jobs))
	}
	if c := src.nextCalls.Load(); c != 0 {
		t.Fatalf("the record path called Next %d times on a BlockSource", c)
	}
}

func TestEvaluateBlocksEmptySource(t *testing.T) {
	n, err := EvaluateBlocks(context.Background(), testBackend(t), &blockSliceSource{blockSize: 16}, 4, func(Result) error {
		t.Error("fn called for empty source")
		return nil
	})
	if err != nil || n != 0 {
		t.Errorf("got n=%d err=%v", n, err)
	}
}

// emptyThenSource yields one empty block before the real data; the pipeline
// must tolerate it (a writer can legitimately flush an empty columnar file).
type emptyThenSource struct {
	inner  blockSliceSource
	warmed bool
}

func (s *emptyThenSource) NextBlock(c *workload.Columns) error {
	if !s.warmed {
		s.warmed = true
		c.Reset()
		return nil
	}
	return s.inner.NextBlock(c)
}

func TestEvaluateBlocksToleratesEmptyBlocks(t *testing.T) {
	jobs := testJobs(t, 100)
	src := &emptyThenSource{inner: blockSliceSource{jobs: jobs, blockSize: 32}}
	n, err := EvaluateBlocks(context.Background(), testBackend(t), src, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(jobs) {
		t.Fatalf("delivered %d, want %d", n, len(jobs))
	}
}

// failingBlockSource errors after a few good blocks.
type failingBlockSource struct {
	inner  blockSliceSource
	after  int
	served int
}

func (s *failingBlockSource) NextBlock(c *workload.Columns) error {
	if s.served >= s.after {
		return errors.New("disk on fire")
	}
	s.served++
	return s.inner.NextBlock(c)
}

func TestEvaluateBlocksSourceError(t *testing.T) {
	jobs := testJobs(t, 1000)
	src := &failingBlockSource{inner: blockSliceSource{jobs: jobs, blockSize: 100}, after: 3}
	n, err := EvaluateBlocks(context.Background(), testBackend(t), src, 4, nil)
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("err = %v, want the source's error", err)
	}
	if n > 300 {
		t.Errorf("delivered %d records past the failure point", n)
	}
}

func TestEvaluateBlocksSinkError(t *testing.T) {
	jobs := testJobs(t, 1000)
	src := &blockSliceSource{jobs: jobs, blockSize: 64}
	sinkErr := errors.New("sink full")
	_, err := EvaluateBlocks(context.Background(), testBackend(t), src, 4, func(r Result) error {
		if r.Index == 200 {
			return sinkErr
		}
		return nil
	})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want wrapped sink error", err)
	}
	if !strings.Contains(err.Error(), "sink") {
		t.Fatalf("err %q does not identify the sink", err)
	}
}

func TestEvaluateBlocksCancellation(t *testing.T) {
	jobs := testJobs(t, 5000)
	ctx, cancel := context.WithCancel(context.Background())
	var delivered atomic.Int64
	n, err := EvaluateBlocks(ctx, testBackend(t), &blockSliceSource{jobs: jobs, blockSize: 50}, 4, func(r Result) error {
		if delivered.Add(1) == 600 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n >= len(jobs) {
		t.Errorf("cancellation delivered the whole stream (%d jobs)", n)
	}
}

func TestEvaluateBlocksNilArgs(t *testing.T) {
	if _, err := EvaluateBlocks(context.Background(), nil, &blockSliceSource{}, 1, nil); err == nil {
		t.Error("nil evaluator accepted")
	}
	if _, err := EvaluateBlocks(context.Background(), testBackend(t), nil, 1, nil); err == nil {
		t.Error("nil source accepted")
	}
}
