package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
	"repro/internal/colbin"
	"repro/internal/core"
	"repro/internal/tracegen"
	"repro/internal/workload"
)

func testJobs(t testing.TB, n int) []workload.Features {
	t.Helper()
	p := tracegen.Default()
	p.NumJobs = n
	tr, err := tracegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Jobs
}

// evaluate runs a record source through the block pipeline, the way every
// caller of the package does.
func evaluate(ctx context.Context, ev backend.Evaluator, src Source, parallelism int, fn func(Result) error) (int, error) {
	return EvaluateBlocks(ctx, ev, Blocks(src), parallelism, fn)
}

func testBackend(t testing.TB) backend.Backend {
	t.Helper()
	b, err := backend.New(backend.AnalyticalName, backend.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEvaluateMatchesBatch: the streaming pipeline must produce exactly the
// breakdowns EvaluateBatch produces, in input order, at any parallelism.
func TestEvaluateMatchesBatch(t *testing.T) {
	jobs := testJobs(t, 1500)
	ev := testBackend(t)
	want, err := backend.EvaluateBatch(context.Background(), ev, jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			var got []Result
			n, err := evaluate(context.Background(), ev, NewSliceSource(jobs), par, func(r Result) error {
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

func TestEvaluateNilFnCounts(t *testing.T) {
	jobs := testJobs(t, 700)
	n, err := evaluate(context.Background(), testBackend(t), NewSliceSource(jobs), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(jobs) {
		t.Errorf("delivered %d, want %d", n, len(jobs))
	}
}

func TestEvaluateEmptySource(t *testing.T) {
	n, err := evaluate(context.Background(), testBackend(t), NewSliceSource(nil), 4, func(Result) error {
		t.Error("fn called for empty source")
		return nil
	})
	if err != nil || n != 0 {
		t.Errorf("got n=%d err=%v", n, err)
	}
}

// TestMidStreamCancellation: cancelling the context mid-stream must stop the
// pipeline promptly with the context's error and no further deliveries.
func TestMidStreamCancellation(t *testing.T) {
	jobs := testJobs(t, 5000)
	ctx, cancel := context.WithCancel(context.Background())
	var delivered atomic.Int64
	n, err := evaluate(ctx, testBackend(t), NewSliceSource(jobs), 4, func(r Result) error {
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

// TestCancellationCausePropagates: a cause set via WithCancelCause must come
// back to the caller, not a bare context.Canceled.
func TestCancellationCausePropagates(t *testing.T) {
	sentinel := fmt.Errorf("budget exhausted")
	ctx, cancel := context.WithCancelCause(context.Background())
	var delivered atomic.Int64
	_, err := evaluate(ctx, testBackend(t), NewSliceSource(testJobs(t, 5000)), 4, func(r Result) error {
		if delivered.Add(1) == 300 {
			cancel(sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("want cancellation cause, got %v", err)
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := evaluate(ctx, testBackend(t), NewSliceSource(testJobs(t, 600)), 4, nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// errSource fails after yielding k jobs, the way a decoder surfaces a
// malformed record.
type errSource struct {
	jobs []workload.Features
	k    int
	err  error
	i    int
}

func (s *errSource) Next() (workload.Features, error) {
	if s.i >= s.k {
		return workload.Features{}, s.err
	}
	f := s.jobs[s.i]
	s.i++
	return f, nil
}

func TestSourceErrorPropagates(t *testing.T) {
	sentinel := fmt.Errorf("line 43: bad record")
	src := &errSource{jobs: testJobs(t, 700), k: 42, err: sentinel}
	_, err := evaluate(context.Background(), testBackend(t), src, 4, nil)
	if !errors.Is(err, sentinel) {
		t.Errorf("want source error, got %v", err)
	}
}

// TestDecodeErrorCarriesLineNumber: driving the pipeline from an NDJSON
// decoder must surface the offending line number end to end.
func TestDecodeErrorCarriesLineNumber(t *testing.T) {
	p := tracegen.Default()
	p.NumJobs = 400
	tr, err := tracegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	lines[300] = "{broken\n"
	d := tracegen.NewDecoder(strings.NewReader(strings.Join(lines, "")))
	n, err := evaluate(context.Background(), testBackend(t), d, 4, nil)
	if err == nil || !strings.Contains(err.Error(), "line 301") {
		t.Fatalf("want error naming line 301, got %v (after %d jobs)", err, n)
	}
}

func TestSinkErrorStops(t *testing.T) {
	jobs := testJobs(t, 3000)
	sentinel := fmt.Errorf("sink exploded")
	var calls int
	n, err := evaluate(context.Background(), testBackend(t), NewSliceSource(jobs), 4, func(r Result) error {
		calls++
		if calls == 500 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sink error, got %v", err)
	}
	if calls != 500 {
		t.Errorf("fn called %d times after erroring at 500", calls)
	}
	if n != 499 {
		t.Errorf("delivered %d, want 499", n)
	}
}

// failingEvaluator errors on one specific job name.
type failingEvaluator struct {
	backend.Evaluator
	failName string
}

func (e failingEvaluator) Breakdown(f workload.Features) (core.Times, error) {
	if f.Name == e.failName {
		return core.Times{}, fmt.Errorf("model rejected")
	}
	return e.Evaluator.Breakdown(f)
}

func TestEvaluationErrorNamesJob(t *testing.T) {
	jobs := testJobs(t, 900)
	ev := failingEvaluator{Evaluator: testBackend(t), failName: jobs[700].Name}
	_, err := evaluate(context.Background(), ev, NewSliceSource(jobs), 4, nil)
	if err == nil || !strings.Contains(err.Error(), jobs[700].Name) {
		t.Errorf("want error naming job %q, got %v", jobs[700].Name, err)
	}
}

func TestNilArguments(t *testing.T) {
	if _, err := evaluate(context.Background(), nil, NewSliceSource(nil), 1, nil); err == nil {
		t.Error("nil evaluator must error")
	}
	if _, err := evaluate(context.Background(), testBackend(t), nil, 1, nil); err == nil {
		t.Error("nil source must error")
	}
}

// TestLiveHeapBounded is the allocation-bound check at the package level:
// streaming 200k jobs must leave the live heap where it started, because no
// stage retains per-job state.
func TestLiveHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 200k jobs")
	}
	ev := testBackend(t)
	p := tracegen.Default()
	p.NumJobs = 200000
	src, err := tracegen.NewSource(p)
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	var total float64
	n, err := evaluate(context.Background(), ev, src, 4, func(r Result) error {
		total += r.Times.Total()
		return nil
	})
	if err != nil || n != p.NumJobs {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if total <= 0 {
		t.Fatal("no time accumulated")
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	// 200k Features alone are ~30 MB; a pipeline that retained them would
	// blow far past this bound.
	const limit = 8 << 20
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > limit {
		t.Errorf("live heap grew %d bytes streaming 200k jobs (limit %d)", grown, limit)
	}
}

func BenchmarkStreamEvaluate(b *testing.B) {
	jobs := testJobs(b, 4000)
	ev := testBackend(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := evaluate(context.Background(), ev, NewSliceSource(jobs), 4, nil)
		if err != nil || n != len(jobs) {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
	b.ReportMetric(float64(len(jobs)), "jobs/op")
}

// strictSource serves n jobs and fails the test if Next is called again
// after it has reported io.EOF.
type strictSource struct {
	t    *testing.T
	jobs []workload.Features
	i    int
	eof  bool
}

func (s *strictSource) Next() (workload.Features, error) {
	if s.eof {
		s.t.Error("Next called after io.EOF")
	}
	if s.i >= len(s.jobs) {
		s.eof = true
		return workload.Features{}, io.EOF
	}
	f := s.jobs[s.i]
	s.i++
	return f, nil
}

// TestBlocksCutsRecordSources: the adapter cuts a record source into
// chunkSize-record blocks, never calls Next past io.EOF, keeps reporting
// io.EOF, and the pipeline over it numbers records continuously across
// blocks.
func TestBlocksCutsRecordSources(t *testing.T) {
	jobs := testJobs(t, 512)
	ev := testBackend(t)
	for _, n := range []int{0, 255, 256, 257, 512} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			bs := Blocks(&strictSource{t: t, jobs: jobs[:n]})
			var c workload.Columns
			var sizes []int
			for {
				err := bs.NextBlock(&c)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				sizes = append(sizes, c.Len())
			}
			if err := bs.NextBlock(&c); !errors.Is(err, io.EOF) || c.Len() != 0 {
				t.Fatalf("NextBlock after EOF: len %d, err %v", c.Len(), err)
			}
			var want []int
			for left := n; left > 0; left -= chunkSize {
				want = append(want, min(left, chunkSize))
			}
			if !reflect.DeepEqual(sizes, want) {
				t.Fatalf("block sizes %v, want %v", sizes, want)
			}

			next := 0
			got, err := evaluate(context.Background(), ev, &strictSource{t: t, jobs: jobs[:n]}, 3, func(r Result) error {
				if r.Index != next || r.Job.Name != jobs[next].Name {
					t.Fatalf("result %d carries index %d, job %q", next, r.Index, r.Job.Name)
				}
				next++
				return nil
			})
			if err != nil || got != n || next != n {
				t.Fatalf("delivered %d (%d in order), err %v; want %d", got, next, err, n)
			}
		})
	}
}

// TestBlocksKeepsBlockSources: a source that already yields blocks passes
// through unwrapped, so a colbin reader keeps its PayloadSource pipelining.
func TestBlocksKeepsBlockSources(t *testing.T) {
	r := colbin.NewReader(bytes.NewReader(nil))
	bs := Blocks(r)
	if bs != BlockSource(r) {
		t.Fatalf("Blocks wrapped a colbin reader in %T", bs)
	}
	if _, ok := bs.(PayloadSource); !ok {
		t.Fatal("Blocks lost the PayloadSource upgrade")
	}
	if Blocks(nil) != nil {
		t.Fatal("Blocks(nil) is not nil")
	}
}
