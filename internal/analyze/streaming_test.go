package analyze

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/tracegen"
	"repro/internal/workload"
)

func accJobs(t *testing.T, n int) []workload.Features {
	t.Helper()
	p := tracegen.Default()
	p.NumJobs = n
	tr, err := tracegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Jobs
}

func accBackend(t *testing.T) backend.Backend {
	t.Helper()
	b, err := backend.New(backend.AnalyticalName, backend.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fill(t *testing.T, ev backend.Evaluator, jobs []workload.Features) *BreakdownAccumulator {
	t.Helper()
	acc := NewBreakdownAccumulator()
	for _, j := range jobs {
		bd, err := ev.Breakdown(j)
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.Add(j, bd); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// TestAccumulatorMatchesConstitute: the streamed constitution must equal the
// batch one.
func TestAccumulatorMatchesConstitute(t *testing.T) {
	jobs := accJobs(t, 2000)
	acc := fill(t, accBackend(t), jobs)
	got, err := acc.Constitution()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Constitute(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("constitution mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestAccumulatorMergeEqualsBulk: merging shard accumulators must reproduce
// the bulk accumulator — shares exactly (same addition order within cells is
// not guaranteed, so compare within tight tolerance), counts exactly.
func TestAccumulatorMergeEqualsBulk(t *testing.T) {
	jobs := accJobs(t, 3000)
	ev := accBackend(t)
	bulk := fill(t, ev, jobs)

	for _, cuts := range [][2]int{{1000, 2000}, {1, 2999}, {1500, 1501}} {
		a := fill(t, ev, jobs[:cuts[0]])
		b := fill(t, ev, jobs[cuts[0]:cuts[1]])
		c := fill(t, ev, jobs[cuts[1]:])
		// Associativity: fold left and right groupings.
		left := fill(t, ev, jobs[:cuts[0]])
		if err := left.Merge(b); err != nil {
			t.Fatal(err)
		}
		if err := left.Merge(c); err != nil {
			t.Fatal(err)
		}
		bc := fill(t, ev, jobs[cuts[0]:cuts[1]])
		if err := bc.Merge(c); err != nil {
			t.Fatal(err)
		}
		if err := a.Merge(bc); err != nil {
			t.Fatal(err)
		}

		for name, merged := range map[string]*BreakdownAccumulator{"left": left, "right": a} {
			if merged.N() != bulk.N() {
				t.Fatalf("%s cuts %v: N %d vs %d", name, cuts, merged.N(), bulk.N())
			}
			gotC, err := merged.Constitution()
			if err != nil {
				t.Fatal(err)
			}
			wantC, err := bulk.Constitution()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotC, wantC) {
				t.Errorf("%s cuts %v: constitution drift", name, cuts)
			}
			gotRows, wantRows := merged.Rows(), bulk.Rows()
			if len(gotRows) != len(wantRows) {
				t.Fatalf("%s cuts %v: %d rows vs %d", name, cuts, len(gotRows), len(wantRows))
			}
			for i := range wantRows {
				if gotRows[i].Class != wantRows[i].Class || gotRows[i].Level != wantRows[i].Level ||
					gotRows[i].N != wantRows[i].N {
					t.Fatalf("%s cuts %v: row %d identity drift", name, cuts, i)
				}
				for _, comp := range core.Components() {
					if got, want := gotRows[i].Share[comp], wantRows[i].Share[comp]; got != want {
						t.Errorf("%s cuts %v: row %d %v share %v, bulk %v", name, cuts, i, comp, got, want)
					}
				}
			}
			if merged.StepTime().Mean() != bulk.StepTime().Mean() {
				t.Errorf("%s cuts %v: step-time mean drift", name, cuts)
			}
			// Merging is exact, so the whole state matches the bulk fold.
			if got, want := snapshotOf(t, merged), snapshotOf(t, bulk); !bytes.Equal(got, want) {
				t.Errorf("%s cuts %v: merged snapshot differs from the bulk fold's", name, cuts)
			}
			gq, err := merged.StepTimeQuantile(0.5)
			if err != nil {
				t.Fatal(err)
			}
			wq, err := bulk.StepTimeQuantile(0.5)
			if err != nil {
				t.Fatal(err)
			}
			if gq != wq {
				t.Errorf("%s cuts %v: p50 %v vs %v", name, cuts, gq, wq)
			}
		}
	}
}

// TestAccumulatorZeroValue: the zero value must behave like
// NewBreakdownAccumulator (the public alias makes it reachable).
func TestAccumulatorZeroValue(t *testing.T) {
	jobs := accJobs(t, 50)
	ev := accBackend(t)
	var zero BreakdownAccumulator
	for _, j := range jobs {
		bd, err := ev.Breakdown(j)
		if err != nil {
			t.Fatal(err)
		}
		if err := zero.Add(j, bd); err != nil {
			t.Fatal(err)
		}
	}
	want := fill(t, ev, jobs)
	if zero.N() != want.N() || zero.StepTime().Mean() != want.StepTime().Mean() {
		t.Error("zero value diverges from constructed accumulator")
	}
	var zeroMergeTarget BreakdownAccumulator
	if err := zeroMergeTarget.Merge(&zero); err != nil {
		t.Fatal(err)
	}
	if zeroMergeTarget.N() != want.N() {
		t.Error("merge into zero value lost jobs")
	}
	var empty BreakdownAccumulator
	if _, err := empty.StepTimeQuantile(0.5); err == nil {
		t.Error("empty zero-value quantile must error, not panic")
	}
	if err := zero.Merge(&BreakdownAccumulator{}); err != nil {
		t.Fatal(err)
	}
	if zero.N() != want.N() {
		t.Error("merging an empty zero value must be a no-op")
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	acc := NewBreakdownAccumulator()
	if _, err := acc.Constitution(); err == nil {
		t.Error("empty constitution must error")
	}
	if _, err := acc.Overall(JobLevel); err == nil {
		t.Error("empty overall must error")
	}
	if rows := acc.Rows(); len(rows) != 0 {
		t.Errorf("empty accumulator has %d rows", len(rows))
	}
	if err := acc.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
	if err := acc.Merge(NewBreakdownAccumulator()); err != nil {
		t.Errorf("empty merge: %v", err)
	}
}

// foldAcc folds one source into a fresh BreakdownAccumulator through
// FoldInto.
func foldAcc(ctx context.Context, ev backend.Evaluator, parallelism int, src stream.Source) (*BreakdownAccumulator, error) {
	acc := NewBreakdownAccumulator()
	if _, err := FoldInto(ctx, ev, parallelism, stream.Blocks(src), acc); err != nil {
		return nil, err
	}
	return acc, nil
}

// foldSources folds each source as one cell of a FoldRanges grid with one
// consumer per cell — the shape of Engine.EvaluateSourcesInto.
func foldSources(ctx context.Context, ev backend.Evaluator, parallelism int, srcs []stream.Source, factory func() (Sink, error)) (Sink, []int, error) {
	open := func(cell int) (stream.BlockSource, error) { return stream.Blocks(srcs[cell]), nil }
	return FoldRanges(ctx, ev, parallelism, len(srcs), len(srcs), open, factory)
}

// foldBreakdowns is the sharded breakdown fold: foldSources with a
// BreakdownAccumulator factory.
func foldBreakdowns(ctx context.Context, ev backend.Evaluator, parallelism int, srcs []stream.Source) (*BreakdownAccumulator, []int, error) {
	total, counts, err := foldSources(ctx, ev, parallelism, srcs, func() (Sink, error) {
		return NewBreakdownAccumulator(), nil
	})
	if err != nil {
		return nil, counts, err
	}
	return total.(*BreakdownAccumulator), counts, nil
}

// TestFoldSourcesMatchesFold: the sharded fold over N partitions of one
// trace must reproduce the single-source fold exactly — counts,
// constitution, shares and the whole snapshot.
func TestFoldSourcesMatchesFold(t *testing.T) {
	jobs := accJobs(t, 3000)
	ev := accBackend(t)
	ctx := context.Background()
	bulk, err := foldAcc(ctx, ev, 4, stream.NewSliceSource(jobs))
	if err != nil {
		t.Fatal(err)
	}

	for _, nShards := range []int{1, 3, 5} {
		srcs := make([]stream.Source, 0, nShards)
		per := len(jobs) / nShards
		for s := 0; s < nShards; s++ {
			hi := (s + 1) * per
			if s == nShards-1 {
				hi = len(jobs)
			}
			srcs = append(srcs, stream.NewSliceSource(jobs[s*per:hi]))
		}
		merged, counts, err := foldBreakdowns(ctx, ev, 4, srcs)
		if err != nil {
			t.Fatal(err)
		}
		var total int
		for _, n := range counts {
			total += n
		}
		if total != len(jobs) || merged.N() != bulk.N() {
			t.Fatalf("%d shards: delivered %d, merged N %d, want %d", nShards, total, merged.N(), bulk.N())
		}
		gotC, err := merged.Constitution()
		if err != nil {
			t.Fatal(err)
		}
		wantC, err := bulk.Constitution()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotC, wantC) {
			t.Errorf("%d shards: constitution drift", nShards)
		}
		gotO, err := merged.Overall(CNodeLevel)
		if err != nil {
			t.Fatal(err)
		}
		wantO, err := bulk.Overall(CNodeLevel)
		if err != nil {
			t.Fatal(err)
		}
		for _, comp := range core.Components() {
			if gotO[comp] != wantO[comp] {
				t.Errorf("%d shards: overall %v share %v, bulk %v", nShards, comp, gotO[comp], wantO[comp])
			}
		}
		if !bytes.Equal(snapshotOf(t, merged), snapshotOf(t, bulk)) {
			t.Errorf("%d shards: merged snapshot differs from the bulk fold's", nShards)
		}
		gq, err := merged.StepTimeQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		wq, err := bulk.StepTimeQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		if gq != wq {
			t.Errorf("%d shards: p99 %v vs %v", nShards, gq, wq)
		}
	}
}

// TestFoldSourcesSingleSourceBitExact: with one source the sharded fold is
// the plain fold — Merge into an empty accumulator adds to zero sums, so
// every aggregate is bit-identical, which is what lets paibench -shards 1
// share the golden baseline.
func TestFoldSourcesSingleSourceBitExact(t *testing.T) {
	jobs := accJobs(t, 1200)
	ev := accBackend(t)
	ctx := context.Background()
	bulk, err := foldAcc(ctx, ev, 3, stream.NewSliceSource(jobs))
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := foldBreakdowns(ctx, ev, 3, []stream.Source{stream.NewSliceSource(jobs)})
	if err != nil {
		t.Fatal(err)
	}
	gotO, err := merged.Overall(CNodeLevel)
	if err != nil {
		t.Fatal(err)
	}
	wantO, err := bulk.Overall(CNodeLevel)
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range core.Components() {
		if gotO[comp] != wantO[comp] {
			t.Errorf("overall %v: %v != %v (must be bit-exact)", comp, gotO[comp], wantO[comp])
		}
	}
	if merged.StepTime().Mean() != bulk.StepTime().Mean() {
		t.Error("step-time mean not bit-exact for single-source fold")
	}
}

// TestFoldSourcesEmpty: no sources is an error; an empty source folds to an
// empty aggregate, sharded or not, whose overall shares report the empty
// trace.
func TestFoldSourcesEmpty(t *testing.T) {
	ev := accBackend(t)
	ctx := context.Background()
	if acc, counts, err := foldBreakdowns(ctx, ev, 2, nil); err != nil || acc.N() != 0 || len(counts) != 0 {
		t.Errorf("no sources: N %v, counts %v, err %v", acc, counts, err)
	}
	acc, counts, err := foldBreakdowns(ctx, ev, 2, []stream.Source{stream.NewSliceSource(nil)})
	if err != nil || acc.N() != 0 || !reflect.DeepEqual(counts, []int{0}) {
		t.Errorf("empty source: N %v, counts %v, err %v", acc, counts, err)
	}
	single, err := foldAcc(ctx, ev, 2, stream.NewSliceSource(nil))
	if err != nil || single.N() != 0 {
		t.Fatalf("empty single-source fold: %v, %v", single, err)
	}
	if _, err := single.Overall(JobLevel); err == nil {
		t.Error("expected error for an empty trace")
	}
}

// TestFoldRangesMatchesSingle: a grid over N partitions of one trace folds
// every job exactly once into its own cell's sink, with per-cell counts;
// each cell's sink equals a single-source fold of its partition byte for
// byte, and the merged sink does not depend on the consumer count.
func TestFoldRangesMatchesSingle(t *testing.T) {
	jobs := accJobs(t, 1800)
	ev := accBackend(t)
	ctx := context.Background()
	cuts := []int{0, 500, 1100, len(jobs)}
	open := func(cell int) (stream.BlockSource, error) {
		return stream.Blocks(stream.NewSliceSource(jobs[cuts[cell]:cuts[cell+1]])), nil
	}
	var merged [][]byte
	for _, consumers := range []int{1, 3} {
		var built []*BreakdownAccumulator
		total, counts, err := FoldRanges(ctx, ev, 6, consumers, len(cuts)-1, open, func() (Sink, error) {
			acc := NewBreakdownAccumulator()
			built = append(built, acc)
			return acc, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if total.(*BreakdownAccumulator).N() != len(jobs) {
			t.Fatalf("merged N %d, want %d", total.(*BreakdownAccumulator).N(), len(jobs))
		}
		if len(built) != len(cuts) {
			t.Fatalf("factory called %d times, want one per cell plus the aggregate", len(built))
		}
		merged = append(merged, snapshotOf(t, total))
		for cell, n := range counts {
			if want := cuts[cell+1] - cuts[cell]; n != want {
				t.Errorf("consumers %d: cell %d folded %d jobs, want %d", consumers, cell, n, want)
			}
			// One consumer opens the cells in order, so the factory's
			// sinks line up with them.
			if consumers == 1 && !bytes.Equal(snapshotOf(t, built[cell]), snapshotOf(t, fill(t, ev, jobs[cuts[cell]:cuts[cell+1]]))) {
				t.Errorf("cell %d sink differs from a single-source fold of its partition", cell)
			}
		}
	}
	if !bytes.Equal(merged[0], merged[1]) {
		t.Error("merged sink depends on the consumer count")
	}
}

func TestFoldRangesValidation(t *testing.T) {
	ev := accBackend(t)
	ctx := context.Background()
	factory := func() (Sink, error) { return NewBreakdownAccumulator(), nil }
	open := func(int) (stream.BlockSource, error) { return stream.Blocks(stream.NewSliceSource(nil)), nil }
	if _, _, err := FoldRanges(ctx, nil, 2, 1, 1, open, factory); err == nil {
		t.Error("expected error for a nil evaluator")
	}
	if _, _, err := FoldRanges(ctx, ev, 2, 1, 1, nil, factory); err == nil {
		t.Error("expected error for a nil open")
	}
	if _, _, err := FoldRanges(ctx, ev, 2, 1, 1, open, nil); err == nil {
		t.Error("expected error for a nil factory")
	}
	if _, _, err := FoldRanges(ctx, ev, 2, 1, -1, open, factory); err == nil {
		t.Error("expected error for a negative cell count")
	}
	nilFactory := func() (Sink, error) { return nil, nil }
	if _, _, err := FoldRanges(ctx, ev, 2, 1, 1, open, nilFactory); err == nil || !strings.Contains(err.Error(), "cell 0") {
		t.Errorf("factory returning nil: err = %v, want it to name cell 0", err)
	}
	if _, _, err := FoldRanges(ctx, ev, 2, 1, 1, func(int) (stream.BlockSource, error) { return nil, nil }, factory); err == nil {
		t.Error("expected error for a nil cell source")
	}
	// Zero cells: nothing is opened, and the aggregate is an empty factory
	// sink.
	total, counts, err := FoldRanges(ctx, ev, 2, 4, 0, func(int) (stream.BlockSource, error) {
		t.Error("open called on a 0-cell grid")
		return nil, nil
	}, factory)
	if err != nil || len(counts) != 0 || total.(*BreakdownAccumulator).N() != 0 {
		t.Errorf("0 cells: total %v, counts %v, err %v", total, counts, err)
	}
}

// failAfterSource yields a few jobs then fails.
type failAfterSource struct {
	jobs []workload.Features
	i    int
	err  error
}

func (s *failAfterSource) Next() (workload.Features, error) {
	if s.i >= len(s.jobs) {
		return workload.Features{}, s.err
	}
	f := s.jobs[s.i]
	s.i++
	return f, nil
}

// TestFoldRangesCellErrorCancelsAll: a failing cell source cancels its
// siblings and surfaces an error naming its cell.
func TestFoldRangesCellErrorCancelsAll(t *testing.T) {
	jobs := accJobs(t, 600)
	ev := accBackend(t)
	bad := errors.New("shard source exploded")
	srcs := []stream.Source{
		stream.NewSliceSource(jobs),
		&failAfterSource{jobs: jobs[:10], err: bad},
	}
	_, _, err := foldBreakdowns(context.Background(), ev, 4, srcs)
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want wrapped %v", err, bad)
	}
	if !strings.Contains(err.Error(), "cell 1") {
		t.Errorf("error %q does not name the failing cell", err)
	}
}

// snapshotOf is a sink's snapshot payload.
func snapshotOf(t *testing.T, s Sink) []byte {
	t.Helper()
	raw, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
