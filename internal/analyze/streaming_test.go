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

// foldBreakdowns is the sharded breakdown fold: FoldSinks with a
// BreakdownAccumulator factory.
func foldBreakdowns(ctx context.Context, ev backend.Evaluator, parallelism int, srcs []stream.Source) (*BreakdownAccumulator, []int, error) {
	total, counts, err := FoldSinks(ctx, ev, parallelism, srcs, func() (Sink, error) {
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
	if _, _, err := foldBreakdowns(ctx, ev, 2, nil); err == nil {
		t.Error("expected error for no sources")
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

// TestFoldSinksMatchesSingle: draining N partitions of one trace through
// FoldSinks folds every job exactly once into its own shard's sink, with
// per-shard counts, and each shard's sink equals a single-source fold of
// its partition byte for byte.
func TestFoldSinksMatchesSingle(t *testing.T) {
	jobs := accJobs(t, 1800)
	ev := accBackend(t)
	ctx := context.Background()
	cuts := []int{0, 500, 1100, len(jobs)}
	var srcs []stream.Source
	for i := 0; i+1 < len(cuts); i++ {
		srcs = append(srcs, stream.NewSliceSource(jobs[cuts[i]:cuts[i+1]]))
	}
	var shards []*BreakdownAccumulator
	total, counts, err := FoldSinks(ctx, ev, 6, srcs, func() (Sink, error) {
		acc := NewBreakdownAccumulator()
		shards = append(shards, acc)
		return acc, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.(*BreakdownAccumulator).N() != len(jobs) {
		t.Fatalf("merged N %d, want %d", total.(*BreakdownAccumulator).N(), len(jobs))
	}
	for shard, n := range counts {
		if want := cuts[shard+1] - cuts[shard]; n != want {
			t.Errorf("shard %d folded %d jobs, want %d", shard, n, want)
		}
		got, err := shards[shard].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fill(t, ev, jobs[cuts[shard]:cuts[shard+1]]).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("shard %d sink differs from a single-source fold of its partition", shard)
		}
	}
}

func TestFoldSinksValidation(t *testing.T) {
	ev := accBackend(t)
	factory := func() (Sink, error) { return NewBreakdownAccumulator(), nil }
	if _, _, err := FoldSinks(context.Background(), ev, 2, nil, factory); err == nil {
		t.Error("expected error for no sources")
	}
	if _, _, err := FoldSinks(context.Background(), ev, 2, []stream.Source{stream.NewSliceSource(nil), nil}, factory); err == nil {
		t.Error("expected error for a nil source")
	}
	if _, _, err := FoldSinks(context.Background(), ev, 2, []stream.Source{stream.NewSliceSource(nil)}, nil); err == nil {
		t.Error("expected error for a nil factory")
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

// TestFoldSinksShardErrorCancelsAll: a failing source cancels its siblings
// and surfaces an error naming its cell.
func TestFoldSinksShardErrorCancelsAll(t *testing.T) {
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
