package pai_test

import (
	"bytes"
	"context"
	"testing"

	pai "repro"
)

// sinkSnapshotPair runs the same colbin bytes through the record-streaming
// path (per-record Add) and the columnar path (StreamColumnsInto /
// AddColumns) into two sinks built by factory, and returns both snapshots.
func sinkSnapshotPair(t *testing.T, eng *pai.Engine, cb []byte, factory func() pai.Sink) (rec, col []byte) {
	t.Helper()
	ctx := context.Background()

	recSink := factory()
	nRec, err := eng.EvaluateSource(ctx, pai.NewColumnReader(bytes.NewReader(cb)), func(r pai.StreamResult) error {
		return recSink.Add(r.Job, r.Times)
	})
	if err != nil {
		t.Fatal(err)
	}

	colSink := factory()
	nCol, err := eng.StreamColumnsInto(ctx, pai.NewColumnReader(bytes.NewReader(cb)), colSink)
	if err != nil {
		t.Fatal(err)
	}
	if nRec != nCol {
		t.Fatalf("record path delivered %d, columnar path %d", nRec, nCol)
	}

	rec, err = recSink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	col, err = colSink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return rec, col
}

// TestAddColumnsByteIdenticalPerSinkKind pins the ColumnSink contract for
// every built-in sink kind: the columnar fold must leave snapshot bytes
// identical to the scalar row-by-row reduction over the same trace.
func TestAddColumnsByteIdenticalPerSinkKind(t *testing.T) {
	_, cb := columnTestTrace(t, 5000)
	eng, err := pai.New(pai.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}

	kinds := map[string]func() pai.Sink{
		"breakdown":     func() pai.Sink { return pai.NewBreakdownAccumulator() },
		"component-cdf": func() pai.Sink { return pai.NewComponentCDFSink() },
		"hardware-cdf":  func() pai.Sink { return pai.NewHardwareCDFSink() },
		"projection": func() pai.Sink {
			s, err := eng.NewProjectionSink(pai.ToAllReduceLocal)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"sweep": func() pai.Sink {
			s, err := eng.NewSweepSink(pai.PSWorker)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"multi": func() pai.Sink {
			s, err := eng.NewReportSink(pai.ToAllReduceLocal)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for kind, factory := range kinds {
		t.Run(kind, func(t *testing.T) {
			rec, col := sinkSnapshotPair(t, eng, cb, factory)
			if !bytes.Equal(rec, col) {
				t.Fatalf("%s: columnar snapshot (%d bytes) differs from scalar reduction (%d bytes)",
					kind, len(col), len(rec))
			}
			var sink pai.Sink = factory()
			if _, ok := sink.(pai.ColumnSink); !ok {
				t.Fatalf("%s does not implement ColumnSink", kind)
			}
		})
	}
}

// TestStreamColumnsIntoCachedByteIdentical: with the result cache on, the
// block-granular cache must engage on a repetitive trace and still leave the
// identical snapshot — a block hit stands in bit-for-bit for an evaluation.
func TestStreamColumnsIntoCachedByteIdentical(t *testing.T) {
	_, cb := columnTestTrace(t, 5000)
	plain, err := pai.New(pai.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := pai.New(pai.WithParallelism(4), pai.WithCache(16384))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	want := pai.NewBreakdownAccumulator()
	if _, err := plain.StreamColumnsInto(ctx, pai.NewColumnReader(bytes.NewReader(cb)), want); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// Three passes through one cached engine: the block cache memoizes a
	// block on its second sighting, so the third pass is served from it,
	// and every snapshot must match the uncached fold exactly.
	for pass := 1; pass <= 3; pass++ {
		got := pai.NewBreakdownAccumulator()
		if _, err := cached.StreamColumnsInto(ctx, pai.NewColumnReader(bytes.NewReader(cb)), got); err != nil {
			t.Fatal(err)
		}
		gotBytes, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("pass %d: cached columnar snapshot differs from uncached", pass)
		}
	}
	st := cached.CacheStats()
	if st.BlockHits == 0 {
		t.Fatalf("block cache never hit on a repetitive trace (misses %d)", st.BlockMisses)
	}
}
