package pai_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	pai "repro"
)

// columnTestTrace builds one stamped trace and returns it encoded both ways.
func columnTestTrace(t *testing.T, n int) (ndjson, colbin []byte) {
	t.Helper()
	p := pai.DefaultTraceParams()
	p.NumJobs = n
	p.DistinctJobs = 50
	p.ArrivalRate = 1800
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	var nd bytes.Buffer
	ndw, err := pai.NewTraceWriter(&nd, "ndjson")
	if err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	cbw, err := pai.NewTraceWriter(&cb, "colbin")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tr.Jobs {
		if err := ndw.Write(f); err != nil {
			t.Fatal(err)
		}
		if err := cbw.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := ndw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cbw.Flush(); err != nil {
		t.Fatal(err)
	}
	return nd.Bytes(), cb.Bytes()
}

// TestEvaluateColumnsByteIdenticalToStream is the PR's pinned fidelity
// property: the same trace evaluated through the columnar block path and
// through NDJSON streaming must leave byte-identical sink snapshots.
func TestEvaluateColumnsByteIdenticalToStream(t *testing.T) {
	nd, cb := columnTestTrace(t, 5000)
	eng, err := pai.New(pai.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	ndSink, err := eng.NewReportSink(pai.ToAllReduceLocal)
	if err != nil {
		t.Fatal(err)
	}
	ndSrc, err := pai.OpenTraceSource(bytes.NewReader(nd), "ndjson")
	if err != nil {
		t.Fatal(err)
	}
	nStream, err := eng.StreamInto(ctx, ndSrc, ndSink)
	if err != nil {
		t.Fatal(err)
	}

	cbSink, err := eng.NewReportSink(pai.ToAllReduceLocal)
	if err != nil {
		t.Fatal(err)
	}
	nCols, err := eng.StreamInto(ctx, pai.NewColumnReader(bytes.NewReader(cb)), cbSink)
	if err != nil {
		t.Fatal(err)
	}

	if nStream != 5000 || nCols != 5000 {
		t.Fatalf("delivered ndjson=%d colbin=%d, want 5000 each", nStream, nCols)
	}
	ndBytes, err := ndSink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cbBytes, err := cbSink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ndBytes, cbBytes) {
		t.Fatalf("sink snapshots differ: ndjson %d bytes, colbin %d bytes", len(ndBytes), len(cbBytes))
	}
}

// TestEvaluateColumnsMatchesStreamResults checks a colbin reader's blocks
// deliver the same results in the same order as the NDJSON records cut into
// blocks.
func TestEvaluateColumnsMatchesStreamResults(t *testing.T) {
	nd, cb := columnTestTrace(t, 2000)
	eng, err := pai.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ndSrc, err := pai.OpenTraceSource(bytes.NewReader(nd), "ndjson")
	if err != nil {
		t.Fatal(err)
	}
	var fromStream []pai.StreamResult
	if _, err := eng.EvaluateSource(ctx, ndSrc, func(r pai.StreamResult) error {
		fromStream = append(fromStream, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var fromCols []pai.StreamResult
	if _, err := eng.EvaluateSource(ctx, pai.NewColumnReader(bytes.NewReader(cb)), func(r pai.StreamResult) error {
		fromCols = append(fromCols, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(fromStream) != len(fromCols) {
		t.Fatalf("stream delivered %d, columns %d", len(fromStream), len(fromCols))
	}
	for i := range fromStream {
		if !reflect.DeepEqual(fromStream[i], fromCols[i]) {
			t.Fatalf("result %d differs between paths", i)
		}
	}
}

// TestEvaluateTraceSniffsBothFormats: OpenTraceSource with format "auto"
// must hand EvaluateSource either encoding of the same trace identically.
func TestEvaluateTraceSniffsBothFormats(t *testing.T) {
	nd, cb := columnTestTrace(t, 1000)
	eng, err := pai.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, data := range map[string][]byte{"ndjson": nd, "colbin": cb} {
		src, err := pai.OpenTraceSource(bytes.NewReader(data), "auto")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n, err := eng.EvaluateSource(ctx, src, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != 1000 {
			t.Fatalf("%s: evaluated %d jobs, want 1000", name, n)
		}
	}
	if _, err := pai.OpenTraceSource(bytes.NewReader(nd), "no-such-format"); err == nil {
		t.Fatal("unknown format accepted")
	}
}
