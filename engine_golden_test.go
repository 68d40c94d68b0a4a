package pai_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	pai "repro"
)

// goldenReportSHA256 pins the SHA-256 of the full report sink's
// MarshalBinary after folding a fixed-seed generated trace. They change
// only with an intentional bump of a snapshot format (or of the trace
// generator or model arithmetic that feeds it), never with a faster fold.
// They were last recorded for histogram snapshot version 2 (fixed grids by
// checksum, integer counts as sparse varints), after
// TestSnapshotRoundTripKeepsState showed every histogram and sketch of
// these sinks decodes to the live state bit for bit.
var goldenReportSHA256 = map[string]string{
	"repetitive": "231863278f84e46b7618c34fe4b5e3771f51cec0253788610388a9a0897f6718",
	"distinct":   "fbd0684374496cf6df9d0dbda1ec065e68ea5c3807a3ebf68c563885ff45e32a",
}

// goldenTrace generates the fixed-seed trace behind one golden case and
// returns its jobs and colbin encoding.
func goldenTrace(t *testing.T, distinct int) ([]pai.Features, []byte) {
	t.Helper()
	p := pai.DefaultTraceParams()
	p.Seed = 7
	p.NumJobs = 6000
	p.DistinctJobs = distinct
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	w, err := pai.NewTraceWriter(&cb, "colbin")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tr.Jobs {
		if err := w.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return tr.Jobs, cb.Bytes()
}

// TestReportSinkGoldenSnapshot folds a repetitive and an all-distinct trace
// into NewReportSink through Add (StreamInto) and through AddColumns
// (StreamColumnsInto), and checks both snapshots against the pinned hashes.
func TestReportSinkGoldenSnapshot(t *testing.T) {
	eng, err := pai.New(pai.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, distinct := range map[string]int{"repetitive": 64, "distinct": 0} {
		t.Run(name, func(t *testing.T) {
			jobs, cb := goldenTrace(t, distinct)
			routes := map[string]func(pai.Sink) error{
				"Add": func(s pai.Sink) error {
					_, err := eng.StreamInto(ctx, pai.NewSliceJobSource(jobs), s)
					return err
				},
				"AddColumns": func(s pai.Sink) error {
					_, err := eng.StreamColumnsInto(ctx, pai.NewColumnReader(bytes.NewReader(cb)), s)
					return err
				},
			}
			for route, fold := range routes {
				sink, err := eng.NewReportSink(pai.ToAllReduceLocal)
				if err != nil {
					t.Fatal(err)
				}
				if err := fold(sink); err != nil {
					t.Fatal(err)
				}
				raw, err := sink.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(raw)
				if got, want := hex.EncodeToString(sum[:]), goldenReportSHA256[name]; got != want {
					t.Errorf("%s via %s: snapshot SHA-256 %s, want %s", name, route, got, want)
				}
			}
		})
	}
}
