package pai_test

import (
	"context"
	"testing"

	pai "repro"
	"repro/internal/stats/statstest"
)

// TestSnapshotRoundTripKeepsState backs the golden snapshot hashes: the
// report sinks of TestReportSinkGoldenSnapshot and the fleet sinks of
// TestReplayGoldenSnapshot decode to the live histograms and sketches bit
// for bit, so a golden re-recorded for a snapshot format change pins the
// same state in new bytes.
func TestSnapshotRoundTripKeepsState(t *testing.T) {
	eng, err := pai.New(pai.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, distinct := range map[string]int{"repetitive": 64, "distinct": 0} {
		t.Run("report/"+name, func(t *testing.T) {
			jobs, _ := goldenTrace(t, distinct)
			sink, err := eng.NewReportSink(pai.ToAllReduceLocal)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.StreamInto(ctx, pai.NewSliceJobSource(jobs), sink); err != nil {
				t.Fatal(err)
			}
			statstest.RoundTrip(t, sink)
		})
	}
	jobs := goldenReplayTrace(t)
	for _, tc := range replayGoldenCases(t) {
		t.Run("replay/"+tc.name, func(t *testing.T) {
			res, err := tc.eng.Replay(ctx, pai.NewSliceJobSource(jobs), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			statstest.RoundTrip(t, res.Sinks)
		})
	}
}
