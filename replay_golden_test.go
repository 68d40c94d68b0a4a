package pai_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	pai "repro"
	"repro/internal/hw"
)

// goldenReplaySHA256 pins the SHA-256 of Engine.Replay's fleet-sink
// snapshot (WriteSinkSnapshot) followed by the %+v-formatted ReplayStats for
// three fixed-seed scenarios. The constants were recorded before placement
// moved from a linear server scan to free-level bitsets, so they prove every
// later performance change keeps each placement and every byte: they change
// only with an intentional snapshot-format or model change (the trace
// generator, the step-time model or the scheduling rules), never with a
// faster event loop. They were last recorded for histogram snapshot
// version 2, after TestSnapshotRoundTripKeepsState showed the fleet sinks
// decode to the live state; the stats are unchanged.
var goldenReplaySHA256 = map[string]string{
	"fifo-congested-stragglers": "0d5fd1030307bd569ca42360a0f1e3f044c7ed1cd6fed00fb8961d6c0b23678e",
	"sjf-queue-limit":           "86d36c6b37bbc91ddaeaa397f569d4ebb075223b90115a3742023c6cb50b17ff",
	"no-nvlink-rejects":         "59c3b6f17937d33dfe16a349d8494eaefa75d31e895fc2abb92af16dfa9a2953",
}

// goldenReplayTrace generates the fixed-seed, arrival-stamped trace behind
// the golden replay cases.
func goldenReplayTrace(t *testing.T) []pai.Features {
	t.Helper()
	p := pai.DefaultTraceParams()
	p.Seed = 7
	p.NumJobs = 3000
	p.ArrivalRate = 900
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Jobs
}

// replayGoldenCase is one scenario behind goldenReplaySHA256.
type replayGoldenCase struct {
	name string
	eng  *pai.Engine
	opts []pai.ReplayOption
	// check asserts the scenario exercises what it is named after.
	check func(pai.ReplayStats) bool
}

// replayGoldenCases returns the golden replay scenarios.
func replayGoldenCases(t *testing.T) []replayGoldenCase {
	t.Helper()
	noNVLink, err := pai.New(pai.WithConfig(hw.BaselineNoNVLink()), pai.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := pai.New(pai.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	return []replayGoldenCase{
		{"fifo-congested-stragglers", baseline, []pai.ReplayOption{
			pai.WithReplayServers(16),
			pai.WithReplayStragglers(0.05, 4),
			pai.WithReplayStragglerSeed(3),
			pai.WithReplaySteps(200),
			pai.WithReplayUtilizationWindow(60),
		}, func(s pai.ReplayStats) bool { return s.MaxQueueDepth > 100 && s.Stragglers > 0 }},
		{"sjf-queue-limit", baseline, []pai.ReplayOption{
			pai.WithReplayServers(16),
			pai.WithReplayPolicy("sjf"),
			pai.WithReplayQueueLimit(64),
			pai.WithReplaySteps(200),
			pai.WithReplayUtilizationWindow(60),
		}, func(s pai.ReplayStats) bool { return s.MaxQueueDepth == 64 && s.Rejected > 0 }},
		{"no-nvlink-rejects", noNVLink, []pai.ReplayOption{
			pai.WithReplayServers(24),
			pai.WithReplaySteps(100),
			pai.WithReplayUtilizationWindow(60),
		}, func(s pai.ReplayStats) bool { return s.Rejected > 0 && s.Completed > 0 }},
	}
}

// TestReplayGoldenSnapshot replays the golden trace under each scenario and
// checks the hash of the fleet snapshot plus the scalar stats.
func TestReplayGoldenSnapshot(t *testing.T) {
	jobs := goldenReplayTrace(t)
	cases := replayGoldenCases(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.eng.Replay(context.Background(), pai.NewSliceJobSource(jobs), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.check(res.Stats) {
				t.Fatalf("scenario does not exercise its case: %+v", res.Stats)
			}
			var buf bytes.Buffer
			if err := pai.WriteSinkSnapshot(&buf, res.Sinks); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%+v", res.Stats)
			sum := sha256.Sum256(buf.Bytes())
			if got, want := hex.EncodeToString(sum[:]), goldenReplaySHA256[tc.name]; got != want {
				t.Errorf("replay snapshot+stats SHA-256 = %s, want %s (stats %+v)", got, want, res.Stats)
			}
		})
	}
}
