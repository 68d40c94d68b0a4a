package pai_test

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	pai "repro"
)

// distTraceParams builds the per-shard generator partitions every test in
// this file shards one logical trace into.
func distTraceParams(shards, jobsPerShard int) []pai.TraceParams {
	ps := make([]pai.TraceParams, shards)
	for i := range ps {
		p := pai.DefaultTraceParams()
		p.Seed = 11 + int64(i)
		p.NumJobs = jobsPerShard
		ps[i] = p
	}
	return ps
}

// distSources maps cell i of the grid to a fresh generator partition i, so
// retried cells re-stream identical jobs.
func distSources(params []pai.TraceParams) pai.ShardSources {
	return func(cell int) (pai.JobSource, error) {
		return pai.NewTraceSource(params[cell])
	}
}

func snapshotOf(t *testing.T, s pai.Sink) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pai.WriteSinkSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEvaluateDistributedMatchesInProcess: the networked coordinator with
// in-process loopback workers must fold to snapshot bytes identical to
// EvaluateSourcesInto over the same partitions.
func TestEvaluateDistributedMatchesInProcess(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	eng, err := pai.New()
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	params := distTraceParams(shards, 400)
	factory := func() (pai.Sink, error) {
		return pai.NewMultiSink(pai.NewBreakdownAccumulator(), pai.NewComponentCDFSink(), pai.NewHardwareCDFSink()), nil
	}

	srcs := make([]pai.JobSource, shards)
	for i := range srcs {
		src, err := pai.NewTraceSource(params[i])
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = src
	}
	direct, directCounts, err := eng.EvaluateSourcesInto(ctx, factory, srcs...)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dist, distCounts, err := eng.EvaluateDistributed(ctx, ln, shards, 2, distSources(params), factory,
		&pai.MicroShardOptions{Provenance: "engine-dist-test", CellTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	if len(distCounts) != len(directCounts) {
		t.Fatalf("counts length %d vs %d", len(distCounts), len(directCounts))
	}
	for i := range distCounts {
		if distCounts[i] != directCounts[i] {
			t.Errorf("shard %d count: distributed %d vs in-process %d", i, distCounts[i], directCounts[i])
		}
	}
	if !bytes.Equal(snapshotOf(t, dist), snapshotOf(t, direct)) {
		t.Error("distributed snapshot is not byte-identical to the in-process sharded run")
	}
}

// TestDistributedWorkerConnectOut: an external worker dialing in (the
// two-machine path) serves the whole run when the coordinator spawns no
// local workers.
func TestDistributedWorkerConnectOut(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	eng, err := pai.New()
	if err != nil {
		t.Fatal(err)
	}
	const shards = 2
	params := distTraceParams(shards, 300)
	factory := func() (pai.Sink, error) { return pai.NewBreakdownAccumulator(), nil }

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- eng.DistributedWorker(ctx, ln.Addr().String(), distSources(params), factory)
	}()
	dist, counts, err := eng.EvaluateDistributed(ctx, ln, shards, 0, nil, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-workerErr; err != nil {
		t.Errorf("worker error: %v", err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if want := shards * 300; total != want {
		t.Errorf("total jobs %d, want %d", total, want)
	}

	srcs := make([]pai.JobSource, shards)
	for i := range srcs {
		src, err := pai.NewTraceSource(params[i])
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = src
	}
	direct, _, err := eng.EvaluateSourcesInto(ctx, factory, srcs...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotOf(t, dist), snapshotOf(t, direct)) {
		t.Error("connect-out snapshot is not byte-identical to the in-process sharded run")
	}
}
