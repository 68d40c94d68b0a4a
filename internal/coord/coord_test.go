package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analyze"
	"repro/internal/backend"
	"repro/internal/tracegen"
	"repro/internal/workload"
)

// testJobs generates a small deterministic trace.
func testJobs(tb testing.TB, n int) []workload.Features {
	tb.Helper()
	p := tracegen.Default()
	p.NumJobs = n
	tr, err := tracegen.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	return tr.Jobs
}

// shardAcc folds the round-robin partition `index of shards` of jobs into a
// fresh accumulator — the deterministic per-shard work of a static sharded
// run, where cell i of the grid is shard i.
func shardAcc(tb testing.TB, b backend.Backend, jobs []workload.Features, shards, index int) (*analyze.BreakdownAccumulator, int) {
	tb.Helper()
	acc := analyze.NewBreakdownAccumulator()
	n := 0
	for i := index; i < len(jobs); i += shards {
		times, err := b.Breakdown(jobs[i])
		if err != nil {
			tb.Fatal(err)
		}
		if err := acc.Add(jobs[i], times); err != nil {
			tb.Fatal(err)
		}
		n++
	}
	return acc, n
}

// directFoldBytes is the reference result of a static sharded run: the
// per-shard accumulators merged in shard-index order, first shard as the
// fold base (DynamicOptions.NewSink nil).
func directFoldBytes(tb testing.TB, b backend.Backend, jobs []workload.Features, shards int) []byte {
	tb.Helper()
	total, _ := shardAcc(tb, b, jobs, shards, 0)
	for i := 1; i < shards; i++ {
		acc, _ := shardAcc(tb, b, jobs, shards, i)
		if err := total.Merge(acc); err != nil {
			tb.Fatal(err)
		}
	}
	raw, err := total.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func testBackend(tb testing.TB) backend.Backend {
	tb.Helper()
	b, err := backend.New(backend.AnalyticalName, backend.DefaultSpec())
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// shardRunner evaluates every cell of an assignment as the round-robin
// shard of the same index, stamping the given provenance base — a static
// sharded run served over the cell grid.
func shardRunner(tb testing.TB, b backend.Backend, jobs []workload.Features, base string) RangeRunner {
	return func(ctx context.Context, a RangeAssignment, emit func(int, analyze.Sink, string, int) error) error {
		for cell := a.Lo; cell < a.Hi; cell++ {
			acc, n := shardAcc(tb, b, jobs, a.Cells, cell)
			if err := emit(cell, acc, analyze.ShardMeta(base, cell), n); err != nil {
				return err
			}
		}
		return nil
	}
}

// snapshotBytes frames one accumulator the way a worker would.
func snapshotBytes(tb testing.TB, s analyze.Sink, meta string) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := analyze.WriteSnapshotMeta(&buf, s, meta); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func listen(tb testing.TB) net.Listener {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	return ln
}

// dialRange connects like a worker, completes the handshake, and reads the
// first range assignment — the raw-frame start of every fake worker below.
// The caller owns the returned connection.
func dialRange(addr string) (net.Conn, RangeAssignment, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, RangeAssignment{}, err
	}
	if err := workerHandshake(conn, 0); err != nil {
		conn.Close()
		return nil, RangeAssignment{}, err
	}
	typ, p, err := readFrame(conn)
	if err == nil && typ != msgRange {
		err = fmt.Errorf("fake worker got %q frame", typ)
	}
	var a RangeAssignment
	if err == nil {
		a, err = decodeRange(p)
	}
	if err != nil {
		conn.Close()
		return nil, RangeAssignment{}, err
	}
	return conn, a, nil
}

// crashAfterAssign connects like a worker, accepts one range, and drops the
// connection without replying — the observable shape of a worker killed
// mid-range. It reports the received assignment on assigned.
func crashAfterAssign(t *testing.T, addr string, assigned chan<- RangeAssignment) {
	conn, a, err := dialRange(addr)
	if err != nil {
		t.Error(err)
		return
	}
	assigned <- a
	conn.Close() // no result, no fail message — just a dead connection
}

// readUntilClosed drains conn until the peer closes it.
func readUntilClosed(conn net.Conn) {
	io.Copy(io.Discard, conn)
}

// pullBarrier wraps run so no range starts folding until n ranges have been
// pulled. A worker can pull a second range only after its first returns, so
// the first n ranges go to n distinct workers: all n are admitted before
// the run can finish. (A worker dialing after the last fold is refused, and
// rightly so.) The grid must leave every one of the n workers a span under
// the capacity halving, which holds whenever cells >= 2n-1.
func pullBarrier(n int, run RangeRunner) RangeRunner {
	var pulled atomic.Int32
	all := make(chan struct{})
	return func(ctx context.Context, a RangeAssignment, emit func(int, analyze.Sink, string, int) error) error {
		if pulled.Add(1) == int32(n) {
			close(all)
		}
		select {
		case <-all:
		case <-ctx.Done():
			return ctx.Err()
		}
		return run(ctx, a, emit)
	}
}

// TestRunMatchesDirectFold: a static sharded run — cell i is shard i —
// served to two networked workers over loopback TCP must fold to bytes
// identical to the in-process shard merge, with per-shard job counts.
func TestRunMatchesDirectFold(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 400)
	const shards = 3
	const base = "coordtest run=1"

	ln := listen(t)
	wait := startDynWorkers(ctx, ln.Addr().String(), 0, pullBarrier(2, shardRunner(t, b, jobs, base)), 2)
	sink, counts, stats, err := RunDynamic(ctx, ln, shards, []byte("payload"), DynamicOptions{Provenance: base})
	if err != nil {
		t.Fatal(err)
	}
	for _, werr := range wait() {
		if werr != nil {
			t.Errorf("worker error: %v", werr)
		}
	}
	if stats.Workers != 2 {
		t.Errorf("stats.Workers = %d, want 2", stats.Workers)
	}
	for i, c := range counts {
		want := len(jobs) / shards
		if i < len(jobs)%shards {
			want++
		}
		if c != want {
			t.Errorf("shard %d count = %d, want %d", i, c, want)
		}
	}
	raw, err := sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directFoldBytes(t, b, jobs, shards)) {
		t.Error("networked fold is not byte-identical to the direct shard merge")
	}
}

// TestRunWithSinkFactory: DynamicOptions.NewSink switches to the FoldSinks
// fold shape (empty base, merge every cell); bytes must still match.
func TestRunWithSinkFactory(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 300)
	const shards = 2

	ln := listen(t)
	wait := startDynWorkers(ctx, ln.Addr().String(), 0, shardRunner(t, b, jobs, ""), 1)
	sink, _, _, err := RunDynamic(ctx, ln, shards, nil, DynamicOptions{
		NewSink: func() (analyze.Sink, error) { return analyze.NewBreakdownAccumulator(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	raw, err := sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directFoldBytes(t, b, jobs, shards)) {
		t.Error("factory-based fold is not byte-identical to the direct shard merge")
	}
}

// TestWorkerDeathMidShardRetries: a worker killed after delivering the
// first cell of its range keeps that cell folded; only the un-received
// tail is requeued onto a surviving worker, and the merged result is still
// byte-identical.
func TestWorkerDeathMidShardRetries(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 500)
	const shards = 3
	const base = "coordtest run=death"

	var logMu sync.Mutex
	var logLines []string
	ln := listen(t)
	opts := DynamicOptions{
		Provenance: base,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logLines = append(logLines, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	}
	type outcome struct {
		sink analyze.Sink
		err  error
	}
	runDone := make(chan outcome, 1)
	go func() {
		sink, _, _, err := RunDynamic(ctx, ln, shards, nil, opts)
		runDone <- outcome{sink, err}
	}()

	// The lone first worker pulls [0, 2) (half the backlog), delivers
	// cell 0, and dies before cell 1.
	conn, a, err := dialRange(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if a.Lo != 0 || a.Hi != 2 {
		t.Fatalf("lone worker pulled [%d, %d), want [0, 2)", a.Lo, a.Hi)
	}
	acc, n := shardAcc(t, b, jobs, shards, 0)
	if err := writeFrame(conn, msgResult, encodeResult(0, a.Attempt, n, snapshotBytes(t, acc, analyze.ShardMeta(base, 0)))); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	var seenMu sync.Mutex
	seen := map[int]bool{}
	healthy := shardRunner(t, b, jobs, base)
	wait := startDynWorkers(ctx, ln.Addr().String(), 0, func(ctx context.Context, a RangeAssignment, emit func(int, analyze.Sink, string, int) error) error {
		seenMu.Lock()
		for cell := a.Lo; cell < a.Hi; cell++ {
			seen[cell] = true
		}
		seenMu.Unlock()
		return healthy(ctx, a, emit)
	}, 1)

	out := <-runDone
	if out.err != nil {
		t.Fatal(out.err)
	}
	wait()
	if seen[0] {
		t.Error("the dead worker's delivered cell 0 was evaluated again")
	}
	raw, err := out.sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directFoldBytes(t, b, jobs, shards)) {
		t.Error("post-retry fold is not byte-identical to the direct shard merge")
	}
	logMu.Lock()
	defer logMu.Unlock()
	if log := strings.Join(logLines, "\n"); !strings.Contains(log, "cells [1, 2) in flight") {
		t.Errorf("worker death did not requeue the un-received tail [1, 2); log:\n%s", log)
	}
}

// TestShardTimeoutRequeues: a worker that accepts a range and never
// responds must lose all of it to the per-cell deadline.
func TestShardTimeoutRequeues(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 200)
	const shards = 2
	const base = "coordtest run=timeout"

	ln := listen(t)
	type outcome struct {
		sink  analyze.Sink
		stats DynamicStats
		err   error
	}
	runDone := make(chan outcome, 1)
	go func() {
		sink, _, stats, err := RunDynamic(ctx, ln, shards, nil, DynamicOptions{
			Provenance:  base,
			CellTimeout: 200 * time.Millisecond,
		})
		runDone <- outcome{sink, stats, err}
	}()
	// Sleeper: accepts one range, then hangs until the coordinator
	// abandons it.
	conn, _, err := dialRange(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go readUntilClosed(conn)
	wait := startDynWorkers(ctx, ln.Addr().String(), 0, shardRunner(t, b, jobs, base), 1)
	out := <-runDone
	if out.err != nil {
		t.Fatal(out.err)
	}
	wait()
	if out.stats.StolenCells < 1 {
		t.Errorf("stats.StolenCells = %d, want the sleeper's range stolen", out.stats.StolenCells)
	}
	raw, err := out.sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directFoldBytes(t, b, jobs, shards)) {
		t.Error("post-timeout fold is not byte-identical to the direct shard merge")
	}
}

// TestFailureReportsRetryInPlace: a worker that reports a cell failure
// stays connected and gets the cell again; success on a later attempt
// completes the run.
func TestFailureReportsRetryInPlace(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 150)
	const shards = 2
	const base = "coordtest run=flaky"

	healthy := shardRunner(t, b, jobs, base)
	flaky := func(ctx context.Context, a RangeAssignment, emit func(int, analyze.Sink, string, int) error) error {
		if a.Attempt == 1 {
			return fmt.Errorf("transient failure on cells [%d, %d)", a.Lo, a.Hi)
		}
		return healthy(ctx, a, emit)
	}
	ln := listen(t)
	wait := startDynWorkers(ctx, ln.Addr().String(), 0, flaky, 1)
	sink, _, stats, err := RunDynamic(ctx, ln, shards, nil, DynamicOptions{Provenance: base, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, werr := range wait() {
		if werr != nil {
			t.Errorf("worker error: %v", werr)
		}
	}
	if stats.Workers != 1 {
		t.Errorf("stats.Workers = %d, want the one flaky worker to have stayed connected", stats.Workers)
	}
	raw, err := sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directFoldBytes(t, b, jobs, shards)) {
		t.Error("retried fold is not byte-identical to the direct shard merge")
	}
}

// TestAttemptBudgetExhaustionFailsRun: a cell that keeps failing must fail
// the whole run with the attempt budget named, not hang — and the failure
// must reach the worker as an abort, so it exits non-zero too.
func TestAttemptBudgetExhaustionFailsRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	broken := func(ctx context.Context, a RangeAssignment, emit func(int, analyze.Sink, string, int) error) error {
		return fmt.Errorf("always broken")
	}
	ln := listen(t)
	wait := startDynWorkers(ctx, ln.Addr().String(), 0, broken, 1)
	_, _, _, err := RunDynamic(ctx, ln, 1, nil, DynamicOptions{MaxAttempts: 2})
	if err == nil || !strings.Contains(err.Error(), "budget spent") {
		t.Errorf("exhausted retries returned %v", err)
	}
	for _, werr := range wait() {
		if werr == nil || !strings.Contains(werr.Error(), "aborted") {
			t.Errorf("worker saw a failed run as anything but an abort: %v", werr)
		}
	}
}

// TestAllWorkersLostFailsRun: when the only worker dies with cells still
// queued, the stall detector must fail the run instead of waiting forever
// for a worker that will never come back.
func TestAllWorkersLostFailsRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ln := listen(t)
	assigned := make(chan RangeAssignment, 1)
	go crashAfterAssign(t, ln.Addr().String(), assigned)
	start := time.Now()
	_, _, _, err := RunDynamic(ctx, ln, 2, nil, DynamicOptions{CellTimeout: 200 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "no active workers") {
		t.Errorf("all-workers-lost run returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("stall detection took %v", elapsed)
	}
	select {
	case <-assigned:
	default:
		t.Error("crash worker never got an assignment (stall path untested)")
	}
}

// TestGarbageConnectionIgnored: a client that fails the handshake is
// dropped and must not disturb the run.
func TestGarbageConnectionIgnored(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 120)
	const base = "coordtest run=garbage"

	ln := listen(t)
	type outcome struct {
		sink analyze.Sink
		err  error
	}
	runDone := make(chan outcome, 1)
	go func() {
		sink, _, _, err := RunDynamic(ctx, ln, 2, nil, DynamicOptions{Provenance: base})
		runDone <- outcome{sink, err}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	readUntilClosed(conn) // the coordinator hangs up on us
	conn.Close()

	wait := startDynWorkers(ctx, ln.Addr().String(), 0, shardRunner(t, b, jobs, base), 1)
	out := <-runDone
	if out.err != nil {
		t.Fatal(out.err)
	}
	wait()
	raw, err := out.sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directFoldBytes(t, b, jobs, 2)) {
		t.Error("fold after a garbage connection is not byte-identical to the direct shard merge")
	}
}

// TestOfferRejectsDuplicateShard is the at-most-once guard: a second
// snapshot for an already-folded cell must be rejected via its provenance,
// not silently folded twice.
func TestOfferRejectsDuplicateShard(t *testing.T) {
	b := testBackend(t)
	jobs := testJobs(t, 60)
	const base = "coordtest run=dup"
	st := newDynState(context.Background(), 2, nil, DynamicOptions{Provenance: base})

	acc, n := shardAcc(t, b, jobs, 2, 0)
	snap := snapshotBytes(t, acc, analyze.ShardMeta(base, 0))
	if err := st.offer(0, snap, n); err != nil {
		t.Fatal(err)
	}
	err := st.offer(0, snap, n)
	if !errors.Is(err, ErrDuplicateShard) {
		t.Errorf("duplicate cell accepted: %v", err)
	}
	// The recorded cell is untouched by the rejected duplicate.
	if st.counts[0] != n || st.sinks[0] == nil || st.remaining != 1 {
		t.Errorf("duplicate mutated state: counts=%v remaining=%d", st.counts, st.remaining)
	}
}

// TestOfferRejectsForeignAndMislabeled: snapshots from another run, or
// carrying the wrong cell index, must not fold.
func TestOfferRejectsForeignAndMislabeled(t *testing.T) {
	b := testBackend(t)
	jobs := testJobs(t, 60)
	const base = "coordtest run=prov"
	st := newDynState(context.Background(), 2, nil, DynamicOptions{Provenance: base})
	acc, n := shardAcc(t, b, jobs, 2, 0)

	// Wrong run base.
	foreign := snapshotBytes(t, acc, analyze.ShardMeta("another run", 0))
	if err := st.offer(0, foreign, n); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Errorf("foreign base accepted: %v", err)
	}
	// Right base, wrong index.
	misfiled := snapshotBytes(t, acc, analyze.ShardMeta(base, 1))
	if err := st.offer(0, misfiled, n); err == nil || !strings.Contains(err.Error(), "does not name cell") {
		t.Errorf("mislabeled index accepted: %v", err)
	}
	// No provenance at all.
	bare := snapshotBytes(t, acc, "")
	if err := st.offer(0, bare, n); err == nil {
		t.Error("provenance-free snapshot accepted")
	}
	// Corrupted snapshot bytes fail the checksum, not the process.
	good := snapshotBytes(t, acc, analyze.ShardMeta(base, 0))
	good[len(good)-1] ^= 0xff
	if err := st.offer(0, good, n); err == nil {
		t.Error("corrupted snapshot accepted")
	}
	if st.remaining != 2 {
		t.Errorf("rejected offers consumed cells: remaining=%d", st.remaining)
	}
}

// TestOfferConsistencyWithoutPinnedBase: with no expected provenance, the
// first accepted base becomes the requirement.
func TestOfferConsistencyWithoutPinnedBase(t *testing.T) {
	b := testBackend(t)
	jobs := testJobs(t, 60)
	st := newDynState(context.Background(), 2, nil, DynamicOptions{})
	acc0, n0 := shardAcc(t, b, jobs, 2, 0)
	acc1, n1 := shardAcc(t, b, jobs, 2, 1)

	if err := st.offer(0, snapshotBytes(t, acc0, analyze.ShardMeta("run A", 0)), n0); err != nil {
		t.Fatal(err)
	}
	if err := st.offer(1, snapshotBytes(t, acc1, analyze.ShardMeta("run B", 1)), n1); err == nil {
		t.Error("inconsistent base accepted")
	}
	if err := st.offer(1, snapshotBytes(t, acc1, analyze.ShardMeta("run A", 1)), n1); err != nil {
		t.Errorf("matching base rejected: %v", err)
	}
}

// helloListener signals on hello each time the coordinator finishes writing
// its handshake reply on an accepted connection — the moment the worker
// behind it is admitted, after which its handler parks for work.
type helloListener struct {
	net.Listener
	hello chan struct{}
}

func (l helloListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &helloConn{Conn: c, hello: l.hello}, nil
}

type helloConn struct {
	net.Conn
	hello chan struct{}
	once  sync.Once
}

func (c *helloConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.once.Do(func() { c.hello <- struct{}{} })
	return n, err
}

// TestFailFastWorkerDefersToHealthy: a worker that deterministically fails
// a cell must not burn the cell's whole attempt budget re-serving its own
// failure; the post-failure pause hands the cell to a parked healthy
// worker, which completes the run.
func TestFailFastWorkerDefersToHealthy(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 100)
	const base = "coordtest run=failfast"

	ln := helloListener{Listener: listen(t), hello: make(chan struct{}, 2)}
	gotCell := make(chan struct{})
	healthyParked := make(chan struct{})
	var brokenCalls atomic.Int32
	broken := func(ctx context.Context, a RangeAssignment, emit func(int, analyze.Sink, string, int) error) error {
		if brokenCalls.Add(1) == 1 {
			close(gotCell)
			<-healthyParked
		}
		return fmt.Errorf("deterministically broken worker")
	}

	type outcome struct {
		sink analyze.Sink
		err  error
	}
	runDone := make(chan outcome, 1)
	go func() {
		sink, _, _, err := RunDynamic(ctx, ln, 1, nil, DynamicOptions{Provenance: base})
		runDone <- outcome{sink, err}
	}()
	waitBroken := startDynWorkers(ctx, ln.Addr().String(), 0, broken, 1)
	<-ln.hello
	<-gotCell
	// The broken worker holds the cell; admit the healthy worker, and only
	// then let the broken one report its failure.
	waitHealthy := startDynWorkers(ctx, ln.Addr().String(), 0, shardRunner(t, b, jobs, base), 1)
	<-ln.hello
	close(healthyParked)

	out := <-runDone
	if out.err != nil {
		t.Fatalf("run failed despite a healthy worker: %v", out.err)
	}
	waitBroken()
	waitHealthy()
	raw, err := out.sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directFoldBytes(t, b, jobs, 1)) {
		t.Error("fold after deferral is not byte-identical to the direct fold")
	}
}

// TestExpectWorkersFailsWhenNoneConnect: with ExpectWorkers armed (the
// spawn-local mode), a run whose workers never dial in must fail at the
// cell timeout instead of hanging forever.
func TestExpectWorkersFailsWhenNoneConnect(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ln := listen(t)
	start := time.Now()
	_, _, _, err := RunDynamic(ctx, ln, 1, nil, DynamicOptions{CellTimeout: 200 * time.Millisecond, ExpectWorkers: true})
	if err == nil || !strings.Contains(err.Error(), "no active workers") {
		t.Errorf("worker-less armed run returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("stall detection took %v", elapsed)
	}
}

// TestAllWorkersFailedShardBurnsBudget is the anti-livelock guard: when
// every connected worker fails a cell, the cell is re-served until the
// attempt budget terminates the run with the budget error, in bounded
// time, even with no CellTimeout set.
func TestAllWorkersFailedShardBurnsBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	broken := func(ctx context.Context, a RangeAssignment, emit func(int, analyze.Sink, string, int) error) error {
		return fmt.Errorf("broken everywhere")
	}
	ln := listen(t)
	wait := startDynWorkers(ctx, ln.Addr().String(), 0, broken, 2)
	start := time.Now()
	_, _, _, err := RunDynamic(ctx, ln, 1, nil, DynamicOptions{MaxAttempts: 4})
	if err == nil || !strings.Contains(err.Error(), "budget spent") {
		t.Errorf("universally-failing cell returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("budget exhaustion took %v (livelock?)", elapsed)
	}
	wait()
}

// TestHandshakeFrameCapped: an unauthenticated peer claiming a huge hello
// frame must be dropped at once, without the coordinator allocating the
// frame or waiting out its handshake timeout.
func TestHandshakeFrameCapped(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 80)
	const base = "coordtest run=hugehello"

	ln := listen(t)
	type outcome struct {
		sink analyze.Sink
		err  error
	}
	runDone := make(chan outcome, 1)
	go func() {
		sink, _, _, err := RunDynamic(ctx, ln, 1, nil, DynamicOptions{Provenance: base})
		runDone <- outcome{sink, err}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Frame header claiming a 256 MiB hello, then silence: the coordinator
	// must hang up, not allocate and wait.
	start := time.Now()
	conn.Write([]byte{msgHello, 0x00, 0x00, 0x00, 0x10})
	readUntilClosed(conn)
	conn.Close()
	if elapsed := time.Since(start); elapsed > handshakeTimeout/3 {
		t.Errorf("huge-hello peer held its handler for %v", elapsed)
	}

	wait := startDynWorkers(ctx, ln.Addr().String(), 0, shardRunner(t, b, jobs, base), 1)
	out := <-runDone
	if out.err != nil {
		t.Fatal(out.err)
	}
	wait()
	if out.sink == nil {
		t.Fatal("no sink")
	}
}

// TestReadFrameCapped: the cap rejects oversized length fields before any
// payload allocation or read.
func TestReadFrameCapped(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgHello, encodeHello(0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrameCapped(bytes.NewReader(buf.Bytes()), maxHelloFrame); err != nil {
		t.Errorf("valid hello rejected: %v", err)
	}
	huge := []byte{msgHello, 0xff, 0xff, 0xff, 0x0f}
	_, _, err := readFrameCapped(bytes.NewReader(huge), maxHelloFrame)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized frame accepted: %v", err)
	}
}
