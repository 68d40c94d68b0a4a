package coord

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analyze"
	"repro/internal/backend"
	"repro/internal/binenc"
	"repro/internal/workload"
)

// cellFold folds the contiguous cell partition `cell of cells` of jobs into
// a fresh accumulator — the deterministic per-cell work every dynamic test
// worker performs.
func cellFold(tb testing.TB, b backend.Backend, jobs []workload.Features, cells, cell int) (*analyze.BreakdownAccumulator, int) {
	tb.Helper()
	per := (len(jobs) + cells - 1) / cells
	lo, hi := cell*per, (cell+1)*per
	if lo > len(jobs) {
		lo = len(jobs)
	}
	if hi > len(jobs) {
		hi = len(jobs)
	}
	acc := analyze.NewBreakdownAccumulator()
	for _, f := range jobs[lo:hi] {
		times, err := b.Breakdown(f)
		if err != nil {
			tb.Fatal(err)
		}
		if err := acc.Add(f, times); err != nil {
			tb.Fatal(err)
		}
	}
	return acc, hi - lo
}

// directCellFoldBytes is the reference result: per-cell accumulators merged
// in cell order, first cell as the fold base (DynamicOptions.NewSink nil).
func directCellFoldBytes(tb testing.TB, b backend.Backend, jobs []workload.Features, cells int) []byte {
	tb.Helper()
	total, _ := cellFold(tb, b, jobs, cells, 0)
	for i := 1; i < cells; i++ {
		acc, _ := cellFold(tb, b, jobs, cells, i)
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

// testRangeRunner folds each assigned cell and emits it, the healthy-worker
// shape. perCell, when non-nil, runs before every cell fold (hook for sleep
// injection and progress signalling).
func testRangeRunner(tb testing.TB, b backend.Backend, jobs []workload.Features, base string, perCell func(cell int)) RangeRunner {
	return func(ctx context.Context, a RangeAssignment, emit func(int, analyze.Sink, string, int) error) error {
		for cell := a.Lo; cell < a.Hi; cell++ {
			if perCell != nil {
				perCell(cell)
			}
			acc, n := cellFold(tb, b, jobs, a.Cells, cell)
			if err := emit(cell, acc, analyze.ShardMeta(base, cell), n); err != nil {
				return err
			}
		}
		return nil
	}
}

// startDynWorkers launches n WorkDynamic loops with the given hint and
// returns a wait function reporting their errors.
func startDynWorkers(ctx context.Context, addr string, hint float64, run RangeRunner, n int) func() []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = WorkDynamic(ctx, addr, hint, run)
		}(i)
	}
	return func() []error {
		wg.Wait()
		return errs
	}
}

// TestRunDynamicMatchesDirectFold: the work-stealing scheduler over loopback
// TCP must fold to bytes identical to the in-process cell merge, whatever
// span shapes the workers happened to pull. The pull barrier keeps all
// three workers admitted until each holds a span, so every one of them
// ends with a clean done.
func TestRunDynamicMatchesDirectFold(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 400)
	const cells = 11
	const base = "dyntest run=1"

	ln := listen(t)
	wait := startDynWorkers(ctx, ln.Addr().String(), 0, pullBarrier(3, testRangeRunner(t, b, jobs, base, nil)), 3)
	sink, counts, stats, err := RunDynamic(ctx, ln, cells, []byte("payload"), DynamicOptions{Provenance: base})
	if err != nil {
		t.Fatal(err)
	}
	for _, werr := range wait() {
		if werr != nil {
			t.Errorf("worker error: %v", werr)
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(jobs) {
		t.Errorf("total jobs = %d, want %d", total, len(jobs))
	}
	if stats.Workers != 3 {
		t.Errorf("stats.Workers = %d, want 3", stats.Workers)
	}
	if stats.Assignments < 3 {
		t.Errorf("stats.Assignments = %d, want at least one span per worker", stats.Assignments)
	}
	raw, err := sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directCellFoldBytes(t, b, jobs, cells)) {
		t.Error("dynamic fold is not byte-identical to the direct cell merge")
	}
}

// TestRunDynamicStealsFromStraggler: a worker that stalls after its first
// cell must lose its in-flight tail to the per-cell deadline, the stolen
// cells must be absorbed by a healthy worker, and the merged result must
// still be byte-identical to the single-process fold.
func TestRunDynamicStealsFromStraggler(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 300)
	const cells = 8
	const base = "dyntest run=steal"

	ln := listen(t)
	// Slow worker: full speed on its very first cell, then sleeps far past
	// the deadline before every later one — the straggler shape. It is the
	// only worker connected when the run starts, so it must pull a multi-cell
	// span, emit one cell, and stall with the rest in flight.
	firstEmitted := make(chan struct{}, 1)
	var sawFirst atomic.Bool
	slow := testRangeRunner(t, b, jobs, base, func(cell int) {
		if sawFirst.CompareAndSwap(false, true) {
			return
		}
		select {
		case firstEmitted <- struct{}{}:
		default:
		}
		time.Sleep(2 * time.Second)
	})
	waitSlow := startDynWorkers(ctx, ln.Addr().String(), 0, slow, 1)

	type outcome struct {
		sink  analyze.Sink
		stats DynamicStats
		err   error
	}
	runDone := make(chan outcome, 1)
	go func() {
		sink, _, stats, err := RunDynamic(ctx, ln, cells, nil, DynamicOptions{
			Provenance:  base,
			CellTimeout: 200 * time.Millisecond,
		})
		runDone <- outcome{sink, stats, err}
	}()

	// Once the straggler is provably stalled mid-range, bring up the healthy
	// worker that must steal the tail.
	select {
	case <-firstEmitted:
	case <-ctx.Done():
		t.Fatal("slow worker never started its second cell")
	}
	waitFast := startDynWorkers(ctx, ln.Addr().String(), 0, testRangeRunner(t, b, jobs, base, nil), 1)

	out := <-runDone
	if out.err != nil {
		t.Fatal(out.err)
	}
	waitSlow() // abandoned mid-range: its error is expected, not asserted
	waitFast()
	if out.stats.StolenCells < 1 {
		t.Errorf("stats.StolenCells = %d, want >= 1", out.stats.StolenCells)
	}
	if out.stats.Resplits < 1 {
		t.Errorf("stats.Resplits = %d, want >= 1 (stolen tail was multi-cell)", out.stats.Resplits)
	}
	raw, err := out.sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directCellFoldBytes(t, b, jobs, cells)) {
		t.Error("post-steal fold is not byte-identical to the direct cell merge")
	}
}

// TestRunDynamicWorkerDeathRequeues: a worker that dies with a range in
// flight must lose the un-received cells to a survivor — the kill-one
// scenario, in micro-shard form.
func TestRunDynamicWorkerDeathRequeues(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 250)
	const cells = 6
	const base = "dyntest run=death"

	ln := listen(t)
	assigned := make(chan RangeAssignment, 1)
	// Crash worker: handshakes, takes one range, dies silently.
	go crashAfterAssign(t, ln.Addr().String(), assigned)

	type outcome struct {
		sink analyze.Sink
		err  error
	}
	runDone := make(chan outcome, 1)
	go func() {
		sink, _, _, err := RunDynamic(ctx, ln, cells, nil, DynamicOptions{Provenance: base})
		runDone <- outcome{sink, err}
	}()
	select {
	case <-assigned:
	case <-ctx.Done():
		t.Fatal("crash worker never received a range")
	}
	wait := startDynWorkers(ctx, ln.Addr().String(), 0, testRangeRunner(t, b, jobs, base, nil), 1)
	out := <-runDone
	if out.err != nil {
		t.Fatal(out.err)
	}
	wait()
	raw, err := out.sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directCellFoldBytes(t, b, jobs, cells)) {
		t.Error("post-death fold is not byte-identical to the direct cell merge")
	}
}

// TestRunDynamicBudgetExhaustionFailsRun: one cell that keeps failing in
// the middle of a grid whose other cells fold fine must fail the run with
// that cell's budget named, in bounded time, and the worker must see the
// abort.
func TestRunDynamicBudgetExhaustionFailsRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 120)
	const cells = 4
	const base = "dyntest run=budget"

	healthy := testRangeRunner(t, b, jobs, base, nil)
	brokenAt2 := func(ctx context.Context, a RangeAssignment, emit func(int, analyze.Sink, string, int) error) error {
		if a.Lo <= 2 && 2 < a.Hi {
			if err := healthy(ctx, RangeAssignment{Cells: a.Cells, Lo: a.Lo, Hi: 2}, emit); err != nil {
				return err
			}
			return fmt.Errorf("cell 2 is always broken")
		}
		return healthy(ctx, a, emit)
	}
	ln := listen(t)
	wait := startDynWorkers(ctx, ln.Addr().String(), 0, brokenAt2, 1)
	start := time.Now()
	_, _, _, err := RunDynamic(ctx, ln, cells, nil, DynamicOptions{Provenance: base, MaxAttempts: 2})
	if err == nil || !strings.Contains(err.Error(), "cell 2 failed 2 attempt(s), budget spent") {
		t.Errorf("exhausted retries returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("budget exhaustion took %v", elapsed)
	}
	for _, werr := range wait() {
		if werr == nil || !strings.Contains(werr.Error(), "aborted") {
			t.Errorf("worker saw a failed run as anything but an abort: %v", werr)
		}
	}
}

// TestRunDynamicFailureRequeuesSkippedCells: a failure report naming a
// cell past the first un-received one must requeue from the first
// un-received cell. Requeueing from the named cell would strand the cells
// in between — neither folded nor queued — and with no CellTimeout the
// run would never finish.
func TestRunDynamicFailureRequeuesSkippedCells(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 160)
	const cells = 4
	const base = "dyntest run=skip"

	ln := listen(t)
	type outcome struct {
		sink analyze.Sink
		err  error
	}
	runDone := make(chan outcome, 1)
	go func() {
		sink, _, _, err := RunDynamic(ctx, ln, cells, nil, DynamicOptions{Provenance: base})
		runDone <- outcome{sink, err}
	}()

	// The lone fake worker pulls [0, 2), half the backlog.
	conn, a, err := dialRange(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if a.Lo != 0 || a.Hi != 2 {
		t.Fatalf("lone worker pulled [%d, %d), want [0, 2)", a.Lo, a.Hi)
	}
	// A healthy worker folds the rest of the grid first.
	lastDone := make(chan struct{})
	healthy := testRangeRunner(t, b, jobs, base, nil)
	wait := startDynWorkers(ctx, ln.Addr().String(), 0, func(ctx context.Context, a RangeAssignment, emit func(int, analyze.Sink, string, int) error) error {
		err := healthy(ctx, a, emit)
		if a.Hi == cells {
			close(lastDone)
		}
		return err
	}, 1)
	<-lastDone
	// Report a failure at cell 1 without ever sending cell 0.
	if err := writeFrame(conn, msgFail, encodeFail(1, a.Attempt, "injected")); err != nil {
		t.Fatal(err)
	}
	// Whatever the fake is handed next, it dies; the healthy worker must
	// end up with cells 0 and 1.
	go func() {
		readFrame(conn)
		conn.Close()
	}()

	out := <-runDone
	if out.err != nil {
		t.Fatal(out.err)
	}
	wait()
	raw, err := out.sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directCellFoldBytes(t, b, jobs, cells)) {
		t.Error("fold after a skipping failure report is not byte-identical to the direct cell merge")
	}
}

// TestRunDynamicPartialRangeFailure: a runner that emits some cells then
// fails must have the emitted prefix folded and only the tail retried —
// verified by the byte-identical end state after a healthy retry.
func TestRunDynamicPartialRangeFailure(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 200)
	const cells = 5
	const base = "dyntest run=partial"

	var failedOnce atomic.Bool
	flaky := func(ctx context.Context, a RangeAssignment, emit func(int, analyze.Sink, string, int) error) error {
		for cell := a.Lo; cell < a.Hi; cell++ {
			if cell > a.Lo && failedOnce.CompareAndSwap(false, true) {
				return fmt.Errorf("transient failure before cell %d", cell)
			}
			acc, n := cellFold(t, b, jobs, a.Cells, cell)
			if err := emit(cell, acc, analyze.ShardMeta(base, cell), n); err != nil {
				return err
			}
		}
		return nil
	}
	ln := listen(t)
	wait := startDynWorkers(ctx, ln.Addr().String(), 0, flaky, 1)
	sink, counts, _, err := RunDynamic(ctx, ln, cells, nil, DynamicOptions{Provenance: base, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(jobs) {
		t.Errorf("total jobs = %d, want %d", total, len(jobs))
	}
	raw, err := sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directCellFoldBytes(t, b, jobs, cells)) {
		t.Error("post-failure fold is not byte-identical to the direct cell merge")
	}
}

// TestDynamicTargetCapacityWeighting: a worker advertising 3x the
// throughput must be offered a ~3x span, both halved against the backlog;
// workers without hints fall back to an even split.
func TestDynamicTargetCapacityWeighting(t *testing.T) {
	st := newDynState(context.Background(), 100, nil, DynamicOptions{})
	fastC, fastP := net.Pipe()
	slowC, slowP := net.Pipe()
	defer fastC.Close()
	defer fastP.Close()
	defer slowC.Close()
	defer slowP.Close()

	st.beginHandler(fastC)
	st.beginHandler(slowC)
	st.admit(fastC, 3000)
	st.admit(slowC, 1000)
	// Shares 0.75 and 0.25 over 100 pending cells, halved: 38 and 13.
	if got := st.target(fastC); got != 38 {
		t.Errorf("fast target = %d, want 38", got)
	}
	if got := st.target(slowC); got != 13 {
		t.Errorf("slow target = %d, want 13", got)
	}

	// A hint-less worker joining degrades everyone to the even split.
	plainC, plainP := net.Pipe()
	defer plainC.Close()
	defer plainP.Close()
	st.beginHandler(plainC)
	st.admit(plainC, 0)
	if got := st.target(fastC); got != 17 {
		t.Errorf("fast target with hint-less peer = %d, want 17 (even third, halved)", got)
	}

	// MaxSpan caps whatever the weighting asks for.
	st.opts.MaxSpan = 5
	if got := st.target(fastC); got != 5 {
		t.Errorf("capped target = %d, want 5", got)
	}
}

// TestHelloHintRoundTrip: the hint rides the handshake without moving the
// protocol version, and hint-less hellos still decode.
func TestHelloHintRoundTrip(t *testing.T) {
	hint, err := decodeHello(encodeHello(1234.5))
	if err != nil || hint != 1234.5 {
		t.Errorf("decodeHello(hinted) = %v, %v", hint, err)
	}
	hint, err = decodeHello(encodeHello(0))
	if err != nil || hint != 0 {
		t.Errorf("decodeHello(plain) = %v, %v", hint, err)
	}
	// A non-finite hint would turn every worker's capacity share into NaN;
	// it decodes as absent.
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), -5} {
		w := binenc.NewWriter(24)
		w.Str(protoMagic)
		w.U8(protoVersion)
		w.F64(bad)
		if hint, err := decodeHello(w.Bytes()); err != nil || hint != 0 {
			t.Errorf("decodeHello(hint %v) = %v, %v; want 0, nil", bad, hint, err)
		}
	}
	if len(encodeHello(5e6)) > maxHelloFrame {
		t.Error("hinted hello exceeds the handshake frame cap")
	}
}

// TestRangeAssignmentRoundTrip pins the wire encoding and its validation.
func TestRangeAssignmentRoundTrip(t *testing.T) {
	a := RangeAssignment{Cells: 13, Lo: 3, Hi: 9, Attempt: 2, Provenance: "run base", Payload: []byte{1, 2, 3}}
	got, err := decodeRange(encodeRange(a))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cells != a.Cells || got.Lo != a.Lo || got.Hi != a.Hi || got.Attempt != a.Attempt ||
		got.Provenance != a.Provenance || !bytes.Equal(got.Payload, a.Payload) {
		t.Errorf("round trip changed the assignment: %+v != %+v", got, a)
	}
	// Grid positions and attempts are scalars, not counts of the bytes that
	// follow: an empty provenance and payload must not cap them.
	bare := RangeAssignment{Cells: 1000, Lo: 500, Hi: 900, Attempt: 7}
	if got, err := decodeRange(encodeRange(bare)); err != nil || got.Cells != 1000 || got.Lo != 500 || got.Hi != 900 || got.Attempt != 7 {
		t.Errorf("bare range round trip = %+v, %v", got, err)
	}
	if cell, attempt, jobs, _, err := decodeResult(encodeResult(999, 4, 100000, nil)); err != nil || cell != 999 || attempt != 4 || jobs != 100000 {
		t.Errorf("bare result round trip = %d, %d, %d, %v", cell, attempt, jobs, err)
	}
	if cell, attempt, _, err := decodeFail(encodeFail(999, 4, "")); err != nil || cell != 999 || attempt != 4 {
		t.Errorf("bare failure round trip = %d, %d, %v", cell, attempt, err)
	}
	for _, bad := range []RangeAssignment{
		{Cells: 0, Lo: 0, Hi: 1},
		{Cells: 5, Lo: 3, Hi: 3},
		{Cells: 5, Lo: -1, Hi: 2},
		{Cells: 5, Lo: 0, Hi: 6},
	} {
		if _, err := decodeRange(encodeRange(bad)); err == nil {
			t.Errorf("invalid range %+v decoded cleanly", bad)
		}
	}
}
