package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/analyze"
)

// DefaultMaxAttempts is the per-cell assignment budget when DynamicOptions
// leaves MaxAttempts zero: the first attempt plus two retries.
const DefaultMaxAttempts = 3

// handshakeTimeout bounds the hello exchange, so a stray connection (port
// scanner, misdirected client) cannot pin a handler goroutine.
const handshakeTimeout = 30 * time.Second

// failedShardBackoff is how long a handler sits out after its worker
// reports a failure: the requeued span goes to any other parked worker (a
// parked channel receiver gets it directly), so one deterministically
// broken worker cannot burn a cell's whole attempt budget in microseconds
// while healthy workers are busy. If the worker is truly alone it re-takes
// the span after the pause and the budget still bounds total failures.
const failedShardBackoff = 100 * time.Millisecond

// ErrDuplicateShard reports a snapshot offered for a cell that has already
// been folded — the at-most-once guard. The coordinator drops duplicates
// (the retried cell is byte-identical by determinism); callers folding
// snapshots by hand can test for it with errors.Is.
var ErrDuplicateShard = errors.New("coord: duplicate snapshot for an already-folded shard")

// DynamicOptions tunes a RunDynamic run. Only NewSink is required; the
// rest defaults to no per-cell deadline, DefaultMaxAttempts attempts per
// cell, no span cap, provenance bases required to agree across cells but
// not pinned.
type DynamicOptions struct {
	// CellTimeout is the per-cell progress deadline: a worker that delivers
	// neither a cell result nor a failure within it is abandoned, and the
	// un-received tail of its range is re-split and requeued for other
	// workers to steal. It also arms the stall detector: once any worker
	// has connected, a run with cells pending, no range in flight, and no
	// progress for a whole CellTimeout fails with an error instead of
	// waiting forever on workers that are all gone. Zero disables both — a
	// hung or vanished worker then hangs the run, so set it whenever
	// workers can die.
	CellTimeout time.Duration
	// MaxAttempts bounds assignments per cell (first included). When a
	// cell exhausts it, the run fails. Zero means DefaultMaxAttempts.
	MaxAttempts int
	// ExpectWorkers arms the stall detector from the start instead of
	// waiting for the first connection. Set it when the caller spawns the
	// workers itself, where failing to connect at all is itself a stall;
	// leave it false for connect-out runs that may legitimately idle until
	// an operator starts workers elsewhere.
	ExpectWorkers bool
	// Provenance, when non-empty, is the run-identifying base every cell
	// snapshot's provenance must carry (analyze.MetaBase); mismatches are
	// treated as worker failures and retried elsewhere. When empty, the
	// first accepted snapshot's base becomes the requirement.
	Provenance string
	// NewSink builds the empty aggregate the cell sinks merge into, in
	// cell order — the fold shape of analyze.FoldRanges, which is what
	// makes a distributed run byte-identical to the in-process one. It
	// also pins the sink type that snapshots decoded from the network must
	// merge into. Required.
	NewSink func() (analyze.Sink, error)
	// MaxSpan caps the number of cells in one assignment regardless of the
	// capacity weighting. Zero means no cap.
	MaxSpan int
	// Logf receives steal/requeue diagnostics. Nil discards them.
	Logf func(format string, args ...any)
}

// DynamicStats reports what the scheduler did during one RunDynamic.
type DynamicStats struct {
	// Workers is the number of connections that completed the handshake.
	Workers int
	// Assignments is the number of range assignments sent.
	Assignments int
	// StolenCells counts cells reassigned away from a straggler: they were
	// in flight on a connection when its per-cell deadline expired, and
	// another worker folded them instead.
	StolenCells int
	// Resplits counts the range splits performed when requeueing stolen
	// tails, so multiple workers can absorb one straggler's backlog.
	Resplits int
}

// span is one contiguous queue entry of un-folded cells [lo, hi).
type span struct{ lo, hi int }

// RunDynamic coordinates one work-stealing evaluation over a `cells`-wide
// micro-shard grid: workers pull contiguous cell ranges sized by their
// advertised throughput (halved against the pending backlog so late joiners
// and stragglers leave work to steal), stream one snapshot per cell back,
// and cells that stall past opts.CellTimeout are re-split and requeued for
// other workers. The per-cell snapshots fold in cell order with the exact
// analyze merge, so the result is byte-identical to a single-process run
// over the same grid no matter how the cells were distributed, stolen, or
// retried. A static sharded run is the same call with cell i standing for
// shard i. It returns the merged sink, per-cell job counts, and scheduler
// statistics once every cell is folded, a cell exhausts its attempt budget,
// or ctx is cancelled; the listener is closed on return.
func RunDynamic(ctx context.Context, ln net.Listener, cells int, payload []byte, opts DynamicOptions) (analyze.Sink, []int, DynamicStats, error) {
	if ln == nil {
		return nil, nil, DynamicStats{}, fmt.Errorf("coord: RunDynamic with nil listener")
	}
	if cells < 1 || opts.NewSink == nil {
		// The contract is "listener closed on return" even for early
		// errors: a caller that already pointed workers at ln must not be
		// left with them blocked on a live socket.
		ln.Close()
		if opts.NewSink == nil {
			return nil, nil, DynamicStats{}, fmt.Errorf("coord: RunDynamic with nil DynamicOptions.NewSink")
		}
		return nil, nil, DynamicStats{}, fmt.Errorf("coord: RunDynamic with %d cells", cells)
	}
	st := newDynState(ctx, cells, payload, opts)

	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				select {
				case <-st.done:
				default:
					st.finish(fmt.Errorf("coord: accept: %w", err))
				}
				return
			}
			if !st.beginHandler(conn) {
				conn.Close()
				continue
			}
			go st.serve(conn)
		}
	}()

	if opts.CellTimeout > 0 {
		go func() {
			period := opts.CellTimeout / 4
			if period < 10*time.Millisecond {
				period = 10 * time.Millisecond
			}
			t := time.NewTicker(period)
			defer t.Stop()
			for {
				select {
				case <-st.done:
					return
				case <-t.C:
					st.checkStalled(opts.CellTimeout)
				}
			}
		}()
	}

	select {
	case <-st.done:
	case <-ctx.Done():
		st.finish(ctx.Err())
	}
	ln.Close()
	st.closeConns()
	st.handlers.Wait()

	st.mu.Lock()
	failure := st.failure
	stats := st.stats
	st.mu.Unlock()
	if failure != nil {
		return nil, nil, stats, failure
	}
	sink, counts, err := st.fold()
	return sink, counts, stats, err
}

// dynState is the shared coordination state of one RunDynamic.
type dynState struct {
	ctx     context.Context
	cells   int
	payload []byte
	opts    DynamicOptions

	// work holds pending disjoint cell spans. Spans are non-empty and
	// disjoint, so there can never be more than `cells` of them: sends
	// never block.
	work chan span
	done chan struct{}

	handlers sync.WaitGroup

	mu        sync.Mutex
	conns     map[net.Conn]connState
	hints     map[net.Conn]float64
	attempts  []int
	sinks     []analyze.Sink
	counts    []int
	remaining int
	base      string
	baseSet   bool
	finished  bool
	failure   error
	stats     DynamicStats

	// Stall detection: a requeued span sitting in the work queue has no
	// per-attempt deadline, so if every worker is gone the run would wait
	// forever. everConnected arms the detector (a coordinator may
	// legitimately idle indefinitely before the first worker dials in);
	// lastProgress advances on every connect, assignment, requeue and fold.
	everConnected bool
	lastProgress  time.Time
}

func newDynState(ctx context.Context, cells int, payload []byte, opts DynamicOptions) *dynState {
	if opts.MaxAttempts < 1 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	st := &dynState{
		ctx:       ctx,
		cells:     cells,
		payload:   payload,
		opts:      opts,
		work:      make(chan span, cells),
		done:      make(chan struct{}),
		conns:     map[net.Conn]connState{},
		hints:     map[net.Conn]float64{},
		attempts:  make([]int, cells),
		sinks:     make([]analyze.Sink, cells),
		counts:    make([]int, cells),
		remaining: cells,
		base:      opts.Provenance,
		baseSet:   opts.Provenance != "",

		everConnected: opts.ExpectWorkers,
		lastProgress:  time.Now(),
	}
	st.work <- span{0, cells}
	return st
}

// finish records the run outcome once and releases every waiter.
func (st *dynState) finish(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.finishLocked(err)
}

func (st *dynState) finishLocked(err error) {
	if st.finished {
		return
	}
	st.finished = true
	st.failure = err
	close(st.done)
}

// connState tracks what a handler is doing with its connection, so teardown
// can force-close only connections that are blocked in a read (handshake or
// awaiting a cell result). Idle handlers are left alone to deliver the
// final done or abort message without racing a concurrent Close.
type connState int8

const (
	connHandshake connState = iota
	connIdle
	connBusy
)

// beginHandler registers a new connection and charges the handler
// WaitGroup — or reports false when the run has already finished, so no
// handler can start (and thus Add can never race the teardown Wait: the
// Add and the finish are serialized by the mutex, and Wait runs only after
// finish).
func (st *dynState) beginHandler(conn net.Conn) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.finished {
		return false
	}
	st.conns[conn] = connHandshake
	st.handlers.Add(1)
	st.everConnected = true
	st.lastProgress = time.Now()
	return true
}

func (st *dynState) untrack(conn net.Conn) {
	st.mu.Lock()
	delete(st.conns, conn)
	delete(st.hints, conn)
	st.mu.Unlock()
	conn.Close()
}

// setIdle marks a handler as not blocked on its worker.
func (st *dynState) setIdle(conn net.Conn) {
	st.mu.Lock()
	if _, ok := st.conns[conn]; ok {
		st.conns[conn] = connIdle
	}
	st.mu.Unlock()
}

// setBusy marks a handler as about to block reading its worker — unless the
// run already finished, in which case it reports false and the handler must
// bail out (its connection may be force-closed at any moment).
func (st *dynState) setBusy(conn net.Conn) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.finished {
		return false
	}
	if _, ok := st.conns[conn]; ok {
		st.conns[conn] = connBusy
	}
	return true
}

// closeConns unblocks handlers stuck reading dead or slow workers at
// teardown. Idle connections are spared so their handlers can send done.
func (st *dynState) closeConns() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for conn, state := range st.conns {
		if state != connIdle {
			conn.Close()
		}
	}
}

// admit records a completed handshake and the worker's throughput hint.
func (st *dynState) admit(conn net.Conn, hint float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.hints[conn] = hint
	st.stats.Workers++
	st.lastProgress = time.Now()
}

// target computes how many cells conn's next assignment should carry:
// the pending backlog scaled by the worker's capacity share, halved so half
// the backlog always stays behind for other (and future) workers to pull or
// steal. Share comes from the handshake throughput hints when every live
// worker advertised one, and falls back to an even split otherwise — a
// worker twice as fast gets ranges twice as long, so the straggler's tail
// shrinks instead of growing.
func (st *dynState) target(conn net.Conn) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	share := 0.0
	sum := 0.0
	allHinted := len(st.hints) > 0
	for _, h := range st.hints {
		if h <= 0 {
			allHinted = false
			break
		}
		sum += h
	}
	if allHinted && sum > 0 {
		share = st.hints[conn] / sum
	} else if n := len(st.hints); n > 0 {
		share = 1 / float64(n)
	} else {
		share = 1
	}
	t := int(math.Ceil(float64(st.remaining) * share / 2))
	if t < 1 {
		t = 1
	}
	if st.opts.MaxSpan > 0 && t > st.opts.MaxSpan {
		t = st.opts.MaxSpan
	}
	return t
}

// beginSpan charges one attempt for every cell of [lo, hi) and returns the
// highest per-cell attempt number — or an error when some cell's budget is
// already spent, which fails the run. A failing conn is marked idle in the
// same critical section, so teardown leaves it open for the abort.
func (st *dynState) beginSpan(conn net.Conn, lo, hi int) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	maxAttempt := 0
	for i := lo; i < hi; i++ {
		if st.attempts[i] >= st.opts.MaxAttempts {
			st.conns[conn] = connIdle
			st.finishLocked(fmt.Errorf("coord: cell %d failed %d attempt(s), budget spent", i, st.attempts[i]))
			return 0, st.failure
		}
		st.attempts[i]++
		if st.attempts[i] > maxAttempt {
			maxAttempt = st.attempts[i]
		}
	}
	st.stats.Assignments++
	st.lastProgress = time.Now()
	return maxAttempt, nil
}

// requeue returns the un-folded cells of [lo, hi) to the work queue. stolen
// marks the cells as stolen from a straggler (deadline expiry, as opposed
// to a reported failure or a vanished worker), and split re-splits the span
// in half so two workers can absorb the backlog.
func (st *dynState) requeue(lo, hi int, stolen, split bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	// Trim cells already folded (a duplicate delivery race can fold a
	// prefix); only un-folded cells go back.
	for lo < hi && st.sinks[lo] != nil {
		lo++
	}
	if lo >= hi || st.finished {
		return
	}
	if stolen {
		st.stats.StolenCells += hi - lo
	}
	st.lastProgress = time.Now()
	if split && hi-lo > 1 {
		mid := lo + (hi-lo)/2
		st.stats.Resplits++
		st.work <- span{lo, mid}
		st.work <- span{mid, hi}
		return
	}
	st.work <- span{lo, hi}
}

// offer validates and records one cell snapshot; the fold is at-most-once
// per cell (ErrDuplicateShard on a repeat).
func (st *dynState) offer(cell int, snapshot []byte, jobs int) error {
	sink, meta, err := analyze.ReadSnapshotMeta(bytes.NewReader(snapshot))
	if err != nil {
		return err
	}
	mi, ok := analyze.MetaShardIndex(meta)
	if !ok || mi != cell {
		return fmt.Errorf("coord: snapshot provenance %q does not name cell %d", meta, cell)
	}
	base := analyze.MetaBase(meta)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.baseSet && base != st.base {
		return fmt.Errorf("coord: cell %d from a different run (provenance %q, want base %q)", cell, base, st.base)
	}
	if st.sinks[cell] != nil {
		return fmt.Errorf("%w: cell %d (provenance %q)", ErrDuplicateShard, cell, meta)
	}
	if !st.baseSet {
		st.base, st.baseSet = base, true
	}
	st.sinks[cell] = sink
	st.counts[cell] = jobs
	st.remaining--
	st.lastProgress = time.Now()
	if st.remaining == 0 {
		st.finishLocked(nil)
	}
	return nil
}

// checkStalled fails the run when cells are pending, no worker is busy,
// and nothing has progressed for a whole CellTimeout — the state a run
// reaches when every worker died and their spans sit requeued with nobody
// to take them (a queued span has no per-attempt deadline of its own).
func (st *dynState) checkStalled(timeout time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.finished || st.remaining == 0 || !st.everConnected {
		return
	}
	for _, state := range st.conns {
		if state == connBusy {
			return
		}
	}
	if idle := time.Since(st.lastProgress); idle > timeout {
		st.finishLocked(fmt.Errorf("coord: %d cell(s) pending with no active workers for %v (all workers lost?)", st.remaining, idle.Round(time.Millisecond)))
	}
}

// serve drives one work-stealing worker connection: handshake, then assign
// capacity-sized spans and collect per-cell results until the run completes.
func (st *dynState) serve(conn net.Conn) {
	defer st.handlers.Done()
	defer st.untrack(conn)

	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	typ, p, err := readFrameCapped(conn, maxHelloFrame)
	if err != nil || typ != msgHello {
		st.opts.Logf("coord: %s: handshake rejected", conn.RemoteAddr())
		return
	}
	hint, herr := decodeHello(p)
	if herr != nil {
		st.opts.Logf("coord: %s: handshake rejected (%v)", conn.RemoteAddr(), herr)
		return
	}
	if err := writeFrame(conn, msgHello, encodeHello(0)); err != nil {
		return
	}
	conn.SetDeadline(time.Time{})
	st.admit(conn, hint)

	for {
		st.setIdle(conn)
		var s span
		select {
		case s = <-st.work:
			if !st.setBusy(conn) {
				st.requeue(s.lo, s.hi, false, false)
				return
			}
		case <-st.done:
			st.sendOutcome(conn)
			return
		case <-st.ctx.Done():
			return
		}
		// Trim the span to the worker's capacity-weighted target, leaving
		// the rest queued for others.
		if t := st.target(conn); s.hi-s.lo > t {
			st.requeue(s.lo+t, s.hi, false, false)
			s.hi = s.lo + t
		}
		attempt, err := st.beginSpan(conn, s.lo, s.hi)
		if err != nil {
			st.sendOutcome(conn)
			return
		}
		a := RangeAssignment{
			Cells:      st.cells,
			Lo:         s.lo,
			Hi:         s.hi,
			Attempt:    attempt,
			Provenance: st.opts.Provenance,
			Payload:    st.payload,
		}
		if err := writeFrame(conn, msgRange, encodeRange(a)); err != nil {
			st.opts.Logf("coord: cells [%d, %d): send to %s failed (%v); requeueing", s.lo, s.hi, conn.RemoteAddr(), err)
			st.requeue(s.lo, s.hi, false, false)
			return
		}
		// Collect one frame per cell, resetting the progress deadline after
		// each — a straggler is detected per cell, not per range. next is
		// the first cell not yet received: every requeue starts there.
		next := s.lo
	collect:
		for next < s.hi {
			if !st.setBusy(conn) {
				return // the run is over; nothing left to requeue
			}
			if st.opts.CellTimeout > 0 {
				conn.SetReadDeadline(time.Now().Add(st.opts.CellTimeout))
			}
			typ, p, err := readFrame(conn)
			if err != nil {
				stolen := false
				if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
					stolen = true
					st.opts.Logf("coord: cells [%d, %d) stalled on %s (%v); re-splitting for other workers", next, s.hi, conn.RemoteAddr(), err)
				} else {
					st.opts.Logf("coord: worker %s lost with cells [%d, %d) in flight (%v); requeueing", conn.RemoteAddr(), next, s.hi, err)
				}
				st.requeue(next, s.hi, stolen, true)
				return
			}
			// The frame is in hand: this handler is no longer blocked on the
			// network, so teardown must not force-close the connection out
			// from under the done message the final cell's fold triggers.
			st.setIdle(conn)
			switch typ {
			case msgResult:
				cell, _, jobs, snapshot, derr := decodeResult(p)
				if derr != nil || cell != next {
					st.opts.Logf("coord: bad result from %s (%v, cell %d, expected %d); requeueing tail", conn.RemoteAddr(), derr, cell, next)
					st.requeue(next, s.hi, false, true)
					return
				}
				if err := st.offer(cell, snapshot, jobs); err != nil {
					st.opts.Logf("coord: cell %d snapshot from %s rejected (%v); requeueing tail", cell, conn.RemoteAddr(), err)
					st.requeue(next, s.hi, false, true)
					return
				}
				next++
			case msgFail:
				failCell, _, msg, derr := decodeFail(p)
				if derr != nil || failCell < next || failCell >= s.hi {
					if derr == nil {
						derr = fmt.Errorf("failure names cell %d outside [%d, %d)", failCell, next, s.hi)
					}
					st.opts.Logf("coord: bad failure report from %s (%v); requeueing tail", conn.RemoteAddr(), derr)
					st.requeue(next, s.hi, false, true)
					return
				}
				// Requeue from next, not failCell: a report naming a later
				// cell must not strand the cells it skipped.
				st.opts.Logf("coord: worker %s reports at cell %d: %s; requeueing [%d, %d)", conn.RemoteAddr(), failCell, msg, next, s.hi)
				st.requeue(next, s.hi, false, false)
				// The worker is alive and spoke the protocol; pause briefly
				// before it pulls again so another parked worker can take
				// the requeued span first.
				conn.SetReadDeadline(time.Time{})
				select {
				case <-st.done:
				case <-time.After(failedShardBackoff):
				}
				break collect
			default:
				st.opts.Logf("coord: unexpected %q frame from %s; requeueing tail", typ, conn.RemoteAddr())
				st.requeue(next, s.hi, false, true)
				return
			}
		}
		conn.SetReadDeadline(time.Time{})
	}
}

// sendOutcome tells an idle worker how the run ended: done, or the failure
// relayed as an abort so `paibench -worker` processes exit non-zero instead
// of reporting a clean completion. Best effort: a vanished worker cannot
// read it anyway.
func (st *dynState) sendOutcome(conn net.Conn) {
	st.mu.Lock()
	failure := st.failure
	st.mu.Unlock()
	if failure != nil {
		writeFrame(conn, msgAbort, encodeAbort(failure.Error()))
		return
	}
	writeFrame(conn, msgDone, nil)
}

// fold merges the per-cell sinks in cell order — the identical fold shape
// (and bytes) of the single-process partition-grid run.
func (st *dynState) fold() (analyze.Sink, []int, error) {
	total, err := st.opts.NewSink()
	if err != nil {
		return nil, nil, fmt.Errorf("coord: %w", err)
	}
	for i := 0; i < st.cells; i++ {
		if err := total.Merge(st.sinks[i]); err != nil {
			return nil, nil, fmt.Errorf("coord: fold cell %d: %w", i, err)
		}
	}
	counts := make([]int, st.cells)
	copy(counts, st.counts)
	return total, counts, nil
}
