package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"

	"repro/internal/analyze"
)

// workerHandshake runs the worker side of the hello exchange, advertising
// hint (zero when unknown).
func workerHandshake(conn net.Conn, hint float64) error {
	if err := writeFrame(conn, msgHello, encodeHello(hint)); err != nil {
		return fmt.Errorf("coord: worker hello: %w", err)
	}
	typ, p, err := readFrameCapped(conn, maxHelloFrame)
	if err != nil {
		return fmt.Errorf("coord: worker handshake: %w", err)
	}
	if typ != msgHello {
		return fmt.Errorf("coord: worker handshake got %q frame", typ)
	}
	if _, err := decodeHello(p); err != nil {
		return err
	}
	return nil
}

// RangeRunner evaluates one cell range on the worker side: it interprets
// a.Payload, folds each cell of [a.Lo, a.Hi) into its own fresh sink, and
// calls emit once per cell, in cell order, the moment that cell's fold
// completes — streaming, not batched, so the coordinator's per-cell
// deadline observes progress instead of silence. meta must be
// analyze.ShardMeta(base, cell). An emit error means the connection is gone;
// return it unwrapped and stop.
type RangeRunner func(ctx context.Context, a RangeAssignment, emit func(cell int, sink analyze.Sink, meta string, jobs int) error) error

// netErr marks errors raised by emit itself (the connection died) as
// opposed to errors from the runner's own evaluation — the two exits differ:
// a dead connection ends the worker session, an evaluation error is reported
// with msgFail and the session continues.
type netErr struct{ error }

func (e netErr) Unwrap() error { return e.error }

// WorkDynamic dials a coordinator and serves cell-range assignments with
// run until the coordinator finishes. hint is the jobs/sec throughput this
// worker advertises for capacity-weighted range sizing (zero for unknown).
// A clean done returns nil; everything else returns the underlying error,
// so process-level workers can exit non-zero when the run ended without
// them. Cancelling ctx unblocks any in-flight read or write by closing the
// connection.
func WorkDynamic(ctx context.Context, addr string, hint float64, run RangeRunner) error {
	if run == nil {
		return fmt.Errorf("coord: WorkDynamic with nil runner")
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("coord: dial coordinator: %w", err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	if err := ServeRangeConn(ctx, conn, hint, run); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	return nil
}

// ServeRangeConn speaks the worker protocol over an established connection: handshake (carrying the throughput hint), then one
// result frame per cell of every range assignment until done. Split from
// WorkDynamic so tests can drive it over arbitrary transports.
func ServeRangeConn(ctx context.Context, conn net.Conn, hint float64, run RangeRunner) error {
	if run == nil {
		return fmt.Errorf("coord: ServeRangeConn with nil runner")
	}
	if err := workerHandshake(conn, hint); err != nil {
		return err
	}
	for {
		typ, p, err := readFrame(conn)
		if err != nil {
			return fmt.Errorf("coord: worker read: %w", err)
		}
		switch typ {
		case msgDone:
			return nil
		case msgAbort:
			msg, derr := decodeAbort(p)
			if derr != nil {
				return derr
			}
			return fmt.Errorf("coord: run aborted by coordinator: %s", msg)
		case msgRange:
			a, err := decodeRange(p)
			if err != nil {
				return err
			}
			next := a.Lo // first cell not yet emitted; where a failure is charged
			emit := func(cell int, sink analyze.Sink, meta string, jobs int) error {
				if cell != next {
					// Runner bug, not a network fault: report it as a failure
					// so the coordinator requeues the tail instead of folding
					// out-of-order cells.
					return fmt.Errorf("coord: range runner emitted cell %d, expected %d", cell, next)
				}
				var buf bytes.Buffer
				if err := analyze.WriteSnapshotMeta(&buf, sink, meta); err != nil {
					return fmt.Errorf("coord: worker snapshot cell %d: %w", cell, err)
				}
				if err := writeFrame(conn, msgResult, encodeResult(cell, a.Attempt, jobs, buf.Bytes())); err != nil {
					return netErr{fmt.Errorf("coord: worker send cell %d: %w", cell, err)}
				}
				next++
				return nil
			}
			if rerr := run(ctx, a, emit); rerr != nil {
				var ne netErr
				if errors.As(rerr, &ne) {
					return ne.error
				}
				if err := writeFrame(conn, msgFail, encodeFail(next, a.Attempt, rerr.Error())); err != nil {
					return fmt.Errorf("coord: worker report failure: %w", err)
				}
			}
		default:
			return fmt.Errorf("coord: worker got unexpected %q frame", typ)
		}
	}
}
