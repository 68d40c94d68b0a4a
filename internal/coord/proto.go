// Package coord runs one logical evaluation across networked workers over
// a deterministic grid of cells: a coordinator listens on TCP, hands out
// contiguous cell ranges sized by each worker's advertised throughput,
// reads one sink snapshot per cell back over the connection, and folds the
// cells in cell order with the exact analyze merge. Workers dial in
// (spawn-local or from other machines), evaluate their cells, and stream
// the snapshots back — no shared filesystem, no snapshot files. A static
// sharded run is the grid with one cell per shard.
//
// The coordinator tolerates failure: a per-cell progress deadline and
// connection-loss detection requeue a range's un-received tail for other
// workers to steal (bounded attempts per cell), and the fold is
// at-most-once per cell, guarded by the provenance already carried inside
// every snapshot. Because per-cell folds and the cell fold order are
// deterministic, a run that lost, stole from, and retried workers still
// merges byte-identically to the single-process run over the same grid.
//
// Wire protocol. Every message is one length-framed unit:
//
//	frame   := type(u8) length(u32le) payload
//	hello   := 'H' ("PAICOORD", version, [hint])  both directions, first
//	range   := 'G' (cells, lo, hi, attempt, provenance, payload)
//	result  := 'R' (cell, attempt, jobs, snapshot)  one per cell, in order
//	fail    := 'F' (cell, attempt, message)
//	done    := 'D' ()
//	abort   := 'X' (message)
//
// Payloads are encoded with internal/binenc (uvarint counts, length-prefixed
// strings), and the snapshot inside a result message is exactly the framed,
// checksummed analyze.WriteSnapshotMeta byte stream — the network path and
// the file path (`paibench -emit-shard`/`-merge`) carry identical bytes.
// Frames are bounded (maxFrame) and decoded with bounds-checked sticky-error
// readers, so truncated, corrupted, or hostile streams fail with an error
// instead of a panic or an unbounded allocation.
package coord

import (
	"fmt"
	"io"
	"math"

	"repro/internal/binenc"
)

// Message types. The type byte leads every frame.
const (
	msgHello  byte = 'H'
	msgRange  byte = 'G'
	msgResult byte = 'R'
	msgFail   byte = 'F'
	msgDone   byte = 'D'
	msgAbort  byte = 'X'
)

// protoMagic and protoVersion open every connection in both directions, so
// a foreign client (or an incompatible release) fails the handshake
// immediately instead of corrupting a run. Version 2 carries version-2
// histogram snapshots in its result frames (fixed grids by checksum, sparse
// integer counts), so a version-1 worker is refused at hello rather than
// after it has folded a cell.
const (
	protoMagic   = "PAICOORD"
	protoVersion = 2
)

// maxFrame bounds one frame's payload. Snapshots are tens of kilobytes;
// 256 MiB leaves three orders of magnitude of headroom while keeping a
// corrupted length field from driving an unbounded allocation.
const maxFrame = 1 << 28

// maxHelloFrame bounds the pre-handshake read. Until the hello has
// validated the peer, the length field is attacker-controlled on a
// network-exposed listener; a hello payload is ~12 bytes, so anything
// beyond this is garbage and must be rejected before allocating.
const maxHelloFrame = 256

// frameHeaderLen is the fixed frame prefix: type byte + u32 payload length.
const frameHeaderLen = 5

// writeFrame sends one framed message as a single Write, so concurrent
// framing errors can't interleave partial frames (each connection is written
// by one goroutine; the single write also keeps TCP segments tidy).
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("coord: frame payload of %d bytes exceeds the %d-byte limit", len(payload), maxFrame)
	}
	bw := binenc.NewWriter(frameHeaderLen + len(payload))
	bw.U8(typ)
	bw.U32(uint32(len(payload)))
	buf := append(bw.Bytes(), payload...)
	_, err := w.Write(buf)
	return err
}

// readFrame reads one framed message, tolerating short reads (io.ReadFull)
// and rejecting oversized length fields before allocating.
func readFrame(r io.Reader) (byte, []byte, error) {
	return readFrameCapped(r, maxFrame)
}

// readFrameCapped is readFrame with an explicit payload bound — the
// handshake path uses maxHelloFrame so an unauthenticated peer cannot make
// the coordinator allocate a maxFrame buffer.
func readFrameCapped(r io.Reader, max uint32) (byte, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	br := binenc.NewReader(hdr[:])
	typ := br.U8()
	n := br.U32()
	if err := br.Err(); err != nil {
		return 0, nil, err
	}
	if n > max {
		return 0, nil, fmt.Errorf("coord: frame of %d bytes exceeds the %d-byte limit", n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("coord: truncated %d-byte frame: %w", n, err)
	}
	return typ, payload, nil
}

// encodeHello builds a handshake payload carrying the sender's
// throughput hint (jobs/sec a worker expects to sustain; zero means
// unknown). The hint rides after the fixed fields, where pre-hint peers
// never look — decodeHello has always tolerated trailing bytes — so the
// protocol version did not move.
func encodeHello(hint float64) []byte {
	w := binenc.NewWriter(24)
	w.Str(protoMagic)
	w.U8(protoVersion)
	if hint > 0 {
		w.F64(hint)
	}
	return w.Bytes()
}

// decodeHello verifies a handshake payload and returns the peer's
// throughput hint (zero when absent or meaningless — a hello without the
// trailing field is a valid pre-hint peer; a negative or non-finite hint
// would poison every worker's capacity share).
func decodeHello(p []byte) (float64, error) {
	r := binenc.NewReader(p)
	magic := r.Str()
	version := r.U8()
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("coord: malformed hello: %w", err)
	}
	if magic != protoMagic {
		return 0, fmt.Errorf("coord: not a coordinator/worker peer (magic %q)", magic)
	}
	if version != protoVersion {
		return 0, fmt.Errorf("coord: protocol version %d, want %d", version, protoVersion)
	}
	var hint float64
	if r.Len() >= 8 {
		hint = r.F64()
	}
	if r.Err() != nil || hint < 0 || math.IsInf(hint, 0) || math.IsNaN(hint) {
		hint = 0
	}
	return hint, nil
}

// RangeAssignment is one unit of work a coordinator hands a worker:
// evaluate the contiguous cell span [Lo, Hi) of a Cells-wide partition grid
// and stream one result frame per cell, in cell order. Payload is the
// opaque run description the worker's RangeRunner interprets (paibench
// encodes its full benchmark parameterization; library users close over
// their own). Provenance is the run-identifying base string the worker must
// stamp into each cell snapshot (see analyze.ShardMeta). Attempt is the
// highest per-cell attempt number the span carries (every cell's attempt
// was charged when the span was assigned), 1-based.
type RangeAssignment struct {
	Cells      int
	Lo, Hi     int
	Attempt    int
	Provenance string
	Payload    []byte
}

// encodeRange builds a range-assign payload.
func encodeRange(a RangeAssignment) []byte {
	w := binenc.NewWriter(40 + len(a.Provenance) + len(a.Payload))
	w.Int(a.Cells)
	w.Int(a.Lo)
	w.Int(a.Hi)
	w.Int(a.Attempt)
	w.Str(a.Provenance)
	w.Raw(a.Payload)
	return w.Bytes()
}

// decodeRange parses a range-assign payload.
func decodeRange(p []byte) (RangeAssignment, error) {
	r := binenc.NewReader(p)
	a := RangeAssignment{
		Cells:   r.Scalar(),
		Lo:      r.Scalar(),
		Hi:      r.Scalar(),
		Attempt: r.Scalar(),
	}
	a.Provenance = r.Str()
	a.Payload = r.Raw()
	if err := r.Err(); err != nil {
		return RangeAssignment{}, fmt.Errorf("coord: malformed range assignment: %w", err)
	}
	if a.Cells < 1 || a.Lo < 0 || a.Lo >= a.Hi || a.Hi > a.Cells {
		return RangeAssignment{}, fmt.Errorf("coord: range assignment names cells [%d, %d) of %d", a.Lo, a.Hi, a.Cells)
	}
	return a, nil
}

// encodeResult builds a result payload around a framed snapshot.
func encodeResult(index, attempt, jobs int, snapshot []byte) []byte {
	w := binenc.NewWriter(24 + len(snapshot))
	w.Int(index)
	w.Int(attempt)
	w.Int(jobs)
	w.Raw(snapshot)
	return w.Bytes()
}

// decodeResult parses a result payload.
func decodeResult(p []byte) (index, attempt, jobs int, snapshot []byte, err error) {
	r := binenc.NewReader(p)
	index = r.Scalar()
	attempt = r.Scalar()
	jobs = r.Scalar()
	snapshot = r.Raw()
	if err := r.Err(); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("coord: malformed result: %w", err)
	}
	return index, attempt, jobs, snapshot, nil
}

// encodeAbort builds an abort payload: the coordinator's failure, relayed
// so idle workers exit non-zero instead of mistaking a failed run for a
// completed one.
func encodeAbort(msg string) []byte {
	w := binenc.NewWriter(8 + len(msg))
	w.Str(msg)
	return w.Bytes()
}

// decodeAbort parses an abort payload.
func decodeAbort(p []byte) (string, error) {
	r := binenc.NewReader(p)
	msg := r.Str()
	if err := r.Err(); err != nil {
		return "", fmt.Errorf("coord: malformed abort: %w", err)
	}
	return msg, nil
}

// encodeFail builds a fail payload.
func encodeFail(index, attempt int, msg string) []byte {
	w := binenc.NewWriter(16 + len(msg))
	w.Int(index)
	w.Int(attempt)
	w.Str(msg)
	return w.Bytes()
}

// decodeFail parses a fail payload.
func decodeFail(p []byte) (index, attempt int, msg string, err error) {
	r := binenc.NewReader(p)
	index = r.Scalar()
	attempt = r.Scalar()
	msg = r.Str()
	if err := r.Err(); err != nil {
		return 0, 0, "", fmt.Errorf("coord: malformed failure report: %w", err)
	}
	return index, attempt, msg, nil
}
