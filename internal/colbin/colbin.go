// Package colbin is the columnar binary trace codec: the raw-speed
// counterpart of the NDJSON stream. Records are grouped into blocks and each
// block stores one array per feature field (structure of arrays), so a
// reader decodes thousands of records with a handful of bounds checks and
// ~zero allocations instead of parsing text field-by-field, and the batch
// evaluation path (stream.EvaluateBlocks) can run whole blocks through the
// backend over []float64 columns.
//
// On-disk layout (all integers little-endian, counts as uvarints, floats as
// raw IEEE-754 bits via internal/binenc):
//
//	file    := magic version block* footer?
//	magic   := "PAICB" (5 bytes)
//	version := 0x01
//	block   := uvarint(len(payload)) payload u64(checksum of payload)
//	                                 // checksum: FNV-64a folded over 64-bit
//	                                 // little-endian words, byte-wise tail
//	footer  := 0x00                  // sentinel: a zero frame length, which
//	                                 // no real block can carry
//	           uvarint(len(index)) index u64(checksum of index)
//	           u64le(footer offset)  // byte offset of the sentinel
//	           "PAICBIX1" (8 bytes)  // trailing index magic
//	index   := uvarint 1                  // index layout version
//	           uvarint nBlocks
//	           nBlocks * (uvarint offset delta  // first entry: from file start
//	                      uvarint records
//	                      f64 min arrival_sec
//	                      f64 max arrival_sec)
//	           uvarint total records
//	payload := uvarint n                 // records in this block, n >= 1
//	           uvarint d                 // name-dictionary entries, d <= n
//	           d * (uvarint len, bytes)  // dictionary strings, first-use order
//	           n * uvarint               // per-record dictionary index
//	           n * u8                    // workload class
//	           n * uvarint               // cNodes
//	           n * uvarint               // batch size
//	           n * f64                   // FLOPs
//	           n * f64                   // mem-access bytes
//	           n * f64                   // input bytes
//	           n * f64                   // dense-weight bytes
//	           n * f64                   // embedding-weight bytes
//	           n * f64                   // weight-traffic bytes
//	           n * f64                   // arrival seconds
//
// The per-block name dictionary exploits how repetitive production traces
// are: a block of 4096 records naming a few hundred distinct jobs stores
// each name once, and decoded rows share the dictionary's string backing.
// The per-block checksum plus binenc's bounds-checked reads mean truncated
// or corrupted input fails with a block-numbered error instead of panicking
// or allocating what a corrupted length field claims.
//
// The footer is the seekable block index (per-block byte offset, record
// count, and arrival-time bounds), written by default since it costs ~20
// bytes per block; OmitIndex turns it off. It is framed and checksummed
// exactly like a block payload, behind a zero frame length no real block can
// produce, so a sequential reader that predates (or ignores) the index
// treats the sentinel as end-of-data, drains the remainder, and reports a
// clean EOF — index-less files and index-bearing files decode identically.
// Seekable opens go through ReadIndex, which locates the footer via the
// fixed-size trailer at the end of the file and falls back (ErrNoIndex) when
// the trailer, checksum, or index contents fail validation, so a corrupted
// or truncated footer degrades to the sequential scan instead of failing the
// file.
//
// Decoded records pass the same workload.Features.Validate acceptance rule
// as the NDJSON decoder, so a colbin trace admits exactly the records its
// NDJSON conversion would.
package colbin

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/binenc"
	"repro/internal/workload"
)

// magic identifies a colbin stream; Version is the only supported layout
// revision.
var magic = [5]byte{'P', 'A', 'I', 'C', 'B'}

// Version is the current on-disk layout revision.
const Version = 1

const (
	// DefaultBlockRecords is the writer's records-per-block target: big
	// enough to amortize framing and checksums to noise, small enough that a
	// block stays cache- and pool-friendly (~a few hundred KB).
	DefaultBlockRecords = 4096

	// maxBlockRecords bounds the record count one block may claim; a
	// corrupted header fails instead of driving a giant allocation.
	maxBlockRecords = 1 << 20

	// maxBlockBytes bounds one block's payload (maxBlockRecords of floats
	// alone is 56 MiB); corrupted length framing fails early.
	maxBlockBytes = 1 << 26

	// maxScaleValue bounds decoded cNodes/batch-size counts; anything larger
	// is corruption (a negative count encoded as uvarint), not a cluster.
	maxScaleValue = math.MaxInt32

	// maxInternNames caps the reader's cross-block name intern table. The
	// dictionary is per-block, so a repetitive trace re-spells the same names
	// in every block; interning makes those re-reads allocation-free while
	// the cap keeps an adversarial many-distinct-names stream from pinning
	// unbounded memory (the table is dropped and restarted when full).
	maxInternNames = 1 << 16

	// headerLen is the fixed stream prefix: magic plus version byte. The
	// first block always starts here, which the index validator pins.
	headerLen = len(magic) + 1
)

// ErrTruncatedTrace reports a colbin stream that ends mid-frame — inside a
// frame length, payload, checksum, or the header itself — as opposed to the
// clean end-of-stream io.EOF at a block boundary. Reader errors wrap it (test
// with errors.Is) and carry the 1-based block position in their message.
var ErrTruncatedTrace = errors.New("truncated trace (ends mid-frame)")

// Detect reports whether prefix begins a colbin stream. Any version is
// detected — an unsupported version should surface as a colbin version
// error, not as some other format's parse failure.
func Detect(prefix []byte) bool {
	return len(prefix) >= len(magic) && string(prefix[:len(magic)]) == string(magic[:])
}

// checksum is FNV-64a folded over the payload eight little-endian bytes at
// a time, in four interleaved lanes that are themselves FNV-combined at the
// end (then any tail, word- and byte-wise, on the combined value). Folding
// words instead of bytes and breaking the serial multiply chain into four
// independent lanes keeps the FNV mix-and-multiply structure while running
// ~30x faster than the byte-serial hash/fnv loop, which would otherwise
// dominate block decode.
func checksum(b []byte) uint64 {
	body := len(b) &^ 31
	return checksumTail(checksumLanes(checksumSeed, b[:body]), b[body:])
}

// checksumSplit returns checksum(b) and checksum(b[:k]) in one pass over b,
// for 0 <= k <= len(b): the lanes of the prefix's whole 32-byte chunks are
// the whole payload's lanes at that point.
func checksumSplit(b []byte, k int) (whole, prefix uint64) {
	head, body := k&^31, len(b)&^31
	h := checksumLanes(checksumSeed, b[:head])
	prefix = checksumTail(h, b[head:k])
	return checksumTail(checksumLanes(h, b[head:body]), b[body:]), prefix
}

const (
	checksumOffset = 14695981039346656037
	checksumPrime  = 1099511628211
)

var checksumSeed = [4]uint64{checksumOffset, checksumOffset + 1, checksumOffset + 2, checksumOffset + 3}

// checksumLanes folds b, a whole number of 32-byte chunks, into the four
// lanes h.
func checksumLanes(h [4]uint64, b []byte) [4]uint64 {
	h0, h1, h2, h3 := h[0], h[1], h[2], h[3]
	for len(b) >= 32 {
		h0 = (h0 ^ binary.LittleEndian.Uint64(b)) * checksumPrime
		h1 = (h1 ^ binary.LittleEndian.Uint64(b[8:])) * checksumPrime
		h2 = (h2 ^ binary.LittleEndian.Uint64(b[16:])) * checksumPrime
		h3 = (h3 ^ binary.LittleEndian.Uint64(b[24:])) * checksumPrime
		b = b[32:]
	}
	return [4]uint64{h0, h1, h2, h3}
}

// checksumTail combines the lanes and folds in the tail b (under 32 bytes).
func checksumTail(lanes [4]uint64, b []byte) uint64 {
	h := uint64(checksumOffset)
	for _, lane := range lanes {
		h = (h ^ lane) * checksumPrime
	}
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * checksumPrime
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * checksumPrime
	}
	return h
}

// Writer encodes job records into columnar blocks. Records accumulate into
// an in-memory block and are written out every blockRecords records; call
// Flush when done to emit the final partial block and drain the buffered
// writer.
type Writer struct {
	bw           *bufio.Writer
	enc          *binenc.Writer
	block        workload.Columns
	dict         map[string]int
	blockRecords int
	wroteHeader  bool
	n            int
	err          error

	// Block-index bookkeeping for the footer: off tracks the byte position
	// of the next write, blocks the per-block entries. Flush emits the index
	// footer unless OmitIndex was called; wroteFooter makes Flush idempotent
	// (the footer must be the last bytes of the file).
	off         int64
	blocks      []BlockInfo
	noIndex     bool
	wroteFooter bool
}

// NewWriter returns a colbin writer over w with the default block size.
func NewWriter(w io.Writer) *Writer {
	return NewWriterBlockRecords(w, DefaultBlockRecords)
}

// NewWriterBlockRecords is NewWriter with an explicit records-per-block
// target (values outside [1, maxBlockRecords] are clamped).
func NewWriterBlockRecords(w io.Writer, blockRecords int) *Writer {
	if blockRecords < 1 {
		blockRecords = 1
	}
	if blockRecords > maxBlockRecords {
		blockRecords = maxBlockRecords
	}
	return &Writer{
		bw:           bufio.NewWriter(w),
		enc:          binenc.NewWriter(64 * 1024),
		dict:         make(map[string]int),
		blockRecords: blockRecords,
	}
}

// OmitIndex disables the block-index footer for this writer, producing the
// pre-index byte stream (a header and blocks, nothing after the last block).
// Mainly for tests and for appenders that frame blocks themselves.
func (w *Writer) OmitIndex() { w.noIndex = true }

// Write appends one job record, flushing a block when the target size is
// reached. Write errors are sticky.
func (w *Writer) Write(f workload.Features) error {
	if w.err != nil {
		return w.err
	}
	if w.wroteFooter {
		w.err = fmt.Errorf("colbin: Write after Flush (the index footer is already written)")
		return w.err
	}
	w.block.Append(f)
	w.n++
	if w.block.Len() >= w.blockRecords {
		return w.flushBlock()
	}
	return nil
}

// WriteColumns appends every record of a block (splitting across on-disk
// blocks as needed).
func (w *Writer) WriteColumns(c *workload.Columns) error {
	if err := c.CheckShape(); err != nil {
		return fmt.Errorf("colbin: %w", err)
	}
	for i := 0; i < c.Len(); i++ {
		if err := w.Write(c.Row(i)); err != nil {
			return err
		}
	}
	return nil
}

// N reports the number of records written so far.
func (w *Writer) N() int { return w.n }

// Flush writes the pending partial block (and the stream header, so even an
// empty stream is a valid zero-record file), appends the block-index footer
// (unless OmitIndex), and drains the buffered writer. Flush is terminal: the
// footer must stay the last bytes of the file, so a second Flush is a no-op
// and a Write after Flush fails.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.wroteFooter {
		return w.bw.Flush()
	}
	if err := w.flushBlock(); err != nil {
		return err
	}
	if err := w.writeHeader(); err != nil {
		return err
	}
	if !w.noIndex {
		if err := w.writeFooter(); err != nil {
			return err
		}
	}
	w.wroteFooter = true
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// writeFooter emits the seekable block index: the zero-length sentinel, the
// index payload framed and checksummed exactly like a block, and the fixed
// 16-byte trailer (sentinel offset + index magic) seekable opens locate it
// by.
func (w *Writer) writeFooter() error {
	footerOff := w.off
	enc := w.enc
	enc.Reset()
	enc.Uvarint(indexVersion)
	enc.Uvarint(uint64(len(w.blocks)))
	prev := int64(0)
	total := 0
	for _, b := range w.blocks {
		enc.Uvarint(uint64(b.Offset - prev))
		prev = b.Offset
		enc.Uvarint(uint64(b.Records))
		enc.F64(b.MinArrival)
		enc.F64(b.MaxArrival)
		total += b.Records
	}
	enc.Uvarint(uint64(total))
	index := enc.Bytes()

	if err := w.bw.WriteByte(0); err != nil {
		w.err = err
		return err
	}
	var frame [binary.MaxVarintLen64]byte
	fn := binary.PutUvarint(frame[:], uint64(len(index)))
	if _, err := w.bw.Write(frame[:fn]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.bw.Write(index); err != nil {
		w.err = err
		return err
	}
	var tail [8 + 8 + len(indexMagic)]byte
	binary.LittleEndian.PutUint64(tail[:8], checksum(index))
	binary.LittleEndian.PutUint64(tail[8:16], uint64(footerOff))
	copy(tail[16:], indexMagic)
	if _, err := w.bw.Write(tail[:]); err != nil {
		w.err = err
		return err
	}
	w.off += int64(1 + fn + len(index) + len(tail))
	return nil
}

func (w *Writer) writeHeader() error {
	if w.wroteHeader {
		return nil
	}
	w.wroteHeader = true
	if _, err := w.bw.Write(magic[:]); err != nil {
		w.err = err
		return err
	}
	if err := w.bw.WriteByte(Version); err != nil {
		w.err = err
		return err
	}
	w.off += int64(headerLen)
	return nil
}

func (w *Writer) flushBlock() error {
	n := w.block.Len()
	if n == 0 {
		return nil
	}
	enc := w.enc
	enc.Reset()
	enc.Int(n)

	// Name dictionary in first-use order: deterministic bytes for identical
	// input, one string per distinct name per block.
	clear(w.dict)
	idx := make([]int, 0, n) // reused via block reset? small; allocate per block
	for _, name := range w.block.Name {
		i, ok := w.dict[name]
		if !ok {
			i = len(w.dict)
			w.dict[name] = i
		}
		idx = append(idx, i)
	}
	names := make([]string, len(w.dict))
	for name, i := range w.dict {
		names[i] = name
	}
	enc.Int(len(names))
	for _, name := range names {
		enc.Str(name)
	}
	for _, i := range idx {
		enc.Int(i)
	}
	for _, cl := range w.block.Class {
		enc.U8(uint8(cl))
	}
	for _, v := range w.block.CNodes {
		enc.Uvarint(uint64(v))
	}
	for _, v := range w.block.BatchSize {
		enc.Uvarint(uint64(v))
	}
	enc.F64Col(w.block.FLOPs)
	enc.F64Col(w.block.MemAccessBytes)
	enc.F64Col(w.block.InputBytes)
	enc.F64Col(w.block.DenseWeightBytes)
	enc.F64Col(w.block.EmbeddingWeightBytes)
	enc.F64Col(w.block.WeightTrafficBytes)
	// ArrivalSec stays last: a frame's key (Reader.NextFrame) is the
	// payload without it.
	enc.F64Col(w.block.ArrivalSec)

	payload := enc.Bytes()
	if err := w.writeHeader(); err != nil {
		return err
	}
	info := BlockInfo{Offset: w.off, Records: n}
	info.MinArrival, info.MaxArrival = w.block.ArrivalSec[0], w.block.ArrivalSec[0]
	for _, v := range w.block.ArrivalSec[1:] {
		info.MinArrival = min(info.MinArrival, v)
		info.MaxArrival = max(info.MaxArrival, v)
	}
	var frame [binary.MaxVarintLen64]byte
	fn := binary.PutUvarint(frame[:], uint64(len(payload)))
	if _, err := w.bw.Write(frame[:fn]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		w.err = err
		return err
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], checksum(payload))
	if _, err := w.bw.Write(sum[:]); err != nil {
		w.err = err
		return err
	}
	w.off += int64(fn + len(payload) + len(sum))
	w.blocks = append(w.blocks, info)
	w.block.Reset()
	return nil
}

// Reader decodes a colbin stream block by block. It serves four calling
// conventions: NextBlock fills a caller-owned Columns with a whole decoded
// block (the bulk path stream.EvaluateBlocks rides), NextPayload hands the
// checksummed payload off as a decode closure (the pipelined path, so column
// decode can run on a worker while the reader fetches the next frame),
// NextFrame hands off the payload's key bytes and their checksum beside such
// a closure (the frame path, so a block cache can answer a repeated block
// without decoding it), and Next yields one record at a time (the
// stream.Source interface every record consumer already speaks). Errors are
// sticky and carry the 1-based block number.
type Reader struct {
	rd       io.Reader // underlying reader, for bulk payload reads
	br       *bufio.Reader
	block    workload.Columns // record-at-a-time staging for Next
	row      int
	blockIdx int
	readHdr  bool
	err      error

	// internMu guards intern, the cross-block name table (see
	// maxInternNames): decode closures run on any goroutine, several at once.
	internMu sync.Mutex
	intern   map[string]string
}

// payloadState bundles one frame's buffers — the checksummed payload bytes,
// the parsed name dictionary, and uvarint scratch. States recycle through a
// pool because the pipelined path has several frames in flight at once, each
// needing its own buffers (the sequential path simply gets the same state
// back every block).
type payloadState struct {
	payload []byte
	dict    []string
	uv      []uint64
}

var payloadPool = sync.Pool{New: func() any { return new(payloadState) }}

// NewReader returns a colbin reader over r. The header is checked on the
// first read so construction never fails.
func NewReader(r io.Reader) *Reader {
	return &Reader{
		rd:     r,
		br:     bufio.NewReaderSize(r, 64*1024),
		intern: make(map[string]string),
	}
}

// readPayload fills p, draining the buffered reader's pending bytes first
// and then reading straight from the underlying reader — bulk payload bytes
// skip the double copy through the bufio buffer. The bufio reader's buffer
// is empty afterwards, so subsequent frame reads through it stay in order.
func (r *Reader) readPayload(p []byte) error {
	n := 0
	if buffered := r.br.Buffered(); buffered > 0 {
		m := min(buffered, len(p))
		got, err := io.ReadFull(r.br, p[:m])
		n += got
		if err != nil {
			return err
		}
	}
	if n < len(p) {
		if _, err := io.ReadFull(r.rd, p[n:]); err != nil {
			return err
		}
	}
	return nil
}

func (r *Reader) fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	return r.err
}

// truncated upgrades an end-of-input error to the ErrTruncatedTrace sentinel
// (a frame was cut short mid-read); genuine I/O errors pass through
// unchanged.
func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %w", ErrTruncatedTrace, err)
	}
	return err
}

func (r *Reader) readHeader() error {
	if r.readHdr {
		return nil
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return r.fail(fmt.Errorf("colbin: truncated or missing header: %w", ErrTruncatedTrace))
		}
		return r.fail(fmt.Errorf("colbin: read header: %w", err))
	}
	if !Detect(hdr[:]) {
		return r.fail(fmt.Errorf("colbin: bad magic %q", hdr[:len(magic)]))
	}
	if v := hdr[len(magic)]; v != Version {
		return r.fail(fmt.Errorf("colbin: unsupported version %d (want %d)", v, Version))
	}
	r.readHdr = true
	return nil
}

// NextBlock resets c and fills it with the next decoded block. It returns
// io.EOF at a clean end of stream; any other error is terminal and repeats.
// Every decoded record has passed workload.Features.Validate.
func (r *Reader) NextBlock(c *workload.Columns) error {
	dec, _, err := r.NextPayload()
	if err != nil {
		return err
	}
	if err := dec(c); err != nil {
		return r.fail(err)
	}
	return nil
}

// NextPayload reads and checksums the next block frame and parses its
// record count, returning a single-use decode closure plus that count. Only
// the stages that must stay sequential run here — frame framing and the
// checksum; the returned closure parses the name dictionary (interning it in
// the Reader's cross-block table, under a lock) and decodes the columns into
// a caller-owned Columns, and can run on any goroutine, which is what lets
// the pipeline overlap decode of block N+1 with evaluation of block N.
//
// The closure must be called exactly once; dec(nil) releases the payload
// without decoding. It returns io.EOF at a clean end of stream; frame and
// decode errors are sticky on the Reader and carry the 1-based block number
// (decode errors become sticky when the sequential NextBlock path reports
// them; the pipelined caller cancels the whole pipeline instead).
func (r *Reader) NextPayload() (func(c *workload.Columns) error, int, error) {
	ps, n, off, _, _, err := r.nextFrame(false)
	if err != nil {
		return nil, 0, err
	}
	blockIdx := r.blockIdx
	dec := func(c *workload.Columns) error {
		defer payloadPool.Put(ps)
		if c == nil {
			return nil
		}
		return r.decode(ps, n, off, blockIdx, c)
	}
	return dec, n, nil
}

// NextFrame is the frame handoff: NextPayload's frame read and checksum,
// returning the frame's key and the key's checksum beside the decode
// closure. The key is the payload without its trailing ArrivalSec column —
// the record count, names and every keyed column — so a resubmitted block
// stamped with new arrival times has the same key. Byte-identical keys
// decode to identical columns except ArrivalSec, so a consumer holding what
// it derived from an earlier block with the same key, and reading no
// arrival times, can skip the decode altogether. key is nil when the frame
// cannot be answered that way: its arrival column is malformed or holds a
// value decode rejects, so only decode can report the error.
//
// The closure's contract differs from NextPayload's: dec(c) with a non-nil
// c decodes into c and leaves the payload alone, and dec(nil) releases it
// and must be the last call, made exactly once. key stays valid, and must
// not be modified, until then.
func (r *Reader) NextFrame() (key []byte, sum uint64, dec func(*workload.Columns) error, err error) {
	ps, n, off, keyLen, sum, err := r.nextFrame(true)
	if err != nil {
		return nil, 0, nil, err
	}
	if keyLen >= 0 {
		key = ps.payload[:keyLen]
	}
	blockIdx := r.blockIdx
	dec = func(c *workload.Columns) error {
		if c == nil {
			payloadPool.Put(ps)
			return nil
		}
		return r.decode(ps, n, off, blockIdx, c)
	}
	return key, sum, dec, nil
}

// nextFrame reads and checksums the next block frame into a pooled payload
// state and parses its record count, returning the state, the count and
// the offset of the name dictionary that follows it. With keyed set it also
// returns the length of the frame's key (see NextFrame), or -1 when the
// frame has none, and the key's checksum, taken in the same pass as the
// frame's. Frame errors are sticky.
func (r *Reader) nextFrame(keyed bool) (ps *payloadState, n, off, keyLen int, keySum uint64, err error) {
	fail := func(err error) (*payloadState, int, int, int, uint64, error) {
		return nil, 0, 0, 0, 0, r.fail(err)
	}
	if r.err != nil {
		return nil, 0, 0, 0, 0, r.err
	}
	if err := r.readHeader(); err != nil {
		return nil, 0, 0, 0, 0, err
	}
	payloadLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return fail(io.EOF) // clean end: no more blocks
		}
		return fail(fmt.Errorf("colbin: block %d: frame length: %w", r.blockIdx+1, truncated(err)))
	}
	if payloadLen == 0 {
		// The index-footer sentinel: no real block frames a zero-length
		// payload, so everything from here on is the seekable block index
		// (see the package comment). Sequential readers don't need it —
		// drain the remainder and report a clean end of stream, so
		// index-bearing and index-less files decode identically.
		io.Copy(io.Discard, r.br)
		io.Copy(io.Discard, r.rd)
		return fail(io.EOF)
	}
	r.blockIdx++
	if payloadLen > maxBlockBytes {
		return fail(fmt.Errorf("colbin: block %d: implausible payload length %d", r.blockIdx, payloadLen))
	}
	ps = payloadPool.Get().(*payloadState)
	release := func(err error) (*payloadState, int, int, int, uint64, error) {
		payloadPool.Put(ps)
		return fail(err)
	}
	// Grow the payload buffer as bytes actually arrive rather than trusting
	// the claimed length up front: a corrupted frame can claim up to
	// maxBlockBytes, and allocation must stay proportional to real input.
	const payloadChunk = 1 << 20
	need := int(payloadLen)
	ps.payload = ps.payload[:0]
	for len(ps.payload) < need {
		off := len(ps.payload)
		step := min(payloadChunk, need-off)
		if cap(ps.payload) < off+step {
			grown := make([]byte, off+step, min(need, max(2*cap(ps.payload), off+step)))
			copy(grown, ps.payload)
			ps.payload = grown
		} else {
			ps.payload = ps.payload[:off+step]
		}
		if err := r.readPayload(ps.payload[off:]); err != nil {
			return release(fmt.Errorf("colbin: block %d: truncated payload: %w", r.blockIdx, truncated(err)))
		}
	}
	var frameSum [8]byte
	if _, err := io.ReadFull(r.br, frameSum[:]); err != nil {
		return release(fmt.Errorf("colbin: block %d: truncated checksum: %w", r.blockIdx, truncated(err)))
	}

	// The record count is all the handoff needs; the name dictionary after
	// it is parsed by the decode closure. It is read before the checksum
	// only to place the key, and reported after it.
	rd := binenc.NewReader(ps.payload)
	n = rd.Int()
	keyLen = -1
	if keyed && rd.Err() == nil && n >= 1 && n <= maxBlockRecords {
		keyLen = keyLength(ps.payload, n)
	}
	var sum uint64
	if keyLen >= 0 {
		sum, keySum = checksumSplit(ps.payload, keyLen)
	} else {
		sum = checksum(ps.payload)
	}
	if want := binary.LittleEndian.Uint64(frameSum[:]); sum != want {
		return release(fmt.Errorf("colbin: block %d: checksum mismatch (payload %#x, frame %#x)", r.blockIdx, sum, want))
	}
	if err := rd.Err(); err != nil {
		return release(fmt.Errorf("colbin: block %d: %w", r.blockIdx, err))
	}
	if n < 1 || n > maxBlockRecords {
		return release(fmt.Errorf("colbin: block %d: implausible record count %d", r.blockIdx, n))
	}
	return ps, n, len(ps.payload) - rd.Len(), keyLen, keySum, nil
}

// keyLength returns the length of payload without its trailing ArrivalSec
// column of n float64s, or -1 when that column is short or holds a value
// decode rejects (it accepts finite arrivals >= 0).
func keyLength(payload []byte, n int) int {
	k := len(payload) - 8*n
	if k < 0 {
		return -1
	}
	for b := payload[k:]; len(b) >= 8; b = b[8:] {
		if v := math.Float64frombits(binary.LittleEndian.Uint64(b)); !(v >= 0 && v <= math.MaxFloat64) {
			return -1
		}
	}
	return k
}

// decode parses the name dictionary at payload offset off — interning it in
// the Reader's cross-block table — and the column section after it into c.
// It touches only the payload state and, under internMu, the intern table,
// so closures over different states run concurrently. Errors carry the
// block number.
func (r *Reader) decode(ps *payloadState, n, off, blockIdx int, c *workload.Columns) error {
	rd := binenc.NewReader(ps.payload[off:])
	d := rd.Int()
	if rd.Err() == nil && (d < 1 || d > n) {
		return fmt.Errorf("colbin: block %d: implausible dictionary size %d for %d records", blockIdx, d, n)
	}
	ps.dict = ps.dict[:0]
	r.internMu.Lock()
	for i := 0; i < d; i++ {
		nb := rd.Int()
		b := rd.U8Col(nb)
		if rd.Err() != nil {
			break
		}
		s, ok := r.intern[string(b)] // alloc-free lookup on hit
		if !ok {
			s = string(b)
			if len(r.intern) >= maxInternNames {
				clear(r.intern)
			}
			r.intern[s] = s
		}
		ps.dict = append(ps.dict, s)
	}
	r.internMu.Unlock()
	if err := rd.Err(); err != nil {
		return fmt.Errorf("colbin: block %d: %w", blockIdx, err)
	}
	if err := decodeRest(ps, n, len(ps.payload)-rd.Len(), c); err != nil {
		return fmt.Errorf("colbin: block %d: %w", blockIdx, err)
	}
	return nil
}

// decodeRest parses the column section of a prefix-parsed payload into c.
// It touches only the payload state, so closures over different states run
// concurrently.
func decodeRest(ps *payloadState, n, off int, c *workload.Columns) error {
	c.Reset()
	d := len(ps.dict)
	rd := binenc.NewReader(ps.payload[off:])
	ps.uv = grow(ps.uv, n)
	rd.UvarintCol(ps.uv)
	if err := rd.Err(); err != nil {
		return err
	}
	c.Name = grow(c.Name, n)
	for i, v := range ps.uv {
		if v >= uint64(d) {
			return fmt.Errorf("record %d: name index %d out of range (dictionary has %d)", i, v, d)
		}
		c.Name[i] = ps.dict[v]
	}
	classes := rd.U8Col(n)
	if err := rd.Err(); err != nil {
		return err
	}
	c.Class = grow(c.Class, n)
	for i, b := range classes {
		if workload.Class(b) > workload.PEARL {
			return fmt.Errorf("record %d: unknown class byte %d", i, b)
		}
		c.Class[i] = workload.Class(b)
	}
	rd.UvarintCol(ps.uv)
	if err := rd.Err(); err != nil {
		return err
	}
	c.CNodes = grow(c.CNodes, n)
	for i, v := range ps.uv {
		if v > maxScaleValue {
			return fmt.Errorf("record %d: implausible cNodes %d", i, v)
		}
		c.CNodes[i] = int(v)
	}
	rd.UvarintCol(ps.uv)
	if err := rd.Err(); err != nil {
		return err
	}
	c.BatchSize = grow(c.BatchSize, n)
	for i, v := range ps.uv {
		if v > maxScaleValue {
			return fmt.Errorf("record %d: implausible batch size %d", i, v)
		}
		c.BatchSize[i] = int(v)
	}
	c.FLOPs = grow(c.FLOPs, n)
	rd.F64Col(c.FLOPs)
	c.MemAccessBytes = grow(c.MemAccessBytes, n)
	rd.F64Col(c.MemAccessBytes)
	c.InputBytes = grow(c.InputBytes, n)
	rd.F64Col(c.InputBytes)
	c.DenseWeightBytes = grow(c.DenseWeightBytes, n)
	rd.F64Col(c.DenseWeightBytes)
	c.EmbeddingWeightBytes = grow(c.EmbeddingWeightBytes, n)
	rd.F64Col(c.EmbeddingWeightBytes)
	c.WeightTrafficBytes = grow(c.WeightTrafficBytes, n)
	rd.F64Col(c.WeightTrafficBytes)
	c.ArrivalSec = grow(c.ArrivalSec, n)
	rd.F64Col(c.ArrivalSec)
	if err := rd.Err(); err != nil {
		return err
	}
	if rd.Len() != 0 {
		return fmt.Errorf("%d trailing bytes after %d records", rd.Len(), n)
	}
	// Same acceptance rule as the NDJSON decoder: every record must be
	// physically meaningful. The scan is column-wise (a float is valid iff
	// finite and >= 0; NaN fails both compares) and only the first offending
	// row — if any — pays for Features.Validate's canonical error message.
	bad := n
	for _, col := range [...][]float64{
		c.FLOPs, c.MemAccessBytes, c.InputBytes, c.DenseWeightBytes,
		c.EmbeddingWeightBytes, c.WeightTrafficBytes, c.ArrivalSec,
	} {
		for i, v := range col[:bad] {
			if !(v >= 0 && v <= math.MaxFloat64) {
				bad = i
				break
			}
		}
	}
	for i := 0; i < bad; i++ {
		if c.CNodes[i] <= 0 || c.BatchSize[i] <= 0 ||
			(c.Class[i] == workload.OneWorkerOneGPU && c.CNodes[i] != 1) ||
			(c.FLOPs[i] == 0 && c.MemAccessBytes[i] == 0) {
			bad = i
			break
		}
	}
	if bad < n {
		err := c.Row(bad).Validate()
		if err == nil {
			// Unreachable unless the scan and Validate ever drift apart.
			err = fmt.Errorf("workload %q: invalid record", c.Name[bad])
		}
		return fmt.Errorf("record %d: %w", bad, err)
	}
	return nil
}

// grow returns s with length n, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Next decodes and returns the next record, reading blocks as needed. It
// returns io.EOF after the last record; other errors are terminal and
// repeat. This is the stream.Source calling convention, so a colbin Reader
// drops in anywhere an NDJSON decoder does.
func (r *Reader) Next() (workload.Features, error) {
	for {
		if r.row < r.block.Len() {
			f := r.block.Row(r.row)
			r.row++
			return f, nil
		}
		if err := r.NextBlock(&r.block); err != nil {
			return workload.Features{}, err
		}
		r.row = 0
	}
}
