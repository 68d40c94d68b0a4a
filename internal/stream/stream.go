// Package stream is the bounded-memory evaluation pipeline behind every
// pai.Engine evaluation: it pulls structure-of-arrays blocks from a
// BlockSource (a colbin reader, or any record Source — an NDJSON decoder, a
// synthetic-trace generator, an in-memory slice — cut into 256-record blocks
// by Blocks), evaluates each block on a bounded worker pool, and delivers
// the results to a single-goroutine sink in input order.
//
// Peak memory is O(parallelism): at most 2×parallelism blocks exist at any
// moment — in the work queue, inside workers, in the done queue, or parked
// in the collector's reorder buffer — regardless of how many jobs the source
// yields. That is what lets million-job traces run in the footprint of a
// thousand-job trace.
package stream

import (
	"errors"
	"io"

	"repro/internal/core"
	"repro/internal/workload"
)

// Source yields job records one at a time; Next returns io.EOF after the
// last record. Sources are consumed from a single goroutine.
type Source interface {
	Next() (workload.Features, error)
}

// SliceSource adapts an in-memory trace to the Source interface.
type SliceSource struct {
	jobs []workload.Features
	i    int
}

// NewSliceSource returns a Source over the given jobs.
func NewSliceSource(jobs []workload.Features) *SliceSource {
	return &SliceSource{jobs: jobs}
}

// Next implements Source.
func (s *SliceSource) Next() (workload.Features, error) {
	if s.i >= len(s.jobs) {
		return workload.Features{}, io.EOF
	}
	f := s.jobs[s.i]
	s.i++
	return f, nil
}

// Result pairs one evaluated job with its breakdown and position in the
// stream.
type Result struct {
	// Index is the job's 0-based position in the stream.
	Index int
	// Job is the evaluated feature record.
	Job workload.Features
	// Times is the backend's execution-time breakdown.
	Times core.Times
}

// chunkSize is the block size Blocks cuts a record source into: big enough
// to amortize channel handoffs over sub-microsecond evaluations, small
// enough that the reorder buffer stays tiny.
const chunkSize = 256

// Blocks returns src as a BlockSource: src itself when it already is one
// (so a colbin reader keeps its pipelined PayloadSource upgrade), otherwise
// an adapter that cuts the record stream into chunkSize-record blocks. A
// nil src yields nil, which the pipelines refuse.
func Blocks(src Source) BlockSource {
	if src == nil {
		return nil
	}
	if bs, ok := src.(BlockSource); ok {
		return bs
	}
	return &recordBlocks{src: src}
}

// recordBlocks is the record-to-block adapter behind Blocks. EOF is sticky:
// once Next reports io.EOF it is never called again.
type recordBlocks struct {
	src Source
	eof bool
}

// NextBlock implements BlockSource.
func (b *recordBlocks) NextBlock(c *workload.Columns) error {
	c.Reset()
	if b.eof {
		return io.EOF
	}
	for c.Len() < chunkSize {
		f, err := b.src.Next()
		if errors.Is(err, io.EOF) {
			b.eof = true
			break
		}
		if err != nil {
			return err
		}
		c.Append(f)
	}
	if c.Len() == 0 {
		return io.EOF
	}
	return nil
}
