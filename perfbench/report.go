package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
)

// Input sizes of the report workloads. A pass of either takes about half a
// second on one core, so a run holds a few dozen passes and reports their
// median, which a burst of load from elsewhere on the host does not move.
const (
	// colbinJobs resubmissions of colbinDistinct distinct jobs: the engine
	// cache holds the whole working set, so a pass costs colbin decode and
	// the sink folds, not evaluation.
	colbinJobs     = 1 << 18
	colbinDistinct = 3072
	// ndjsonJobs all-distinct jobs with the cache off: a pass costs NDJSON
	// decode and backend evaluation.
	ndjsonJobs = 125_000
	// reportUploadJobs is the size of one small upload.
	reportUploadJobs = 1000
	// reportCacheEntries holds the colbin workload's whole working set.
	reportCacheEntries = 1 << 16
)

// writeTrace generates a trace into path in one format.
func writeTrace(path string, newWriter func(w *bufio.Writer) recordWriter, ts traceSpec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	w := newWriter(bw)
	if err := generate(ts, w.Write); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func colbinWriter(w *bufio.Writer) recordWriter { return newColbinWriter(w) }
func ndjsonWriter(w *bufio.Writer) recordWriter { return newNDJSONWriter(w) }

func generateColbinRepeat(dir string, seed int64, _ int) error {
	if err := writeTrace(filepath.Join(dir, "trace.colbin"), colbinWriter,
		traceSpec{jobs: colbinJobs, distinct: colbinDistinct, seed: seed}); err != nil {
		return err
	}
	return writeTrace(filepath.Join(dir, "upload.colbin"), colbinWriter,
		traceSpec{jobs: reportUploadJobs, distinct: colbinDistinct, seed: seed})
}

func generateNDJSONDistinct(dir string, seed int64, _ int) error {
	if err := writeTrace(filepath.Join(dir, "trace.ndjson"), ndjsonWriter,
		traceSpec{jobs: ndjsonJobs, seed: seed}); err != nil {
		return err
	}
	return writeTrace(filepath.Join(dir, "upload.ndjson"), ndjsonWriter,
		traceSpec{jobs: reportUploadJobs, seed: seed})
}

// reportBase is what both report workloads share: the engine and the
// report sink the last pass filled.
type reportBase struct {
	e    *engine
	last sink
	base cacheCounters
}

func (b *reportBase) snapshot() ([]byte, error) { return payload(b.last) }

func (b *reportBase) report() error {
	_, err := b.e.rebuild(b.last, b.e.newReportSink)
	return err
}

func (b *reportBase) markLayers() { b.base = b.e.cacheCounters() }

func (b *reportBase) cacheLayers(r *result, rounds int) {
	cacheLayers(r, b.base, b.e.cacheCounters(), rounds)
}

// colbinRepeat folds a repetitive colbin trace column by column into the
// full report sink, through a cache that holds its working set.
type colbinRepeat struct {
	reportBase
	trace, upl *colbinInput
	bytesBase  int64
}

func setupColbinRepeat(dir string, tr *tracer) (batchRun, error) {
	e, err := newEngine(reportCacheEntries, tr)
	if err != nil {
		return nil, err
	}
	w := &colbinRepeat{reportBase: reportBase{e: e}}
	if w.trace, err = readColbin(filepath.Join(dir, "trace.colbin")); err != nil {
		return nil, err
	}
	if w.upl, err = readColbin(filepath.Join(dir, "upload.colbin")); err != nil {
		return nil, err
	}
	return w, nil
}

func readColbin(path string) (*colbinInput, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	in, err := openColbin(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return in, nil
}

func (w *colbinRepeat) fold(ctx context.Context, in *colbinInput) (int, sink, error) {
	s, err := w.e.newReportSink()
	if err != nil {
		return 0, nil, err
	}
	n, err := w.e.foldColumns(ctx, in.source(w.e), s)
	return n, s, err
}

func (w *colbinRepeat) pass(ctx context.Context) (int, error) {
	n, s, err := w.fold(ctx, w.trace)
	w.last = s
	return n, err
}

func (w *colbinRepeat) upload(ctx context.Context) error {
	_, _, err := w.fold(ctx, w.upl)
	return err
}

// check folds the same records through the record route and compares the
// snapshot bytes with the columnar passes'.
func (w *colbinRepeat) check(ctx context.Context, r *result, first []byte) error {
	s, err := w.e.newReportSink()
	if err != nil {
		return err
	}
	n, err := w.e.foldRecords(ctx, recordsOnly{w.trace.source(w.e)}, s)
	if !checkErr(r, err, "record-route fold") {
		return nil
	}
	r.check(n == w.trace.records(), "record route folded %d of %d records", n, w.trace.records())
	snap, err := payload(s)
	if err != nil {
		return err
	}
	r.check(string(snap) == string(first), "columnar passes and the record route give identical snapshots (%d bytes)", len(first))
	r.note("input %d jobs (%d distinct), %d colbin blocks", w.trace.records(), colbinDistinct, w.trace.blocks)
	return nil
}

func (w *colbinRepeat) markLayers() {
	w.reportBase.markLayers()
	w.bytesBase = w.trace.bytesRead() + w.upl.bytesRead()
}

func (w *colbinRepeat) layers(r *result, rounds int) {
	w.cacheLayers(r, rounds)
	r.add("colbin.bytes", float64(w.trace.bytesRead()+w.upl.bytesRead()-w.bytesBase)/float64(rounds), "B", rounds)
}

// ndjsonDistinct folds an all-distinct NDJSON trace record by record into
// the full report sink, with the cache off.
type ndjsonDistinct struct {
	reportBase
	trace, upl []byte
}

func setupNDJSONDistinct(dir string, tr *tracer) (batchRun, error) {
	e, err := newEngine(0, tr)
	if err != nil {
		return nil, err
	}
	w := &ndjsonDistinct{reportBase: reportBase{e: e}}
	if w.trace, err = os.ReadFile(filepath.Join(dir, "trace.ndjson")); err != nil {
		return nil, err
	}
	if w.upl, err = os.ReadFile(filepath.Join(dir, "upload.ndjson")); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *ndjsonDistinct) fold(ctx context.Context, data []byte) (int, sink, error) {
	s, err := w.e.newReportSink()
	if err != nil {
		return 0, nil, err
	}
	n, err := w.e.foldRecords(ctx, ndjsonSource(w.e, data), s)
	return n, s, err
}

func (w *ndjsonDistinct) pass(ctx context.Context) (int, error) {
	n, s, err := w.fold(ctx, w.trace)
	w.last = s
	return n, err
}

func (w *ndjsonDistinct) upload(ctx context.Context) error {
	_, _, err := w.fold(ctx, w.upl)
	return err
}

// check folds the same records through the columnar route and compares
// the snapshot bytes with the record passes'.
func (w *ndjsonDistinct) check(ctx context.Context, r *result, first []byte) error {
	s, err := w.e.newReportSink()
	if err != nil {
		return err
	}
	n, err := w.e.foldColumnsOf(ctx, ndjsonSource(w.e, w.trace), s)
	if !checkErr(r, err, "columnar-route fold") {
		return nil
	}
	snap, err := payload(s)
	if err != nil {
		return err
	}
	r.check(n == ndjsonJobs, "columnar route folded %d of %d records", n, ndjsonJobs)
	r.check(string(snap) == string(first), "record passes and the columnar route give identical snapshots (%d bytes)", len(first))
	r.note("input %d distinct jobs, %d NDJSON bytes", n, len(w.trace))
	return nil
}

func (w *ndjsonDistinct) layers(r *result, rounds int) { w.cacheLayers(r, rounds) }
