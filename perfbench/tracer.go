package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// layer accumulates one layer's work at the boundary the benchmark wraps:
// calls made, records and bytes handled, and nanoseconds spent inside.
type layer struct {
	calls, records, bytes, busyNS atomic.Int64
	ticks                         atomic.Uint64 // record-level calls, for sampling
}

// observe counts one call over records records that started at start.
func (l *layer) observe(start time.Time, records int) {
	l.busyNS.Add(int64(time.Since(start)))
	l.count(records)
}

func (l *layer) count(records int) {
	l.calls.Add(1)
	l.records.Add(int64(records))
}

// sampleEvery is the stride at which record-level calls are timed: every
// sampleEvery-th call is timed and its time counted sampleEvery times, so
// the traced record path reads the clock twice per sampleEvery records
// rather than twice per record. It is prime so that the sample does not
// line up with the pipeline's power-of-two chunks, whose first record is
// the one that waits. Counts stay exact; block-level and request-level
// calls are always timed.
const sampleEvery = 17

// sampled reports whether this record-level call is one to time.
func (l *layer) sampled() bool { return l.ticks.Add(1)%sampleEvery == 0 }

// addSampled counts a timed record-level call's time for its stride.
func (l *layer) addSampled(start time.Time) {
	l.busyNS.Add(int64(time.Since(start)) * sampleEvery)
}

func (l *layer) busy() float64 { return float64(l.busyNS.Load()) / 1e9 }

// span is one timed call at a layer boundary. Req ties the spans of one
// request together: a pass, upload or report of a batch workload with the
// colbin frames, decodes, block evaluations and folds it caused, or one
// paiserve request.
type span struct {
	Name  string `json:"name"`
	Req   int64  `json:"req"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; per-record calls are only
// aggregated into their layer, never logged as spans.
const maxSpans = 1 << 18

// tracer holds every layer the traced run measures plus a bounded span log.
// It is written to from the pipeline's goroutines, so layers use atomics
// and the span log a mutex.
type tracer struct {
	epoch time.Time

	colbinFrame, colbinDecode layer
	tracegenDecode            layer
	backend                   layer
	fold                      map[string]*layer // per sink kind
	deliverWait               layer
	encode, decode, merge     layer
	snapshotBytes             atomic.Int64
	replaySink                layer
	windowAdd                 layer

	// replayFirst is when the current replay pass dispatched its first
	// outcome, in nanoseconds since epoch; zero until it has.
	replayFirst atomic.Int64

	nextReq, current atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), fold: map[string]*layer{}}
	for _, kind := range reportKinds() {
		t.fold[kind] = &layer{}
	}
	return t
}

// layers lists every accumulator, for reset.
func (t *tracer) layers() []*layer {
	ls := []*layer{&t.colbinFrame, &t.colbinDecode, &t.tracegenDecode, &t.backend, &t.deliverWait,
		&t.encode, &t.decode, &t.merge, &t.replaySink, &t.windowAdd}
	for _, l := range t.fold {
		ls = append(ls, l)
	}
	return ls
}

// reset zeroes every accumulator and drops the span log, so a warm-up
// does not count in the traced rounds.
func (t *tracer) reset() {
	for _, l := range t.layers() {
		l.calls.Store(0)
		l.records.Store(0)
		l.bytes.Store(0)
		l.busyNS.Store(0)
		l.ticks.Store(0)
	}
	t.snapshotBytes.Store(0)
	t.mu.Lock()
	t.spans, t.dropped = nil, 0
	t.mu.Unlock()
}

// begin starts a request — a pass, an upload or a report — and makes it
// the one block-level spans belong to until the next begin.
func (t *tracer) begin() int64 {
	req := t.nextReq.Add(1)
	t.current.Store(req)
	return req
}

// span records one span of request req that started at start and ends now.
func (t *tracer) span(name string, req int64, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: name, Req: req,
			Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// blockSpan records a span of the current request.
func (t *tracer) blockSpan(name string, start time.Time) { t.span(name, t.current.Load(), start) }

// foldLayer returns the fold accumulator of one report sink kind.
func (t *tracer) foldLayer(kind string) *layer {
	if l, ok := t.fold[kind]; ok {
		return l
	}
	return &layer{} // a kind the benchmark does not report is timed, then dropped
}

func (t *tracer) foldBusy() float64 {
	var s float64
	for _, l := range t.fold {
		s += l.busy()
	}
	return s
}

// writeSpans writes the span log as one JSON document.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans   []span `json:"spans"`
		Dropped int    `json:"dropped"`
	}{t.spans, t.dropped})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
