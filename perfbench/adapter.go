package main

// Every call the benchmark makes into the system lives in this file, so a
// change to the system's API is ported here and nowhere else. The other
// files see the system only through the names defined below.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	pai "repro"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/stream"
	wl "repro/internal/workload"
)

// job is one trace record.
type job = pai.Features

func arrivalOf(j job) float64        { return j.ArrivalSec }
func setArrival(j *job, sec float64) { j.ArrivalSec = sec }

// sink is a mergeable, serializable fold.
type sink = pai.Sink

// source yields records one at a time.
type source = pai.JobSource

// reportKinds lists the snapshot kind names of the full report sink's
// members, in the order the tracer reports them.
func reportKinds() []string {
	return []string{"breakdown", "component-cdf", "hardware-cdf", "projection"}
}

// buildInfo identifies the system build under test.
func buildInfo() string {
	v := pai.Version()
	return fmt.Sprintf("%s %s go=%s", v.Module, v.Version, v.Go)
}

// ---------------------------------------------------------------------------
// Input generation (run in the untimed generator process).

// traceSpec selects a synthetic trace.
type traceSpec struct {
	jobs, distinct int
	seed           int64
	arrivalPerHour float64 // 0 leaves arrivals unstamped
}

// generate streams the trace's records to fn.
func generate(ts traceSpec, fn func(job) error) error {
	p := pai.DefaultTraceParams()
	p.NumJobs, p.DistinctJobs, p.Seed, p.ArrivalRate = ts.jobs, ts.distinct, ts.seed, ts.arrivalPerHour
	src, err := pai.NewTraceSource(p)
	if err != nil {
		return err
	}
	for {
		j, err := src.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(j); err != nil {
			return err
		}
	}
}

// recordWriter encodes records in one trace format.
type recordWriter interface {
	Write(job) error
	Flush() error
}

func newColbinWriter(w io.Writer) recordWriter { return pai.NewColumnWriter(w) }
func newNDJSONWriter(w io.Writer) recordWriter { return pai.NewTraceEncoder(w) }

// newColbinBlockWriter writes colbin blocks of exactly n records.
func newColbinBlockWriter(w io.Writer, n int) recordWriter {
	return pai.NewColumnWriterBlockRecords(w, n)
}

// decodeNDJSON reads every record of an NDJSON body.
func decodeNDJSON(data []byte) ([]job, error) {
	tr, err := pai.ReadTraceNDJSON(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return tr.Jobs, nil
}

// ---------------------------------------------------------------------------
// Engines.

// timedBackendName is the registered name of the timing backend: the
// analytical backend with its calls timed into the active tracer.
const timedBackendName = "perfbench-timed"

// activeTracer receives the timing backend's measurements. It is set once,
// before any traced engine is built.
var activeTracer *tracer

func init() {
	backend.MustRegister(timedBackendName, func(spec backend.Spec) (backend.Backend, error) {
		b, err := backend.New(backend.AnalyticalName, spec)
		if err != nil {
			return nil, err
		}
		return &timedBackend{Backend: b, t: activeTracer}, nil
	})
}

// timedBackend forwards every Backend method, timing evaluations; the
// embedded Backend forwards Name, Spec and Capabilities. It must also
// forward BreakdownColumns, or the block path would fall back to per-record
// calls and the traced run would measure another program, and Reconfigure
// must return a timed backend too.
type timedBackend struct {
	backend.Backend
	t *tracer
}

func (b *timedBackend) Breakdown(f wl.Features) (core.Times, error) {
	l := &b.t.backend
	defer l.count(1)
	if !l.sampled() {
		return b.Backend.Breakdown(f)
	}
	start := time.Now()
	t, err := b.Backend.Breakdown(f)
	l.addSampled(start)
	return t, err
}

func (b *timedBackend) BreakdownColumns(c *wl.Columns, out []core.Times) error {
	start := time.Now()
	err := backend.EvaluateColumns(b.Backend, c, out)
	b.t.backend.observe(start, c.Len())
	b.t.blockSpan("backend.columns", start)
	return err
}

func (b *timedBackend) Reconfigure(spec backend.Spec) (backend.Backend, error) {
	nb, err := b.Backend.Reconfigure(spec)
	if err != nil {
		return nil, err
	}
	return &timedBackend{Backend: nb, t: b.t}, nil
}

// engine is one configured evaluation engine; tr is nil when untraced.
type engine struct {
	*pai.Engine
	tr *tracer
}

// newEngine builds a single-worker engine over the Table I baseline, with
// a result cache of cacheEntries (0 = off). A traced engine evaluates
// through the timing backend.
func newEngine(cacheEntries int, tr *tracer) (*engine, error) {
	name := backend.AnalyticalName
	if tr != nil {
		activeTracer = tr
		name = timedBackendName
	}
	opts := []pai.Option{
		pai.WithConfig(pai.BaselineConfig()),
		pai.WithBackend(name),
		pai.WithParallelism(1),
	}
	if cacheEntries > 0 {
		opts = append(opts, pai.WithCache(cacheEntries))
	}
	e, err := pai.New(opts...)
	if err != nil {
		return nil, err
	}
	return &engine{Engine: e, tr: tr}, nil
}

// cacheCounters is the engine's result-cache state.
type cacheCounters struct {
	hits, misses, blockHits, blockMisses, evictions uint64
}

func (e *engine) cacheCounters() cacheCounters {
	s := e.CacheStats()
	return cacheCounters{s.Hits, s.Misses, s.BlockHits, s.BlockMisses, s.Evictions}
}

// ---------------------------------------------------------------------------
// Sources.

// colbinInput is an opened, index-bearing colbin trace held in memory.
type colbinInput struct {
	ir     *pai.ColumnIndexedReader
	blocks int
	ra     *countingReaderAt
}

// countingReaderAt counts the trace bytes the colbin reader pulls.
type countingReaderAt struct {
	r *bytes.Reader
	n atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

// openColbin reads the header and block index of an in-memory colbin trace.
func openColbin(data []byte) (*colbinInput, error) {
	ra := &countingReaderAt{r: bytes.NewReader(data)}
	ir, err := pai.NewIndexedColumnReader(ra, int64(len(data)))
	if err != nil {
		return nil, err
	}
	return &colbinInput{ir: ir, blocks: ir.Index().Blocks(), ra: ra}, nil
}

func (c *colbinInput) records() int { return c.ir.Index().Records() }

// bytesRead is the running count of trace bytes read from the input.
func (c *colbinInput) bytesRead() int64 { return c.ra.n.Load() }

// colbinSource is one sequential pass over the whole trace.
type colbinSource interface {
	source
	pai.BlockSource
	stream.PayloadSource
}

// source opens a pass over the trace, traced through e's tracer if any.
func (c *colbinInput) source(e *engine) colbinSource { return c.blockRange(e, 0, c.blocks) }

// blockRange opens a pass over blocks [lo, hi) of the trace.
func (c *colbinInput) blockRange(e *engine, lo, hi int) colbinSource {
	r := c.ir.Range(lo, hi)
	if e.tr == nil {
		return r
	}
	return &tracedColbin{r: r, t: e.tr}
}

// tracedColbin forwards all three pull methods of the colbin reader. The
// block pipeline upgrades to NextPayload only when the source has it, so a
// wrapper without it would silently measure the unpipelined path.
type tracedColbin struct {
	r colbinSource
	t *tracer
}

func (s *tracedColbin) Next() (job, error) { return s.r.Next() }

func (s *tracedColbin) NextBlock(c *pai.Columns) error {
	start := time.Now()
	err := s.r.NextBlock(c)
	s.t.colbinDecode.observe(start, c.Len())
	return err
}

func (s *tracedColbin) NextPayload() (func(*wl.Columns) error, int, error) {
	start := time.Now()
	dec, n, err := s.r.NextPayload()
	if err != nil {
		return dec, n, err
	}
	s.t.colbinFrame.observe(start, n)
	s.t.blockSpan("colbin.frame", start)
	return func(c *wl.Columns) error {
		if c == nil {
			return dec(nil)
		}
		start := time.Now()
		err := dec(c)
		s.t.colbinDecode.observe(start, n)
		s.t.blockSpan("colbin.decode", start)
		return err
	}, n, nil
}

// recordsOnly hides a source's block methods, forcing the record path.
type recordsOnly struct{ src source }

func (r recordsOnly) Next() (job, error) { return r.src.Next() }

// ndjsonSource decodes an in-memory NDJSON trace record by record.
func ndjsonSource(e *engine, data []byte) source {
	if e.tr == nil {
		return pai.NewTraceDecoder(bytes.NewReader(data))
	}
	cr := &countingReader{r: bytes.NewReader(data), l: &e.tr.tracegenDecode}
	return &tracedRecords{src: pai.NewTraceDecoder(cr), t: e.tr}
}

type countingReader struct {
	r io.Reader
	l *layer
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.l.bytes.Add(int64(n))
	return n, err
}

// tracedRecords times the NDJSON codec, a sample of records.
type tracedRecords struct {
	src source
	t   *tracer
}

func (s *tracedRecords) Next() (job, error) {
	l := &s.t.tracegenDecode
	timed := l.sampled()
	var start time.Time
	if timed {
		start = time.Now()
	}
	j, err := s.src.Next()
	if timed {
		l.addSampled(start)
	}
	if err == nil {
		l.count(1)
	}
	return j, err
}

// ---------------------------------------------------------------------------
// Report sinks and folds.

// newReportSink builds the full report sink: breakdown, component and
// hardware CDF sketches, and the AllReduce-Local projection. Traced, each
// member is timed and the whole is wrapped to time the in-order consumer.
func (e *engine) newReportSink() (sink, error) {
	ms, err := e.NewReportSink(pai.ToAllReduceLocal)
	if err != nil {
		return nil, err
	}
	if e.tr == nil {
		return ms, nil
	}
	members := ms.Sinks()
	wrapped := make([]sink, len(members))
	for i, m := range members {
		wrapped[i] = &tracedSink{inner: m, t: e.tr, fold: e.tr.foldLayer(m.Kind())}
	}
	return &consumerSink{tracedSink: tracedSink{inner: pai.NewMultiSink(wrapped...), t: e.tr, fold: &layer{}}}, nil
}

// foldColumns folds a colbin pass block by block (the columnar route).
func (e *engine) foldColumns(ctx context.Context, src colbinSource, s sink) (int, error) {
	startPass(s)
	return e.StreamColumnsInto(ctx, src, s)
}

// foldRecords folds a source record by record (the row route).
func (e *engine) foldRecords(ctx context.Context, src source, s sink) (int, error) {
	startPass(s)
	return e.StreamInto(ctx, src, s)
}

// foldColumnsOf folds a record source through the columnar route, by way
// of an in-memory colbin encoding, and returns the records folded.
func (e *engine) foldColumnsOf(ctx context.Context, src source, s sink) (int, error) {
	var buf bytes.Buffer
	w := pai.NewColumnWriter(&buf)
	for {
		j, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, err
		}
		if err := w.Write(j); err != nil {
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	return e.StreamColumnsInto(ctx, pai.NewColumnReader(&buf), s)
}

// foldWindows folds each group of records into its own report sink and
// merges them in order: the offline form of a paiserve window ring.
func (e *engine) foldWindows(ctx context.Context, groups [][]job) (sink, error) {
	srcs := make([]source, len(groups))
	for i, g := range groups {
		srcs[i] = pai.NewSliceJobSource(g)
	}
	s, _, err := e.EvaluateSourcesInto(ctx, func() (sink, error) {
		ms, err := e.NewReportSink(pai.ToAllReduceLocal)
		if err != nil {
			return nil, err
		}
		return ms, nil
	}, srcs...)
	return s, err
}

// payload is a sink's snapshot payload.
func payload(s sink) ([]byte, error) { return s.MarshalBinary() }

// rebuild is the report path of a folded sink: write its framed snapshot,
// read it back, and merge it into a fresh sink from factory — what a
// paiserve report or a paibench merge does with a sealed window.
func (e *engine) rebuild(s sink, factory func() (sink, error)) (sink, error) {
	var buf bytes.Buffer
	start := time.Now()
	if err := pai.WriteSinkSnapshot(&buf, s); err != nil {
		return nil, err
	}
	if e.tr != nil {
		e.tr.encode.observe(start, 1)
		e.tr.snapshotBytes.Store(int64(buf.Len()))
	}
	start = time.Now()
	snap, err := pai.ReadSinkSnapshot(&buf)
	if err != nil {
		return nil, err
	}
	if e.tr != nil {
		e.tr.decode.observe(start, 1)
	}
	fresh, err := factory()
	if err != nil {
		return nil, err
	}
	start = time.Now()
	err = fresh.Merge(snap)
	if e.tr != nil {
		e.tr.merge.observe(start, 1)
	}
	return fresh, err
}

// tracedSink forwards every sink method — Add, AddColumns, Merge and the
// snapshot codec — timing folds into fold and the codec into the tracer.
type tracedSink struct {
	inner sink
	t     *tracer
	fold  *layer
}

func (s *tracedSink) Kind() string { return s.inner.Kind() }

func (s *tracedSink) Add(f wl.Features, t core.Times) error {
	defer s.fold.count(1)
	if !s.fold.sampled() {
		return s.inner.Add(f, t)
	}
	start := time.Now()
	err := s.inner.Add(f, t)
	s.fold.addSampled(start)
	return err
}

func (s *tracedSink) AddColumns(c *wl.Columns, ts []core.Times) error {
	start := time.Now()
	var err error
	if cs, ok := s.inner.(pai.ColumnSink); ok {
		err = cs.AddColumns(c, ts)
	} else {
		for i := range ts {
			if err = s.inner.Add(c.Row(i), ts[i]); err != nil {
				break
			}
		}
	}
	s.fold.observe(start, len(ts))
	return err
}

// wrapped is implemented by every traced sink; Merge unwraps the other
// side, since a sink merges only its own concrete type.
type wrapped interface{ unwrap() sink }

func (s *tracedSink) unwrap() sink { return s.inner }

func (s *tracedSink) Merge(other sink) error {
	if o, ok := other.(wrapped); ok {
		other = o.unwrap()
	}
	start := time.Now()
	err := s.inner.Merge(other)
	s.t.merge.observe(start, 1)
	return err
}

func (s *tracedSink) MarshalBinary() ([]byte, error) { return s.inner.MarshalBinary() }

func (s *tracedSink) UnmarshalBinary(data []byte) error { return s.inner.UnmarshalBinary(data) }

// consumerSink is the outermost traced report sink: the gap between one
// delivery returning and the next arriving is time the in-order consumer
// spent waiting for decode and evaluation. Record deliveries measure the
// gap after a sample of them.
type consumerSink struct {
	tracedSink
	last time.Time
	// scale is what the gap before the next delivery counts for: 0 when it
	// is not measured, sampleEvery after a sampled record delivery, 1 at
	// the start of a pass and after a block.
	scale int64
}

func (s *consumerSink) waited(start time.Time) {
	s.t.deliverWait.busyNS.Add(int64(start.Sub(s.last)) * s.scale)
}

func (s *consumerSink) Add(f wl.Features, t core.Times) error {
	l := &s.t.deliverWait
	defer l.count(1)
	if s.scale > 0 {
		s.waited(time.Now())
		s.scale = 0
	}
	err := s.inner.Add(f, t)
	if l.sampled() {
		s.last, s.scale = time.Now(), sampleEvery
	}
	return err
}

func (s *consumerSink) AddColumns(c *wl.Columns, ts []core.Times) error {
	start := time.Now()
	s.waited(start)
	s.t.deliverWait.count(len(ts))
	err := s.inner.(pai.ColumnSink).AddColumns(c, ts)
	s.last, s.scale = time.Now(), 1
	s.t.blockSpan("analyze.fold", start)
	return err
}

// startPass marks the start of a pass so the first delivery's wait counts.
func startPass(s sink) {
	if c, ok := s.(*consumerSink); ok {
		c.last, c.scale = time.Now(), 1
	}
}

// ---------------------------------------------------------------------------
// Cluster replay.

// replayConfig is the simulated FIFO cluster: its size and the training
// steps every job runs.
type replayConfig struct {
	servers, steps int
}

func (c replayConfig) options() []pai.ReplayOption {
	return []pai.ReplayOption{
		pai.WithReplayServers(c.servers),
		pai.WithReplayPolicy("fifo"),
		pai.WithReplaySteps(c.steps),
	}
}

// replayStats is the scalar outcome of one replay.
type replayStats struct {
	submitted, completed, rejected, maxQueueDepth int
	utilization                                   float64
}

// utilizationWindowSec is Engine.Replay's default occupancy bucket width.
const utilizationWindowSec = 3600

// newFleetSinks builds the replay's fleet sinks — admission counters,
// queue-delay sketches and the GPU-occupancy timeline — as Engine.Replay
// does. Traced, each member's fold is timed.
func (e *engine) newFleetSinks(c replayConfig) (sink, error) {
	util, err := pai.NewUtilizationSink(utilizationWindowSec, c.servers*pai.BaselineConfig().GPUsPerServer)
	if err != nil {
		return nil, err
	}
	members := []sink{pai.NewReplayCounterSink(), pai.NewQueueDelaySink(), util}
	if e.tr != nil {
		for i, m := range members {
			members[i] = &tracedOutcomeSink{tracedSink{inner: m, t: e.tr, fold: &e.tr.replaySink}}
		}
	}
	return pai.NewMultiSink(members...), nil
}

// tracedOutcomeSink times a fleet sink's scheduling-outcome folds.
type tracedOutcomeSink struct{ tracedSink }

func (s *tracedOutcomeSink) AddOutcome(o pai.ReplayOutcome) error {
	defer s.fold.count(1)
	if s.t.replayFirst.Load() == 0 {
		s.t.replayFirst.Store(int64(time.Since(s.t.epoch)))
	}
	if !s.fold.sampled() {
		return s.inner.(pai.ReplayOutcomeSink).AddOutcome(o)
	}
	start := time.Now()
	err := s.inner.(pai.ReplayOutcomeSink).AddOutcome(o)
	s.fold.addSampled(start)
	return err
}

// replay runs one discrete-event replay of src into the fleet sinks.
func (e *engine) replay(ctx context.Context, src source, c replayConfig, fleet sink) (replayStats, error) {
	st, err := e.ReplayInto(ctx, src, fleet, c.options()...)
	if err != nil {
		return replayStats{}, err
	}
	return replayStats{st.Submitted, st.Completed, st.Rejected, st.MaxQueueDepth, st.Utilization}, nil
}

// ---------------------------------------------------------------------------
// paiserve.

// serveConfig sizes the per-tenant window rings.
type serveConfig struct {
	window  time.Duration
	windows int
}

// newServer builds an in-process paiserve handler over e.
func newServer(e *engine, c serveConfig) (http.Handler, error) {
	var eng serve.Engine = e.Engine
	if e.tr != nil {
		eng = &tracedServeEngine{Engine: e.Engine, t: e.tr}
	}
	s, err := serve.New(serve.Config{
		Engine:        eng,
		WindowWidth:   c.window,
		WindowCount:   c.windows,
		Target:        pai.ToAllReduceLocal,
		TenantUploads: 2,
	})
	if err != nil {
		return nil, err
	}
	return s.Handler(), nil
}

// Request paths and media types of the paiserve HTTP API.
const ndjsonMediaType = "application/x-ndjson"

func uploadPath(tenant string) string { return "/v1/tenants/" + tenant + "/traces" }
func reportPath(tenant string) string {
	return "/v1/tenants/" + tenant + "/report?format=json&window=1h"
}
func snapshotPath(tenant string) string { return "/v1/tenants/" + tenant + "/snapshot" }

const metricsPath = "/metrics"

// serverMetrics is the part of the /metrics document the benchmark reads.
type serverMetrics struct {
	Uploads  int64 `json:"uploads_total"`
	Rejected int64 `json:"uploads_rejected"`
	Tenants  map[string]struct {
		Late    int64 `json:"late_arrivals"`
		Dropped int64 `json:"dropped_too_old"`
		Rotated int64 `json:"windows_rotated"`
	} `json:"tenants"`
}

// snapshotFramePayload returns the sink payload of a framed snapshot.
func snapshotFramePayload(frame []byte) ([]byte, error) {
	s, err := pai.ReadSinkSnapshot(bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	return s.MarshalBinary()
}

// tracedServeEngine times the NDJSON codec and the window ring's add
// callback of every upload. The report sinks stay untraced: the server's
// report renderer needs the concrete sink types.
type tracedServeEngine struct {
	*pai.Engine
	t *tracer
}

func (e *tracedServeEngine) EvaluateSource(ctx context.Context, src stream.Source, fn func(stream.Result) error) (int, error) {
	if _, ok := src.(stream.BlockSource); !ok {
		src = &tracedRecords{src: src, t: e.t}
	}
	l := &e.t.windowAdd
	return e.Engine.EvaluateSource(ctx, src, func(r stream.Result) error {
		defer l.count(1)
		if !l.sampled() {
			return fn(r)
		}
		start := time.Now()
		err := fn(r)
		l.addSampled(start)
		return err
	})
}

// replayDefault replays src through Engine.Replay, which builds its own
// fleet sinks, and returns them.
func (e *engine) replayDefault(ctx context.Context, src source, c replayConfig) (replayStats, sink, error) {
	res, err := e.Replay(ctx, src, c.options()...)
	if err != nil {
		return replayStats{}, nil, err
	}
	st := res.Stats
	return replayStats{st.Submitted, st.Completed, st.Rejected, st.MaxQueueDepth, st.Utilization}, res.Sinks, nil
}
