package pai

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"

	"repro/internal/analyze"
	"repro/internal/backend"
	"repro/internal/coord"
	"repro/internal/evalcache"
	"repro/internal/project"
	"repro/internal/stream"
	"repro/internal/tracegen"
)

// Engine is a configured, reusable, concurrency-safe evaluation object: one
// registered backend instantiated under one spec (hardware configuration,
// efficiency assumption, overlap mode, traffic-model options) plus a bounded
// worker pool for batch evaluation. Build one with New and functional
// options:
//
//	eng, err := pai.New(
//		pai.WithConfig(pai.BaselineConfig()),
//		pai.WithOverlap(pai.OverlapIdeal),
//		pai.WithBackend("analytical"),
//		pai.WithParallelism(8),
//	)
//
// The zero value is usable and lazily initializes to the defaults (baseline
// configuration, 70% efficiency, non-overlap, "analytical" backend,
// GOMAXPROCS parallelism). An Engine is immutable after construction; derive
// variants with With.
type Engine struct {
	spec         backend.Spec
	backendName  string
	parallelism  int
	cacheEntries int
	cacheBytes   int64

	b backend.Backend
	// ev is the per-job evaluation surface every batch and streaming
	// pipeline runs through: the backend itself, or — under WithCache — a
	// sharded content-keyed memo wrapping it.
	ev    backend.Evaluator
	cache *evalcache.Cache

	// initOnce guards lazy initialization of the zero value.
	initOnce sync.Once
	initErr  error
}

// Option configures an Engine under construction.
type Option func(*Engine) error

// WithConfig sets the hardware configuration (Table I baseline by default).
func WithConfig(cfg Config) Option {
	return func(e *Engine) error {
		if err := cfg.Validate(); err != nil {
			return err
		}
		e.spec.Config = cfg
		return nil
	}
}

// WithEfficiency sets the hardware-efficiency assumption (the paper's
// blanket 70% by default).
func WithEfficiency(eff Efficiency) Option {
	return func(e *Engine) error {
		if err := eff.Validate(); err != nil {
			return err
		}
		e.spec.Eff = eff
		return nil
	}
}

// WithOverlap selects the computation/communication overlap mode
// (OverlapNone by default).
func WithOverlap(mode OverlapMode) Option {
	return func(e *Engine) error {
		e.spec.Overlap = mode
		return nil
	}
}

// WithOverlapAlpha sets the OverlapPartial interpolation factor in [0,1]
// and switches the engine to OverlapPartial.
func WithOverlapAlpha(alpha float64) Option {
	return func(e *Engine) error {
		if alpha < 0 || alpha > 1 {
			return fmt.Errorf("pai: WithOverlapAlpha(%v): alpha must be in [0,1]", alpha)
		}
		e.spec.Overlap = OverlapPartial
		e.spec.OverlapAlpha = alpha
		return nil
	}
}

// WithArchOptions tunes the derived traffic models (ring collectives and
// sparse access fraction by default).
func WithArchOptions(o ArchOptions) Option {
	return func(e *Engine) error {
		e.spec.Arch = o
		return nil
	}
}

// WithBackend selects a registered evaluation backend by name
// ("analytical" by default; see Backends for the registered set).
func WithBackend(name string) Option {
	return func(e *Engine) error {
		if name == "" {
			return fmt.Errorf("pai: WithBackend with empty name")
		}
		e.backendName = name
		return nil
	}
}

// WithParallelism caps the worker pool EvaluateBatch and the analysis
// pipelines fan per-job evaluations over (GOMAXPROCS by default).
func WithParallelism(n int) Option {
	return func(e *Engine) error {
		if n < 1 {
			return fmt.Errorf("pai: WithParallelism(%d): need at least one worker", n)
		}
		e.parallelism = n
		return nil
	}
}

// WithCache puts a sharded, content-keyed result cache (internal/evalcache)
// in front of the backend, bounded to roughly `entries` resident
// breakdowns. Every per-job evaluation path — Evaluate, EvaluateBatch, the
// streaming folds — transparently hits it, so production-shaped traces
// where the same feature record recurs thousands of times stop re-running
// the model. entries <= 0 disables caching (the default). Inspect
// effectiveness with CacheStats.
//
// Breakdowns served from the cache share one immutable WeightsByLink map
// per entry; treat it as read-only (copy it before mutating).
func WithCache(entries int) Option {
	return func(e *Engine) error {
		if entries < 0 {
			entries = 0
		}
		e.cacheEntries = entries
		e.cacheBytes = 0
		return nil
	}
}

// WithCacheBytes is WithCache with a byte budget instead of an entry
// budget: the cache derives its entry budget adaptively from targetBytes
// divided by the measured average entry footprint, so the resident set
// tracks a memory target rather than a guessed entry count. n <= 0 disables
// caching. WithCacheBytes and WithCache override each other; the last one
// given wins.
func WithCacheBytes(n int64) Option {
	return func(e *Engine) error {
		if n < 0 {
			n = 0
		}
		e.cacheBytes = n
		e.cacheEntries = 0
		return nil
	}
}

// New builds an Engine from the defaults plus the given options.
func New(opts ...Option) (*Engine, error) {
	e := &Engine{
		spec:        backend.DefaultSpec(),
		backendName: backend.AnalyticalName,
		parallelism: runtime.GOMAXPROCS(0),
	}
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	b, err := backend.New(e.backendName, e.spec)
	if err != nil {
		return nil, err
	}
	e.b = b
	e.ev = b
	switch {
	case e.cacheEntries > 0:
		c, err := evalcache.New(b, e.spec, e.cacheEntries)
		if err != nil {
			return nil, err
		}
		e.cache = c
		e.ev = c
	case e.cacheBytes > 0:
		c, err := evalcache.NewBytes(b, e.spec, e.cacheBytes)
		if err != nil {
			return nil, err
		}
		e.cache = c
		e.ev = c
	}
	return e, nil
}

// ensure lazily initializes the zero-value Engine with the defaults.
func (e *Engine) ensure() (backend.Backend, error) {
	e.initOnce.Do(func() {
		if e.b != nil {
			return
		}
		// Only the zero value reaches here: New always sets the backend.
		e.spec = backend.DefaultSpec()
		e.backendName = backend.AnalyticalName
		e.parallelism = runtime.GOMAXPROCS(0)
		e.b, e.initErr = backend.New(e.backendName, e.spec)
		e.ev = e.b
	})
	if e.initErr != nil {
		return nil, e.initErr
	}
	return e.b, nil
}

// evaluator returns the engine's per-job evaluation surface: the cache when
// WithCache is configured, the bare backend otherwise.
func (e *Engine) evaluator() (backend.Evaluator, error) {
	if _, err := e.ensure(); err != nil {
		return nil, err
	}
	return e.ev, nil
}

// With derives a new Engine: the receiver's configuration plus the given
// options. The receiver is unchanged.
func (e *Engine) With(opts ...Option) (*Engine, error) {
	if _, err := e.ensure(); err != nil {
		return nil, err
	}
	merged := make([]Option, 0, len(opts)+8)
	merged = append(merged,
		WithConfig(e.spec.Config),
		WithEfficiency(e.spec.Eff),
		WithOverlap(e.spec.Overlap),
		WithArchOptions(e.spec.Arch),
		WithBackend(e.backendName),
		WithParallelism(e.parallelism),
		func(d *Engine) error {
			// Copied directly rather than via WithCache/WithCacheBytes: the
			// options are last-wins, so replaying both would zero whichever
			// budget was actually set.
			d.cacheEntries, d.cacheBytes = e.cacheEntries, e.cacheBytes
			return nil
		},
		func(d *Engine) error { d.spec.OverlapAlpha = e.spec.OverlapAlpha; return nil },
	)
	merged = append(merged, opts...)
	return New(merged...)
}

// Backend returns the name of the engine's evaluation backend.
func (e *Engine) Backend() string {
	if _, err := e.ensure(); err != nil {
		return e.backendName
	}
	return e.b.Name()
}

// Config returns the engine's hardware configuration.
func (e *Engine) Config() Config {
	e.ensure()
	return e.spec.Config
}

// Efficiency returns the engine's hardware-efficiency assumption.
func (e *Engine) Efficiency() Efficiency {
	e.ensure()
	return e.spec.Eff
}

// Overlap returns the engine's overlap mode.
func (e *Engine) Overlap() OverlapMode {
	e.ensure()
	return e.spec.Overlap
}

// Parallelism returns the engine's evaluation worker-pool cap.
func (e *Engine) Parallelism() int {
	e.ensure()
	return e.parallelism
}

// Evaluate computes the per-step execution-time breakdown of one workload.
func (e *Engine) Evaluate(f Features) (Times, error) {
	ev, err := e.evaluator()
	if err != nil {
		return Times{}, err
	}
	return ev.Breakdown(f)
}

// StepTime returns the modeled per-step execution time of one workload.
func (e *Engine) StepTime(f Features) (float64, error) {
	t, err := e.Evaluate(f)
	if err != nil {
		return 0, err
	}
	return t.Total(), nil
}

// Throughput returns the workload's training throughput in samples per
// second (Eq. 2): #cNodes / Ttotal x batch size.
func (e *Engine) Throughput(f Features) (float64, error) {
	total, err := e.StepTime(f)
	if err != nil {
		return 0, err
	}
	if total == 0 {
		return 0, fmt.Errorf("pai: workload %q has zero step time", f.Name)
	}
	return float64(f.CNodes) / total * float64(f.BatchSize), nil
}

// Bottleneck returns the hardware component with the largest attributed
// share of the workload's step time.
func (e *Engine) Bottleneck(f Features) (HardwareComponent, float64, error) {
	t, err := e.Evaluate(f)
	if err != nil {
		return 0, 0, err
	}
	var best HardwareComponent
	var bestFrac float64
	for h, fr := range t.HardwareFractions() {
		if fr > bestFrac {
			best, bestFrac = HardwareComponent(h), fr
		}
	}
	return best, bestFrac, nil
}

// EvaluateBatch evaluates every job concurrently over the engine's worker
// pool and returns the breakdowns in input order. The context cancels the
// batch; the first evaluation error stops it.
func (e *Engine) EvaluateBatch(ctx context.Context, jobs []Features) ([]Times, error) {
	ev, err := e.evaluator()
	if err != nil {
		return nil, err
	}
	return backend.EvaluateBatch(ctx, ev, jobs, e.parallelism)
}

// EvaluateStream decodes NDJSON job records from r incrementally, evaluates
// them across the engine's worker pool, and calls fn once per job in input
// order from a single goroutine. Memory stays O(parallelism) regardless of
// how many records the stream holds, so million-job traces run in the
// footprint of a thousand-job trace. A nil fn discards results. It returns
// the number of jobs delivered and the first error — a decode error (with
// the offending line number), an evaluation error, an fn error, or the
// context's cancellation.
func (e *Engine) EvaluateStream(ctx context.Context, r io.Reader, fn func(StreamResult) error) (int, error) {
	ev, err := e.evaluator()
	if err != nil {
		return 0, err
	}
	return stream.Evaluate(ctx, ev, tracegen.NewDecoder(r), e.parallelism, fn)
}

// EvaluateSource is EvaluateStream over any job source — a streaming
// synthetic-trace generator (NewTraceSource), an NDJSON decoder, a columnar
// reader (NewColumnReader), or an in-memory slice — instead of an NDJSON
// reader. Sources that can hand over whole columnar blocks (BlockSource) are
// automatically evaluated block-at-a-time.
func (e *Engine) EvaluateSource(ctx context.Context, src JobSource, fn func(StreamResult) error) (int, error) {
	ev, err := e.evaluator()
	if err != nil {
		return 0, err
	}
	return stream.Evaluate(ctx, ev, src, e.parallelism, fn)
}

// EvaluateTrace is EvaluateStream for any registered trace codec: format
// selects one by name ("ndjson", "colbin", "json"), and "auto" (or empty)
// sniffs the stream's leading bytes. Columnar input rides the block-granular
// fast path.
func (e *Engine) EvaluateTrace(ctx context.Context, r io.Reader, format string, fn func(StreamResult) error) (int, error) {
	src, err := tracegen.OpenSource(r, format)
	if err != nil {
		return 0, err
	}
	return e.EvaluateSource(ctx, src, fn)
}

// EvaluateColumns evaluates whole structure-of-arrays blocks from src —
// typically a colbin trace reader — through the engine's backend, one
// backend call per block over []float64 columns, and calls fn once per
// record in input order. This is the bulk calling convention: identical
// delivery semantics (and byte-identical sink output) to EvaluateStream over
// the same records, without per-job decode or dispatch overhead.
func (e *Engine) EvaluateColumns(ctx context.Context, src BlockSource, fn func(StreamResult) error) (int, error) {
	ev, err := e.evaluator()
	if err != nil {
		return 0, err
	}
	return stream.EvaluateBlocks(ctx, ev, src, e.parallelism, fn)
}

// StreamBreakdowns streams every job from src through the engine and folds
// the full set of collective aggregates — constitution, per-class and
// overall breakdowns, step-time summary — into one accumulator without
// materializing the trace.
func (e *Engine) StreamBreakdowns(ctx context.Context, src JobSource) (*BreakdownAccumulator, error) {
	ev, err := e.evaluator()
	if err != nil {
		return nil, err
	}
	return analyze.Fold(ctx, ev, e.parallelism, src)
}

// EvaluateSources is the sharded StreamBreakdowns: N job sources — NDJSON
// decoders over N trace files, N generator partitions, in-memory slices —
// are drained concurrently, each by its own worker set into its own
// per-shard accumulator, and the shard accumulators are folded with the
// exact BreakdownAccumulator.Merge into one aggregate. The engine's
// parallelism budget is split evenly across shards. It returns the merged
// accumulator and the per-shard job counts; any shard error cancels every
// shard.
func (e *Engine) EvaluateSources(ctx context.Context, srcs ...JobSource) (*BreakdownAccumulator, []int, error) {
	ev, err := e.evaluator()
	if err != nil {
		return nil, nil, err
	}
	return analyze.FoldSources(ctx, ev, e.parallelism, srcs)
}

// EvaluateIndexedColumns is the file-parallel StreamColumnsInto: `consumers`
// concurrent block pipelines pull disjoint segments of one index-bearing
// colbin file from ir and fold each into its own sink built by factory, and
// the per-cell sinks merge in cell order. The cells are the deterministic
// partition grid Index.Partition(grainRecords) — a pure function of the
// trace and the grain — so the merged sink's snapshot is byte-identical to
// a sequential run (consumers=1) and to a distributed run over the same
// grid, even for statistics whose merge rounds. grainRecords <= 0 uses
// DefaultGrainRecords; consumers <= 0 uses the engine's parallelism. It
// returns the merged sink and per-cell record counts.
func (e *Engine) EvaluateIndexedColumns(ctx context.Context, ir *ColumnIndexedReader, grainRecords, consumers int, factory func() (Sink, error)) (Sink, []int, error) {
	ev, err := e.evaluator()
	if err != nil {
		return nil, nil, err
	}
	if ir == nil {
		return nil, nil, fmt.Errorf("pai: EvaluateIndexedColumns with nil indexed reader")
	}
	if grainRecords <= 0 {
		grainRecords = DefaultGrainRecords
	}
	if consumers <= 0 {
		consumers = e.parallelism
	}
	cells := ir.Index().Partition(grainRecords)
	open := func(cell int) (stream.BlockSource, error) {
		return ir.Range(cells[cell].Lo, cells[cell].Hi), nil
	}
	return analyze.FoldRanges(ctx, ev, e.parallelism, consumers, len(cells), open, factory)
}

// EvaluateIndexedCell folds exactly one cell of the grainRecords partition
// grid into a fresh factory sink — the worker-side unit of the distributed
// work-stealing mode. Its sink is bit-identical to the per-cell sink
// EvaluateIndexedColumns folds in process, so a coordinator that merges
// remote cell snapshots in cell order reconstructs the single-process
// aggregate byte for byte. It returns the filled sink and the cell's record
// count.
func (e *Engine) EvaluateIndexedCell(ctx context.Context, ir *ColumnIndexedReader, grainRecords, cell int, factory func() (Sink, error)) (Sink, int, error) {
	ev, err := e.evaluator()
	if err != nil {
		return nil, 0, err
	}
	if ir == nil {
		return nil, 0, fmt.Errorf("pai: EvaluateIndexedCell with nil indexed reader")
	}
	if grainRecords <= 0 {
		grainRecords = DefaultGrainRecords
	}
	cells := ir.Index().Partition(grainRecords)
	if cell < 0 || cell >= len(cells) {
		return nil, 0, fmt.Errorf("pai: cell %d outside the %d-cell partition grid", cell, len(cells))
	}
	return analyze.FoldRange(ctx, ev, e.parallelism, ir.Range(cells[cell].Lo, cells[cell].Hi), factory)
}

// CacheStats snapshots the result cache's hit/miss counters and residency.
// Without WithCache it returns zero stats.
func (e *Engine) CacheStats() CacheStats {
	if _, err := e.ensure(); err != nil || e.cache == nil {
		return CacheStats{}
	}
	return e.cache.Stats()
}

// Breakdowns computes the Fig. 7 average breakdown rows over a trace.
func (e *Engine) Breakdowns(ctx context.Context, jobs []Features) ([]BreakdownRow, error) {
	ev, err := e.evaluator()
	if err != nil {
		return nil, err
	}
	return analyze.Breakdowns(ctx, ev, e.parallelism, jobs)
}

// OverallBreakdown aggregates component shares over all jobs at one level
// (the Sec. III-D headline numbers).
func (e *Engine) OverallBreakdown(ctx context.Context, jobs []Features, lvl Level) (map[Component]float64, error) {
	ev, err := e.evaluator()
	if err != nil {
		return nil, err
	}
	return analyze.OverallBreakdown(ctx, ev, e.parallelism, jobs, lvl)
}

// HardwareSweep evaluates the Table III grid over a job set (one Fig. 11
// panel). The backend must be sweepable.
func (e *Engine) HardwareSweep(ctx context.Context, jobs []Features, label string) (SweepPanel, error) {
	b, err := e.ensure()
	if err != nil {
		return SweepPanel{}, err
	}
	return analyze.HardwareSweep(ctx, b, e.parallelism, jobs, label)
}

// Projector returns a projector over the engine's backend (requires NVLink
// in the configuration and a projectable backend).
func (e *Engine) Projector() (*Projector, error) {
	b, err := e.ensure()
	if err != nil {
		return nil, err
	}
	return project.NewFromBackend(b)
}

// Project maps one PS/Worker workload to the target architecture and
// evaluates both sides.
func (e *Engine) Project(f Features, target ProjectionTarget) (ProjectionResult, error) {
	pr, err := e.Projector()
	if err != nil {
		return ProjectionResult{}, err
	}
	return pr.Project(f, target)
}

// ProjectAll projects every PS/Worker workload in the list concurrently
// over the engine's worker pool; non-PS jobs are skipped. Results preserve
// the input order of the projected jobs.
func (e *Engine) ProjectAll(ctx context.Context, jobs []Features, target ProjectionTarget) ([]ProjectionResult, error) {
	pr, err := e.Projector()
	if err != nil {
		return nil, err
	}
	return pr.ProjectBatch(ctx, jobs, target, e.parallelism)
}

// StreamInto streams every job from src through the engine and folds each
// result into sink — the generic form of StreamBreakdowns: any Sink (or
// MultiSink bundling several) rides the same single-pass pipeline. It
// returns the number of jobs folded.
func (e *Engine) StreamInto(ctx context.Context, src JobSource, sink Sink) (int, error) {
	ev, err := e.evaluator()
	if err != nil {
		return 0, err
	}
	return analyze.FoldInto(ctx, ev, e.parallelism, src, sink)
}

// StreamColumnsInto is StreamInto over a block source: whole evaluated
// blocks are folded into sink via its columnar path (ColumnSink) when it has
// one — no per-record Result is ever materialized, and times buffers recycle
// per block — falling back to in-order record delivery otherwise. Both paths
// produce byte-identical sink snapshots. It returns the number of records
// folded.
func (e *Engine) StreamColumnsInto(ctx context.Context, src BlockSource, sink Sink) (int, error) {
	ev, err := e.evaluator()
	if err != nil {
		return 0, err
	}
	if sink == nil {
		return 0, fmt.Errorf("pai: StreamColumnsInto with nil sink")
	}
	if cs, ok := sink.(analyze.ColumnSink); ok {
		return stream.EvaluateBlocksInto(ctx, ev, src, e.parallelism, cs.AddColumns)
	}
	return stream.EvaluateBlocks(ctx, ev, src, e.parallelism, func(r StreamResult) error {
		return sink.Add(r.Job, r.Times)
	})
}

// EvaluateSourcesInto is the sharded StreamInto: every source is drained by
// its own worker set into its own sink built by factory, and the per-shard
// sinks are merged in shard order — exactly the merge a coordinator applies
// to per-process snapshot files, so the two produce byte-identical
// snapshots. It returns the merged sink and per-shard job counts.
func (e *Engine) EvaluateSourcesInto(ctx context.Context, factory func() (Sink, error), srcs ...JobSource) (Sink, []int, error) {
	ev, err := e.evaluator()
	if err != nil {
		return nil, nil, err
	}
	return analyze.FoldSinks(ctx, ev, e.parallelism, srcs, factory)
}

// NewProjectionSink returns a Sink folding the Fig. 9 PS -> AllReduce
// projection study through the engine's evaluator (cache included when
// configured). The engine's backend must be projectable and its
// configuration must include NVLink.
func (e *Engine) NewProjectionSink(target ProjectionTarget) (*ProjectionSink, error) {
	b, err := e.ensure()
	if err != nil {
		return nil, err
	}
	if !b.Capabilities().Projectable {
		return nil, fmt.Errorf("pai: backend %q does not support projections", b.Name())
	}
	pr, err := project.NewWithEvaluator(e.ev, e.spec.Config)
	if err != nil {
		return nil, err
	}
	return analyze.NewProjectionSink(pr, target)
}

// NewSweepSink returns a Sink folding the Fig. 11 hardware-evolution sweep
// for one class. The engine's backend must be sweepable; every job of the
// class is re-evaluated under each Table III grid point as it streams by.
func (e *Engine) NewSweepSink(class Class) (*SweepSink, error) {
	b, err := e.ensure()
	if err != nil {
		return nil, err
	}
	return analyze.NewSweepSink(b, class)
}

// NewReportSink bundles the full streaming characterization — breakdown
// aggregates, per-class component CDF sketches, hardware CDF sketches, and
// the projection summary — into one MultiSink, so a single streamed pass
// (or a set of per-process shards) fills every report section that does not
// require reconfiguring the backend. Add a sweep sink via NewSweepSink when
// the hardware-sweep section is wanted too.
func (e *Engine) NewReportSink(target ProjectionTarget) (*MultiSink, error) {
	ps, err := e.NewProjectionSink(target)
	if err != nil {
		return nil, err
	}
	return analyze.NewMultiSink(
		analyze.NewBreakdownAccumulator(),
		analyze.NewComponentCDFSink(),
		analyze.NewHardwareCDFSink(),
		ps,
	), nil
}

// ShardSources builds the job source for one cell of a distributed run's
// grid — the caller's mapping from a cell index to the jobs of that
// partition (a trace-file decoder, a generator partition, a slice). A static
// sharded run maps cell i to shard i. It is called once per cell
// evaluation, so retried cells get a fresh source.
type ShardSources func(cell int) (JobSource, error)

// cellRunner adapts the engine into the worker side of networked
// distributed evaluation: each cell of an assigned range streams the
// partition built by sources through the engine's evaluator (cache
// included) into a fresh sink built by factory, stamped with the cell's
// provenance and emitted the moment its fold completes.
func (e *Engine) cellRunner(ev backend.Evaluator, sources ShardSources, factory func() (Sink, error)) MicroShardRunner {
	return func(ctx context.Context, a MicroShardAssignment, emit func(int, Sink, string, int) error) error {
		if sources == nil {
			return fmt.Errorf("pai: distributed worker with nil sources")
		}
		for cell := a.Lo; cell < a.Hi; cell++ {
			src, err := sources(cell)
			if err != nil {
				return err
			}
			sink, err := factory()
			if err != nil {
				return err
			}
			n, err := analyze.FoldInto(ctx, ev, e.parallelism, src, sink)
			if err != nil {
				return err
			}
			if err := emit(cell, sink, analyze.ShardMeta(a.Provenance, cell), n); err != nil {
				return err
			}
		}
		return nil
	}
}

// DistributedWorker connects out to a coordinator at addr and serves cell
// ranges through this engine until the coordinator finishes the run — the
// library form of `paibench -worker`. It returns nil on a clean completion,
// or the protocol/evaluation error that ended the session.
func (e *Engine) DistributedWorker(ctx context.Context, addr string, sources ShardSources, factory func() (Sink, error)) error {
	ev, err := e.evaluator()
	if err != nil {
		return err
	}
	if factory == nil {
		return fmt.Errorf("pai: DistributedWorker with nil sink factory")
	}
	return coord.WorkDynamic(ctx, addr, 0, e.cellRunner(ev, sources, factory))
}

// EvaluateDistributed is the networked EvaluateSourcesInto: the engine acts
// as coordinator on ln over a grid of `shards` cells, hands connected
// workers contiguous cell ranges (work stealing, see CoordinateMicroShards),
// streams the per-cell sink snapshots back over TCP, and folds them in cell
// order with the exact Merge — byte-identical to the in-process
// EvaluateSourcesInto over the same partitions, even when a worker dies
// mid-range and its cells are retried elsewhere (set opts.CellTimeout so
// hung workers are abandoned).
//
// localWorkers > 0 spawns that many in-process worker loops dialing ln's
// address — the zero-config path — and arms the coordinator's stall
// detector so a run whose workers all die fails at opts.CellTimeout
// instead of hanging. External workers built on Engine.DistributedWorker
// (with equivalent sources/factory semantics) can connect to the same
// listener from other processes or machines; `paibench -worker` cannot —
// its assignments must carry a paibench payload, which this method does
// not send. The listener is closed on return. It returns the merged sink
// and per-cell job counts.
func (e *Engine) EvaluateDistributed(ctx context.Context, ln net.Listener, shards, localWorkers int, sources ShardSources, factory func() (Sink, error), opts *MicroShardOptions) (Sink, []int, error) {
	ev, err := e.evaluator()
	if err != nil {
		return nil, nil, err
	}
	if ln == nil {
		return nil, nil, fmt.Errorf("pai: EvaluateDistributed with nil listener")
	}
	if factory == nil {
		return nil, nil, fmt.Errorf("pai: EvaluateDistributed with nil sink factory")
	}
	var o MicroShardOptions
	if opts != nil {
		o = *opts
	}
	if o.NewSink == nil {
		// Pin the fold base to the caller's sink type — the exact fold shape
		// of analyze.FoldSinks, which is what makes the distributed result
		// byte-identical to the in-process sharded run.
		o.NewSink = func() (analyze.Sink, error) { return factory() }
	}
	var wg sync.WaitGroup
	if localWorkers > 0 {
		o.ExpectWorkers = true
		runner := e.cellRunner(ev, sources, factory)
		addr := ln.Addr().String()
		for i := 0; i < localWorkers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Worker teardown at end of run (coordinator closes the
				// connection) is expected; real cell failures surface
				// through the coordinator's retry accounting instead.
				_ = coord.WorkDynamic(ctx, addr, 0, runner)
			}()
		}
	}
	sink, counts, _, err := coord.RunDynamic(ctx, ln, shards, nil, o)
	wg.Wait()
	return sink, counts, err
}

// Backends lists the registered evaluation backend names.
func Backends() []string { return backend.Names() }
