package pai

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/analyze"
	"repro/internal/backend"
	"repro/internal/evalcache"
	"repro/internal/project"
	"repro/internal/stream"
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

// EvaluateSource evaluates every job of src — a streaming synthetic-trace
// generator (NewTraceSource), an NDJSON decoder, a columnar reader
// (NewColumnReader), or an in-memory slice — across the engine's worker
// pool, and calls fn once per job in input order from a single goroutine.
// Record sources are cut into 256-record blocks; a columnar reader hands
// over its own blocks. Memory stays O(parallelism) blocks regardless of how
// many records the source holds, so million-job traces run in the footprint
// of a thousand-job trace. A nil fn discards results. It returns the number
// of jobs delivered and the first error — a decode error (with the
// offending line number for NDJSON), an evaluation error, an fn error, or
// the context's cancellation.
func (e *Engine) EvaluateSource(ctx context.Context, src JobSource, fn func(StreamResult) error) (int, error) {
	ev, err := e.evaluator()
	if err != nil {
		return 0, err
	}
	return stream.EvaluateBlocks(ctx, ev, stream.Blocks(src), e.parallelism, fn)
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

// CacheStats snapshots the result cache's hit/miss counters and residency.
// Without WithCache it returns zero stats.
func (e *Engine) CacheStats() CacheStats {
	if _, err := e.ensure(); err != nil || e.cache == nil {
		return CacheStats{}
	}
	return e.cache.Stats()
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

// StreamInto streams every job from src through the engine and folds each
// result into sink: any Sink (or MultiSink bundling several) rides the same
// single-pass block pipeline. Record sources are cut into 256-record blocks,
// and a columnar reader hands over its own. It returns the number of jobs
// folded.
func (e *Engine) StreamInto(ctx context.Context, src JobSource, sink Sink) (int, error) {
	return e.foldInto(ctx, stream.Blocks(src), sink)
}

// StreamColumnsInto is StreamInto over a block source: whole evaluated
// blocks are folded into sink via its columnar path (ColumnSink) when it has
// one — no per-record Result is ever materialized, and times buffers recycle
// per block — falling back to in-order record delivery otherwise. Both paths
// produce byte-identical sink snapshots. It returns the number of records
// folded.
func (e *Engine) StreamColumnsInto(ctx context.Context, src BlockSource, sink Sink) (int, error) {
	return e.foldInto(ctx, src, sink)
}

// foldInto is the one body behind StreamInto and StreamColumnsInto.
func (e *Engine) foldInto(ctx context.Context, src BlockSource, sink Sink) (int, error) {
	ev, err := e.evaluator()
	if err != nil {
		return 0, err
	}
	return analyze.FoldInto(ctx, ev, e.parallelism, src, sink)
}

// EvaluateSourcesInto is the sharded StreamInto: every source is one cell
// of a FoldRanges grid, drained by its own block pipeline (the engine's
// parallelism split evenly across sources) into its own sink built by
// factory, and the per-source sinks are merged in source order — exactly
// the merge a coordinator applies to per-process snapshot files, so the two
// produce byte-identical snapshots. It returns the merged sink and
// per-source job counts; any source's error names its cell and cancels
// every other source.
func (e *Engine) EvaluateSourcesInto(ctx context.Context, factory func() (Sink, error), srcs ...JobSource) (Sink, []int, error) {
	ev, err := e.evaluator()
	if err != nil {
		return nil, nil, err
	}
	if len(srcs) == 0 {
		return nil, nil, fmt.Errorf("pai: EvaluateSourcesInto with no sources")
	}
	for i, src := range srcs {
		if src == nil {
			return nil, nil, fmt.Errorf("pai: EvaluateSourcesInto with nil source %d", i)
		}
	}
	open := func(cell int) (stream.BlockSource, error) { return stream.Blocks(srcs[cell]), nil }
	return analyze.FoldRanges(ctx, ev, e.parallelism, len(srcs), len(srcs), open, factory)
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

// Backends lists the registered evaluation backend names.
func Backends() []string { return backend.Names() }
