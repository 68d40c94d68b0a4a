// Package pai is the public API of the Alibaba-PAI workload-characterization
// reproduction (Wang et al., IISWC 2019). It wraps the internal substrates —
// hardware catalog, analytical performance model, architecture traffic
// models, synthetic trace generator, projection and analysis pipelines,
// executable collectives and the PEARL training strategy — behind a compact
// surface.
//
// Typical use — build a configured Engine once, then evaluate traces
// through it:
//
//	eng, _ := pai.New(pai.WithConfig(pai.BaselineConfig()))
//	trace, _ := pai.GenerateTrace(pai.DefaultTraceParams())
//	times, _ := eng.EvaluateBatch(context.Background(), trace.Jobs)
//	fmt.Printf("first job: %.3fs\n", times[0].Total())
//
// Engines are concurrency-safe and composed with functional options:
// WithConfig, WithEfficiency, WithOverlap, WithBackend, WithParallelism.
// Evaluation backends are pluggable (see Backends for the registered set);
// EvaluateBatch and the analysis pipelines fan per-job evaluations over a
// bounded worker pool.
//
// The experiment suite regenerates every table and figure of the paper:
//
//	suite, _ := pai.NewExperimentSuite(0)
//	artifacts, _ := suite.RunAll()
//
// Traces are read and written through registered codecs (TraceFormats):
// streaming NDJSON, the legacy whole-trace JSON document, and the columnar
// binary block format ("colbin") that decodes in bulk and rides the
// block-granular evaluation path (Engine.EvaluateColumns). OpenTraceSource
// selects a codec by name or by sniffing the input's first bytes.
//
// The free functions that predated the Engine (NewModel, Breakdowns,
// OverallBreakdown, HardwareSweep, NewProjector) have been removed; see the
// README migration table for the Engine equivalents.
package pai

import (
	"context"
	"io"
	"net"

	"repro/internal/analyze"
	"repro/internal/arch"
	"repro/internal/colbin"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/evalcache"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/project"
	"repro/internal/replay"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/tracegen"
	"repro/internal/version"
	"repro/internal/workload"
)

// Re-exported core types. These aliases are the stable public names; the
// internal packages hold the implementations.
type (
	// Config is a full system configuration (GPU + interconnects), Table I.
	Config = hw.Config
	// GPU describes one accelerator's capability.
	GPU = hw.GPU
	// LinkClass identifies PCIe, NVLink, Ethernet or Local.
	LinkClass = hw.LinkClass
	// Resource is one hardware-evolution knob of Table III.
	Resource = hw.Resource

	// Features is the per-job workload feature schema (Fig. 4).
	Features = workload.Features
	// Class is a workload class of Table II (plus PEARL).
	Class = workload.Class
	// Efficiency is a per-component hardware-utilization assumption.
	Efficiency = workload.Efficiency
	// CaseStudy bundles Tables IV-VI for one production model.
	CaseStudy = workload.CaseStudy

	// Times is a per-step execution-time breakdown.
	Times = core.Times
	// Component is one breakdown slice (data I/O, weights, compute).
	Component = core.Component
	// HardwareComponent attributes time to hardware (Fig. 8a legend).
	HardwareComponent = core.HardwareComponent
	// OverlapMode selects Ttotal = sum vs max (Sec. V-B).
	OverlapMode = core.OverlapMode

	// Trace is a set of job feature records.
	Trace = tracegen.Trace
	// TraceParams controls synthetic trace generation.
	TraceParams = tracegen.Params

	// ProjectionTarget selects AllReduce-Local or AllReduce-Cluster.
	ProjectionTarget = project.Target
	// ProjectionResult is one job's projection outcome (Fig. 9).
	ProjectionResult = project.Result
	// ProjectionSummary aggregates a projection run.
	ProjectionSummary = project.Summary

	// ArchOptions tunes the derived traffic models.
	ArchOptions = arch.Options

	// Projector evaluates PS -> AllReduce projections (Fig. 9).
	Projector = project.Projector

	// SweepPanel is one Fig. 11 subplot.
	SweepPanel = analyze.SweepPanel
	// Level selects job-level or cNode-level aggregation.
	Level = analyze.Level
	// Constitution is the Fig. 5 composition.
	Constitution = analyze.Constitution
	// BreakdownRow is one Fig. 7 bar (average component shares).
	BreakdownRow = analyze.BreakdownRow

	// ExperimentSuite regenerates the paper's tables and figures.
	ExperimentSuite = experiments.Suite
	// Artifact is one regenerated table or figure.
	Artifact = experiments.Artifact

	// StreamResult is one evaluated job from the streaming pipeline:
	// stream index, feature record, breakdown.
	StreamResult = stream.Result
	// JobSource yields job records one at a time (io.EOF terminates); the
	// streaming pipeline's input surface.
	JobSource = stream.Source
	// TraceSource generates synthetic-trace jobs one at a time, so
	// million-job traces stream without ever being materialized.
	TraceSource = tracegen.Source
	// TraceDecoder decodes NDJSON job records incrementally, with
	// line-numbered errors.
	TraceDecoder = tracegen.Decoder
	// TraceEncoder writes job records as NDJSON through a buffered writer.
	TraceEncoder = tracegen.Encoder
	// TraceFormat is one registered trace codec (ndjson, json, colbin):
	// named selection, content sniffing, and source/writer construction.
	TraceFormat = tracegen.Format
	// TraceWriter is the codec-agnostic record-writing surface
	// (Write + Flush) NewTraceFormatWriter returns.
	TraceWriter = tracegen.RecordWriter
	// Columns is a structure-of-arrays block of feature records — the unit
	// the columnar codec decodes and the block evaluation path consumes.
	Columns = workload.Columns
	// BlockSource yields whole columnar blocks (io.EOF terminates); the
	// block-granular input surface of Engine.EvaluateColumns.
	BlockSource = stream.BlockSource
	// ColumnReader decodes a colbin trace block by block; it also satisfies
	// JobSource, so it drops in wherever an NDJSON decoder does.
	ColumnReader = colbin.Reader
	// ColumnWriter encodes job records into columnar colbin blocks.
	ColumnWriter = colbin.Writer
	// ColumnIndexedReader serves disjoint block ranges of one index-bearing
	// colbin file to concurrent segment readers — the seekable counterpart
	// of ColumnReader's sequential scan.
	ColumnIndexedReader = colbin.IndexedReader
	// ColumnIndex is a decoded colbin block index: per-block byte offsets,
	// record counts and arrival-time ranges, plus the deterministic
	// Partition grid parallel and distributed folds share.
	ColumnIndex = colbin.Index
	// BlockRange is one contiguous half-open block span of a partition
	// grid — the micro-shard unit of parallel and distributed decode.
	BlockRange = colbin.Range
	// BreakdownAccumulator folds streamed evaluation results into the
	// collective aggregates in O(1) memory per job; shard accumulators
	// merge exactly.
	BreakdownAccumulator = analyze.BreakdownAccumulator

	// Sink is the mergeable, serializable fold every streaming analysis
	// implements: Add(Features, Times), Merge(Sink), and versioned binary
	// snapshots via MarshalBinary/UnmarshalBinary. Per-shard sinks run in
	// separate goroutines, processes or machines and merge at a
	// coordinator.
	Sink = analyze.Sink
	// ColumnSink is the optional block-granular fold beside Sink.Add: one
	// AddColumns call folds a whole evaluated block, byte-identical to the
	// row-by-row reduction. Every built-in sink implements it.
	ColumnSink = analyze.ColumnSink
	// MultiSink fans one streamed pass over an ordered set of sinks and is
	// itself a Sink, so a whole characterization snapshots as one unit.
	MultiSink = analyze.MultiSink
	// ComponentCDFSink folds per-class component-fraction CDF sketches
	// (Fig. 8b-d) in fixed memory.
	ComponentCDFSink = analyze.ComponentCDFSink
	// HardwareCDFSink folds hardware-fraction CDF sketches (Fig. 8a) in
	// fixed memory.
	HardwareCDFSink = analyze.HardwareCDFSink
	// ProjectionSink folds the PS -> AllReduce projection summary (Fig. 9)
	// during the streamed pass.
	ProjectionSink = analyze.ProjectionSink
	// SweepSink folds the Fig. 11 hardware-evolution sweep for one class
	// during the streamed pass.
	SweepSink = analyze.SweepSink
	// ComponentCDFs is one Fig. 8(b-d) panel of fraction sketches.
	ComponentCDFs = analyze.ComponentCDFs
	// HardwareCDFs is the Fig. 8(a) panel of fraction sketches.
	HardwareCDFs = analyze.HardwareCDFs
	// ProjectionSummaryAccumulator is the mergeable, serializable streaming
	// form of ProjectionSummary.
	ProjectionSummaryAccumulator = project.SummaryAccumulator

	// Sketch is a fixed-memory mergeable quantile sketch: the streaming
	// substitute for an exact CDF (exact at q=0/1, interior error bounded
	// by one bin).
	Sketch = stats.Sketch
	// Distribution is the read surface shared by exact CDFs and sketches.
	Distribution = stats.Distribution

	// CacheStats snapshots the WithCache / WithCacheBytes result cache:
	// hit/miss/eviction counters, residency, capacity, and the measured
	// entry footprint driving byte-budget sizing.
	CacheStats = evalcache.Stats

	// MicroShardAssignment is one work-stealing range assignment: evaluate
	// the contiguous cell span [Lo, Hi) of a Cells-wide partition grid and
	// emit one snapshot per cell, in cell order.
	MicroShardAssignment = coord.RangeAssignment
	// MicroShardOptions tunes a work-stealing run: per-cell progress
	// deadline (stalled tails are re-split and stolen), per-cell attempt
	// budget, span cap, provenance base, fold-base factory.
	MicroShardOptions = coord.DynamicOptions
	// MicroShardStats reports what the work-stealing scheduler did: workers
	// admitted, range assignments sent, cells stolen from stragglers, range
	// re-splits.
	MicroShardStats = coord.DynamicStats
	// MicroShardRunner evaluates one range assignment on the worker side,
	// emitting each cell's sink the moment it is folded.
	MicroShardRunner = coord.RangeRunner

	// ReplayStats is the scalar fleet summary of one discrete-event cluster
	// replay (Engine.Replay / Engine.ReplayInto): capacity, admission and
	// completion counts, makespan, utilization, queueing aggregates.
	ReplayStats = replay.Result
	// ReplayOutcome is one job's scheduling outcome: the evaluated record
	// plus arrival/start/finish times, allocation, and the admission
	// decision.
	ReplayOutcome = replay.Outcome
	// ReplayOutcomeSink is the fleet-level fold surface: sinks implementing
	// it receive full scheduling outcomes from a replay instead of plain
	// Add(Features, Times) calls.
	ReplayOutcomeSink = replay.OutcomeSink
	// ReplayCounterSink tallies admissions, completions, rejections,
	// stragglers, GPU-seconds and waiting time, in total and per class.
	ReplayCounterSink = replay.CounterSink
	// ReplayCounters is one population's admission/completion tally.
	ReplayCounters = replay.Counters
	// QueueDelaySink folds per-class queue-delay CDF sketches from a replay.
	QueueDelaySink = replay.QueueDelaySink
	// UtilizationSink folds a windowed GPU-occupancy timeline from a replay.
	UtilizationSink = replay.UtilizationSink

	// BuildInfo identifies one build of this module, derived from the
	// metadata the Go toolchain stamps into every binary. All cmd/* binaries
	// print it under -version and paiserve serves it at /version.
	BuildInfo = version.Info
)

// ErrNoArrivals reports a replayed trace without arrival stamps: every
// record's arrival_sec is zero or absent. Regenerate the trace with
// `tracegen -rate R`, or opt into a batch replay with WithReplayUnstamped;
// test with errors.Is.
var ErrNoArrivals = replay.ErrNoArrivals

// ErrUnsortedArrivals reports a replayed trace whose arrival stamps are not
// in nondecreasing order; test with errors.Is.
var ErrUnsortedArrivals = replay.ErrUnsortedArrivals

// NewReplayCounterSink returns an empty admission/completion counter sink.
func NewReplayCounterSink() *ReplayCounterSink { return replay.NewCounterSink() }

// NewQueueDelaySink returns an empty per-class queue-delay CDF sink.
func NewQueueDelaySink() *QueueDelaySink { return replay.NewQueueDelaySink() }

// NewUtilizationSink returns an empty windowed GPU-occupancy timeline sink:
// windowSec <= 0 selects the one-hour default; capacityGPUs normalizes
// occupancy into utilization (0 records the timeline without normalizing).
func NewUtilizationSink(windowSec float64, capacityGPUs int) (*UtilizationSink, error) {
	return replay.NewUtilizationSink(windowSec, capacityGPUs)
}

// Workload classes (Table II + PEARL).
const (
	OneWorkerOneGPU  = workload.OneWorkerOneGPU
	OneWorkerNGPU    = workload.OneWorkerNGPU
	PSWorker         = workload.PSWorker
	AllReduceLocal   = workload.AllReduceLocal
	AllReduceCluster = workload.AllReduceCluster
	PEARL            = workload.PEARL
)

// Breakdown components (figure legends).
const (
	CompDataIO       = core.CompDataIO
	CompWeights      = core.CompWeights
	CompComputeFLOPs = core.CompComputeFLOPs
	CompComputeMem   = core.CompComputeMem
)

// Hardware attribution targets (Fig. 8a legend).
const (
	HWGPUFLOPs  = core.HWGPUFLOPs
	HWGPUMemory = core.HWGPUMemory
	HWPCIe      = core.HWPCIe
	HWEthernet  = core.HWEthernet
	HWNVLink    = core.HWNVLink
)

// Aggregation levels.
const (
	JobLevel   = analyze.JobLevel
	CNodeLevel = analyze.CNodeLevel
)

// Overlap modes.
const (
	OverlapNone    = core.OverlapNone
	OverlapIdeal   = core.OverlapIdeal
	OverlapPartial = core.OverlapPartial
)

// Components lists the four breakdown components in figure-legend order.
func Components() []Component { return core.Components() }

// HardwareComponents lists the hardware attribution targets in Fig. 8a
// order.
func HardwareComponents() []HardwareComponent { return core.HardwareComponents() }

// Projection targets.
const (
	ToAllReduceLocal   = project.ToAllReduceLocal
	ToAllReduceCluster = project.ToAllReduceCluster
)

// BaselineConfig returns the Table I trace-cluster configuration.
func BaselineConfig() Config { return hw.Baseline() }

// TestbedConfig returns the Sec. IV case-study testbed configuration
// (V100 servers).
func TestbedConfig() Config { return hw.Testbed() }

// DefaultEfficiency returns the paper's blanket 70% assumption.
func DefaultEfficiency() Efficiency { return workload.DefaultEfficiency() }

// DefaultTraceParams returns trace-generation parameters calibrated to the
// paper's published aggregates.
func DefaultTraceParams() TraceParams { return tracegen.Default() }

// GenerateTrace produces a deterministic synthetic cluster trace,
// materialized in memory. For traces too large to hold, stream jobs from
// NewTraceSource instead; both sample identically for the same parameters.
func GenerateTrace(p TraceParams) (*Trace, error) { return tracegen.Generate(p) }

// NewTraceSource returns a streaming generator over p.NumJobs synthetic
// jobs, for feeding Engine.EvaluateSource without materializing the trace.
func NewTraceSource(p TraceParams) (*TraceSource, error) { return tracegen.NewSource(p) }

// NewSliceJobSource adapts an in-memory job slice to the JobSource
// interface, for feeding Engine.EvaluateSource or one shard of
// Engine.EvaluateSources.
func NewSliceJobSource(jobs []Features) JobSource { return stream.NewSliceSource(jobs) }

// ReadTrace loads a whole-document JSON trace into memory.
func ReadTrace(r io.Reader) (*Trace, error) { return tracegen.ReadJSON(r) }

// ReadTraceNDJSON slurps an NDJSON trace into memory. To stream instead,
// use Engine.EvaluateStream or NewTraceDecoder.
func ReadTraceNDJSON(r io.Reader) (*Trace, error) { return tracegen.ReadNDJSON(r) }

// NewTraceDecoder returns an incremental NDJSON trace decoder; decode
// errors carry the 1-based line number of the offending record.
func NewTraceDecoder(r io.Reader) *TraceDecoder { return tracegen.NewDecoder(r) }

// NewTraceEncoder returns a buffered NDJSON trace encoder; call Flush when
// done and check its error.
func NewTraceEncoder(w io.Writer) *TraceEncoder { return tracegen.NewEncoder(w) }

// TraceFormatAuto is the format name that selects a trace codec by sniffing
// the input's leading bytes (reading only; it is not a writable format).
const TraceFormatAuto = tracegen.FormatAuto

// TraceFormats lists the registered trace codec names, sorted ("colbin",
// "json", "ndjson").
func TraceFormats() []string { return tracegen.FormatNames() }

// SniffTraceFormat identifies the registered codec claiming r's leading
// bytes, without committing to a source — for callers that pick a
// processing path by format (say, streaming versus materializing). The
// returned reader replays the sniffed bytes; hand it, not r, to ReadTrace
// or OpenTraceSource.
func SniffTraceFormat(r io.Reader) (format string, replay io.Reader, err error) {
	f, replay, err := tracegen.SniffFormat(r)
	if err != nil {
		return "", nil, err
	}
	return f.Name(), replay, nil
}

// OpenTraceSource opens a job source over r using the named trace codec;
// "auto" (or empty) sniffs the stream's leading bytes. The returned source
// feeds Engine.EvaluateSource directly, and columnar input automatically
// rides the block-granular fast path there.
func OpenTraceSource(r io.Reader, format string) (JobSource, error) {
	src, err := tracegen.OpenSource(r, format)
	if err != nil {
		return nil, err
	}
	return src, nil
}

// NewTraceWriter returns a record writer encoding to w in the named trace
// codec; call Flush when done and check its error.
func NewTraceWriter(w io.Writer, format string) (TraceWriter, error) {
	return tracegen.NewFormatWriter(w, format)
}

// NewTraceWriterBlockRecords is NewTraceWriter with an explicit block
// granularity for block-structured codecs: blockRecords <= 0 keeps the
// codec's default; a positive value on a codec without tunable blocks (say
// ndjson) is an error.
func NewTraceWriterBlockRecords(w io.Writer, format string, blockRecords int) (TraceWriter, error) {
	return tracegen.NewFormatWriterBlockRecords(w, format, blockRecords)
}

// NewColumnReader returns a columnar (colbin) trace reader over r. It
// serves both calling conventions: NextBlock for Engine.EvaluateColumns and
// record-at-a-time Next for any JobSource consumer.
func NewColumnReader(r io.Reader) *ColumnReader { return colbin.NewReader(r) }

// NewColumnWriter returns a columnar (colbin) trace writer over w; call
// Flush when done and check its error.
func NewColumnWriter(w io.Writer) *ColumnWriter { return colbin.NewWriter(w) }

// NewColumnWriterBlockRecords is NewColumnWriter with an explicit block
// granularity (records per block, clamped to the codec's valid range).
func NewColumnWriterBlockRecords(w io.Writer, blockRecords int) *ColumnWriter {
	return colbin.NewWriterBlockRecords(w, blockRecords)
}

// ErrNoColumnIndex reports a colbin file without a usable block index —
// written before the index footer existed, written with
// ColumnWriter.OmitIndex, or carrying a footer that fails validation.
// Callers fall back to the sequential scan (NewColumnReader); test with
// errors.Is.
var ErrNoColumnIndex = colbin.ErrNoIndex

// ErrTruncatedTrace reports a colbin file that ends in the middle of a
// frame — a truncated copy or interrupted write, as opposed to the clean
// io.EOF a complete stream ends with. The error message carries the
// 1-based block position of the cut; test with errors.Is.
var ErrTruncatedTrace = colbin.ErrTruncatedTrace

// DefaultGrainRecords is the default micro-shard grain of the partition
// grid (records per cell): small enough that a skewed file still splits
// into many cells for stealing and large enough that per-cell sink-merge
// overhead stays negligible.
const DefaultGrainRecords = 1 << 16

// NewIndexedColumnReader opens a colbin file of the given size for seekable
// block-range reads — the input of Engine.EvaluateIndexedColumns and the
// distributed micro-shard fold. It fails with ErrNoColumnIndex when the
// file carries no usable index; callers degrade to NewColumnReader's
// sequential scan. The ReaderAt must support concurrent ReadAt calls
// (os.File and bytes.Reader do).
func NewIndexedColumnReader(ra io.ReaderAt, size int64) (*ColumnIndexedReader, error) {
	return colbin.NewIndexedReader(ra, size)
}

// ReadColumnIndex reads and validates just the block index of a colbin
// file, without constructing range readers — for planners that only need
// the partition grid or the per-block arrival-time bounds.
func ReadColumnIndex(ra io.ReaderAt, size int64) (*ColumnIndex, error) {
	return colbin.ReadIndex(ra, size)
}

// NewBreakdownAccumulator returns an empty streaming aggregate accumulator.
func NewBreakdownAccumulator() *BreakdownAccumulator { return analyze.NewBreakdownAccumulator() }

// NewMultiSink bundles sinks for a single streamed pass; order matters for
// Merge and snapshots.
func NewMultiSink(sinks ...Sink) *MultiSink { return analyze.NewMultiSink(sinks...) }

// NewComponentCDFSink returns an empty per-class component-fraction CDF
// sink (Fig. 8b-d, sketched).
func NewComponentCDFSink() *ComponentCDFSink { return analyze.NewComponentCDFSink() }

// NewHardwareCDFSink returns an empty hardware-fraction CDF sink (Fig. 8a,
// sketched).
func NewHardwareCDFSink() *HardwareCDFSink { return analyze.NewHardwareCDFSink() }

// WriteSinkSnapshot frames one sink's versioned binary snapshot into w —
// the worker side of multi-process evaluation. Identical sink state always
// produces identical bytes.
func WriteSinkSnapshot(w io.Writer, s Sink) error { return analyze.WriteSnapshot(w, s) }

// WriteSinkSnapshotMeta is WriteSinkSnapshot with a provenance string
// (trace seed, shard grid, backend, ...) the coordinator can check before
// merging, so shards of different runs refuse to fold together.
func WriteSinkSnapshotMeta(w io.Writer, s Sink, meta string) error {
	return analyze.WriteSnapshotMeta(w, s, meta)
}

// ReadSinkSnapshot reads one framed sink snapshot, reconstructing the sink
// from its registered kind and verifying the payload checksum — the
// coordinator side of multi-process evaluation. Restored projection and
// sweep sinks are merge/report-only.
func ReadSinkSnapshot(r io.Reader) (Sink, error) { return analyze.ReadSnapshot(r) }

// ReadSinkSnapshotMeta is ReadSinkSnapshot plus the provenance string the
// snapshot was written with.
func ReadSinkSnapshotMeta(r io.Reader) (Sink, string, error) {
	return analyze.ReadSnapshotMeta(r)
}

// SinkKinds lists the registered sink kinds, sorted.
func SinkKinds() []string { return analyze.SinkKinds() }

// ShardSnapshotMeta appends the " shard-index=K" provenance field to a
// run-identifying base string — the convention coordinators use for
// at-most-once folding and deterministic fold order.
func ShardSnapshotMeta(base string, index int) string { return analyze.ShardMeta(base, index) }

// SnapshotShardIndex parses the shard index out of a snapshot's provenance
// string; ok is false when the string carries no well-formed trailing
// shard-index field.
func SnapshotShardIndex(meta string) (index int, ok bool) { return analyze.MetaShardIndex(meta) }

// SnapshotMetaBase strips the trailing shard-index field, returning the
// run-identifying part every shard of one run must share.
func SnapshotMetaBase(meta string) string { return analyze.MetaBase(meta) }

// CoordinateMicroShards runs the network coordinator standalone: workers
// that connect to ln pull contiguous cell ranges of a cells-wide partition
// grid carrying payload, sized by their advertised throughput and halved
// against the pending backlog; a worker that dies or stalls past the
// per-cell deadline has its in-flight tail re-split and requeued for other
// workers to steal. Per-cell snapshots fold in cell order, so the merged
// sink is byte-identical to the single-process run over the same grid
// (Engine.EvaluateIndexedColumns for a trace's cells, EvaluateSourcesInto
// for N shards as N cells) no matter how cells were distributed, stolen, or
// retried. It returns the merged sink, per-cell job counts, and scheduler
// statistics. Engine.EvaluateDistributed wraps it with engine-built local
// workers; `paibench -coordinate` drives it directly.
func CoordinateMicroShards(ctx context.Context, ln net.Listener, cells int, payload []byte, opts MicroShardOptions) (Sink, []int, MicroShardStats, error) {
	return coord.RunDynamic(ctx, ln, cells, payload, opts)
}

// ServeMicroShardWorker dials a coordinator and serves range assignments
// with run until the run completes — the worker half of
// CoordinateMicroShards for callers that interpret assignment payloads
// themselves (`paibench -worker` does; library users with a configured
// Engine can use Engine.DistributedWorker instead). hint advertises this
// worker's expected jobs/sec throughput for capacity-weighted range sizing
// (0 = unknown).
func ServeMicroShardWorker(ctx context.Context, addr string, hint float64, run MicroShardRunner) error {
	return coord.WorkDynamic(ctx, addr, hint, run)
}

// Version reads the running binary's build metadata (module path, version,
// VCS revision, toolchain). It never fails; unstamped builds report what the
// toolchain recorded.
func Version() BuildInfo { return version.Get() }

// CaseStudies returns the six production case-study models (Tables IV-VI).
func CaseStudies() map[string]CaseStudy { return workload.Zoo() }

// CaseStudyNames lists the case studies in Table IV order.
func CaseStudyNames() []string { return workload.ZooNames() }

// LookupCaseStudy returns one case study by name.
func LookupCaseStudy(name string) (CaseStudy, error) { return workload.Lookup(name) }

// SummarizeProjection aggregates projection results the way Fig. 9 reports
// them.
func SummarizeProjection(rs []ProjectionResult) (ProjectionSummary, error) {
	return project.Summarize(rs)
}

// Constitute computes the Fig. 5 workload composition of a trace.
func Constitute(jobs []Features) (Constitution, error) { return analyze.Constitute(jobs) }

// FilterClass returns the jobs of one class.
func FilterClass(jobs []Features, class Class) []Features { return analyze.Filter(jobs, class) }

// NewExperimentSuite builds the full experiment suite over a freshly
// generated trace (numJobs <= 0 uses the calibrated default size).
func NewExperimentSuite(numJobs int) (*ExperimentSuite, error) {
	return experiments.NewSuite(numJobs)
}

// NewExperimentSuiteFromTrace wraps an existing trace.
func NewExperimentSuiteFromTrace(cfg Config, tr *Trace) (*ExperimentSuite, error) {
	return experiments.NewSuiteFromTrace(cfg, tr)
}

// NewExperimentSuiteWithBackend wraps an existing trace with a named
// registered evaluation backend and worker-pool cap (<= 0 uses GOMAXPROCS).
func NewExperimentSuiteWithBackend(cfg Config, tr *Trace, backendName string, parallelism int) (*ExperimentSuite, error) {
	return experiments.NewSuiteWithBackend(cfg, tr, backendName, parallelism)
}

// ExperimentIDs lists the regenerable artifacts in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// ExtensionIDs lists the beyond-the-paper extension experiments (resource
// savings, partial-overlap sweep, memory eligibility).
func ExtensionIDs() []string { return experiments.ExtensionIDs() }
