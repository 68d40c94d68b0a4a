// Command paibench measures the streaming evaluation pipeline end to end:
// it generates a parameterized synthetic trace (10k to millions of jobs),
// streams it through a registered evaluation backend without ever
// materializing it, and emits a machine-readable result JSON — throughput,
// allocation rates, peak heap, cache effectiveness, per-shard throughput,
// NDJSON codec speed, and the aggregate fidelity of the streamed trace
// against the paper's Fig. 5 / Sec. III-D headline statistics.
//
// Usage:
//
//	paibench [-jobs N] [-seed S] [-backend name] [-par N] [-shards N]
//	         [-cache N] [-cache-bytes N] [-distinct N] [-codec] [-full]
//	         [-o result.json]
//	paibench -trace FILE [-format auto|json|ndjson|colbin] [flags]
//	paibench -trace FILE -par-file N [-microshard G] [flags]
//	paibench -trace FILE -replay [-policy P] [-servers N] [-queue-limit Q]
//	         [-straggler-frac F] [-straggler-mult M] [-replay-steps S]
//	         [-replay-snapshot FILE] [flags]
//	paibench -emit-shard shard.snap -shards M -shard-index K [flags]
//	paibench -merge [-o result.json] shard0.snap shard1.snap ...
//	paibench -coordinate ADDR [-workers N] [-chaos N] [-shard-timeout D]
//	         [-retries N] [flags]
//	paibench -coordinate ADDR -trace FILE [-workers N] [-slow N]
//	         [-slow-delay D] [-microshard G] [-shard-timeout D] [flags]
//	paibench -worker HOST:PORT [-hint JOBS_PER_SEC] [-slow-delay D]
//	         [-fail-after N]
//
// With -shards N the trace is split into N generator partitions drained
// concurrently by independent worker sets into per-shard accumulators and
// folded with the exact merge (Engine.EvaluateSourcesInto). Multi-shard mode
// models the production fast path, where traces are heavily repetitive —
// the same feature records recur thousands of times (the motivation for
// content-keyed result caching) — so it defaults to a repetitive trace
// (-distinct 4096) with the result cache on (-cache 16384). Single-shard
// mode defaults to the cold path: every job distinct, no cache — the
// configuration the golden baseline gates. Every default is overridable:
// -distinct 0 forces a fully distinct trace, -cache 0 disables the cache
// in any mode. -cache-bytes swaps the entry budget for an adaptive byte
// budget (entry count derived from the measured entry footprint).
//
// Distributed evaluation splits one logical run across OS processes:
// a worker invoked with -emit-shard evaluates exactly one of the M
// partitions (-shard-index K of -shards M) through the full report sink —
// breakdown aggregates, CDF sketches, projection summary — and writes its
// versioned binary snapshot to a file instead of a result JSON. A
// coordinator invoked with -merge folds any number of snapshot files —
// sorted by the shard index carried in each snapshot's provenance, so
// argument order cannot change the output bytes — into the final result
// JSON. Because per-shard folds and the shard-index merge order are
// deterministic, the merged snapshot is byte-identical to a single-process
// -shards M run over the same parameters (compare with benchdiff
// -fidelity-only).
//
// Networked coordination replaces the snapshot files with TCP:
// `-coordinate ADDR` listens and serves the M shards as a grid of M cells
// (cell i is shard i) to every connected worker over the work-stealing
// protocol described under -coordinate -trace below: workers pull
// contiguous cell ranges, stream one snapshot per cell back over the
// connection, and the coordinator folds them exactly like -merge.
// `-workers N` spawns N local worker processes for the zero-config
// single-machine path; `-worker HOST:PORT` connects out from any machine and
// serves either payload kind. A worker that dies mid-range (or makes no
// progress for -shard-timeout) has its un-received cells requeued to
// another worker, up to -retries attempts per cell; provenance carried in
// every snapshot guards the fold against duplicates and foreign runs, so
// the retried merged result is still byte-identical to the single-process
// -shards M -full run. -chaos N gives the first N spawned workers
// -fail-after, which hard-exits the worker (exit 137, the kill -9 status)
// once it has folded that many jobs, before it sends the cell; they start
// alone and the other workers only once they have exited, so each dies
// holding cells — the failure-injection smoke CI runs on every push.
//
// -full runs the same full report sink in a single process, adding the
// cdf/projection sections to the result JSON; the timing gates of CI use
// the default breakdown-only sink, so -full numbers are not comparable to
// the golden baseline.
//
// With -trace FILE a recorded trace is evaluated instead of a generated
// one; the file's codec is sniffed (or forced with -format), and a columnar
// (colbin) trace automatically takes the block-granular evaluation path —
// with sink output byte-identical to the same records decoded from NDJSON,
// which is what the convert→evaluate CI smoke pins with benchdiff
// -fidelity-only.
//
// -par-file N decodes an index-bearing colbin -trace with N concurrent
// segment readers: the file's block index is partitioned into micro-shard
// cells of -microshard records (rounded to block boundaries), each cell
// folds into its own sink, and the per-cell sinks merge in cell order.
// Because the grid is a pure function of the file and the grain, the
// merged snapshot is byte-identical for every N — compare -par-file 1
// against -par-file 4 with benchdiff -fidelity-only. A file written
// without the index footer falls back to the sequential scan with a
// stderr note. The result carries jobs_per_sec_parallel_file (also
// measured on a fixed sample in generated-trace runs, which is what the
// golden baseline gates).
//
// -coordinate ADDR -trace FILE distributes the same partition grid over
// the same range workers (-worker HOST:PORT): the coordinator hands each
// worker a contiguous cell range sized by its advertised
// -hint throughput (even split when any worker abstains), workers stream
// one snapshot per cell back as it completes, and a worker that makes no
// progress for -shard-timeout has its unfinished tail re-split and
// reassigned to faster workers. At-most-once folding plus cell-order
// merge keep the final result byte-identical to the single-process
// -trace -par-file run at the same -microshard grain, no matter how
// cells were distributed, stolen, or retried. -slow N makes N spawned
// workers deliberate stragglers (sleeping -slow-delay before every cell
// after their first) — the steal-injection smoke CI runs; the result
// JSON reports micro_shards, micro_shard_assignments, stolen_cells,
// resplits and coord_workers.
//
// -replay switches from infinite-capacity evaluation to discrete-event
// cluster replay: the -trace stream is scheduled onto -servers servers under
// a scheduling policy (-policy, default fifo), per-job occupancy comes from
// the engine's backend, and the result JSON gains a replay section (admission
// counters, makespan, utilization, queue-delay quantiles) that benchdiff
// -smoke gates. -replay-snapshot additionally writes the merged fleet-sink
// snapshot; because the replay event loop is deterministic, two runs over the
// same trace and parameters produce byte-identical snapshot files at any
// -par (the replay smoke CI compares them with cmp).
//
// With -codec the jobs additionally round-trip through the NDJSON
// encoder/decoder over an in-process pipe (one pipe per shard), measuring
// the full decode→shard→evaluate→fold path a recorded trace would take.
// Independently of -codec, every run reports decode-only codec speed,
// measured on in-memory samples after the pipeline finishes so they cannot
// disturb the heap statistics: the legacy codec_ns_per_record /
// codec_records_per_sec fields (NDJSON, cfg-shaped sample, what the golden
// baseline has always gated) plus the per-format codecs section (every
// codec on one shared repetitive sample) and its gated top-level mirror
// colbin_records_per_sec.
//
// The result JSON doubles as the golden baseline for CI regression gating:
// BENCH_BASELINE.json at the repository root is a checked-in paibench
// result, and cmd/benchdiff fails the build when a run regresses against
// it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	pai "repro"
	"repro/internal/report"
	"repro/internal/version"
)

// Result is the machine-readable paibench output (schema "paibench/1";
// fields are strictly additive so older baselines stay comparable).
type Result struct {
	Schema  string `json:"schema"`
	Jobs    int    `json:"jobs"`
	Seed    int64  `json:"seed"`
	Backend string `json:"backend"`
	Workers int    `json:"workers"`
	Codec   bool   `json:"codec"`

	// Shards is the number of generator partitions drained concurrently;
	// DistinctJobs is the number of distinct feature records across the
	// whole trace (0 = every job distinct).
	Shards       int `json:"shards"`
	DistinctJobs int `json:"distinct_jobs"`

	ElapsedSec float64 `json:"elapsed_sec"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	// JobsPerSecColumns is the columnar end-to-end figure: the shared
	// repetitive colbin sample streamed through StreamColumnsInto (block
	// decode → block evaluation → columnar sink fold) with the result cache
	// on, snapshot-pinned byte-identical to record streaming. Gated
	// one-sided by benchdiff.
	JobsPerSecColumns float64 `json:"jobs_per_sec_columns,omitempty"`
	// JobsPerSecParallelFile is the file-parallel decode figure: the shared
	// repetitive colbin sample evaluated through the seekable block index
	// with 4 concurrent segment readers (Engine.EvaluateIndexedColumns),
	// snapshot-pinned byte-identical to the one-consumer grid fold every
	// pass. Gated one-sided by benchdiff. A -trace run with -par-file
	// reports the real file's figure here instead.
	JobsPerSecParallelFile float64 `json:"jobs_per_sec_parallel_file,omitempty"`
	// ShardJobsPerSec is each partition's delivered jobs over the wall
	// clock of the whole run.
	ShardJobsPerSec []float64 `json:"shard_jobs_per_sec,omitempty"`

	// Result-cache effectiveness (zero when the cache is off).
	CacheEntries int     `json:"cache_entries"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Rotation/eviction churn and byte-budget telemetry (WithCacheBytes).
	CacheRotations     uint64  `json:"cache_rotations,omitempty"`
	CacheEvictions     uint64  `json:"cache_evictions,omitempty"`
	CacheTargetBytes   int64   `json:"cache_target_bytes,omitempty"`
	CacheAvgEntryBytes float64 `json:"cache_avg_entry_bytes,omitempty"`
	// Block-granular cache effectiveness on the column path (zero when the
	// cache is off or the run never streams blocks).
	CacheBlockHits   uint64 `json:"cache_block_hits,omitempty"`
	CacheBlockMisses uint64 `json:"cache_block_misses,omitempty"`
	// Block hits answered by a colbin frame's key without decoding it
	// (each also counts in cache_block_hits).
	CacheFrameHits uint64 `json:"cache_frame_hits,omitempty"`

	AllocsPerJob  float64 `json:"allocs_per_job"`
	BytesPerJob   float64 `json:"bytes_per_job"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`

	// Decode-only speed of the NDJSON codec, measured on an in-memory
	// sample outside the pipeline's heap-sampling window. Kept for baseline
	// continuity; the per-format Codecs section is the unambiguous report.
	CodecNsPerRecord   float64 `json:"codec_ns_per_record"`
	CodecRecordsPerSec float64 `json:"codec_records_per_sec"`

	// Codecs maps trace-format name -> decode-only stats, every format
	// measured on the same repetitive in-memory sample (the production
	// shape): ndjson record-at-a-time, colbin whole-block ingest.
	Codecs map[string]CodecStats `json:"codecs,omitempty"`
	// ColbinRecordsPerSec mirrors Codecs["colbin"].RecordsPerSec at top
	// level — the columnar ingest floor CI gates (benchdiff -assert).
	ColbinRecordsPerSec float64 `json:"colbin_records_per_sec,omitempty"`

	// TraceFile/TraceFormat identify a recorded trace evaluated with -trace
	// (instead of the generated synthetic trace).
	TraceFile   string `json:"trace_file,omitempty"`
	TraceFormat string `json:"trace_format,omitempty"`

	// Work-stealing scheduler statistics (populated by -coordinate): cell
	// grid size, range assignments sent, cells stolen from stragglers past
	// the per-cell deadline, range re-splits, and workers admitted.
	MicroShards           int `json:"micro_shards,omitempty"`
	MicroShardAssignments int `json:"micro_shard_assignments,omitempty"`
	StolenCells           int `json:"stolen_cells,omitempty"`
	Resplits              int `json:"resplits,omitempty"`
	CoordWorkers          int `json:"coord_workers,omitempty"`

	Fidelity report.Fidelity `json:"fidelity"`

	// CDF and Projection report the sketch-backed sections; populated only
	// under -full and -merge, where the full report sink runs.
	CDF        *report.CDFSection  `json:"cdf,omitempty"`
	Projection *report.ProjSection `json:"projection,omitempty"`

	// Replay reports the discrete-event cluster replay (-replay): the -trace
	// stream scheduled onto a finite GPU inventory instead of evaluated at
	// infinite capacity.
	Replay *ReplaySection `json:"replay,omitempty"`

	Note string `json:"note,omitempty"`
}

// CodecStats is one trace codec's decode-only speed.
type CodecStats struct {
	NsPerRecord   float64 `json:"ns_per_record"`
	RecordsPerSec float64 `json:"records_per_sec"`
}

// ReplaySection is the fleet-level summary of one -replay run: admission
// and completion counters, the schedule's makespan against the arrival
// horizon, aggregate and peak-window GPU utilization, and queue-delay
// quantiles from the per-class CDF sink — the numbers the replay smoke CI
// asserts with benchdiff -smoke.
type ReplaySection struct {
	Policy     string `json:"policy"`
	Servers    int    `json:"servers"`
	GPUs       int    `json:"gpus"`
	Submitted  int    `json:"submitted"`
	Completed  int    `json:"completed"`
	Rejected   int    `json:"rejected"`
	Stragglers int    `json:"stragglers"`

	MakespanSec float64 `json:"makespan_sec"`
	HorizonSec  float64 `json:"horizon_sec"`
	GPUSeconds  float64 `json:"gpu_seconds"`
	// Utilization is GPUSeconds / (GPUs x Makespan); PeakWindowUtilization
	// is the busiest utilization-sink window.
	Utilization           float64 `json:"utilization"`
	PeakWindowUtilization float64 `json:"peak_window_utilization"`

	MeanQueueDelaySec float64 `json:"mean_queue_delay_sec"`
	QueueDelayP50     float64 `json:"queue_delay_p50"`
	QueueDelayP99     float64 `json:"queue_delay_p99"`
	MaxQueueDepth     int     `json:"max_queue_depth"`
}

// Multi-shard defaults: a production-shaped repetitive trace small enough
// that its distinct set fits the default cache with room to spare.
const (
	autoDistinct     = 4096
	autoCacheEntries = 16384
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "paibench:", err)
		os.Exit(1)
	}
}

// config is the fully resolved benchmark parameterization.
type config struct {
	jobs        int
	seed        int64
	shards      int
	shardIndex  int // -1 = all partitions in this process
	distinct    int
	cache       int
	cacheBytes  int64
	par         int
	backendName string
	codec       bool
	full        bool
	// tracePath/traceFormat: evaluate a recorded trace file instead of the
	// generated synthetic trace (single-shard only).
	tracePath   string
	traceFormat string
	// parFile > 0 decodes an index-bearing colbin -trace with that many
	// concurrent segment readers over the deterministic partition grid;
	// grain is the grid's cell size in records (-microshard).
	parFile int
	grain   int
}

// newEngine builds the evaluation engine a resolved config describes; the
// one construction path run(), worker mode and coordinate mode share, so a
// worker reconstitutes exactly the engine the coordinator parameterized.
func newEngine(cfg config) (*pai.Engine, error) {
	opts := []pai.Option{pai.WithBackend(cfg.backendName)}
	if cfg.par > 0 {
		opts = append(opts, pai.WithParallelism(cfg.par))
	}
	switch {
	case cfg.cacheBytes > 0:
		opts = append(opts, pai.WithCacheBytes(cfg.cacheBytes))
	case cfg.cache > 0:
		opts = append(opts, pai.WithCache(cfg.cache))
	}
	return pai.New(opts...)
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("paibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jobs := fs.Int("jobs", 100000, "trace size to stream (10k-1M+)")
	seed := fs.Int64("seed", 1, "trace generation seed")
	backendName := fs.String("backend", "analytical",
		"evaluation backend ("+strings.Join(pai.Backends(), ", ")+")")
	par := fs.Int("par", 0, "evaluation worker-pool size (0 = all CPUs, runtime.NumCPU)")
	shards := fs.Int("shards", 1, "generator partitions drained concurrently (multi-trace sharding; 0 = all CPUs, runtime.NumCPU)")
	shardIndex := fs.Int("shard-index", -1,
		"evaluate only this partition of the -shards grid (worker mode; requires -emit-shard)")
	distinct := fs.Int("distinct", -1,
		"distinct feature records across the trace; later jobs are exact resubmissions (-1 = auto: 0 for -shards 1, 4096 otherwise; 0 = all distinct)")
	cacheEntries := fs.Int("cache", -1,
		"result-cache entry budget (-1 = auto: 0 for -shards 1, 16384 otherwise; 0 = off)")
	cacheBytes := fs.Int64("cache-bytes", 0,
		"result-cache byte budget; entry budget adapts to the measured entry footprint (overrides -cache; 0 = off)")
	codec := fs.Bool("codec", false, "round-trip jobs through the NDJSON codec over a pipe (one per shard)")
	tracePath := fs.String("trace", "",
		"evaluate this recorded trace file instead of generating (single shard; -jobs/-seed/-distinct ignored)")
	traceFormat := fs.String("format", pai.TraceFormatAuto,
		fmt.Sprintf("with -trace: the file's format, one of %v or %q to sniff", pai.TraceFormats(), pai.TraceFormatAuto))
	parFile := fs.Int("par-file", 0,
		"with a colbin -trace: decode the file with this many concurrent segment readers over its block index (0 = off; a file without an index falls back to sequential decode); the merged sink is byte-identical to one reader")
	microshard := fs.Int("microshard", pai.DefaultGrainRecords,
		"partition-grid cell size in records for -par-file and -coordinate -trace (a cell never splits a block)")
	full := fs.Bool("full", false, "stream through the full report sink (breakdowns + CDF sketches + projection) and emit the cdf/projection sections")
	replayMode := fs.Bool("replay", false,
		"discrete-event cluster replay: schedule the -trace stream onto a finite GPU inventory and report the fleet-level replay section instead of the streaming benchmark")
	policy := fs.String("policy", "",
		"with -replay: scheduling policy ("+strings.Join(pai.SchedulerPolicies(), ", ")+"; default fifo)")
	servers := fs.Int("servers", pai.DefaultReplayServers,
		"with -replay: cluster capacity in servers (GPUs = servers x the config's GPUs per server)")
	queueLimit := fs.Int("queue-limit", 0,
		"with -replay: reject arrivals while the pending queue holds this many jobs (0 = unbounded)")
	stragglerFrac := fs.Float64("straggler-frac", 0,
		"with -replay: fraction of jobs sampled (deterministically in -seed) as stragglers")
	stragglerMult := fs.Float64("straggler-mult", 2,
		"with -replay -straggler-frac: occupancy multiplier (>= 1) applied to sampled stragglers")
	replaySteps := fs.Int("replay-steps", 1,
		"with -replay: steps every job runs for (occupancy = steps x modeled step time)")
	replaySnapshot := fs.String("replay-snapshot", "",
		"with -replay: write the merged fleet-sink snapshot (counters + queue-delay CDFs + utilization timeline) to this file; byte-identical across runs and -par values")
	emitShard := fs.String("emit-shard", "",
		"worker mode: write this process's full-sink snapshot to the given file instead of a result JSON")
	merge := fs.Bool("merge", false,
		"coordinator mode: merge the snapshot files given as positional arguments into the final result JSON")
	coordinate := fs.String("coordinate", "",
		"network coordinator mode: listen on this address (e.g. :7070 or 127.0.0.1:0), hand shards to connected workers, and fold their snapshots into the final result JSON")
	workers := fs.Int("workers", 0,
		"with -coordinate: local worker processes to spawn (0 = wait for external -worker connections)")
	chaos := fs.Int("chaos", 0,
		"with -coordinate -workers: give this many spawned workers -fail-after, so they die mid-shard (failure-injection smoke)")
	workerAddr := fs.String("worker", "",
		"network worker mode: connect to a coordinator at HOST:PORT and evaluate assigned cell ranges until the run completes")
	hint := fs.Float64("hint", 0,
		"with -worker: advertised jobs/sec throughput for capacity-weighted range sizing (0 = unknown, even split)")
	slow := fs.Int("slow", 0,
		"with -coordinate -trace -workers: make this many spawned workers deliberate stragglers (-slow-delay before every cell after their first), so their in-flight ranges are stolen (steal-injection smoke)")
	slowDelay := fs.Duration("slow-delay", 0,
		"with -worker: sleep this long before every cell after the process's first (deliberate straggler); with -coordinate -trace, the delay handed to -slow workers (default 2s)")
	failAfter := fs.Int("fail-after", 0,
		"with -worker: hard-exit (code 137, like kill -9) once this many jobs of an assignment are folded, before their cell is sent; with -coordinate, the value handed to -chaos workers (default 500)")
	shardTimeout := fs.Duration("shard-timeout", 2*time.Minute,
		"with -coordinate: per-cell progress deadline before a worker's in-flight tail is re-split and requeued to other workers (0 = none)")
	retries := fs.Int("retries", 3,
		"with -coordinate: per-cell assignment budget, first attempt included")
	out := fs.String("o", "", "result JSON file (default stdout)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write an end-of-run heap profile to this file")
	showVersion := fs.Bool("version", false, "print build/version information and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.Get())
		return nil
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "paibench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // profile live objects, not transients
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "paibench: -memprofile:", err)
			}
		}()
	}
	modes := 0
	for _, on := range []bool{*merge, *emitShard != "", *coordinate != "", *workerAddr != "", *replayMode} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-merge, -emit-shard, -coordinate, -worker and -replay are mutually exclusive")
	}
	if *workerAddr != "" {
		if fs.NArg() > 0 {
			return fmt.Errorf("unexpected arguments %q in worker mode", fs.Args())
		}
		return runWorkerMode(*workerAddr, *hint, *slowDelay, *failAfter, stderr)
	}
	if *merge {
		return runMerge(fs.Args(), *seed, *out, stdout, stderr)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (snapshot files need -merge)", fs.Args())
	}
	if *jobs < 1 {
		return fmt.Errorf("-jobs must be positive, got %d", *jobs)
	}
	// 0 means "use every CPU" for the process-level concurrency knobs, so
	// scripts can say "saturate this machine" without probing its shape.
	if *par == 0 {
		*par = runtime.NumCPU()
	}
	if *shards == 0 {
		*shards = runtime.NumCPU()
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be positive, got %d", *shards)
	}
	if *shards > *jobs {
		return fmt.Errorf("-shards %d exceeds -jobs %d", *shards, *jobs)
	}
	if *parFile < 0 {
		return fmt.Errorf("-par-file must be non-negative, got %d", *parFile)
	}
	if *parFile > 0 && *tracePath == "" {
		return fmt.Errorf("-par-file decodes a recorded file; it requires a colbin -trace")
	}
	if *microshard < 1 {
		return fmt.Errorf("-microshard must be positive, got %d", *microshard)
	}
	if *shardIndex >= 0 && *emitShard == "" {
		return fmt.Errorf("-shard-index is worker mode; it requires -emit-shard")
	}
	if *shardIndex >= *shards {
		return fmt.Errorf("-shard-index %d out of range for -shards %d", *shardIndex, *shards)
	}
	if *tracePath != "" {
		if *shards > 1 || *shardIndex >= 0 || *emitShard != "" || *codec {
			return fmt.Errorf("-trace evaluates one recorded file; it excludes -shards, -emit-shard and -codec")
		}
	}
	if *replayMode {
		if *tracePath == "" {
			return fmt.Errorf("-replay schedules a recorded submission stream; it requires -trace")
		}
		if *parFile > 0 || *full {
			return fmt.Errorf("-replay has its own fleet sinks; it excludes -par-file and -full")
		}
	} else {
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "policy", "servers", "queue-limit", "straggler-frac",
				"straggler-mult", "replay-steps", "replay-snapshot":
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return fmt.Errorf("%s require(s) -replay", strings.Join(stray, ", "))
		}
	}
	cfg := config{
		jobs: *jobs, seed: *seed, shards: *shards, shardIndex: *shardIndex,
		distinct: *distinct, cache: *cacheEntries, cacheBytes: *cacheBytes,
		par: *par, backendName: *backendName,
		codec: *codec, full: *full || *emitShard != "",
		tracePath: *tracePath, traceFormat: *traceFormat,
		parFile: *parFile, grain: *microshard,
	}
	if cfg.distinct < 0 {
		if cfg.shards > 1 {
			cfg.distinct = autoDistinct
		} else {
			cfg.distinct = 0
		}
	}
	if cfg.cache < 0 {
		if cfg.shards > 1 {
			cfg.cache = autoCacheEntries
		} else {
			cfg.cache = 0
		}
	}
	if cfg.distinct > cfg.jobs {
		cfg.distinct = 0 // a distinct budget beyond the trace is no repetition at all
	}

	if *coordinate != "" {
		if *workers < 0 || *chaos < 0 || *chaos > *workers {
			return fmt.Errorf("-chaos %d must be between 0 and -workers %d", *chaos, *workers)
		}
		if *retries < 1 {
			return fmt.Errorf("-retries %d: every cell needs at least one attempt", *retries)
		}
		co := coordOpts{addr: *coordinate, workers: *workers, timeout: *shardTimeout, retries: *retries}
		if cfg.tracePath != "" {
			if *slow < 0 || *slow > *workers {
				return fmt.Errorf("-slow %d must be between 0 and -workers %d", *slow, *workers)
			}
			if *chaos > 0 {
				return fmt.Errorf("-chaos is generator-partition failure injection; -coordinate -trace uses -slow")
			}
			co.slow, co.slowDelay = *slow, *slowDelay
			if co.slow > 0 && co.slowDelay <= 0 {
				co.slowDelay = defaultSlowDelay
			}
		} else {
			if *slow > 0 {
				return fmt.Errorf("-slow injects stragglers into trace cells; it requires -coordinate -trace")
			}
			co.chaos, co.failAfter = *chaos, *failAfter
			if co.failAfter <= 0 {
				co.failAfter = defaultChaosFailAfter
			}
		}
		return runCoordinate(cfg, co, *out, stdout, stderr)
	}
	if *slow > 0 {
		return fmt.Errorf("-slow requires -coordinate -trace")
	}

	eng, err := newEngine(cfg)
	if err != nil {
		return err
	}

	if *emitShard != "" {
		return runEmitShard(eng, cfg, *emitShard, stderr)
	}

	if *replayMode {
		return runReplay(eng, cfg, replayParams{
			policy: *policy, servers: *servers, queueLimit: *queueLimit,
			stragglerFrac: *stragglerFrac, stragglerMult: *stragglerMult,
			steps: *replaySteps, snapshotPath: *replaySnapshot,
		}, *out, stdout, stderr)
	}

	res, err := measure(eng, cfg, stderr)
	if err != nil {
		return err
	}
	res.Backend = eng.Backend()
	res.Workers = eng.Parallelism()

	// Decode-only codec benchmarks, after the pipeline so the sample buffers
	// never show up in the pipeline's peak-heap measurement.
	res.CodecNsPerRecord, res.CodecRecordsPerSec, err = benchCodec(cfg)
	if err != nil {
		return err
	}
	var cbSample []byte
	res.Codecs, cbSample, err = benchCodecs(cfg)
	if err != nil {
		return err
	}
	res.ColbinRecordsPerSec = res.Codecs["colbin"].RecordsPerSec
	var colStats pai.CacheStats
	res.JobsPerSecColumns, colStats, err = benchColumns(cfg, cbSample)
	if err != nil {
		return err
	}
	if cfg.tracePath == "" {
		// The sample-based figure feeds the baseline gate; a -trace -par-file
		// run already reported the real file's figure from measure().
		res.JobsPerSecParallelFile, err = benchParallelFile(cfg, cbSample)
		if err != nil {
			return err
		}
	}

	if err := writeResult(res, *out, stdout); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "paibench: %d jobs in %.2fs — %.0f jobs/sec (%d shard(s)), %.1f allocs/job, peak heap %.1f MiB, cache hit rate %.1f%%, codec %.0f ns/record, columnar %.0f jobs/sec (block cache %d/%d, %d by frame)\n",
		res.Jobs, res.ElapsedSec, res.JobsPerSec, res.Shards, res.AllocsPerJob,
		float64(res.PeakHeapBytes)/(1<<20), res.CacheHitRate*100, res.CodecNsPerRecord,
		res.JobsPerSecColumns, colStats.BlockHits, colStats.BlockHits+colStats.BlockMisses, colStats.FrameHits)
	return nil
}

// replayParams is the -replay parameterization: the scheduling policy,
// the cluster inventory, admission control, and straggler injection.
type replayParams struct {
	policy        string
	servers       int
	queueLimit    int
	stragglerFrac float64
	stragglerMult float64
	steps         int
	snapshotPath  string
}

// runReplay is -replay mode: stream the recorded -trace through the
// discrete-event replay engine against a finite cluster, emit a result JSON
// whose replay section carries the fleet-level summary, and optionally write
// the merged fleet-sink snapshot for byte-identity checks. Replay is
// deterministic — the same trace and parameters produce byte-identical
// snapshots at any -par.
func runReplay(eng *pai.Engine, cfg config, rp replayParams, out string, stdout, stderr io.Writer) error {
	f, err := os.Open(cfg.tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	src, err := pai.OpenTraceSource(f, cfg.traceFormat)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.tracePath, err)
	}

	opts := []pai.ReplayOption{
		pai.WithReplayServers(rp.servers),
		pai.WithReplayStragglerSeed(cfg.seed),
	}
	if rp.policy != "" {
		opts = append(opts, pai.WithReplayPolicy(rp.policy))
	}
	if rp.queueLimit > 0 {
		opts = append(opts, pai.WithReplayQueueLimit(rp.queueLimit))
	}
	if rp.stragglerFrac > 0 {
		opts = append(opts, pai.WithReplayStragglers(rp.stragglerFrac, rp.stragglerMult))
	}
	if rp.steps > 1 {
		opts = append(opts, pai.WithReplaySteps(rp.steps))
	}

	start := time.Now()
	rr, err := eng.Replay(context.Background(), src, opts...)
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()

	st := rr.Stats
	sec := &ReplaySection{
		Policy:                st.Policy,
		Servers:               st.Servers,
		GPUs:                  st.GPUs,
		Submitted:             st.Submitted,
		Completed:             st.Completed,
		Rejected:              st.Rejected,
		Stragglers:            st.Stragglers,
		MakespanSec:           st.Makespan,
		HorizonSec:            st.Horizon,
		GPUSeconds:            st.GPUSeconds,
		Utilization:           st.Utilization,
		PeakWindowUtilization: rr.Utilization.Peak(),
		MeanQueueDelaySec:     st.MeanQueueDelay(),
		MaxQueueDepth:         st.MaxQueueDepth,
	}
	if ov := rr.QueueDelay.Overall(); ov.Weight() > 0 {
		sec.QueueDelayP50 = ov.Quantile(0.50)
		sec.QueueDelayP99 = ov.Quantile(0.99)
	}

	if rp.snapshotPath != "" {
		sf, err := os.Create(rp.snapshotPath)
		if err != nil {
			return err
		}
		meta := fmt.Sprintf("replay policy=%s servers=%d seed=%d trace=%s",
			st.Policy, st.Servers, cfg.seed, cfg.tracePath)
		if err := pai.WriteSinkSnapshotMeta(sf, rr.Sinks, meta); err != nil {
			sf.Close()
			return fmt.Errorf("-replay-snapshot: %w", err)
		}
		if err := sf.Close(); err != nil {
			return err
		}
	}

	res := &Result{
		Schema:      "paibench/1",
		Jobs:        st.Submitted,
		Seed:        cfg.seed,
		Backend:     eng.Backend(),
		Workers:     eng.Parallelism(),
		Shards:      1,
		ElapsedSec:  elapsed,
		JobsPerSec:  float64(st.Submitted) / elapsed,
		TraceFile:   cfg.tracePath,
		TraceFormat: cfg.traceFormat,
		Replay:      sec,
	}
	if err := writeResult(res, out, stdout); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "paibench: replayed %d jobs on %d servers (%d GPUs, policy %s) in %.2fs — %d completed, %d rejected, %d stragglers, makespan %.0fs, utilization %.1f%%, mean wait %.1fs\n",
		st.Submitted, st.Servers, st.GPUs, st.Policy, elapsed,
		st.Completed, st.Rejected, st.Stragglers, st.Makespan,
		st.Utilization*100, st.MeanQueueDelay())
	return nil
}

// writeResult emits the result JSON to the -o file or stdout.
func writeResult(res *Result, out string, stdout io.Writer) error {
	w := stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(res)
}

// shardParams splits the trace across cfg.shards generator partitions:
// partition k gets an even slice of the job and distinct budgets and its
// own seed, so partitions are diverse across shards and repetitive within
// one — the shape of production multi-trace workloads.
func shardParams(cfg config) []pai.TraceParams {
	ps := make([]pai.TraceParams, cfg.shards)
	for k := range ps {
		p := pai.DefaultTraceParams()
		p.Seed = cfg.seed + int64(k)
		p.NumJobs = cfg.jobs / cfg.shards
		if k < cfg.jobs%cfg.shards {
			p.NumJobs++
		}
		if cfg.distinct > 0 {
			p.DistinctJobs = cfg.distinct / cfg.shards
			if k < cfg.distinct%cfg.shards {
				p.DistinctJobs++
			}
			if p.DistinctJobs < 1 {
				p.DistinctJobs = 1
			}
		}
		ps[k] = p
	}
	return ps
}

// measure streams the parameterized trace through the engine, sampling the
// heap as it goes, and assembles the result.
func measure(eng *pai.Engine, cfg config, stderr io.Writer) (*Result, error) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	// Sample peak live heap while the pipeline runs: with O(workers)
	// memory the peak is flat in the job count.
	peak := newPeakSampler(5 * time.Millisecond)

	start := time.Now()
	sink, counts, fileParallel, err := stream(eng, cfg, stderr)
	elapsed := time.Since(start)
	peak.stop()
	if err != nil {
		return nil, err
	}
	n := 0
	for _, c := range counts {
		n += c
	}
	if cfg.tracePath == "" && n != cfg.jobs {
		return nil, fmt.Errorf("streamed %d of %d jobs", n, cfg.jobs)
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	res := &Result{
		Schema:        "paibench/1",
		Jobs:          n,
		Seed:          cfg.seed,
		Codec:         cfg.codec,
		Shards:        cfg.shards,
		DistinctJobs:  cfg.distinct,
		ElapsedSec:    elapsed.Seconds(),
		JobsPerSec:    float64(n) / elapsed.Seconds(),
		AllocsPerJob:  float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerJob:   float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		PeakHeapBytes: peak.max(),
	}
	if cfg.tracePath != "" {
		res.TraceFile = cfg.tracePath
		res.TraceFormat = cfg.traceFormat
	}
	if fileParallel {
		// The main evaluation was the indexed grid decode with cfg.parFile
		// segment readers; mirror it into the field benchdiff gates.
		res.JobsPerSecParallelFile = res.JobsPerSec
	}
	if cfg.shards > 1 {
		res.ShardJobsPerSec = make([]float64, len(counts))
		for i, c := range counts {
			res.ShardJobsPerSec[i] = float64(c) / elapsed.Seconds()
		}
	}
	st := eng.CacheStats()
	res.CacheEntries = cfg.cache
	res.CacheHits = st.Hits
	res.CacheMisses = st.Misses
	res.CacheHitRate = st.HitRate()
	res.CacheRotations = st.Rotations
	res.CacheEvictions = st.Evictions
	res.CacheTargetBytes = st.TargetBytes
	res.CacheAvgEntryBytes = st.AvgEntryBytes
	res.CacheBlockHits = st.BlockHits
	res.CacheBlockMisses = st.BlockMisses
	res.CacheFrameHits = st.FrameHits
	if _, err := fillSections(res, sink); err != nil {
		return nil, err
	}
	return res, nil
}

// sinkFactory returns the per-shard sink builder: the full report sink
// (breakdowns + CDF sketches + projection) under -full/-emit-shard, the
// breakdown accumulator alone on the timing-gated default path.
func sinkFactory(eng *pai.Engine, cfg config) func() (pai.Sink, error) {
	if cfg.full {
		return func() (pai.Sink, error) { return eng.NewReportSink(pai.ToAllReduceLocal) }
	}
	return func() (pai.Sink, error) { return pai.NewBreakdownAccumulator(), nil }
}

// stream drains the shard partitions through the engine — directly, or each
// through the NDJSON codec over its own in-process pipe — into the merged
// sink, returning per-shard delivered counts. Worker mode (shardIndex >= 0)
// evaluates exactly one partition of the same grid, so per-process runs
// compose into the identical merged state. fileParallel reports whether the
// indexed file-parallel path actually ran (-par-file on an index-bearing
// colbin trace, no fallback).
func stream(eng *pai.Engine, cfg config, stderr io.Writer) (sink pai.Sink, counts []int, fileParallel bool, err error) {
	if cfg.tracePath != "" {
		// Recorded-trace mode: one source straight off the file. A columnar
		// trace automatically rides the block-granular fast path inside the
		// pipeline; the sink bytes are identical either way.
		f, err := os.Open(cfg.tracePath)
		if err != nil {
			return nil, nil, false, err
		}
		defer f.Close()
		if cfg.parFile > 0 {
			// File-parallel mode: serve disjoint segments of the block index
			// to cfg.parFile concurrent readers. A file written without the
			// index falls back to the sequential scan below, as the format
			// promises.
			st, err := f.Stat()
			if err != nil {
				return nil, nil, false, err
			}
			ir, err := pai.NewIndexedColumnReader(f, st.Size())
			switch {
			case err == nil:
				sink, counts, err := eng.EvaluateIndexedColumns(context.Background(), ir, cfg.grain, cfg.parFile, sinkFactory(eng, cfg))
				return sink, counts, true, err
			case errors.Is(err, pai.ErrNoColumnIndex):
				fmt.Fprintf(stderr, "paibench: %s carries no block index; -par-file %d falls back to sequential decode\n", cfg.tracePath, cfg.parFile)
			default:
				return nil, nil, false, fmt.Errorf("-par-file: %w", err)
			}
		}
		src, err := pai.OpenTraceSource(f, cfg.traceFormat)
		if err != nil {
			return nil, nil, false, err
		}
		sink, counts, err := eng.EvaluateSourcesInto(context.Background(), sinkFactory(eng, cfg), src)
		return sink, counts, false, err
	}
	params := shardParams(cfg)
	if cfg.shardIndex >= 0 {
		params = params[cfg.shardIndex : cfg.shardIndex+1]
	}
	srcs := make([]pai.JobSource, len(params))
	var cleanup []func()
	defer func() {
		for _, f := range cleanup {
			f()
		}
	}()
	for i, p := range params {
		src, err := pai.NewTraceSource(p)
		if err != nil {
			return nil, nil, false, err
		}
		if !cfg.codec {
			srcs[i] = src
			continue
		}
		// Codec mode: generator → NDJSON encoder → pipe → streaming
		// decoder. The pipe bounds in-flight bytes, so memory stays
		// O(workers) here too.
		pr, pw := io.Pipe()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			enc := pai.NewTraceEncoder(pw)
			for {
				f, err := src.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					pw.CloseWithError(err)
					return
				}
				if err := enc.Encode(f); err != nil {
					pw.CloseWithError(err)
					return
				}
			}
			pw.CloseWithError(enc.Flush())
		}()
		srcs[i] = pai.NewTraceDecoder(pr)
		cleanup = append(cleanup, func() {
			pr.Close()
			wg.Wait()
		})
	}
	fsink, fcounts, ferr := eng.EvaluateSourcesInto(context.Background(), sinkFactory(eng, cfg), srcs...)
	if ferr != nil {
		return nil, fcounts, false, ferr
	}
	return fsink, fcounts, false, nil
}

// breakdownOf extracts the breakdown accumulator from a sink (directly or
// out of a MultiSink).
func breakdownOf(sink pai.Sink) (*pai.BreakdownAccumulator, error) {
	switch s := sink.(type) {
	case *pai.BreakdownAccumulator:
		return s, nil
	case *pai.MultiSink:
		for _, inner := range s.Sinks() {
			if acc, ok := inner.(*pai.BreakdownAccumulator); ok {
				return acc, nil
			}
		}
	}
	return nil, fmt.Errorf("sink %q carries no breakdown accumulator", sink.Kind())
}

// shardMetaBase renders the run-identifying provenance base: everything
// that changes the evaluated jobs or their breakdowns. Every shard of one
// run must share it; the shard index is the one field allowed to differ.
func shardMetaBase(cfg config) string {
	return fmt.Sprintf("paibench jobs=%d seed=%d shards=%d distinct=%d backend=%s",
		cfg.jobs, cfg.seed, cfg.shards, cfg.distinct, cfg.backendName)
}

// shardMeta is the full per-shard provenance string: the base plus this
// process's shard index.
func shardMeta(cfg config) string {
	return pai.ShardSnapshotMeta(shardMetaBase(cfg), cfg.shardIndex)
}

// runEmitShard is worker mode: evaluate this process's partition(s) through
// the full report sink and write the framed snapshot, stamped with the run
// parameters so the coordinator can refuse foreign shards.
func runEmitShard(eng *pai.Engine, cfg config, path string, stderr io.Writer) error {
	start := time.Now()
	sink, counts, _, err := stream(eng, cfg, stderr)
	if err != nil {
		return err
	}
	n := 0
	for _, c := range counts {
		n += c
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pai.WriteSinkSnapshotMeta(f, sink, shardMeta(cfg)); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	which := "all partitions"
	if cfg.shardIndex >= 0 {
		which = fmt.Sprintf("partition %d/%d", cfg.shardIndex, cfg.shards)
	}
	fmt.Fprintf(stderr, "paibench: emitted %s (%d jobs) to %s in %.2fs\n",
		which, n, path, time.Since(start).Seconds())
	return nil
}

// runMerge is coordinator mode: fold the shard snapshot files into the
// final result JSON. Snapshots are sorted by the shard index carried in
// their provenance before folding — argument order (and thus the order
// retried shards happened to be collected in) cannot change the output
// bytes. The merge is byte-for-byte the same reduction
// Engine.EvaluateSourcesInto applies in-process, so a single -shards M run
// and an M-process -emit-shard/-merge run agree exactly.
func runMerge(paths []string, seed int64, out string, stdout, stderr io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("-merge needs at least one snapshot file argument")
	}
	type shardSnap struct {
		path     string
		sink     pai.Sink
		index    int
		hasIndex bool
	}
	snaps := make([]shardSnap, 0, len(paths))
	seen := map[int]string{}
	var runMeta string
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sink, meta, err := pai.ReadSinkSnapshotMeta(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		// Refuse to fold shards of different runs: everything but the
		// shard index must agree. Snapshots without provenance (written
		// through the generic API) skip the check.
		if m := pai.SnapshotMetaBase(meta); m != "" {
			if i > 0 && runMeta != "" && m != runMeta {
				return fmt.Errorf("%s: shard from a different run (%q vs %q)", path, m, runMeta)
			}
			runMeta = m
		}
		idx, ok := pai.SnapshotShardIndex(meta)
		if ok {
			// At-most-once, like the network coordinator: folding one shard
			// twice (a copied or retried snapshot file) would silently
			// double-count its jobs in every aggregate.
			if prev, dup := seen[idx]; dup {
				return fmt.Errorf("%s: duplicate snapshot for already-included shard %d (first seen in %s)", path, idx, prev)
			}
			seen[idx] = path
		}
		snaps = append(snaps, shardSnap{path: path, sink: sink, index: idx, hasIndex: ok})
	}
	// Pin the fold order to the shard grid: indexed snapshots first, by
	// index; unindexed ones (generic API, whole-run snapshots) keep their
	// argument order after them.
	sort.SliceStable(snaps, func(i, j int) bool {
		a, b := snaps[i], snaps[j]
		if a.hasIndex != b.hasIndex {
			return a.hasIndex
		}
		return a.hasIndex && a.index < b.index
	})
	var total pai.Sink
	for _, s := range snaps {
		if total == nil {
			total = s.sink
			continue
		}
		if err := total.Merge(s.sink); err != nil {
			return fmt.Errorf("%s: %w", s.path, err)
		}
	}
	res := &Result{
		Seed:   seed,
		Shards: len(paths),
		Note:   fmt.Sprintf("merged from %d shard snapshot(s); timing fields not populated", len(paths)),
	}
	if err := finishFoldedResult(total, res, out, stdout); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "paibench: merged %d snapshot(s), %d jobs\n", len(paths), res.Jobs)
	return nil
}

// finishFoldedResult fills the deterministic sections a folded sink can
// provide — fidelity always, cdf/projection when it is a full report sink —
// and writes the result JSON: the shared tail of every coordinator mode
// (-merge and -coordinate), so the two emit the same schema by
// construction.
func finishFoldedResult(sink pai.Sink, res *Result, out string, stdout io.Writer) error {
	jobs, err := fillSections(res, sink)
	if err != nil {
		return err
	}
	res.Schema = "paibench/1"
	res.Jobs = jobs
	return writeResult(res, out, stdout)
}

// fillSections fills res's fidelity section from a folded sink, and its
// cdf/projection sections when the sink is a full report sink (-full,
// -merge), and returns the folded job count.
func fillSections(res *Result, sink pai.Sink) (int, error) {
	acc, err := breakdownOf(sink)
	if err != nil {
		return 0, err
	}
	fid, err := report.FidelityOf(acc)
	if err != nil {
		return 0, err
	}
	res.Fidelity = *fid
	if ms, ok := sink.(*pai.MultiSink); ok {
		if res.CDF, res.Projection, err = report.SketchSections(ms); err != nil {
			return 0, err
		}
	}
	return acc.N(), nil
}

// coordPayloadVersion tags the payload of a coordinated generator run,
// whose cell i is shard i; a worker picks its cell evaluator by this tag,
// and one from a different release refuses the run instead of silently
// evaluating the wrong parameterization.
const coordPayloadVersion = "paibench/coord/1"

// defaultChaosFailAfter is how many jobs a -chaos worker folds before
// dying, when -fail-after is not given: within its first cell for every
// CI-sized trace.
const defaultChaosFailAfter = 500

// encodePayload renders the full run parameterization a worker needs to
// reconstitute the coordinator's engine and trace grid.
func encodePayload(cfg config) []byte {
	return []byte(fmt.Sprintf("%s jobs=%d seed=%d shards=%d distinct=%d cache=%d cache-bytes=%d par=%d codec=%t backend=%s",
		coordPayloadVersion, cfg.jobs, cfg.seed, cfg.shards, cfg.distinct,
		cfg.cache, cfg.cacheBytes, cfg.par, cfg.codec, cfg.backendName))
}

// parsePayload is the worker-side inverse of encodePayload.
func parsePayload(p []byte) (config, error) {
	fields := strings.Fields(string(p))
	if len(fields) == 0 || fields[0] != coordPayloadVersion {
		return config{}, fmt.Errorf("assignment payload is not %q", coordPayloadVersion)
	}
	cfg := config{shardIndex: -1, full: true}
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return config{}, fmt.Errorf("malformed payload field %q", f)
		}
		var err error
		switch key {
		case "jobs":
			cfg.jobs, err = strconv.Atoi(val)
		case "seed":
			cfg.seed, err = strconv.ParseInt(val, 10, 64)
		case "shards":
			cfg.shards, err = strconv.Atoi(val)
		case "distinct":
			cfg.distinct, err = strconv.Atoi(val)
		case "cache":
			cfg.cache, err = strconv.Atoi(val)
		case "cache-bytes":
			cfg.cacheBytes, err = strconv.ParseInt(val, 10, 64)
		case "par":
			cfg.par, err = strconv.Atoi(val)
		case "codec":
			cfg.codec, err = strconv.ParseBool(val)
		case "backend":
			cfg.backendName = val
		default:
			return config{}, fmt.Errorf("unknown payload field %q", key)
		}
		if err != nil {
			return config{}, fmt.Errorf("payload field %q: %w", f, err)
		}
	}
	if cfg.jobs < 1 || cfg.shards < 1 || cfg.backendName == "" {
		return config{}, fmt.Errorf("payload %q names no runnable benchmark", p)
	}
	return cfg, nil
}

// syncWriter serializes writes from the coordinator's own logging and the
// spawned workers' piped stderr, which arrive from separate goroutines.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// coordTracePayloadVersion tags the payload of a coordinated indexed-trace
// run, whose cells are the trace's micro-shard grid; workers from a
// different release refuse the run.
const coordTracePayloadVersion = "paibench/coord-trace/1"

// defaultSlowDelay is the straggler injection handed to -slow workers when
// -slow-delay is not given: long enough to trip any CI-sized -shard-timeout.
const defaultSlowDelay = 2 * time.Second

// traceMetaBase is the run-identifying provenance base of a work-stealing
// trace run: everything that changes the partition grid or the per-cell
// folds. Every cell snapshot of one run must carry it.
func traceMetaBase(cfg config) string {
	return fmt.Sprintf("paibench trace=%s microshard=%d backend=%s",
		cfg.tracePath, cfg.grain, cfg.backendName)
}

// encodeTracePayload renders the work-stealing run description a range
// worker needs: the trace file, the grid grain, and the engine
// parameterization. Fields are space-separated key=value pairs, so the
// trace path must not contain spaces (the coordinator rejects one).
func encodeTracePayload(cfg config) []byte {
	return []byte(fmt.Sprintf("%s trace=%s microshard=%d cache=%d cache-bytes=%d par=%d backend=%s",
		coordTracePayloadVersion, cfg.tracePath, cfg.grain,
		cfg.cache, cfg.cacheBytes, cfg.par, cfg.backendName))
}

// parseTracePayload is the worker-side inverse of encodeTracePayload.
func parseTracePayload(p []byte) (config, error) {
	fields := strings.Fields(string(p))
	if len(fields) == 0 || fields[0] != coordTracePayloadVersion {
		return config{}, fmt.Errorf("range payload is not %q", coordTracePayloadVersion)
	}
	cfg := config{shardIndex: -1, shards: 1, full: true}
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return config{}, fmt.Errorf("malformed payload field %q", f)
		}
		var err error
		switch key {
		case "trace":
			cfg.tracePath = val
		case "microshard":
			cfg.grain, err = strconv.Atoi(val)
		case "cache":
			cfg.cache, err = strconv.Atoi(val)
		case "cache-bytes":
			cfg.cacheBytes, err = strconv.ParseInt(val, 10, 64)
		case "par":
			cfg.par, err = strconv.Atoi(val)
		case "backend":
			cfg.backendName = val
		default:
			return config{}, fmt.Errorf("unknown payload field %q", key)
		}
		if err != nil {
			return config{}, fmt.Errorf("payload field %q: %w", f, err)
		}
	}
	if cfg.tracePath == "" || cfg.grain < 1 || cfg.backendName == "" {
		return config{}, fmt.Errorf("payload %q names no runnable trace evaluation", p)
	}
	return cfg, nil
}

// openIndexedTrace opens an index-bearing colbin trace for grid evaluation.
// The caller closes the returned file after it is done with the reader.
func openIndexedTrace(path string) (*os.File, *pai.ColumnIndexedReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	ir, err := pai.NewIndexedColumnReader(f, st.Size())
	if err != nil {
		f.Close()
		if errors.Is(err, pai.ErrNoColumnIndex) {
			return nil, nil, fmt.Errorf("%s carries no block index (rewrite it with tracegen or convert to current colbin): %w", path, err)
		}
		return nil, nil, err
	}
	return f, ir, nil
}

// cellEval folds one cell of an assignment's grid into a fresh full report
// sink and returns it with its provenance string and job count.
type cellEval func(ctx context.Context, cell int) (sink pai.Sink, meta string, jobs int, err error)

// openCells reconstitutes the run an assignment's payload describes — a
// generator partition grid (paibench/coord/1, cell i is shard i) or an
// indexed trace's micro-shard grid (paibench/coord-trace/1) — checks that
// its grid matches the assignment, and returns the per-cell evaluator plus
// a release function.
func openCells(a pai.MicroShardAssignment, stderr io.Writer) (cellEval, func(), error) {
	var cfg config
	var err error
	switch version, _, _ := strings.Cut(string(a.Payload), " "); version {
	case coordPayloadVersion:
		cfg, err = parsePayload(a.Payload)
	case coordTracePayloadVersion:
		cfg, err = parseTracePayload(a.Payload)
	default:
		err = fmt.Errorf("assignment payload is neither %q nor %q", coordPayloadVersion, coordTracePayloadVersion)
	}
	if err != nil {
		return nil, nil, err
	}
	eng, err := newEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.tracePath == "" {
		if a.Cells != cfg.shards {
			return nil, nil, fmt.Errorf("assignment grid %d does not match payload shards %d", a.Cells, cfg.shards)
		}
		return func(ctx context.Context, cell int) (pai.Sink, string, int, error) {
			c := cfg
			c.shardIndex = cell
			sink, counts, _, err := stream(eng, c, stderr)
			if err != nil {
				return nil, "", 0, err
			}
			return sink, shardMeta(c), counts[0], nil
		}, func() {}, nil
	}
	f, ir, err := openIndexedTrace(cfg.tracePath)
	if err != nil {
		return nil, nil, err
	}
	cells := ir.Index().Partition(cfg.grain)
	if len(cells) != a.Cells {
		f.Close()
		return nil, nil, fmt.Errorf("%s yields a %d-cell grid at grain %d, assignment names %d", cfg.tracePath, len(cells), cfg.grain, a.Cells)
	}
	base := traceMetaBase(cfg)
	return func(ctx context.Context, cell int) (pai.Sink, string, int, error) {
		sink, err := eng.NewReportSink(pai.ToAllReduceLocal)
		if err != nil {
			return nil, "", 0, err
		}
		n, err := eng.StreamColumnsInto(ctx, ir.Range(cells[cell].Lo, cells[cell].Hi), sink)
		return sink, pai.ShardSnapshotMeta(base, cell), n, err
	}, func() { f.Close() }, nil
}

// runWorkerMode is network worker mode (-worker ADDR): connect, advertise
// the throughput hint, and for every assigned cell range reconstitute the
// run from the payload and fold each cell into its own full report sink,
// streaming one snapshot per cell back the moment it completes.
// slowDelay > 0 makes this worker a deliberate straggler: it sleeps that
// long before every cell after the process's first, so the coordinator's
// per-cell deadline steals its in-flight tail (the e2e steal smoke).
// failAfter > 0 is chaos injection: once that many jobs of an assignment
// are folded, the process exits 137 (the kill -9 status) before sending the
// cell — no snapshot, no goodbye, just a dead connection holding cells.
func runWorkerMode(addr string, hint float64, slowDelay time.Duration, failAfter int, stderr io.Writer) error {
	sawFirst := false
	runner := func(ctx context.Context, a pai.MicroShardAssignment, emit func(cell int, sink pai.Sink, meta string, jobs int) error) error {
		eval, release, err := openCells(a, stderr)
		if err != nil {
			return err
		}
		defer release()
		folded := 0
		for cell := a.Lo; cell < a.Hi; cell++ {
			if slowDelay > 0 && sawFirst {
				time.Sleep(slowDelay)
			}
			sawFirst = true
			start := time.Now()
			sink, meta, n, err := eval(ctx, cell)
			if err != nil {
				return err
			}
			if folded += n; failAfter > 0 && folded >= failAfter {
				os.Exit(137)
			}
			if err := emit(cell, sink, meta, n); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "paibench worker: cell %d/%d attempt %d: %d jobs in %.2fs\n",
				cell, a.Cells, a.Attempt, n, time.Since(start).Seconds())
		}
		return nil
	}
	fmt.Fprintf(stderr, "paibench: worker connecting to %s\n", addr)
	return pai.ServeMicroShardWorker(context.Background(), addr, hint, runner)
}

// coordOpts is the coordinator-mode flag set: where to listen, how many
// local workers to spawn (the first chaos of them with -fail-after
// failAfter, the first slow of them with -slow-delay slowDelay), the
// per-cell deadline and the per-cell attempt budget.
type coordOpts struct {
	addr                 string
	workers, chaos, slow int
	failAfter            int
	slowDelay, timeout   time.Duration
	retries              int
}

// spawnWorkers starts co.workers local worker processes dialing addr,
// appending each to cmds. The co.chaos chaos workers start alone and the
// rest only once they have exited, so every chaos worker is sure to pull
// cells and die holding them — the failure the -chaos smoke injects.
func spawnWorkers(addr string, co coordOpts, stderr io.Writer, cmds *[]*exec.Cmd) error {
	if co.workers == 0 {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	spawn := func(i int) error {
		wargs := []string{"-worker", addr}
		if i < co.chaos {
			wargs = append(wargs, "-fail-after", strconv.Itoa(co.failAfter))
		}
		if i < co.slow {
			wargs = append(wargs, "-slow-delay", co.slowDelay.String())
		}
		cmd := exec.Command(exe, wargs...)
		cmd.Stderr = stderr
		// The marker lets a test binary recognize it was re-executed as a
		// worker; the real paibench binary ignores it.
		cmd.Env = append(os.Environ(), "PAIBENCH_EXEC_WORKER=1")
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawn worker %d: %w", i, err)
		}
		*cmds = append(*cmds, cmd)
		return nil
	}
	for i := 0; i < co.chaos; i++ {
		if err := spawn(i); err != nil {
			return err
		}
	}
	for _, cmd := range *cmds {
		cmd.Wait() // exit 137 is the injected death, not an error
	}
	for i := co.chaos; i < co.workers; i++ {
		if err := spawn(i); err != nil {
			return err
		}
	}
	return nil
}

// runCoordinate is network coordinator mode: listen, optionally spawn local
// worker processes (the zero-config path), serve the run's cell grid — the
// cfg.shards generator partitions, or the micro-shard cells of an indexed
// -trace — fold the returned snapshots in cell order, retrying cells lost
// to worker death or stolen past the per-cell deadline, and emit the same
// full result JSON a -merge run (or a single-process -trace -par-file run)
// produces.
func runCoordinate(cfg config, co coordOpts, out string, stdout, stderr io.Writer) error {
	cells, payload, base := cfg.shards, encodePayload(cfg), shardMetaBase(cfg)
	what := fmt.Sprintf("%d shard(s)", cells)
	res := &Result{
		Seed:         cfg.seed,
		Backend:      cfg.backendName,
		Shards:       cfg.shards,
		DistinctJobs: cfg.distinct,
	}
	if cfg.tracePath != "" {
		if strings.ContainsAny(cfg.tracePath, " \t") {
			return fmt.Errorf("-coordinate -trace: path %q contains whitespace, which the payload encoding cannot carry", cfg.tracePath)
		}
		f, ir, err := openIndexedTrace(cfg.tracePath)
		if err != nil {
			return err
		}
		cells = len(ir.Index().Partition(cfg.grain))
		f.Close() // the coordinator folds snapshots; it never reads the trace body
		payload, base = encodeTracePayload(cfg), traceMetaBase(cfg)
		what = fmt.Sprintf("%d micro-shard(s) of %s", cells, cfg.tracePath)
		res.DistinctJobs = 0 // -distinct shapes generated traces only
		res.TraceFile, res.TraceFormat = cfg.tracePath, cfg.traceFormat
	}

	sw := &syncWriter{w: stderr}
	ln, err := net.Listen("tcp", co.addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(sw, "paibench: coordinating %s on %s (%d local worker(s), %d chaos, %d slow)\n",
		what, ln.Addr(), co.workers, co.chaos, co.slow)

	// The coordinator evaluates nothing itself, but folding through the
	// same report-sink factory the single-process run uses pins the fold
	// base to the expected sink shape.
	eng, err := newEngine(cfg)
	if err != nil {
		return err
	}
	opts := pai.MicroShardOptions{
		CellTimeout: co.timeout,
		MaxAttempts: co.retries,
		Provenance:  base,
		// Spawn-local workers must connect promptly, so arm the stall
		// detector from the start: if they all die before (or after)
		// dialing in, the run fails at -shard-timeout instead of hanging.
		ExpectWorkers: co.workers > 0,
		NewSink:       func() (pai.Sink, error) { return eng.NewReportSink(pai.ToAllReduceLocal) },
		Logf:          func(format string, args ...any) { fmt.Fprintf(sw, format+"\n", args...) },
	}
	type outcome struct {
		sink  pai.Sink
		stats pai.MicroShardStats
		err   error
	}
	start := time.Now()
	runDone := make(chan outcome, 1)
	go func() {
		sink, _, stats, err := pai.CoordinateMicroShards(context.Background(), ln, cells, payload, opts)
		runDone <- outcome{sink, stats, err}
	}()

	var cmds []*exec.Cmd
	defer func() {
		// Chaos workers are already dead (exit 137) and healthy ones exit
		// after the coordinator's done message or connection close; the
		// kill only sweeps up workers stranded by a coordinator error.
		for _, cmd := range cmds {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	if err := spawnWorkers(ln.Addr().String(), co, sw, &cmds); err != nil {
		ln.Close()
		<-runDone
		return err
	}
	r := <-runDone
	if r.err != nil {
		return r.err
	}
	stats := r.stats
	res.MicroShards = cells
	res.MicroShardAssignments = stats.Assignments
	res.StolenCells = stats.StolenCells
	res.Resplits = stats.Resplits
	res.CoordWorkers = stats.Workers
	res.Note = fmt.Sprintf("coordinated %s over TCP; timing fields not populated", what)
	if err := finishFoldedResult(r.sink, res, out, stdout); err != nil {
		return err
	}
	fmt.Fprintf(sw, "paibench: coordinated %s, %d jobs in %.2fs (%d assignment(s), %d stolen cell(s), %d re-split(s))\n",
		what, res.Jobs, time.Since(start).Seconds(), stats.Assignments, stats.StolenCells, stats.Resplits)
	return nil
}

// benchCodec measures decode-only NDJSON speed: a sample of the seed trace
// is encoded once into memory, then decoded repeatedly until enough time
// has elapsed for a stable ns/record figure.
func benchCodec(cfg config) (nsPerRecord, recordsPerSec float64, err error) {
	p := pai.DefaultTraceParams()
	p.Seed = cfg.seed
	p.NumJobs = cfg.jobs
	if p.NumJobs > 50000 {
		p.NumJobs = 50000
	}
	src, err := pai.NewTraceSource(p)
	if err != nil {
		return 0, 0, err
	}
	var buf bytes.Buffer
	enc := pai.NewTraceEncoder(&buf)
	for {
		f, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		if err := enc.Encode(f); err != nil {
			return 0, 0, err
		}
	}
	if err := enc.Flush(); err != nil {
		return 0, 0, err
	}

	const minDuration = 200 * time.Millisecond
	var records int
	start := time.Now()
	for time.Since(start) < minDuration {
		dec := pai.NewTraceDecoder(bytes.NewReader(buf.Bytes()))
		for {
			_, err := dec.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return 0, 0, err
			}
			records++
		}
	}
	elapsed := time.Since(start)
	if records == 0 {
		return 0, 0, fmt.Errorf("codec benchmark decoded no records")
	}
	nsPerRecord = float64(elapsed.Nanoseconds()) / float64(records)
	recordsPerSec = float64(records) / elapsed.Seconds()
	return nsPerRecord, recordsPerSec, nil
}

// benchCodecs measures each streaming codec's decode-only speed on one
// shared repetitive sample (the production trace shape the columnar format
// targets): NDJSON record-at-a-time, colbin block-at-a-time — each codec's
// natural ingest loop. Reported per format so the two are never conflated.
// The encoded colbin sample is returned for the end-to-end columnar
// benchmark to reuse, so both report on identical bytes.
func benchCodecs(cfg config) (map[string]CodecStats, []byte, error) {
	p := pai.DefaultTraceParams()
	p.Seed = cfg.seed
	// Fixed sample shape so the reported figure is comparable across runs
	// regardless of -jobs: production-repetitive (the paper's traces are
	// dominated by recurring jobs, so a block names a few hundred distinct
	// jobs — the shape the colbin per-block dictionary is built for).
	p.NumJobs = 50000
	p.DistinctJobs = 512
	src, err := pai.NewTraceSource(p)
	if err != nil {
		return nil, nil, err
	}
	var nd, cb bytes.Buffer
	ndw, err := pai.NewTraceWriter(&nd, "ndjson")
	if err != nil {
		return nil, nil, err
	}
	cbw, err := pai.NewTraceWriter(&cb, "colbin")
	if err != nil {
		return nil, nil, err
	}
	for {
		f, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if err := ndw.Write(f); err != nil {
			return nil, nil, err
		}
		if err := cbw.Write(f); err != nil {
			return nil, nil, err
		}
	}
	if err := ndw.Flush(); err != nil {
		return nil, nil, err
	}
	if err := cbw.Flush(); err != nil {
		return nil, nil, err
	}

	stats := map[string]CodecStats{}
	ndStats, err := timeDecode(func() (int, error) {
		dec := pai.NewTraceDecoder(bytes.NewReader(nd.Bytes()))
		n := 0
		for {
			if _, err := dec.Next(); err != nil {
				if errors.Is(err, io.EOF) {
					return n, nil
				}
				return n, err
			}
			n++
		}
	})
	if err != nil {
		return nil, nil, err
	}
	stats["ndjson"] = ndStats
	cbStats, err := timeDecode(func() (int, error) {
		r := pai.NewColumnReader(bytes.NewReader(cb.Bytes()))
		var c pai.Columns
		n := 0
		for {
			if err := r.NextBlock(&c); err != nil {
				if errors.Is(err, io.EOF) {
					return n, nil
				}
				return n, err
			}
			n += c.Len()
		}
	})
	if err != nil {
		return nil, nil, err
	}
	stats["colbin"] = cbStats
	return stats, cb.Bytes(), nil
}

// benchColumns measures the columnar end-to-end pipeline — colbin block
// decode → block evaluation → columnar sink fold — on the shared repetitive
// sample, with the result cache enabled so the block-granular cache engages
// on repeated blocks (the sample's 512-distinct cycle divides the block
// size, so identical blocks recur). Every timed pass folds a fresh breakdown
// accumulator whose snapshot is pinned byte-identical to the
// record-streaming path over the same bytes, so the reported figure can
// never drift from the scalar semantics.
func benchColumns(cfg config, sample []byte) (jobsPerSec float64, st pai.CacheStats, err error) {
	ecfg := cfg
	if ecfg.cacheBytes == 0 && ecfg.cache <= 0 {
		ecfg.cache = autoCacheEntries
	}
	ctx := context.Background()

	// Record-streaming oracle: same engine parameterization, per-record
	// delivery (the pre-columnar path).
	recEng, err := newEngine(ecfg)
	if err != nil {
		return 0, st, err
	}
	recSink := pai.NewBreakdownAccumulator()
	if _, err := recEng.EvaluateSource(ctx, pai.NewColumnReader(bytes.NewReader(sample)), func(r pai.StreamResult) error {
		return recSink.Add(r.Job, r.Times)
	}); err != nil {
		return 0, st, err
	}
	want, err := recSink.MarshalBinary()
	if err != nil {
		return 0, st, err
	}

	colEng, err := newEngine(ecfg)
	if err != nil {
		return 0, st, err
	}
	const minDuration = 200 * time.Millisecond
	records := 0
	start := time.Now()
	for records == 0 || time.Since(start) < minDuration {
		sink := pai.NewBreakdownAccumulator()
		n, err := colEng.StreamColumnsInto(ctx, pai.NewColumnReader(bytes.NewReader(sample)), sink)
		if err != nil {
			return 0, st, err
		}
		got, err := sink.MarshalBinary()
		if err != nil {
			return 0, st, err
		}
		if !bytes.Equal(got, want) {
			return 0, st, fmt.Errorf("columnar snapshot diverges from the record-streaming path")
		}
		records += n
	}
	elapsed := time.Since(start)
	return float64(records) / elapsed.Seconds(), colEng.CacheStats(), nil
}

// benchParallelFile measures the file-parallel decode path on the shared
// repetitive colbin sample: the seekable block index partitioned at
// one-block grain and served to 4 concurrent segment readers
// (Engine.EvaluateIndexedColumns). Every timed pass's snapshot is pinned
// bytes.Equal to the one-consumer grid fold over the same bytes, so the
// reported figure can never drift from the sequential semantics.
func benchParallelFile(cfg config, sample []byte) (float64, error) {
	const (
		// sampleGrain matches the colbin writer's default block size, so the
		// 50k-record sample yields enough cells to keep 4 readers busy.
		sampleGrain = 4096
		consumers   = 4
	)
	ecfg := cfg
	if ecfg.cacheBytes == 0 && ecfg.cache <= 0 {
		ecfg.cache = autoCacheEntries
	}
	ctx := context.Background()
	factory := func() (pai.Sink, error) { return pai.NewBreakdownAccumulator(), nil }

	seqEng, err := newEngine(ecfg)
	if err != nil {
		return 0, err
	}
	ir, err := pai.NewIndexedColumnReader(bytes.NewReader(sample), int64(len(sample)))
	if err != nil {
		return 0, err
	}
	seqSink, _, err := seqEng.EvaluateIndexedColumns(ctx, ir, sampleGrain, 1, factory)
	if err != nil {
		return 0, err
	}
	want, err := seqSink.MarshalBinary()
	if err != nil {
		return 0, err
	}

	parEng, err := newEngine(ecfg)
	if err != nil {
		return 0, err
	}
	const minDuration = 200 * time.Millisecond
	records := 0
	start := time.Now()
	for records == 0 || time.Since(start) < minDuration {
		sink, counts, err := parEng.EvaluateIndexedColumns(ctx, ir, sampleGrain, consumers, factory)
		if err != nil {
			return 0, err
		}
		got, err := sink.MarshalBinary()
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(got, want) {
			return 0, fmt.Errorf("parallel-file snapshot diverges from the one-consumer grid fold")
		}
		for _, c := range counts {
			records += c
		}
	}
	elapsed := time.Since(start)
	return float64(records) / elapsed.Seconds(), nil
}

// timeDecode runs one full-sample decode pass repeatedly until enough time
// has elapsed for a stable figure.
func timeDecode(pass func() (int, error)) (CodecStats, error) {
	const minDuration = 200 * time.Millisecond
	records := 0
	start := time.Now()
	for time.Since(start) < minDuration {
		n, err := pass()
		if err != nil {
			return CodecStats{}, err
		}
		records += n
	}
	elapsed := time.Since(start)
	if records == 0 {
		return CodecStats{}, fmt.Errorf("codec benchmark decoded no records")
	}
	return CodecStats{
		NsPerRecord:   float64(elapsed.Nanoseconds()) / float64(records),
		RecordsPerSec: float64(records) / elapsed.Seconds(),
	}, nil
}

// peakSampler polls the live heap on a fixed period until stopped.
type peakSampler struct {
	stopc chan struct{}
	donec chan struct{}
	peak  uint64
}

func newPeakSampler(period time.Duration) *peakSampler {
	s := &peakSampler{stopc: make(chan struct{}), donec: make(chan struct{})}
	go func() {
		defer close(s.donec)
		t := time.NewTicker(period)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > s.peak {
				s.peak = ms.HeapAlloc
			}
			select {
			case <-t.C:
			case <-s.stopc:
				return
			}
		}
	}()
	return s
}

func (s *peakSampler) stop() { close(s.stopc); <-s.donec }

// max reports the largest sampled live heap; valid after stop.
func (s *peakSampler) max() uint64 { return s.peak }
