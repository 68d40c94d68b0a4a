package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark workload: an input generator run in its own
// untimed process, and the measurement run in the measured process.
type workload struct {
	generate func(dir string, seed int64, seconds int) error
	run      func(ctx context.Context, dir string, o options, r *result) error
}

var workloads = map[string]workload{
	"report-colbin-repeat":   {generateColbinRepeat, runBatch(setupColbinRepeat)},
	"report-ndjson-distinct": {generateNDJSONDistinct, runBatch(setupNDJSONDistinct)},
	"replay-fifo-congested":  {generateReplay, runBatch(setupReplay)},
	"serve-late-uploads":     {generateServe, runServe},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// maxProcs caps the measured process at two threads, the smallest machine
// the benchmark targets, so results do not scale with the host's size.
const maxProcs = 2

// setupRepeats is how many times setup runs; setup_s is their median.
const setupRepeats = 3

// measure runs the workload in this process and writes its result to stdout.
func measure(w workload, o options) error {
	if runtime.NumCPU() > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	r := newResult()
	r.note("system %s", buildInfo())
	if err := w.run(context.Background(), o.dir, o, r); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// batchRun is one set-up instance of a batch workload.
type batchRun interface {
	// pass folds (or replays) the whole input once into fresh sinks and
	// returns the number of jobs.
	pass(ctx context.Context) (int, error)
	// snapshot returns the snapshot payload of the last pass's sinks.
	snapshot() ([]byte, error)
	// upload runs one small upload: a short input folded into fresh sinks.
	upload(ctx context.Context) error
	// report builds one report from the last pass's sinks: snapshot encode,
	// decode, and merge into fresh sinks.
	report() error
	// check verifies the outputs against another route through the system.
	check(ctx context.Context, r *result, passSnapshot []byte) error
	// markLayers starts the traced rounds; layers adds the workload's own
	// per-layer metrics for the rounds run since.
	markLayers()
	layers(r *result, rounds int)
}

// setupFunc builds a batch run: engine, opened input and sinks. The caller
// times it together with one warm-up pass.
type setupFunc func(dir string, tr *tracer) (batchRun, error)

// Each round of a batch workload is one timed pass followed by a burst of
// small uploads and reports, so every end-to-end metric is sampled
// throughout the run rather than in one phase of it.
const (
	uploadsPerRound = 40
	reportsPerRound = 15
)

// round is one pass plus its uploads and reports; it returns the pass's
// jobs/sec and appends the operation latencies. Each phase starts from a
// collected heap, as a Go benchmark does, so where garbage collection lands
// inside a phase does not depend on what the phase before left behind.
// With a tracer, each operation is recorded as a request span.
func round(ctx context.Context, b batchRun, tr *tracer, uploads, reports *[]float64) (float64, error) {
	op := func(name string, fn func() error) (time.Duration, error) {
		var req int64
		if tr != nil {
			req = tr.begin()
		}
		start := time.Now()
		err := fn()
		d := time.Since(start)
		if tr != nil {
			tr.span(name, req, start)
		}
		return d, err
	}
	var n int
	runtime.GC()
	d, err := op("pass", func() (err error) { n, err = b.pass(ctx); return err })
	if err != nil {
		return 0, err
	}
	jps := float64(n) / d.Seconds()
	runtime.GC()
	for i := 0; i < uploadsPerRound; i++ {
		d, err := op("upload", func() error { return b.upload(ctx) })
		if err != nil {
			return 0, err
		}
		*uploads = append(*uploads, ms(d))
	}
	runtime.GC()
	for i := 0; i < reportsPerRound; i++ {
		d, err := op("report", b.report)
		if err != nil {
			return 0, err
		}
		*reports = append(*reports, ms(d))
	}
	return jps, nil
}

// setupTimed builds a batch run and warms it with one pass, returning the
// set-up time.
func setupTimed(ctx context.Context, setup setupFunc, dir string, tr *tracer) (batchRun, float64, error) {
	start := time.Now()
	b, err := setup(dir, tr)
	if err != nil {
		return nil, 0, err
	}
	if _, err := b.pass(ctx); err != nil {
		return nil, 0, err
	}
	return b, time.Since(start).Seconds(), nil
}

// runBatch measures a batch workload. Untraced, it repeats set-up, then runs
// rounds until the time is up. Traced, it alternates untraced and traced
// rounds on two set-up instances, so the per-layer numbers and the tracing
// overhead come from the same stretch of time.
func runBatch(setup setupFunc) func(context.Context, string, options, *result) error {
	return func(ctx context.Context, dir string, o options, r *result) error {
		var (
			b                             batchRun
			setups, jps, uploads, reports []float64
		)
		for i := 0; i < setupRepeats; i++ {
			b = nil
			releaseMemory() // the previous instance does not count in this one's memory
			var s float64
			var err error
			if b, s, err = setupTimed(ctx, setup, dir, nil); err != nil {
				return err
			}
			setups = append(setups, s)
		}
		first, err := b.snapshot()
		if err != nil {
			return err
		}
		var traced batchRun
		var tr *tracer
		if o.trace {
			tr = newTracer()
			if traced, _, err = setupTimed(ctx, setup, dir, tr); err != nil {
				return err
			}
			traced.markLayers()
			tr.reset() // the warm-up pass does not count
		}

		var tracedJPS, tracedWall []float64
		differ := 0
		deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
		for time.Now().Before(deadline) {
			v, err := round(ctx, b, nil, &uploads, &reports)
			if err != nil {
				return err
			}
			jps = append(jps, v)
			if err := sameSnapshot(b, first, &differ); err != nil {
				return err
			}
			if traced != nil {
				start := time.Now()
				var tu, trp []float64
				v, err := round(ctx, traced, tr, &tu, &trp)
				if err != nil {
					return err
				}
				tracedWall = append(tracedWall, time.Since(start).Seconds())
				tracedJPS = append(tracedJPS, v)
				if err := sameSnapshot(traced, first, &differ); err != nil {
					return err
				}
			}
		}
		r.Attempted = (len(jps) + len(tracedJPS)) * (1 + uploadsPerRound + reportsPerRound)
		r.check(differ == 0, "%d untraced and %d traced passes left snapshots identical to the first pass's (%d differ)",
			len(jps), len(tracedJPS), differ)

		if err := b.check(ctx, r, first); err != nil {
			return err
		}
		if !o.trace {
			r.add("jobs_per_sec", median(jps), "1/s", len(jps))
			r.add("setup_s", median(setups), "s", len(setups))
			r.add("upload_ms_p50", quantile(uploads, 0.50), "ms", len(uploads))
			r.add("report_ms_p50", quantile(reports, 0.50), "ms", len(reports))
			return nil
		}
		rounds := len(tracedJPS)
		addLayers(r, tr, rounds)
		traced.layers(r, rounds)
		addTails(r, uploads, reports)
		un, tj := median(jps), median(tracedJPS)
		r.add("trace.overhead_jobs_per_sec", tj-un, "1/s", rounds)
		r.add("trace.overhead_share", (tj-un)/un, "ratio", rounds)
		shares(r, median(tracedWall))
		return tr.writeSpans(o.spans)
	}
}

// releaseMemory returns freed memory to the kernel, so that one set-up
// instance's garbage does not add to the next one's resident memory.
func releaseMemory() { debug.FreeOSMemory() }

// sameSnapshot counts in differ a pass that left its sinks other than
// byte-identical to the first pass of the run.
func sameSnapshot(b batchRun, first []byte, differ *int) error {
	snap, err := b.snapshot()
	if err != nil {
		return err
	}
	if string(snap) != string(first) {
		*differ++
	}
	return nil
}

// layerNames lists every per-layer metric in BENCHMARK.json; a traced run
// reports each of them on every workload, zero where a layer is not used.
var layerNames = []struct{ name, unit string }{
	{"colbin.blocks", "count"}, {"colbin.bytes", "B"}, {"colbin.frame_busy_s", "s"}, {"colbin.decode_busy_s", "s"},
	{"tracegen.records", "count"}, {"tracegen.bytes", "B"}, {"tracegen.decode_busy_s", "s"},
	{"backend.calls", "count"}, {"backend.records", "count"}, {"backend.busy_s", "s"},
	{"evalcache.hits", "count"}, {"evalcache.misses", "count"}, {"evalcache.hit_rate", "ratio"},
	{"evalcache.block_hits", "count"}, {"evalcache.block_misses", "count"}, {"evalcache.evictions", "count"},
	{"analyze.fold_busy_s", "s"}, {"analyze.fold_busy_s.breakdown", "s"}, {"analyze.fold_busy_s.component_cdf", "s"},
	{"analyze.fold_busy_s.hardware_cdf", "s"}, {"analyze.fold_busy_s.projection", "s"},
	{"analyze.snapshot_encode_s", "s"}, {"analyze.snapshot_decode_s", "s"}, {"analyze.merge_s", "s"},
	{"analyze.snapshot_bytes", "B"},
	{"stream.deliver_wait_s", "s"},
	{"replay.submitted", "count"}, {"replay.completed", "count"}, {"replay.rejected", "count"},
	{"replay.max_queue_depth", "count"}, {"replay.sink_busy_s", "s"}, {"replay.loop_self_s", "s"},
	{"window.add_s", "s"}, {"window.late_arrivals", "count"}, {"window.rotated", "count"},
	{"serve.uploads", "count"}, {"serve.rejected", "count"}, {"serve.gen_late_ms_max", "ms"},
	{"trace.overhead_jobs_per_sec", "1/s"}, {"trace.overhead_share", "ratio"},
	{"tail.upload_ms_p90", "ms"}, {"tail.report_ms_p90", "ms"},
}

// addTails reports the p90 upload and report latencies of a traced run's
// untraced operations. They are per-layer metrics, without a bound: on a
// shared two-vCPU host their run-to-run spread exceeds any bound the
// benchmark may set for an end-to-end metric.
func addTails(r *result, uploads, reports []float64) {
	r.add("tail.upload_ms_p90", quantile(uploads, 0.90), "ms", len(uploads))
	r.add("tail.report_ms_p90", quantile(reports, 0.90), "ms", len(reports))
}

// addLayers reports the tracer's layers, per round: every per-layer metric
// is first set to zero, then the layers the tracer saw are filled in.
func addLayers(r *result, t *tracer, rounds int) {
	if rounds < 1 {
		rounds = 1
	}
	per := func(v float64) float64 { return v / float64(rounds) }
	for _, l := range layerNames {
		r.add(l.name, 0, l.unit, rounds)
	}
	r.add("colbin.blocks", per(float64(t.colbinFrame.calls.Load())), "count", rounds)
	r.add("colbin.frame_busy_s", per(t.colbinFrame.busy()), "s", rounds)
	r.add("colbin.decode_busy_s", per(t.colbinDecode.busy()), "s", rounds)
	r.add("tracegen.records", per(float64(t.tracegenDecode.records.Load())), "count", rounds)
	r.add("tracegen.bytes", per(float64(t.tracegenDecode.bytes.Load())), "B", rounds)
	r.add("tracegen.decode_busy_s", per(t.tracegenDecode.busy()), "s", rounds)
	r.add("backend.calls", per(float64(t.backend.calls.Load())), "count", rounds)
	r.add("backend.records", per(float64(t.backend.records.Load())), "count", rounds)
	r.add("backend.busy_s", per(t.backend.busy()), "s", rounds)
	r.add("analyze.fold_busy_s", per(t.foldBusy()), "s", rounds)
	for _, kind := range reportKinds() {
		r.add("analyze.fold_busy_s."+strings.ReplaceAll(kind, "-", "_"), per(t.foldLayer(kind).busy()), "s", rounds)
	}
	r.add("analyze.snapshot_encode_s", per(t.encode.busy()), "s", rounds)
	r.add("analyze.snapshot_decode_s", per(t.decode.busy()), "s", rounds)
	r.add("analyze.merge_s", per(t.merge.busy()), "s", rounds)
	r.add("analyze.snapshot_bytes", float64(t.snapshotBytes.Load()), "B", rounds)
	r.add("stream.deliver_wait_s", per(t.deliverWait.busy()), "s", rounds)
	r.add("replay.sink_busy_s", per(t.replaySink.busy()), "s", rounds)
	r.add("window.add_s", per(t.windowAdd.busy()), "s", rounds)
}

// cacheLayers reports the result cache's counters over the traced rounds.
// The hit rate is the record cache's, as CacheStats defines it.
func cacheLayers(r *result, before, after cacheCounters, rounds int) {
	per := func(a, b uint64) float64 { return float64(b-a) / float64(rounds) }
	r.add("evalcache.hits", per(before.hits, after.hits), "count", rounds)
	r.add("evalcache.misses", per(before.misses, after.misses), "count", rounds)
	r.add("evalcache.block_hits", per(before.blockHits, after.blockHits), "count", rounds)
	r.add("evalcache.block_misses", per(before.blockMisses, after.blockMisses), "count", rounds)
	r.add("evalcache.evictions", per(before.evictions, after.evictions), "count", rounds)
	if lookups := after.hits - before.hits + after.misses - before.misses; lookups > 0 {
		r.add("evalcache.hit_rate", float64(after.hits-before.hits)/float64(lookups), "ratio", rounds)
	}
}

// shares notes each layer's traced busy time as a share of one round's wall
// time. Layers on different goroutines overlap, so shares may sum past 1.
func shares(r *result, roundWall float64) {
	for _, name := range []string{"colbin.frame_busy_s", "colbin.decode_busy_s", "tracegen.decode_busy_s",
		"backend.busy_s", "analyze.fold_busy_s", "analyze.snapshot_encode_s", "analyze.snapshot_decode_s",
		"analyze.merge_s", "stream.deliver_wait_s", "replay.sink_busy_s", "replay.loop_self_s", "window.add_s"} {
		if v := r.Metrics[name].Value; v > 0 {
			r.note("share %-28s %6.1f%% of a %.3fs round", name, 100*v/roundWall, roundWall)
		}
	}
}

// checkErr records a failed check for an error from another route.
func checkErr(r *result, err error, what string) bool {
	if err != nil {
		r.check(false, "%s: %v", what, err)
		return false
	}
	return true
}
