package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	pai "repro"
)

// writeColbinTrace records a generated trace to a colbin file and returns
// its path. blockRecords keeps blocks small so CI-sized traces still yield
// multi-cell partition grids; omitIndex produces a legacy file without the
// seekable footer.
func writeColbinTrace(t *testing.T, jobs, distinct int, seed int64, blockRecords int, omitIndex bool) string {
	t.Helper()
	p := pai.DefaultTraceParams()
	p.Seed = seed
	p.NumJobs = jobs
	p.DistinctJobs = distinct
	src, err := pai.NewTraceSource(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.colbin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := pai.NewColumnWriterBlockRecords(f, blockRecords)
	if omitIndex {
		w.OmitIndex()
	}
	for {
		rec, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParFileMatchesOneReaderGrid pins the file-parallel acceptance
// property: -par-file 4 folds the same partition grid as -par-file 1, so
// every deterministic section of the result — fidelity, CDF sketches,
// projection — is identical (the underlying sink snapshots are
// byte-identical; the JSON sections are their rendering).
func TestParFileMatchesOneReaderGrid(t *testing.T) {
	trace := writeColbinTrace(t, 20000, 512, 7, 512, false)
	seq := runToFile(t, []string{"-trace", trace, "-par-file", "1", "-microshard", "2048", "-full"})
	par := runToFile(t, []string{"-trace", trace, "-par-file", "4", "-microshard", "2048", "-full"})
	if seq.Jobs != 20000 || par.Jobs != 20000 {
		t.Fatalf("jobs = %d (one reader) / %d (four readers), want 20000", seq.Jobs, par.Jobs)
	}
	if !reflect.DeepEqual(par.Fidelity, seq.Fidelity) {
		t.Errorf("fidelity differs:\npar-file 4: %+v\npar-file 1: %+v", par.Fidelity, seq.Fidelity)
	}
	if par.CDF == nil || seq.CDF == nil || !reflect.DeepEqual(*par.CDF, *seq.CDF) {
		t.Errorf("cdf section differs:\npar-file 4: %+v\npar-file 1: %+v", par.CDF, seq.CDF)
	}
	if par.Projection == nil || seq.Projection == nil || !reflect.DeepEqual(*par.Projection, *seq.Projection) {
		t.Errorf("projection section differs:\npar-file 4: %+v\npar-file 1: %+v", par.Projection, seq.Projection)
	}
	if par.JobsPerSecParallelFile <= 0 {
		t.Errorf("jobs_per_sec_parallel_file = %v, want > 0 on the indexed path", par.JobsPerSecParallelFile)
	}
	if par.TraceFile != trace {
		t.Errorf("trace_file = %q", par.TraceFile)
	}
}

// TestParFileFallsBackWithoutIndex: a colbin file written with OmitIndex
// must still evaluate under -par-file — sequential scan, a stderr note,
// and no jobs_per_sec_parallel_file claim.
func TestParFileFallsBackWithoutIndex(t *testing.T) {
	trace := writeColbinTrace(t, 5000, 256, 3, 512, true)
	path := filepath.Join(t.TempDir(), "result.json")
	var out, errw bytes.Buffer
	if err := run([]string{"-trace", trace, "-par-file", "2", "-o", path}, &out, &errw); err != nil {
		t.Fatalf("fallback run failed: %v\nstderr:\n%s", err, errw.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	if r.Jobs != 5000 {
		t.Errorf("jobs = %d, want 5000 delivered by the sequential fallback", r.Jobs)
	}
	if r.JobsPerSecParallelFile != 0 {
		t.Errorf("jobs_per_sec_parallel_file = %v on a fallback run, want 0", r.JobsPerSecParallelFile)
	}
	if log := errw.String(); !strings.Contains(log, "no block index") {
		t.Errorf("fallback left no note in the log:\n%s", log)
	}
}

// TestZeroConcurrencyMeansAllCPUs: -par 0 and -shards 0 resolve to
// runtime.NumCPU() instead of erroring, so scripts can say "saturate this
// machine" without probing its shape.
func TestZeroConcurrencyMeansAllCPUs(t *testing.T) {
	ncpu := runtime.NumCPU()
	r := runToFile(t, []string{"-jobs", "40000", "-shards", "0", "-par", "0"})
	if r.Shards != ncpu {
		t.Errorf("-shards 0 resolved to %d shards, want runtime.NumCPU() = %d", r.Shards, ncpu)
	}
	if r.Workers != ncpu {
		t.Errorf("-par 0 resolved to %d workers, want runtime.NumCPU() = %d", r.Workers, ncpu)
	}
	if r.Jobs != 40000 {
		t.Errorf("jobs = %d", r.Jobs)
	}
}

// TestTracePayloadRoundTrip: the work-stealing assignment payload must
// reconstitute the exact evaluation parameterization on the worker side.
func TestTracePayloadRoundTrip(t *testing.T) {
	cfg := config{
		tracePath: "/data/run.colbin", grain: 8192,
		cache: 16384, cacheBytes: 0, par: 3, backendName: "analytical",
	}
	got, err := parseTracePayload(encodeTracePayload(cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.shardIndex, cfg.shards, cfg.full = -1, 1, true // worker-side framing, not payload state
	if got != cfg {
		t.Errorf("payload round trip:\ngot  %+v\nwant %+v", got, cfg)
	}
	for _, bad := range []string{
		"",
		"not-a-payload trace=x",
		coordTracePayloadVersion + " trace=x microshard=zero backend=analytical",
		coordTracePayloadVersion + " trace=x microshard=4096 backend=analytical mystery=1",
		coordTracePayloadVersion + " microshard=4096 backend=analytical",
	} {
		if _, err := parseTracePayload([]byte(bad)); err == nil {
			t.Errorf("parseTracePayload(%q) accepted", bad)
		}
	}
}

// TestParFileValidation pins the flag rules of the file-parallel and
// work-stealing modes.
func TestParFileValidation(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-par-file", "2"}, &out, &errw); err == nil {
		t.Error("-par-file without -trace accepted")
	}
	if err := run([]string{"-trace", "x", "-par-file", "-1"}, &out, &errw); err == nil {
		t.Error("negative -par-file accepted")
	}
	if err := run([]string{"-jobs", "1000", "-microshard", "0"}, &out, &errw); err == nil {
		t.Error("-microshard 0 accepted")
	}
	if err := run([]string{"-jobs", "1000", "-slow", "1"}, &out, &errw); err == nil {
		t.Error("-slow without -coordinate -trace accepted")
	}
	if err := run([]string{"-coordinate", ":0", "-trace", "x", "-workers", "1", "-chaos", "1"}, &out, &errw); err == nil {
		t.Error("-chaos in trace coordination accepted (stragglers use -slow)")
	}
	if err := run([]string{"-coordinate", ":0", "-trace", "x", "-workers", "1", "-slow", "2"}, &out, &errw); err == nil {
		t.Error("-slow beyond -workers accepted")
	}
	if err := run([]string{"-coordinate", ":0", "-trace", "a b.colbin", "-workers", "1"}, &out, &errw); err == nil {
		t.Error("trace path with whitespace accepted into the payload encoding")
	}
}

// TestCoordinateTraceMatchesParFile is the happy-path work-stealing e2e:
// two spawned range workers race over the micro-shard grid of a recorded
// trace, and the folded result must carry every deterministic section
// identical to the single-process -par-file run at the same grain.
func TestCoordinateTraceMatchesParFile(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	trace := writeColbinTrace(t, 24000, 512, 9, 512, false)
	coordPath := filepath.Join(t.TempDir(), "coord.json")
	var out, errw bytes.Buffer
	err := run([]string{
		"-trace", trace, "-microshard", "2048",
		"-coordinate", "127.0.0.1:0", "-workers", "2",
		"-shard-timeout", "30s", "-o", coordPath,
	}, &out, &errw)
	if err != nil {
		t.Fatalf("coordinate run: %v\nstderr:\n%s", err, errw.String())
	}
	var coordRes Result
	b, err := os.ReadFile(coordPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &coordRes); err != nil {
		t.Fatal(err)
	}

	single := runToFile(t, []string{"-trace", trace, "-par-file", "2", "-microshard", "2048", "-full"})

	if coordRes.Jobs != 24000 {
		t.Fatalf("coordinated jobs = %d, want 24000 (a cell was lost or double-counted)", coordRes.Jobs)
	}
	if !reflect.DeepEqual(coordRes.Fidelity, single.Fidelity) {
		t.Errorf("fidelity differs:\ncoordinated: %+v\nsingle: %+v", coordRes.Fidelity, single.Fidelity)
	}
	if coordRes.CDF == nil || single.CDF == nil || !reflect.DeepEqual(*coordRes.CDF, *single.CDF) {
		t.Errorf("cdf section differs:\ncoordinated: %+v\nsingle: %+v", coordRes.CDF, single.CDF)
	}
	if coordRes.Projection == nil || single.Projection == nil || !reflect.DeepEqual(*coordRes.Projection, *single.Projection) {
		t.Errorf("projection section differs:\ncoordinated: %+v\nsingle: %+v", coordRes.Projection, single.Projection)
	}
	if coordRes.MicroShards < 2 {
		t.Errorf("micro_shards = %d, want a multi-cell grid", coordRes.MicroShards)
	}
	if coordRes.CoordWorkers != 2 {
		t.Errorf("coord_workers = %d, want 2", coordRes.CoordWorkers)
	}
	if coordRes.MicroShardAssignments < 2 {
		t.Errorf("micro_shard_assignments = %d, want at least one range per worker", coordRes.MicroShardAssignments)
	}
}

// TestCoordinateTraceStealsFromStraggler is the steal-injection e2e: one
// of two spawned workers sleeps before every cell after its first, so the
// coordinator's per-cell deadline must re-split and steal its in-flight
// tail — and the merged result must still match the single-process
// -par-file run exactly.
func TestCoordinateTraceStealsFromStraggler(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes and waits out a straggler deadline")
	}
	trace := writeColbinTrace(t, 24000, 512, 11, 512, false)
	coordPath := filepath.Join(t.TempDir(), "coord.json")
	var out, errw bytes.Buffer
	err := run([]string{
		"-trace", trace, "-microshard", "2048",
		"-coordinate", "127.0.0.1:0", "-workers", "2", "-slow", "1",
		"-slow-delay", "20s", "-shard-timeout", "2s", "-retries", "6",
		"-o", coordPath,
	}, &out, &errw)
	if err != nil {
		t.Fatalf("steal run: %v\nstderr:\n%s", err, errw.String())
	}
	var coordRes Result
	b, err := os.ReadFile(coordPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &coordRes); err != nil {
		t.Fatal(err)
	}

	single := runToFile(t, []string{"-trace", trace, "-par-file", "2", "-microshard", "2048", "-full"})

	if coordRes.Jobs != 24000 {
		t.Fatalf("coordinated jobs = %d, want 24000 (stolen cells lost or double-counted)", coordRes.Jobs)
	}
	if coordRes.StolenCells < 1 {
		t.Errorf("stolen_cells = %d, want the straggler's tail stolen:\n%s", coordRes.StolenCells, errw.String())
	}
	if !reflect.DeepEqual(coordRes.Fidelity, single.Fidelity) {
		t.Errorf("fidelity differs:\ncoordinated: %+v\nsingle: %+v", coordRes.Fidelity, single.Fidelity)
	}
	if coordRes.CDF == nil || single.CDF == nil || !reflect.DeepEqual(*coordRes.CDF, *single.CDF) {
		t.Errorf("cdf section differs:\ncoordinated: %+v\nsingle: %+v", coordRes.CDF, single.CDF)
	}
	if coordRes.Projection == nil || single.Projection == nil || !reflect.DeepEqual(*coordRes.Projection, *single.Projection) {
		t.Errorf("projection section differs:\ncoordinated: %+v\nsingle: %+v", coordRes.Projection, single.Projection)
	}
}
