package analyze

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/binenc"
	"repro/internal/project"
	"repro/internal/stream"
	"repro/internal/tracegen"
	"repro/internal/workload"
)

// tracegenDefaultJobs is accJobs for any testing.TB (the fuzz seed corpus
// builder runs under *testing.F).
func tracegenDefaultJobs(tb testing.TB, n int) []workload.Features {
	tb.Helper()
	p := tracegen.Default()
	p.NumJobs = n
	tr, err := tracegen.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	return tr.Jobs
}

// fullSink builds the complete characterization MultiSink over the test
// backend: every registered live-foldable sink kind.
func fullSink(t *testing.T, b backend.Backend) *MultiSink {
	t.Helper()
	pr, err := project.NewFromBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewProjectionSink(pr, project.ToAllReduceLocal)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSweepSink(b, workload.PSWorker)
	if err != nil {
		t.Fatal(err)
	}
	return NewMultiSink(
		NewBreakdownAccumulator(),
		NewComponentCDFSink(),
		NewHardwareCDFSink(),
		ps,
		sw,
	)
}

func foldSink(t *testing.T, b backend.Backend, jobs []workload.Features, sink Sink) {
	t.Helper()
	if _, err := FoldInto(context.Background(), b, 2, stream.Blocks(stream.NewSliceSource(jobs)), sink); err != nil {
		t.Fatal(err)
	}
}

// TestSinkSnapshotRoundTrip pins the snapshot contract for every sink kind:
// encode -> decode -> re-encode must be bit-identical.
func TestSinkSnapshotRoundTrip(t *testing.T) {
	b := accBackend(t)
	jobs := accJobs(t, 800)
	ms := fullSink(t, b)
	foldSink(t, b, jobs, ms)

	sinks := append([]Sink{ms}, ms.Sinks()...)
	for _, s := range sinks {
		t.Run(s.Kind(), func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, s); err != nil {
				t.Fatal(err)
			}
			back, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if back.Kind() != s.Kind() {
				t.Fatalf("decoded kind %q, want %q", back.Kind(), s.Kind())
			}
			var buf2 bytes.Buffer
			if err := WriteSnapshot(&buf2, back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Error("snapshot round trip not bit-identical")
			}
		})
	}
}

// TestMultiProcessMergeMatchesSingleProcess is the distributed-evaluation
// exactness pin: folding N shards in one process (FoldRanges) and folding
// them in N separate "processes" — communicated only through snapshot files
// — must produce byte-identical merged snapshots.
func TestMultiProcessMergeMatchesSingleProcess(t *testing.T) {
	b := accBackend(t)
	jobs := accJobs(t, 1200)
	const shards = 3
	var parts [][]workload.Features
	per := len(jobs) / shards
	for k := 0; k < shards; k++ {
		hi := (k + 1) * per
		if k == shards-1 {
			hi = len(jobs)
		}
		parts = append(parts, jobs[k*per:hi])
	}

	// Single process: the sharded fold.
	srcs := make([]stream.Source, shards)
	for k := range srcs {
		srcs[k] = stream.NewSliceSource(parts[k])
	}
	single, _, err := foldSources(context.Background(), b, 4, srcs, func() (Sink, error) {
		return fullSink(t, b), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// "N processes": each shard folds alone and ships only its snapshot
	// bytes; the coordinator decodes and merges in shard order.
	var merged Sink
	for k := 0; k < shards; k++ {
		shardSink := fullSink(t, b)
		foldSink(t, b, parts[k], shardSink)
		var wire bytes.Buffer
		if err := WriteSnapshot(&wire, shardSink); err != nil {
			t.Fatal(err)
		}
		decoded, err := ReadSnapshot(bytes.NewReader(wire.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = decoded
			continue
		}
		if err := merged.Merge(decoded); err != nil {
			t.Fatal(err)
		}
	}

	var singleSnap, mergedSnap bytes.Buffer
	if err := WriteSnapshot(&singleSnap, single); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&mergedSnap, merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(singleSnap.Bytes(), mergedSnap.Bytes()) {
		t.Fatal("multi-process snapshot merge differs from single-process sharded fold")
	}

	// Spot-check a few report numbers through the decoded coordinator sink.
	mm := merged.(*MultiSink)
	sm := single.(*MultiSink)
	gotRows := mm.Sinks()[0].(*BreakdownAccumulator).Rows()
	wantRows := sm.Sinks()[0].(*BreakdownAccumulator).Rows()
	if len(gotRows) != len(wantRows) {
		t.Fatalf("row counts differ: %d vs %d", len(gotRows), len(wantRows))
	}
	for i := range gotRows {
		for comp, share := range wantRows[i].Share {
			if gotRows[i].Share[comp] != share {
				t.Errorf("row %d share[%v]: %v vs %v", i, comp, gotRows[i].Share[comp], share)
			}
		}
	}
	gotSum, err := mm.Sinks()[3].(*ProjectionSink).Summary()
	if err != nil {
		t.Fatal(err)
	}
	wantSum, err := sm.Sinks()[3].(*ProjectionSink).Summary()
	if err != nil {
		t.Fatal(err)
	}
	if gotSum != wantSum {
		t.Errorf("projection summary differs: %+v vs %+v", gotSum, wantSum)
	}
}

// TestRestoredSinksAreMergeReportOnly: snapshot-restored projection and
// sweep sinks must refuse Add (they have no evaluator attached) but still
// report.
func TestRestoredSinksAreMergeReportOnly(t *testing.T) {
	b := accBackend(t)
	jobs := accJobs(t, 400)
	ms := fullSink(t, b)
	foldSink(t, b, jobs, ms)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, ms); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ps := jobs[0]
	for _, j := range jobs {
		if j.Class == workload.PSWorker {
			ps = j
			break
		}
	}
	bd, err := b.Breakdown(ps)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Add(ps, bd); err == nil {
		t.Error("restored full sink accepted Add; projection/sweep have no evaluator")
	}
	restored := back.(*MultiSink)
	if got, want := restored.Sinks()[3].(*ProjectionSink).N(), ms.Sinks()[3].(*ProjectionSink).N(); got != want {
		t.Errorf("restored projection N = %d, want %d", got, want)
	}
	if _, err := restored.Sinks()[4].(*SweepSink).Panel("PS"); err != nil {
		t.Errorf("restored sweep cannot report: %v", err)
	}
}

// TestSnapshotRejectsCorruption: version bumps, checksum damage, foreign
// files and unknown kinds all fail cleanly.
func TestSnapshotRejectsCorruption(t *testing.T) {
	b := accBackend(t)
	jobs := accJobs(t, 200)
	acc := NewBreakdownAccumulator()
	foldSink(t, b, jobs, acc)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, acc); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := ReadSnapshot(strings.NewReader("not a snapshot at all")); err == nil {
		t.Error("foreign file accepted")
	}

	// Flip one payload byte: the checksum must catch it.
	damaged := append([]byte(nil), raw...)
	damaged[len(damaged)/2] ^= 0xff
	if _, err := ReadSnapshot(bytes.NewReader(damaged)); err == nil {
		t.Error("corrupted payload accepted")
	}

	// A future payload version must be rejected with a version error.
	payload, err := acc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	payload[0] = breakdownAccVersion + 1
	if err := new(BreakdownAccumulator).UnmarshalBinary(payload); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("future version not rejected: %v", err)
	}

	// Unknown kinds fail at the registry.
	if _, err := NewSinkOf("no-such-kind"); err == nil {
		t.Error("unknown sink kind accepted")
	}

	// A nested-multi payload must be rejected, not recursed into: a crafted
	// snapshot could otherwise nest deep enough to exhaust the stack.
	level := binenc.NewWriter(32)
	level.U8(multiSinkVersion)
	level.Int(1)
	level.Str(kindMulti)
	level.Raw([]byte{multiSinkVersion, 0})
	if err := new(MultiSink).UnmarshalBinary(level.Bytes()); err == nil ||
		!strings.Contains(err.Error(), "nests") {
		t.Errorf("nested MultiSink payload not rejected: %v", err)
	}
}

// TestSnapshotMetaRoundTrip: the provenance string travels with the frame,
// is covered by the checksum, and defaults to empty.
func TestSnapshotMetaRoundTrip(t *testing.T) {
	acc := NewBreakdownAccumulator()
	var buf bytes.Buffer
	if err := WriteSnapshotMeta(&buf, acc, "run seed=7 shards=2"); err != nil {
		t.Fatal(err)
	}
	_, meta, err := ReadSnapshotMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if meta != "run seed=7 shards=2" {
		t.Errorf("meta = %q", meta)
	}
	// Damage one meta byte: the checksum must catch it.
	raw := append([]byte(nil), buf.Bytes()...)
	raw[len(snapshotMagic)+4] ^= 0xff
	if _, _, err := ReadSnapshotMeta(bytes.NewReader(raw)); err == nil {
		t.Error("corrupted provenance accepted")
	}
	// WriteSnapshot writes empty provenance.
	var plain bytes.Buffer
	if err := WriteSnapshot(&plain, acc); err != nil {
		t.Fatal(err)
	}
	if _, meta, err := ReadSnapshotMeta(bytes.NewReader(plain.Bytes())); err != nil || meta != "" {
		t.Errorf("plain snapshot meta = %q, err %v", meta, err)
	}
}

// TestMultiSinkMergeMismatches: structural mismatches must refuse to merge.
func TestMultiSinkMergeMismatches(t *testing.T) {
	a := NewMultiSink(NewBreakdownAccumulator(), NewComponentCDFSink())
	short := NewMultiSink(NewBreakdownAccumulator())
	if err := a.Merge(short); err == nil {
		t.Error("length mismatch accepted")
	}
	swapped := NewMultiSink(NewComponentCDFSink(), NewBreakdownAccumulator())
	if err := a.Merge(swapped); err == nil {
		t.Error("kind mismatch accepted")
	}
	if err := a.Merge(NewBreakdownAccumulator()); err == nil {
		t.Error("non-multi sink accepted")
	}
	if err := NewBreakdownAccumulator().Merge(NewComponentCDFSink()); err == nil {
		t.Error("cross-kind merge accepted")
	}
}

// FuzzReadSnapshot: arbitrary bytes must never panic the decoder — they
// either decode to a valid sink or return an error.
func FuzzReadSnapshot(f *testing.F) {
	b, err := backend.New(backend.AnalyticalName, backend.DefaultSpec())
	if err != nil {
		f.Fatal(err)
	}
	pr, err := project.NewFromBackend(b)
	if err != nil {
		f.Fatal(err)
	}
	ps, err := NewProjectionSink(pr, project.ToAllReduceLocal)
	if err != nil {
		f.Fatal(err)
	}
	ms := NewMultiSink(NewBreakdownAccumulator(), NewComponentCDFSink(), NewHardwareCDFSink(), ps)
	p := tracegenDefaultJobs(f, 64)
	for _, j := range p {
		bd, err := b.Breakdown(j)
		if err != nil {
			f.Fatal(err)
		}
		if err := ms.Add(j, bd); err != nil {
			f.Fatal(err)
		}
	}
	for _, s := range append([]Sink{ms}, ms.Sinks()...) {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sink, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must re-encode without panicking.
		if err := WriteSnapshot(&bytes.Buffer{}, sink); err != nil {
			t.Fatalf("decoded sink cannot re-encode: %v", err)
		}
	})
}

// TestShardMetaRoundTrip pins the provenance convention the coordinator's
// at-most-once fold rests on.
func TestShardMetaRoundTrip(t *testing.T) {
	cases := []struct {
		base  string
		index int
	}{
		{"paibench jobs=100 seed=1 shards=2 distinct=0 backend=analytical", 1},
		{"", 0},
		{"run", 17},
		{"run", -1}, // -1 marks a whole-run snapshot (no single shard)
	}
	for _, c := range cases {
		meta := ShardMeta(c.base, c.index)
		idx, ok := MetaShardIndex(meta)
		if !ok || idx != c.index {
			t.Errorf("MetaShardIndex(%q) = %d, %v", meta, idx, ok)
		}
		if base := MetaBase(meta); base != c.base {
			t.Errorf("MetaBase(%q) = %q, want %q", meta, base, c.base)
		}
	}
}

// TestShardMetaMalformed: strings without a clean trailing shard-index field
// neither parse an index nor lose any bytes to base-stripping.
func TestShardMetaMalformed(t *testing.T) {
	for _, meta := range []string{
		"",
		"no field at all",
		"shard-index=",
		"shard-index=2 trailing",
		"ashard-index=2",
		"shard-index=two",
	} {
		if idx, ok := MetaShardIndex(meta); ok {
			t.Errorf("MetaShardIndex(%q) = %d, want not-ok", meta, idx)
		}
		if base := MetaBase(meta); base != meta {
			t.Errorf("MetaBase(%q) = %q, want unchanged", meta, base)
		}
	}
}

// TestSnapshotRejectsFloatSumFormat decodes a snapshot written before the
// report accumulators became exact (testdata/report-v1.snap: a breakdown
// and a projection sink in a MultiSink, with float share and speedup sums
// and Welford sketch state). Every member must fail with an error naming
// its old snapshot version, never decode into wrong sums.
func TestSnapshotRejectsFloatSumFormat(t *testing.T) {
	raw, err := os.ReadFile("testdata/report-v1.snap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "version 1, want 2") {
		t.Fatalf("old snapshot: %v, want a version error", err)
	}
	// Frame: magic, kind, provenance, payload, checksum.
	fr := binenc.NewReader(raw[len(snapshotMagic):])
	_ = fr.Str()
	_ = fr.Str()
	r := binenc.NewReader(fr.Raw())
	if v := r.U8(); v != multiSinkVersion {
		t.Fatalf("MultiSink version %d", v)
	}
	n := r.Int()
	for i := 0; i < n; i++ {
		kind, payload := r.Str(), r.Raw()
		s, err := NewSinkOf(kind)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.UnmarshalBinary(payload); err == nil || !strings.Contains(err.Error(), "version 1, want 2") {
			t.Errorf("old %q payload: %v, want a version error", kind, err)
		}
	}
	if r.Err() != nil || n != 2 {
		t.Fatalf("read %d members: %v", n, r.Err())
	}
}

// TestSnapshotRejectsHistogramV1 decodes a full report sink written before
// histogram snapshots named fixed grids by checksum
// (testdata/report-v2.snap: every histogram with its edges and dense
// float64 counts). The frame and each of the four members must fail with
// an error naming the histogram version, never decode into wrong counts.
func TestSnapshotRejectsHistogramV1(t *testing.T) {
	const want = "histogram snapshot version 1, want 2"
	raw, err := os.ReadFile("testdata/report-v2.snap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("old snapshot: %v, want %q", err, want)
	}
	fr := binenc.NewReader(raw[len(snapshotMagic):])
	_ = fr.Str()
	_ = fr.Str()
	r := binenc.NewReader(fr.Raw())
	if v := r.U8(); v != multiSinkVersion {
		t.Fatalf("MultiSink version %d", v)
	}
	var kinds []string
	for i, n := 0, r.Int(); i < n; i++ {
		kind, payload := r.Str(), r.Raw()
		s, err := NewSinkOf(kind)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.UnmarshalBinary(payload); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("old %q payload: %v, want %q", kind, err, want)
		}
		kinds = append(kinds, kind)
	}
	if got := strings.Join(kinds, ","); r.Err() != nil || got != "breakdown,component-cdf,hardware-cdf,projection" {
		t.Fatalf("members %s: %v", got, r.Err())
	}
}
