package window_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	pai "repro"
	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/window"
	"repro/internal/workload"
)

// factory builds the projection-free report sink the synthetic tests use
// (projection needs an engine; the engine-backed test below covers it).
func factory() (*analyze.MultiSink, error) {
	return analyze.NewMultiSink(analyze.NewBreakdownAccumulator(),
		analyze.NewComponentCDFSink(), analyze.NewHardwareCDFSink()), nil
}

// rec is one synthetic evaluated job.
type rec struct {
	f workload.Features
	t core.Times
}

// job synthesizes a deterministic evaluated record with the given arrival.
func job(i int, arrival float64) rec {
	f := workload.Features{
		Name:             fmt.Sprintf("j%03d", i),
		Class:            workload.PSWorker,
		CNodes:           1 + i%7,
		BatchSize:        32,
		FLOPs:            1e9 * float64(1+i%5),
		MemAccessBytes:   1e8 * float64(1+i%3),
		InputBytes:       1e7,
		DenseWeightBytes: 1e6,
		ArrivalSec:       arrival,
	}
	t := core.Times{
		DataIO:       0.01 * float64(1+i%3),
		ComputeFLOPs: 0.05 * float64(1+i%4),
		ComputeMem:   0.02,
		Weights:      0.04 * float64(1+i%2),
		WeightsByLink: map[hw.LinkClass]float64{
			hw.LinkEthernet: 0.03, hw.LinkPCIe: 0.01 * float64(1+i%2)},
	}
	return rec{f, t}
}

// windowOf mirrors the ring's arrival-to-window clamp.
func windowOf(arrival, width float64) int64 {
	if !(arrival > 0) {
		return 0
	}
	return int64(arrival / width)
}

// offlineFold is the analyze.FoldRanges merge shape with one cell per
// window: partition the records by window (stream order preserved), fill one
// fresh sink per non-empty window, then merge into a fresh total in
// ascending window order. keep filters which windows participate.
func offlineFold(t *testing.T, width float64, recs []rec, keep func(int64) bool) *analyze.MultiSink {
	t.Helper()
	parts := map[int64][]rec{}
	var order []int64
	for _, r := range recs {
		w := windowOf(r.f.ArrivalSec, width)
		if !keep(w) {
			continue
		}
		if _, ok := parts[w]; !ok {
			order = append(order, w)
		}
		parts[w] = append(parts[w], r)
	}
	for i := range order { // ascending window order
		for j := i + 1; j < len(order); j++ {
			if order[j] < order[i] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	total, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range order {
		s, err := factory()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range parts[w] {
			if err := s.Add(r.f, r.t); err != nil {
				t.Fatal(err)
			}
		}
		if err := total.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	return total
}

func mustBytes(t *testing.T, s *analyze.MultiSink) []byte {
	t.Helper()
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func feed(t *testing.T, r *window.Ring, recs []rec) {
	t.Helper()
	for i, rc := range recs {
		if err := r.Add(rc.f, rc.t); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
}

// TestFoldMatchesOfflineFold pins the headline identity: a windowed fold is
// byte-identical to the offline per-window shard fold of the same records.
func TestFoldMatchesOfflineFold(t *testing.T) {
	const width = 10.0
	r, err := window.New(width, 16, factory)
	if err != nil {
		t.Fatal(err)
	}
	var recs []rec
	for i := 0; i < 200; i++ {
		recs = append(recs, job(i, float64(i)*0.7)) // spans 14 windows
	}
	feed(t, r, recs)
	got, n, err := r.Fold(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("folded %d jobs, want %d", n, len(recs))
	}
	want := offlineFold(t, width, recs, func(int64) bool { return true })
	if !bytes.Equal(mustBytes(t, got), mustBytes(t, want)) {
		t.Fatal("windowed fold diverges from offline per-window fold")
	}
}

// TestFoldLastNSubset checks Fold(lastN) equals the offline fold restricted
// to the newest lastN windows, including when some of them are empty.
func TestFoldLastNSubset(t *testing.T) {
	const width = 10.0
	r, err := window.New(width, 16, factory)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy windows 0, 2 and 9 only; 1, 3..8 stay empty.
	var recs []rec
	for i := 0; i < 30; i++ {
		arrival := []float64{5, 25, 95}[i%3]
		recs = append(recs, job(i, arrival+0.01*float64(i)))
	}
	feed(t, r, recs)
	head := int64(9)
	for _, lastN := range []int{1, 3, 8, 16} {
		oldest := head - int64(lastN) + 1
		want := offlineFold(t, width, recs, func(w int64) bool { return w >= oldest })
		got, _, err := r.Fold(lastN)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustBytes(t, got), mustBytes(t, want)) {
			t.Fatalf("Fold(%d) diverges from offline fold of windows >= %d", lastN, oldest)
		}
	}
}

// TestFoldAcrossRotationBoundary streams far past the ring capacity: old
// windows must rotate out, and the fold must equal the offline fold of just
// the surviving windows.
func TestFoldAcrossRotationBoundary(t *testing.T) {
	const width, count = 10.0, 4
	r, err := window.New(width, count, factory)
	if err != nil {
		t.Fatal(err)
	}
	var recs []rec
	for i := 0; i < 120; i++ {
		recs = append(recs, job(i, float64(i))) // 12 windows, ring holds 4
	}
	feed(t, r, recs)
	if st := r.Stats(); st.Rotated == 0 {
		t.Fatal("no windows rotated out")
	}
	head := windowOf(recs[len(recs)-1].f.ArrivalSec, width)
	oldest := head - count + 1
	want := offlineFold(t, width, recs, func(w int64) bool { return w >= oldest })
	got, _, err := r.Fold(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustBytes(t, got), mustBytes(t, want)) {
		t.Fatal("post-rotation fold diverges from offline fold of surviving windows")
	}
}

// TestOutOfOrderIntoOlderWindow sends late arrivals into windows behind the
// head: they must fold into their own window and the fold must stay
// byte-exact.
func TestOutOfOrderIntoOlderWindow(t *testing.T) {
	const width = 10.0
	r, err := window.New(width, 8, factory)
	if err != nil {
		t.Fatal(err)
	}
	var recs []rec
	for i := 0; i < 60; i++ {
		arrival := float64(i)
		if i%10 == 7 {
			arrival = float64(i) - 25 // lands 2-3 windows behind the head
			if arrival < 0 {
				arrival = 1
			}
		}
		recs = append(recs, job(i, arrival))
	}
	feed(t, r, recs)
	if st := r.Stats(); st.Late == 0 {
		t.Fatal("no late arrivals recorded; test input is wrong")
	}
	want := offlineFold(t, width, recs, func(int64) bool { return true })
	got, n, err := r.Fold(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("folded %d jobs, want %d", n, len(recs))
	}
	if !bytes.Equal(mustBytes(t, got), mustBytes(t, want)) {
		t.Fatal("fold with late arrivals diverges from offline fold")
	}
}

// TestTooOldArrivalsDropped checks arrivals older than the whole ring are
// counted and excluded, not folded and not fatal.
func TestTooOldArrivalsDropped(t *testing.T) {
	const width, count = 10.0, 3
	r, err := window.New(width, count, factory)
	if err != nil {
		t.Fatal(err)
	}
	var kept []rec
	for i := 0; i < 80; i++ {
		rc := job(i, float64(i))
		feed(t, r, []rec{rc})
		kept = append(kept, rc)
	}
	tooOld := job(999, 2) // window 0; head is 7 with a 3-window ring
	if err := r.Add(tooOld.f, tooOld.t); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
	head := windowOf(kept[len(kept)-1].f.ArrivalSec, width)
	oldest := head - count + 1
	want := offlineFold(t, width, kept, func(w int64) bool { return w >= oldest })
	got, _, err := r.Fold(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustBytes(t, got), mustBytes(t, want)) {
		t.Fatal("fold after a dropped arrival diverges from offline fold")
	}
}

// TestEmptyRingFolds checks an unstarted ring folds to the empty factory
// sink without error.
func TestEmptyRingFolds(t *testing.T) {
	r, err := window.New(60, 8, factory)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := r.Fold(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("empty ring folded %d jobs", n)
	}
	want, _ := factory()
	if !bytes.Equal(mustBytes(t, got), mustBytes(t, want)) {
		t.Fatal("empty ring fold differs from an empty factory sink")
	}
}

// TestNewRejectsBadParams pins the constructor validation.
func TestNewRejectsBadParams(t *testing.T) {
	if _, err := window.New(0, 8, factory); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := window.New(60, 0, factory); err == nil {
		t.Fatal("zero count accepted")
	}
	if _, err := window.New(60, 8, nil); err == nil {
		t.Fatal("nil factory accepted")
	}
}

// TestEngineFoldByteIdentity is the end-to-end identity the service relies
// on: stream an arrival-stamped generated trace through a real engine into a
// ring (full report sink, projection included), and compare the folded bytes
// against the engine's own offline sharded evaluation of the same records
// partitioned per window.
func TestEngineFoldByteIdentity(t *testing.T) {
	p := pai.DefaultTraceParams()
	p.NumJobs = 2000
	p.Seed = 11
	p.ArrivalRate = 7200 // mean gap 0.5s -> ~17 windows of 60s
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pai.New(pai.WithConfig(pai.BaselineConfig()))
	if err != nil {
		t.Fatal(err)
	}
	reportFactory := func() (*analyze.MultiSink, error) {
		return eng.NewReportSink(pai.ToAllReduceLocal)
	}

	const width = 60.0
	r, err := window.New(width, 64, reportFactory)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n, err := eng.EvaluateSource(ctx, pai.NewSliceJobSource(tr.Jobs), func(res pai.StreamResult) error {
		return r.Add(res.Job, res.Times)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != p.NumJobs {
		t.Fatalf("evaluated %d jobs, want %d", n, p.NumJobs)
	}
	got, foldN, err := r.Fold(0)
	if err != nil {
		t.Fatal(err)
	}
	if foldN != p.NumJobs {
		t.Fatalf("folded %d jobs, want %d", foldN, p.NumJobs)
	}

	// Offline: one shard per window, ascending, through the engine's
	// standard sharded fold.
	parts := map[int64][]pai.Features{}
	var order []int64
	for _, f := range tr.Jobs {
		w := windowOf(f.ArrivalSec, width)
		if _, ok := parts[w]; !ok {
			order = append(order, w)
		}
		parts[w] = append(parts[w], f)
	}
	for i := range order {
		for j := i + 1; j < len(order); j++ {
			if order[j] < order[i] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	var srcs []pai.JobSource
	for _, w := range order {
		srcs = append(srcs, pai.NewSliceJobSource(parts[w]))
	}
	want, counts, err := eng.EvaluateSourcesInto(ctx,
		func() (pai.Sink, error) { return reportFactory() }, srcs...)
	if err != nil {
		t.Fatal(err)
	}
	var offlineN int
	for _, c := range counts {
		offlineN += c
	}
	if offlineN != p.NumJobs {
		t.Fatalf("offline evaluated %d jobs, want %d", offlineN, p.NumJobs)
	}
	gb := mustBytes(t, got)
	wb, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatal("windowed fold is not byte-identical to the offline sharded evaluation")
	}
}
