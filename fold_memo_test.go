package pai_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"testing"

	pai "repro"
)

// cutSource serves jobs as blocks whose sizes cycle through cuts, so a
// periodic trace cut by a periodic pattern repeats whole blocks.
type cutSource struct {
	jobs []pai.Features
	cuts []int
	next int
}

func (s *cutSource) NextBlock(c *pai.Columns) error {
	c.Reset()
	if len(s.jobs) == 0 {
		return io.EOF
	}
	n := min(s.cuts[s.next%len(s.cuts)], len(s.jobs))
	s.next++
	for _, f := range s.jobs[:n] {
		c.Append(f)
	}
	s.jobs = s.jobs[n:]
	return nil
}

// foldCells folds jobs cut into cells at the given record offsets, each
// cell into its own report sink through eng, merges the cell sinks in a
// random order and returns the merged snapshot's SHA-256.
func foldCells(t *testing.T, eng *pai.Engine, jobs []pai.Features, bounds []int, cuts []int, rng *rand.Rand) string {
	t.Helper()
	ctx := context.Background()
	var cells []pai.Sink
	for i := 0; i+1 < len(bounds); i++ {
		s, err := eng.NewReportSink(pai.ToAllReduceLocal)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.StreamColumnsInto(ctx, &cutSource{jobs: jobs[bounds[i]:bounds[i+1]], cuts: cuts}, s); err != nil {
			t.Fatal(err)
		}
		cells = append(cells, s)
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	total, err := eng.NewReportSink(pai.ToAllReduceLocal)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if err := total.Merge(c); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := total.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestFoldMemoOrderFree is the report sink's order-freedom property: a
// repetitive trace, cut into blocks of 256, 4,096 or random sizes, split
// into cells at random points and merged in a random order, with the fold
// memo on (a cached engine, folded until its blocks hit) and off, always
// gives one snapshot SHA-256.
func TestFoldMemoOrderFree(t *testing.T) {
	p := pai.DefaultTraceParams()
	p.Seed = 11
	p.NumJobs = 16000
	p.DistinctJobs = 96
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	jobs := tr.Jobs
	plain, err := pai.New(pai.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	whole := []int{0, len(jobs)}
	want := foldCells(t, plain, jobs, whole, []int{4096}, rng)

	randomCuts := make([]int, 5)
	for i := range randomCuts {
		randomCuts[i] = 1 + rng.Intn(500)
	}
	for _, cuts := range [][]int{{256}, {4096}, {96}, randomCuts} {
		cached, err := pai.New(pai.WithParallelism(2), pai.WithCache(1<<14))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			// Half the cells span a whole number of the trace's periods
			// (over 4,096 records), so cells that start on the period
			// repeat each other's blocks; the rest end anywhere.
			bounds := []int{0}
			for b := 0; ; {
				if rng.Intn(2) == 0 {
					b += p.DistinctJobs * (43 + rng.Intn(60))
				} else {
					b += 1 + rng.Intn(3000)
				}
				if b >= len(jobs) {
					break
				}
				bounds = append(bounds, b)
			}
			bounds = append(bounds, len(jobs))
			if got := foldCells(t, plain, jobs, bounds, cuts, rng); got != want {
				t.Errorf("cuts %v, cells %v, memo off: %s, want %s", cuts, bounds, got, want)
			}
			if got := foldCells(t, cached, jobs, bounds, cuts, rng); got != want {
				t.Errorf("cuts %v, cells %v, memo on (trial %d): %s, want %s", cuts, bounds, trial, got, want)
			}
		}
		if st := cached.CacheStats(); st.BlockHits == 0 {
			t.Errorf("cuts %v: no block hit, so the memo never ran (%+v)", cuts, st)
		}
	}
}

// TestFoldMemoKeepsProjectionTargets: report sinks projecting to different
// targets fold through one cached engine in turn; each keeps the bytes an
// uncached engine gives its target, so no partial is shared across targets.
func TestFoldMemoKeepsProjectionTargets(t *testing.T) {
	_, cb := goldenTrace(t, 64)
	plain, err := pai.New(pai.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := pai.New(pai.WithParallelism(2), pai.WithCache(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	fold := func(eng *pai.Engine, target pai.ProjectionTarget) []byte {
		s, err := eng.NewReportSink(target)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.StreamColumnsInto(context.Background(), pai.NewColumnReader(bytes.NewReader(cb)), s); err != nil {
			t.Fatal(err)
		}
		raw, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	targets := []pai.ProjectionTarget{pai.ToAllReduceLocal, pai.ToAllReduceCluster}
	want := map[pai.ProjectionTarget][]byte{}
	for _, target := range targets {
		want[target] = fold(plain, target)
	}
	if bytes.Equal(want[targets[0]], want[targets[1]]) {
		t.Fatal("the two targets fold to the same bytes; the test cannot tell them apart")
	}
	for pass := 0; pass < 4; pass++ {
		for _, target := range targets {
			if got := fold(cached, target); !bytes.Equal(got, want[target]) {
				t.Errorf("pass %d, %v: cached fold differs from the uncached one", pass, target)
			}
		}
	}
	if st := cached.CacheStats(); st.BlockHits == 0 {
		t.Error("no block hit, so the memo never ran")
	}
}

// TestFoldMemoConcurrentConsumers runs the memo with several consumers
// sharing one cache (run it under -race): cells of an indexed colbin file
// fold concurrently through a cached engine, pass after pass, and every
// pass matches the single-consumer uncached fold.
func TestFoldMemoConcurrentConsumers(t *testing.T) {
	cb := indexedTestTrace(t, 6000, 100)
	plain, err := pai.New(pai.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := pai.New(pai.WithParallelism(4), pai.WithCache(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	factory := func(eng *pai.Engine) func() pai.Sink {
		return func() pai.Sink {
			s, err := eng.NewReportSink(pai.ToAllReduceLocal)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	want, n := parFileSnapshot(t, plain, cb, 1000, 1, factory(plain))
	if n != 6000 {
		t.Fatalf("folded %d of 6000 records", n)
	}
	for pass := 0; pass < 4; pass++ {
		if got, _ := parFileSnapshot(t, cached, cb, 1000, 4, factory(cached)); !bytes.Equal(got, want) {
			t.Errorf("pass %d: four cached consumers differ from one uncached", pass)
		}
	}
	if st := cached.CacheStats(); st.BlockHits == 0 {
		t.Error("no block hit, so the memo never ran")
	}
}
