package analyze

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/project"
	"repro/internal/stream"
	"repro/internal/workload"
)

// TestFoldRangesGridInvariant is the grid property of every registered sink
// kind: however the stream is cut into cells and however many consumers
// drain them, the merged snapshot hashes the same as FoldInto over the
// whole stream.
func TestFoldRangesGridInvariant(t *testing.T) {
	b := accBackend(t)
	jobs := accJobs(t, 1020)
	ctx := context.Background()
	pr, err := project.NewFromBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	factories := map[string]func() (Sink, error){
		kindBreakdown:    func() (Sink, error) { return NewBreakdownAccumulator(), nil },
		kindComponentCDF: func() (Sink, error) { return NewComponentCDFSink(), nil },
		kindHardwareCDF:  func() (Sink, error) { return NewHardwareCDFSink(), nil },
		kindProjection:   func() (Sink, error) { return NewProjectionSink(pr, project.ToAllReduceLocal) },
		kindSweep:        func() (Sink, error) { return NewSweepSink(b, workload.PSWorker) },
		kindMulti:        func() (Sink, error) { return fullSink(t, b), nil },
	}
	var kinds []string
	for kind := range factories {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	if got, want := strings.Join(kinds, ","), strings.Join(SinkKinds(), ","); got != want {
		t.Fatalf("kinds under test %s, registered %s", got, want)
	}
	for _, kind := range kinds {
		factory := factories[kind]
		t.Run(kind, func(t *testing.T) {
			whole, err := factory()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := FoldInto(ctx, b, 2, stream.Blocks(stream.NewSliceSource(jobs)), whole); err != nil {
				t.Fatal(err)
			}
			want := sha256.Sum256(snapshotOf(t, whole))
			for _, cells := range []int{1, 3, 17} {
				open := func(cell int) (stream.BlockSource, error) {
					lo, hi := cell*len(jobs)/cells, (cell+1)*len(jobs)/cells
					return stream.Blocks(stream.NewSliceSource(jobs[lo:hi])), nil
				}
				for _, consumers := range []int{1, 2, cells} {
					total, counts, err := FoldRanges(ctx, b, 2, consumers, cells, open, factory)
					if err != nil {
						t.Fatal(err)
					}
					n := 0
					for _, c := range counts {
						n += c
					}
					if n != len(jobs) {
						t.Errorf("%d cells, %d consumers: folded %d of %d jobs", cells, consumers, n, len(jobs))
					}
					if sha256.Sum256(snapshotOf(t, total)) != want {
						t.Errorf("%d cells, %d consumers: snapshot differs from the single fold", cells, consumers)
					}
				}
			}
		})
	}
}

// TestFoldRangesLeavesNoGoroutines: a failed open on a middle cell and a
// cancelled run both fail and return only after every consumer and
// pipeline goroutine has exited.
func TestFoldRangesLeavesNoGoroutines(t *testing.T) {
	b := accBackend(t)
	jobs := accJobs(t, 4000)
	factory := func() (Sink, error) { return NewBreakdownAccumulator(), nil }
	const cells = 9
	cellSource := func(cell int) stream.BlockSource {
		lo, hi := cell*len(jobs)/cells, (cell+1)*len(jobs)/cells
		return stream.Blocks(stream.NewSliceSource(jobs[lo:hi]))
	}
	settled := func(name string, before int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Errorf("%s: %d goroutines left running (%d before)", name, runtime.NumGoroutine(), before)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	before := runtime.NumGoroutine()
	bad := errors.New("open exploded")
	_, _, err := FoldRanges(context.Background(), b, 4, 3, cells, func(cell int) (stream.BlockSource, error) {
		if cell == cells/2 {
			return nil, bad
		}
		return cellSource(cell), nil
	}, factory)
	if !errors.Is(err, bad) || !strings.Contains(err.Error(), fmt.Sprintf("cell %d", cells/2)) {
		t.Fatalf("open error: err = %v, want %v naming cell %d", err, bad, cells/2)
	}
	settled("open error", before)

	before = runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	_, _, err = FoldRanges(ctx, b, 4, 3, cells, func(cell int) (stream.BlockSource, error) {
		if cell == 1 {
			cancel()
		}
		return cellSource(cell), nil
	}, factory)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	settled("cancellation", before)

	// Cancelled before any cell opens: the fold fails rather than
	// returning an empty aggregate as if the grid had been folded.
	if _, _, err := FoldRanges(ctx, b, 4, 3, cells, func(cell int) (stream.BlockSource, error) {
		return cellSource(cell), nil
	}, factory); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: err = %v, want context.Canceled", err)
	}
}
