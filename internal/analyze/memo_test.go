package analyze

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/backend"
	"repro/internal/evalcache"
	"repro/internal/project"
	"repro/internal/stream"
	"repro/internal/tracegen"
)

// TestFoldMemoKeepsProjectors: two projection sinks with the same target
// but projectors over different evaluators and configurations fold, turn
// about, through one cached evaluator. Their memo keys differ, and each
// keeps the bytes an uncached fold gives it, so no block partial crosses
// from one projector to the other.
func TestFoldMemoKeepsProjectors(t *testing.T) {
	b := testBackend(t)
	cache, err := evalcache.New(b, b.Spec(), 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	prA, err := project.NewWithEvaluator(cache, b.Spec().Config)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := b.Spec().Config
	cfgB.NVLinkBandwidth /= 4
	bB, err := b.Reconfigure(b.Spec().WithConfig(cfgB))
	if err != nil {
		t.Fatal(err)
	}
	prB, err := project.NewFromBackend(bB)
	if err != nil {
		t.Fatal(err)
	}
	p := tracegen.Default()
	p.NumJobs = 4000
	p.DistinctJobs = 64
	tr, err := tracegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	fold := func(ev backend.Evaluator, pr *project.Projector) []byte {
		s, err := NewProjectionSink(pr, project.ToAllReduceLocal)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FoldInto(context.Background(), ev, 2, stream.Blocks(stream.NewSliceSource(tr.Jobs)), s); err != nil {
			t.Fatal(err)
		}
		raw, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	keyA, okA := (&ProjectionSink{target: project.ToAllReduceLocal, pr: prA}).memoKey()
	keyB, okB := (&ProjectionSink{target: project.ToAllReduceLocal, pr: prB}).memoKey()
	if !okA || !okB || keyA == keyB {
		t.Fatalf("memo keys %v (%v) and %v (%v): want two distinct keys", keyA, okA, keyB, okB)
	}
	wantA, wantB := fold(b, prA), fold(b, prB)
	if bytes.Equal(wantA, wantB) {
		t.Fatal("the two projectors fold to the same bytes; the test cannot tell them apart")
	}
	for pass := 0; pass < 4; pass++ {
		if !bytes.Equal(fold(cache, prA), wantA) {
			t.Errorf("pass %d: projector A through the cache differs from its uncached fold", pass)
		}
		if !bytes.Equal(fold(cache, prB), wantB) {
			t.Errorf("pass %d: projector B through the cache differs from its uncached fold", pass)
		}
	}
	if cache.Stats().BlockHits == 0 {
		t.Error("no block hit, so the memo never ran")
	}
}
