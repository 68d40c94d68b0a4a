package window_test

import (
	"context"
	"testing"

	pai "repro"
	"repro/internal/analyze"
	"repro/internal/window"
)

// BenchmarkRingAdd times one Ring.Add into full report sinks (breakdown,
// both CDF sketches and the projection). in_order streams arrivals 0.5s
// apart into 60s windows, so the cost includes a rotation every 120 adds;
// late adds every record three windows behind the head of a ring whose
// eight windows each already hold 100 jobs.
func BenchmarkRingAdd(b *testing.B) {
	p := pai.DefaultTraceParams()
	p.NumJobs = 2048
	p.Seed = 3
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := pai.New(pai.WithConfig(pai.BaselineConfig()))
	if err != nil {
		b.Fatal(err)
	}
	var recs []rec
	if _, err := eng.EvaluateSource(context.Background(), pai.NewSliceJobSource(tr.Jobs),
		func(res pai.StreamResult) error {
			recs = append(recs, rec{res.Job, res.Times})
			return nil
		}); err != nil {
		b.Fatal(err)
	}
	const width, count = 60.0, 8
	newRing := func(b *testing.B) *window.Ring {
		r, err := window.New(width, count, func() (*analyze.MultiSink, error) {
			return eng.NewReportSink(pai.ToAllReduceLocal)
		})
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	add := func(b *testing.B, r *window.Ring, i int, arrival float64) {
		rc := recs[i%len(recs)]
		rc.f.ArrivalSec = arrival
		if err := r.Add(rc.f, rc.t); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("in_order", func(b *testing.B) {
		r := newRing(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			add(b, r, i, 0.5*float64(i))
		}
	})
	b.Run("late", func(b *testing.B) {
		r := newRing(b)
		for i := 0; i < count*100; i++ {
			add(b, r, i, width*float64(i/100)+1)
		}
		late := width*(count-1-3) + 2
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			add(b, r, i, late)
		}
		if r.Stats().Late < int64(b.N) {
			b.Fatal("late adds did not land behind the head")
		}
	})
}
