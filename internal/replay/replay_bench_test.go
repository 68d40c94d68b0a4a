package replay

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tracegen"
	"repro/internal/workload"
)

// BenchmarkReplayCongested times the event loop alone on one congested
// episode: 1,024 arrival-stamped jobs (6,000 per hour) running 2,000 steps
// each on 64 FIFO servers, so the queue stays long and the blocked head is
// the common case. Step times are evaluated once up front; each iteration
// submits every job into a fresh loop and drains it.
func BenchmarkReplayCongested(b *testing.B) {
	p := tracegen.Default()
	p.Seed = 7
	p.NumJobs = 1024
	p.ArrivalRate = 6000
	tr, err := tracegen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	jobs := tr.Jobs
	ev := testEvaluator(b)
	times := make([]core.Times, len(jobs))
	for i, f := range jobs {
		if times[i], err = ev.Breakdown(f); err != nil {
			b.Fatal(err)
		}
	}
	cfg := Config{
		Cluster: testCluster(b, 64),
		Steps:   func(int, workload.Features) int { return 2000 },
	}

	b.ReportAllocs()
	b.ResetTimer()
	var res Result
	for n := 0; n < b.N; n++ {
		st, err := newState(cfg, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		for i, f := range jobs {
			if err := st.submit(i, f, times[i]); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.drain(); err != nil {
			b.Fatal(err)
		}
		res = st.result()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(jobs)), "ns/job")
	if res.Completed+res.Rejected != len(jobs) || res.MaxQueueDepth < 100 {
		b.Fatalf("episode is not congested: %+v", res)
	}
}
