package analyze

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/project"
	"repro/internal/workload"
)

// BenchmarkSinkAddColumns measures each report sink's columnar fold over one
// evaluated 4,096-record block of the default trace: the stage the report
// workloads spend most of their time in. One op is one block.
func BenchmarkSinkAddColumns(b *testing.B) {
	const records = 4096
	ev, err := backend.New(backend.AnalyticalName, backend.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	var block workload.Columns
	for _, f := range tracegenDefaultJobs(b, records) {
		block.Append(f)
	}
	ts := make([]core.Times, records)
	if err := backend.EvaluateColumns(ev, &block, ts); err != nil {
		b.Fatal(err)
	}
	pr, err := project.NewFromBackend(ev)
	if err != nil {
		b.Fatal(err)
	}

	sinks := []struct {
		name string
		new  func() (ColumnSink, error)
	}{
		{"breakdown", func() (ColumnSink, error) { return NewBreakdownAccumulator(), nil }},
		{"component_cdf", func() (ColumnSink, error) { return NewComponentCDFSink(), nil }},
		{"hardware_cdf", func() (ColumnSink, error) { return NewHardwareCDFSink(), nil }},
		{"projection", func() (ColumnSink, error) { return NewProjectionSink(pr, project.ToAllReduceLocal) }},
	}
	for _, s := range sinks {
		b.Run(s.name, func(b *testing.B) {
			sink, err := s.new()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sink.AddColumns(&block, ts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
		})
	}
}
