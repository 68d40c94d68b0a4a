package analyze

import (
	"fmt"

	"repro/internal/binenc"
	"repro/internal/core"
	"repro/internal/project"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ProjectionSink folds the PS -> AllReduce projection study (Fig. 9) into a
// mergeable summary during the streamed pass: for every PS/Worker job it
// maps the features to the target architecture, evaluates only the
// projected side (the original breakdown arrives with the job), and folds
// the speedups into a project.SummaryAccumulator. Non-PS jobs pass through
// untouched, so the sink rides the same stream as every other analysis.
//
// A sink restored from a snapshot has no projector attached: it merges and
// reports, but Add returns an error — the coordinator merges shard
// snapshots, it does not evaluate.
type ProjectionSink struct {
	target project.Target
	pr     *project.Projector
	acc    project.SummaryAccumulator
}

// NewProjectionSink returns a sink projecting PS/Worker jobs to target
// through the given projector.
func NewProjectionSink(pr *project.Projector, target project.Target) (*ProjectionSink, error) {
	if pr == nil {
		return nil, fmt.Errorf("analyze: NewProjectionSink with nil projector")
	}
	switch target {
	case project.ToAllReduceLocal, project.ToAllReduceCluster:
	default:
		return nil, fmt.Errorf("analyze: unknown projection target %v", target)
	}
	return &ProjectionSink{target: target, pr: pr}, nil
}

// Kind implements Sink.
func (s *ProjectionSink) Kind() string { return kindProjection }

// Target returns the projection destination architecture.
func (s *ProjectionSink) Target() project.Target { return s.target }

// Add projects one evaluated job (PS/Worker only; others are skipped).
func (s *ProjectionSink) Add(f workload.Features, t core.Times) error {
	if f.Class != workload.PSWorker {
		return nil
	}
	if s.pr == nil {
		return fmt.Errorf("analyze: projection sink restored from a snapshot is merge/report-only")
	}
	r, err := s.pr.ProjectTimed(f, t, s.target)
	if err != nil {
		return fmt.Errorf("analyze: project job %q: %w", f.Name, err)
	}
	s.acc.Add(r)
	return nil
}

// Merge folds another ProjectionSink with the same target into the
// receiver.
func (s *ProjectionSink) Merge(other Sink) error {
	if other == nil {
		return nil
	}
	o, ok := other.(*ProjectionSink)
	if !ok {
		return fmt.Errorf("analyze: cannot merge %T into ProjectionSink", other)
	}
	if o.acc.N() > 0 && o.target != s.target {
		return fmt.Errorf("analyze: merge of projection sinks with targets %v vs %v", s.target, o.target)
	}
	return s.acc.Merge(&o.acc)
}

// N reports the number of projected jobs folded in.
func (s *ProjectionSink) N() int { return s.acc.N() }

// Summary assembles the Fig. 9 aggregates.
func (s *ProjectionSink) Summary() (project.Summary, error) { return s.acc.Summary() }

// NodeSpeedups returns the sketched distribution of per-cNode speedups.
func (s *ProjectionSink) NodeSpeedups() *stats.Sketch { return s.acc.NodeSpeedups() }

// ThroughputSpeedups returns the sketched distribution of throughput
// speedups.
func (s *ProjectionSink) ThroughputSpeedups() *stats.Sketch { return s.acc.ThroughputSpeedups() }

// projectionSinkVersion tags the ProjectionSink snapshot layout.
const projectionSinkVersion = 1

// MarshalBinary encodes the target and aggregate state (never the
// projector).
func (s *ProjectionSink) MarshalBinary() ([]byte, error) {
	w := binenc.NewWriter(128)
	w.U8(projectionSinkVersion)
	w.Uvarint(uint64(s.target))
	raw, err := s.acc.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Raw(raw)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a MarshalBinary snapshot into a merge/report-only
// sink.
func (s *ProjectionSink) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != projectionSinkVersion {
		return fmt.Errorf("analyze: projection snapshot version %d, want %d", v, projectionSinkVersion)
	}
	target := project.Target(r.Uvarint())
	raw := r.View()
	if err := r.Err(); err != nil {
		return fmt.Errorf("analyze: projection snapshot: %w", err)
	}
	var acc project.SummaryAccumulator
	if err := acc.UnmarshalBinary(raw); err != nil {
		return err
	}
	s.target = target
	s.pr = nil
	s.acc = acc
	return nil
}
