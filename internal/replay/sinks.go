package replay

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/analyze"
	"repro/internal/binenc"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Sink kind names. Like the analyze kinds, the names are part of the
// snapshot wire format; never reuse a retired name for a different layout.
const (
	// KindQueueDelay names the per-class queue-delay CDF sink.
	KindQueueDelay = "queue-delay"
	// KindUtilization names the windowed occupancy-timeline sink.
	KindUtilization = "utilization"
	// KindCounters names the admission/completion counter sink.
	KindCounters = "replay-counters"
)

func init() {
	analyze.RegisterSink(KindQueueDelay, func() analyze.Sink { return NewQueueDelaySink() })
	analyze.RegisterSink(KindUtilization, func() analyze.Sink { return newUtilizationSinkEmpty() })
	analyze.RegisterSink(KindCounters, func() analyze.Sink { return NewCounterSink() })
}

// syntheticOutcome is the zero-queueing outcome a plain Sink.Add folds: the
// job starts the instant it arrives and holds its cNodes GPUs for one step.
// It keeps the replay sinks total over the generic streaming path
// (Engine.StreamInto), where no scheduler ran and thus no delay exists.
func syntheticOutcome(f workload.Features, t core.Times) Outcome {
	return Outcome{
		Job: f, Times: t, Steps: 1, GPUs: f.CNodes, Servers: 1,
		Arrival: f.ArrivalSec, Start: f.ArrivalSec,
		Finish: f.ArrivalSec + t.Total(), Duration: t.Total(),
	}
}

// queueDelaySketchGrid is the one log-spaced bin grid every queue-delay
// sketch shares: 512 bins over [1 ms, 10^7 s]. Delays below a millisecond
// (including the exact zeros of an uncongested replay) land in the
// under-range mass, where the sketch still resolves them exactly at q=0 via
// its tracked minimum. The shared grid keeps per-shard sketches mergeable
// without comparing edges.
var queueDelaySketchGrid = stats.MustGrid(stats.LogGrid(1e-3, 1e7, 513))

func newQueueDelaySketch() *stats.Sketch { return stats.NewGridSketch(queueDelaySketchGrid) }

// QueueDelaySink folds per-job queueing delays (start - arrival) into
// fixed-memory CDF sketches, overall and per workload class — the
// fleet-level waiting-time view of a replay. Rejected jobs are not folded.
// The zero value is usable.
type QueueDelaySink struct {
	overall *stats.Sketch
	byClass map[workload.Class]*stats.Sketch
}

// NewQueueDelaySink returns an empty queue-delay sink.
func NewQueueDelaySink() *QueueDelaySink {
	return &QueueDelaySink{overall: newQueueDelaySketch(), byClass: map[workload.Class]*stats.Sketch{}}
}

func (s *QueueDelaySink) init() {
	if s.overall == nil {
		s.overall = newQueueDelaySketch()
	}
	if s.byClass == nil {
		s.byClass = map[workload.Class]*stats.Sketch{}
	}
}

// Kind implements Sink.
func (s *QueueDelaySink) Kind() string { return KindQueueDelay }

// AddOutcome folds one scheduling outcome's queue delay.
func (s *QueueDelaySink) AddOutcome(o Outcome) error {
	if o.Rejected {
		return nil
	}
	s.init()
	d := o.Wait()
	s.overall.Add(d)
	sk := s.byClass[o.Job.Class]
	if sk == nil {
		sk = newQueueDelaySketch()
		s.byClass[o.Job.Class] = sk
	}
	sk.Add(d)
	return nil
}

// Add implements Sink over the plain streaming path: with no scheduler in
// the loop the delay is zero by construction.
func (s *QueueDelaySink) Add(f workload.Features, t core.Times) error {
	return s.AddOutcome(syntheticOutcome(f, t))
}

// Merge folds another QueueDelaySink into the receiver.
func (s *QueueDelaySink) Merge(other analyze.Sink) error {
	if other == nil {
		return nil
	}
	o, ok := other.(*QueueDelaySink)
	if !ok {
		return fmt.Errorf("replay: cannot merge %T into QueueDelaySink", other)
	}
	s.init()
	o.init()
	if err := s.overall.Merge(o.overall); err != nil {
		return err
	}
	for _, class := range sortedClasses(o.byClass) {
		sk := s.byClass[class]
		if sk == nil {
			sk = newQueueDelaySketch()
			s.byClass[class] = sk
		}
		if err := sk.Merge(o.byClass[class]); err != nil {
			return err
		}
	}
	return nil
}

// Overall returns the all-classes delay sketch.
func (s *QueueDelaySink) Overall() *stats.Sketch {
	s.init()
	return s.overall
}

// Class returns one class's delay sketch, or an error when no job of the
// class has been folded.
func (s *QueueDelaySink) Class(c workload.Class) (*stats.Sketch, error) {
	sk := s.byClass[c]
	if sk == nil {
		return nil, fmt.Errorf("replay: no completed jobs of class %v", c)
	}
	return sk, nil
}

// Classes lists the classes with folded jobs, sorted.
func (s *QueueDelaySink) Classes() []workload.Class { return sortedClasses(s.byClass) }

// queueDelayVersion tags the QueueDelaySink snapshot layout.
const queueDelayVersion = 1

// MarshalBinary encodes the sink; classes are written sorted, so identical
// state yields identical bytes.
func (s *QueueDelaySink) MarshalBinary() ([]byte, error) {
	s.init()
	w := binenc.NewWriter(1024)
	w.U8(queueDelayVersion)
	raw, err := s.overall.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Raw(raw)
	classes := sortedClasses(s.byClass)
	w.Int(len(classes))
	for _, class := range classes {
		w.Uvarint(uint64(class))
		raw, err := s.byClass[class].MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.Raw(raw)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a MarshalBinary snapshot, replacing the receiver.
func (s *QueueDelaySink) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != queueDelayVersion {
		return fmt.Errorf("replay: queue-delay snapshot version %d, want %d", v, queueDelayVersion)
	}
	fresh := NewQueueDelaySink()
	overallRaw := r.View()
	if r.Err() == nil {
		if err := fresh.overall.UnmarshalBinary(overallRaw); err != nil {
			return err
		}
	}
	n := r.Int()
	for i := 0; i < n && r.Err() == nil; i++ {
		class := workload.Class(r.Uvarint())
		raw := r.View()
		if r.Err() != nil {
			break
		}
		if _, dup := fresh.byClass[class]; dup {
			return fmt.Errorf("replay: queue-delay snapshot repeats class %v", class)
		}
		sk := new(stats.Sketch)
		if err := sk.UnmarshalBinary(raw); err != nil {
			return err
		}
		fresh.byClass[class] = sk
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("replay: queue-delay snapshot: %w", err)
	}
	*s = *fresh
	return nil
}

// DefaultUtilizationWindow is the occupancy-timeline bucket width: one
// hour, matching the paper's fleet-utilization reporting granularity.
const DefaultUtilizationWindow = 3600.0

// UtilizationSink folds job occupancy intervals into a windowed GPU-seconds
// timeline: window w covers [w*WindowSec, (w+1)*WindowSec) of simulated
// time and accumulates the busy GPU-seconds every placed job overlaps it
// with. Against a known capacity it reports per-window and peak
// utilization. Rejected jobs are not folded.
type UtilizationSink struct {
	windowSec float64
	capacity  int // total GPUs; 0 = unknown (utilization views unavailable)
	busy      map[int64]float64
}

// NewUtilizationSink returns an empty occupancy-timeline sink. windowSec <=
// 0 selects DefaultUtilizationWindow; capacityGPUs 0 records the timeline
// without utilization normalization.
func NewUtilizationSink(windowSec float64, capacityGPUs int) (*UtilizationSink, error) {
	if windowSec <= 0 {
		windowSec = DefaultUtilizationWindow
	}
	if math.IsNaN(windowSec) || math.IsInf(windowSec, 0) {
		return nil, fmt.Errorf("replay: utilization window %v must be finite", windowSec)
	}
	if capacityGPUs < 0 {
		return nil, fmt.Errorf("replay: negative GPU capacity %d", capacityGPUs)
	}
	return &UtilizationSink{windowSec: windowSec, capacity: capacityGPUs, busy: map[int64]float64{}}, nil
}

// newUtilizationSinkEmpty backs the kind registry: the snapshot it decodes
// carries the window width and capacity.
func newUtilizationSinkEmpty() *UtilizationSink {
	s, _ := NewUtilizationSink(0, 0)
	return s
}

func (s *UtilizationSink) init() {
	if s.windowSec <= 0 {
		s.windowSec = DefaultUtilizationWindow
	}
	if s.busy == nil {
		s.busy = map[int64]float64{}
	}
}

// Kind implements Sink.
func (s *UtilizationSink) Kind() string { return KindUtilization }

// AddOutcome spreads one placed job's GPU occupancy over the windows its
// [Start, Finish) interval overlaps.
func (s *UtilizationSink) AddOutcome(o Outcome) error {
	if o.Rejected || o.Finish <= o.Start || o.GPUs <= 0 {
		return nil
	}
	s.init()
	g := float64(o.GPUs)
	for w := int64(math.Floor(o.Start / s.windowSec)); ; w++ {
		lo := float64(w) * s.windowSec
		hi := lo + s.windowSec
		a, b := math.Max(o.Start, lo), math.Min(o.Finish, hi)
		if b > a {
			s.busy[w] += g * (b - a)
		}
		if hi >= o.Finish {
			break
		}
	}
	return nil
}

// Add implements Sink over the plain streaming path: the record occupies
// its cNodes GPUs for one step starting at its arrival.
func (s *UtilizationSink) Add(f workload.Features, t core.Times) error {
	return s.AddOutcome(syntheticOutcome(f, t))
}

// Merge folds another UtilizationSink into the receiver; window widths must
// match, and capacities must agree (zero adopts the other side's).
func (s *UtilizationSink) Merge(other analyze.Sink) error {
	if other == nil {
		return nil
	}
	o, ok := other.(*UtilizationSink)
	if !ok {
		return fmt.Errorf("replay: cannot merge %T into UtilizationSink", other)
	}
	s.init()
	o.init()
	if s.windowSec != o.windowSec {
		return fmt.Errorf("replay: merge of utilization sinks with windows %gs vs %gs", s.windowSec, o.windowSec)
	}
	switch {
	case s.capacity == 0:
		s.capacity = o.capacity
	case o.capacity != 0 && o.capacity != s.capacity:
		return fmt.Errorf("replay: merge of utilization sinks with capacities %d vs %d GPUs", s.capacity, o.capacity)
	}
	for _, w := range sortedWindows(o.busy) {
		s.busy[w] += o.busy[w]
	}
	return nil
}

// WindowSec returns the window width in seconds.
func (s *UtilizationSink) WindowSec() float64 {
	s.init()
	return s.windowSec
}

// Capacity returns the cluster GPU capacity the sink normalizes against (0
// = unknown).
func (s *UtilizationSink) Capacity() int { return s.capacity }

// Windows lists the window indices with nonzero occupancy, sorted.
func (s *UtilizationSink) Windows() []int64 {
	s.init()
	return sortedWindows(s.busy)
}

// Busy returns window w's accumulated busy GPU-seconds.
func (s *UtilizationSink) Busy(w int64) float64 { return s.busy[w] }

// Utilization returns window w's occupancy fraction, or an error when the
// capacity is unknown.
func (s *UtilizationSink) Utilization(w int64) (float64, error) {
	s.init()
	if s.capacity == 0 {
		return 0, fmt.Errorf("replay: utilization sink has no capacity")
	}
	return s.busy[w] / (float64(s.capacity) * s.windowSec), nil
}

// Peak returns the highest per-window utilization, zero when the timeline
// is empty or the capacity unknown.
func (s *UtilizationSink) Peak() float64 {
	s.init()
	if s.capacity == 0 {
		return 0
	}
	peak := 0.0
	for _, b := range s.busy {
		if u := b / (float64(s.capacity) * s.windowSec); u > peak {
			peak = u
		}
	}
	return peak
}

// utilizationVersion tags the UtilizationSink snapshot layout.
const utilizationVersion = 1

// MarshalBinary encodes the sink; windows are written sorted, so identical
// state yields identical bytes.
func (s *UtilizationSink) MarshalBinary() ([]byte, error) {
	s.init()
	w := binenc.NewWriter(512)
	w.U8(utilizationVersion)
	w.F64(s.windowSec)
	// Capacity is a value, not a length — encode as a bare uvarint (Reader.Int
	// would bounds-check it against the remaining snapshot bytes).
	w.Uvarint(uint64(s.capacity))
	windows := sortedWindows(s.busy)
	w.Int(len(windows))
	for _, win := range windows {
		w.Uvarint(uint64(win))
		w.F64(s.busy[win])
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a MarshalBinary snapshot, replacing the receiver.
func (s *UtilizationSink) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != utilizationVersion {
		return fmt.Errorf("replay: utilization snapshot version %d, want %d", v, utilizationVersion)
	}
	ws := r.F64()
	capacity := int(r.Uvarint())
	if r.Err() == nil && (ws <= 0 || math.IsNaN(ws) || math.IsInf(ws, 0)) {
		return fmt.Errorf("replay: utilization snapshot window %v must be positive", ws)
	}
	fresh := &UtilizationSink{windowSec: ws, capacity: capacity, busy: map[int64]float64{}}
	n := r.Int()
	for i := 0; i < n && r.Err() == nil; i++ {
		win := int64(r.Uvarint())
		b := r.F64()
		if r.Err() != nil {
			break
		}
		if _, dup := fresh.busy[win]; dup {
			return fmt.Errorf("replay: utilization snapshot repeats window %d", win)
		}
		fresh.busy[win] = b
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("replay: utilization snapshot: %w", err)
	}
	*s = *fresh
	return nil
}

// Counters is one population's admission/completion tally.
type Counters struct {
	// Submitted = Completed + Rejected.
	Submitted, Completed, Rejected uint64
	// Stragglers counts completed jobs sampled for straggler slowdown.
	Stragglers uint64
	// GPUSeconds integrates GPU occupancy; QueueDelaySum sums waiting time
	// (both over completed jobs).
	GPUSeconds, QueueDelaySum float64
}

// MeanQueueDelay is the population's average waiting time.
func (c Counters) MeanQueueDelay() float64 {
	if c.Completed == 0 {
		return 0
	}
	return c.QueueDelaySum / float64(c.Completed)
}

func (c *Counters) add(o Outcome) {
	c.Submitted++
	if o.Rejected {
		c.Rejected++
		return
	}
	c.Completed++
	if o.Straggler {
		c.Stragglers++
	}
	c.GPUSeconds += o.GPUSeconds()
	c.QueueDelaySum += o.Wait()
}

func (c *Counters) merge(o *Counters) {
	c.Submitted += o.Submitted
	c.Completed += o.Completed
	c.Rejected += o.Rejected
	c.Stragglers += o.Stragglers
	c.GPUSeconds += o.GPUSeconds
	c.QueueDelaySum += o.QueueDelaySum
}

// CounterSink tallies admissions, completions, rejections, stragglers,
// GPU-seconds and waiting time, in total and per workload class — the
// scalar fleet ledger of a replay. The zero value is usable.
type CounterSink struct {
	total   Counters
	byClass map[workload.Class]*Counters
}

// NewCounterSink returns an empty counter sink.
func NewCounterSink() *CounterSink {
	return &CounterSink{byClass: map[workload.Class]*Counters{}}
}

func (s *CounterSink) init() {
	if s.byClass == nil {
		s.byClass = map[workload.Class]*Counters{}
	}
}

// Kind implements Sink.
func (s *CounterSink) Kind() string { return KindCounters }

// AddOutcome tallies one scheduling outcome.
func (s *CounterSink) AddOutcome(o Outcome) error {
	s.init()
	s.total.add(o)
	c := s.byClass[o.Job.Class]
	if c == nil {
		c = &Counters{}
		s.byClass[o.Job.Class] = c
	}
	c.add(o)
	return nil
}

// Add implements Sink over the plain streaming path: every record counts as
// submitted and completed with zero delay.
func (s *CounterSink) Add(f workload.Features, t core.Times) error {
	return s.AddOutcome(syntheticOutcome(f, t))
}

// Merge folds another CounterSink into the receiver.
func (s *CounterSink) Merge(other analyze.Sink) error {
	if other == nil {
		return nil
	}
	o, ok := other.(*CounterSink)
	if !ok {
		return fmt.Errorf("replay: cannot merge %T into CounterSink", other)
	}
	s.init()
	s.total.merge(&o.total)
	for _, class := range sortedClasses(o.byClass) {
		c := s.byClass[class]
		if c == nil {
			c = &Counters{}
			s.byClass[class] = c
		}
		c.merge(o.byClass[class])
	}
	return nil
}

// Total returns the all-classes tally.
func (s *CounterSink) Total() Counters { return s.total }

// Class returns one class's tally (zero counters for classes never seen).
func (s *CounterSink) Class(c workload.Class) Counters {
	if t := s.byClass[c]; t != nil {
		return *t
	}
	return Counters{}
}

// Classes lists the classes with tallied jobs, sorted.
func (s *CounterSink) Classes() []workload.Class { return sortedClasses(s.byClass) }

// countersVersion tags the CounterSink snapshot layout.
const countersVersion = 1

func marshalCounters(w *binenc.Writer, c *Counters) {
	w.U64(c.Submitted)
	w.U64(c.Completed)
	w.U64(c.Rejected)
	w.U64(c.Stragglers)
	w.F64(c.GPUSeconds)
	w.F64(c.QueueDelaySum)
}

func unmarshalCounters(r *binenc.Reader, c *Counters) {
	c.Submitted = r.U64()
	c.Completed = r.U64()
	c.Rejected = r.U64()
	c.Stragglers = r.U64()
	c.GPUSeconds = r.F64()
	c.QueueDelaySum = r.F64()
}

// MarshalBinary encodes the sink; classes are written sorted, so identical
// state yields identical bytes.
func (s *CounterSink) MarshalBinary() ([]byte, error) {
	s.init()
	w := binenc.NewWriter(256)
	w.U8(countersVersion)
	marshalCounters(w, &s.total)
	classes := sortedClasses(s.byClass)
	w.Int(len(classes))
	for _, class := range classes {
		w.Uvarint(uint64(class))
		marshalCounters(w, s.byClass[class])
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a MarshalBinary snapshot, replacing the receiver.
func (s *CounterSink) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != countersVersion {
		return fmt.Errorf("replay: counters snapshot version %d, want %d", v, countersVersion)
	}
	fresh := NewCounterSink()
	unmarshalCounters(r, &fresh.total)
	n := r.Int()
	for i := 0; i < n && r.Err() == nil; i++ {
		class := workload.Class(r.Uvarint())
		if _, dup := fresh.byClass[class]; dup {
			return fmt.Errorf("replay: counters snapshot repeats class %v", class)
		}
		c := &Counters{}
		unmarshalCounters(r, c)
		fresh.byClass[class] = c
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("replay: counters snapshot: %w", err)
	}
	*s = *fresh
	return nil
}

// sortedClasses returns the map's keys in ascending class order — the
// deterministic iteration order the snapshot encoders and merges use.
func sortedClasses[V any](m map[workload.Class]V) []workload.Class {
	out := make([]workload.Class, 0, len(m))
	for class := range m {
		out = append(out, class)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedWindows returns the timeline's window indices ascending.
func sortedWindows(m map[int64]float64) []int64 {
	out := make([]int64, 0, len(m))
	for w := range m {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
