package analyze

import (
	"fmt"
	"sort"

	"repro/internal/binenc"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fractionGrid is the shared bin grid of every time-fraction sketch: 512
// uniform bins over [0, 1], bounding the interior quantile error of any
// fraction CDF to under 0.2% absolute. Shared edges are what keep per-shard
// sketches mergeable, and a uniform grid makes each fold an O(1) bin lookup.
var fractionGrid = stats.MustGrid(stats.LinGrid(0, 1, 513))

func newFractionSketch() *stats.Sketch { return stats.NewGridSketch(fractionGrid) }

// ComponentCDFSink folds per-job component time fractions into fixed-memory
// CDF sketches per (class, level, component) — the streaming aggregate
// behind the Fig. 8(b-d) panels. One pass over the trace fills every panel;
// memory is O(classes x levels x components x bins) regardless of trace
// size. The zero value is usable.
type ComponentCDFSink struct {
	byClass map[workload.Class]*[2][numComponents]*stats.Sketch
}

// NewComponentCDFSink returns an empty per-class component-fraction sink.
func NewComponentCDFSink() *ComponentCDFSink {
	return &ComponentCDFSink{byClass: map[workload.Class]*[2][numComponents]*stats.Sketch{}}
}

func (s *ComponentCDFSink) init() {
	if s.byClass == nil {
		s.byClass = map[workload.Class]*[2][numComponents]*stats.Sketch{}
	}
}

func (s *ComponentCDFSink) cell(class workload.Class) *[2][numComponents]*stats.Sketch {
	cell := s.byClass[class]
	if cell == nil {
		cell = new([2][numComponents]*stats.Sketch)
		for lvl := range cell {
			for c := range cell[lvl] {
				cell[lvl][c] = newFractionSketch()
			}
		}
		s.byClass[class] = cell
	}
	return cell
}

// Kind implements Sink.
func (s *ComponentCDFSink) Kind() string { return kindComponentCDF }

// Add folds one evaluated job's component fractions at both levels.
func (s *ComponentCDFSink) Add(f workload.Features, t core.Times) error {
	s.init()
	cell := s.cell(f.Class)
	fr := fractions(t)
	wj, wc := JobLevel.weight(f), CNodeLevel.weight(f)
	for c := range fr {
		cell[JobLevel][c].AddWeighted(fr[c], wj)
		cell[CNodeLevel][c].AddWeighted(fr[c], wc)
	}
	return nil
}

// Merge folds another ComponentCDFSink into the receiver.
func (s *ComponentCDFSink) Merge(other Sink) error {
	if other == nil {
		return nil
	}
	o, ok := other.(*ComponentCDFSink)
	if !ok {
		return fmt.Errorf("analyze: cannot merge %T into ComponentCDFSink", other)
	}
	s.init()
	for _, class := range sortedClasses(o.byClass) {
		ocell := o.byClass[class]
		cell := s.cell(class)
		for lvl := range cell {
			for c := range cell[lvl] {
				if err := cell[lvl][c].Merge(ocell[lvl][c]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// CDF returns the fraction sketch for one (class, level, component) panel
// line, or an error when no job of the class has been folded.
func (s *ComponentCDFSink) CDF(class workload.Class, lvl Level, c core.Component) (*stats.Sketch, error) {
	if lvl != JobLevel && lvl != CNodeLevel {
		return nil, fmt.Errorf("analyze: unknown level %v", lvl)
	}
	if int(c) < 0 || int(c) >= numComponents {
		return nil, fmt.Errorf("analyze: unknown component %v", c)
	}
	cell := s.byClass[class]
	if cell == nil {
		return nil, fmt.Errorf("analyze: no jobs of class %v", class)
	}
	return cell[lvl][c], nil
}

// Panel assembles the Fig. 8(b-d) panel for one class and level.
func (s *ComponentCDFSink) Panel(class workload.Class, lvl Level) (ComponentCDFs, error) {
	out := ComponentCDFs{Class: class, Level: lvl, CDF: map[core.Component]*stats.Sketch{}}
	for _, c := range core.Components() {
		sk, err := s.CDF(class, lvl, c)
		if err != nil {
			return ComponentCDFs{}, err
		}
		out.CDF[c] = sk
	}
	return out, nil
}

// Classes lists the classes with folded jobs, sorted.
func (s *ComponentCDFSink) Classes() []workload.Class { return sortedClasses(s.byClass) }

// componentCDFVersion tags the ComponentCDFSink snapshot layout.
const componentCDFVersion = 1

// MarshalBinary encodes the sink; classes are written sorted, so identical
// state yields identical bytes.
func (s *ComponentCDFSink) MarshalBinary() ([]byte, error) {
	s.init()
	classes := sortedClasses(s.byClass)
	const perClass = 2 * numComponents
	raws, size, err := marshalAll(len(classes)*perClass, func(i int) ([]byte, error) {
		cell := s.byClass[classes[i/perClass]]
		return cell[i%perClass/numComponents][i%numComponents].MarshalBinary()
	})
	if err != nil {
		return nil, err
	}
	w := binenc.NewWriter(size + 16*len(classes) + 16)
	w.U8(componentCDFVersion)
	w.Int(len(classes))
	for k, class := range classes {
		w.Uvarint(uint64(class))
		for _, raw := range raws[k*perClass : (k+1)*perClass] {
			w.Raw(raw)
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a MarshalBinary snapshot, replacing the receiver.
func (s *ComponentCDFSink) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != componentCDFVersion {
		return fmt.Errorf("analyze: component-cdf snapshot version %d, want %d", v, componentCDFVersion)
	}
	fresh := NewComponentCDFSink()
	n := r.Int()
	for i := 0; i < n && r.Err() == nil; i++ {
		class := workload.Class(r.Uvarint())
		if _, dup := fresh.byClass[class]; dup {
			return fmt.Errorf("analyze: component-cdf snapshot repeats class %v", class)
		}
		cell := new([2][numComponents]*stats.Sketch)
		for lvl := range cell {
			for c := range cell[lvl] {
				raw := r.View()
				if r.Err() != nil {
					break
				}
				sk := new(stats.Sketch)
				if err := sk.UnmarshalBinary(raw); err != nil {
					return err
				}
				cell[lvl][c] = sk
			}
		}
		fresh.byClass[class] = cell
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("analyze: component-cdf snapshot: %w", err)
	}
	*s = *fresh
	return nil
}

// numHardware covers the closed hardware-attribution set of Fig. 8(a).
const numHardware = core.NumHardwareComponents

// HardwareCDFSink folds per-job hardware time fractions over all jobs into
// fixed-memory CDF sketches per (level, hardware component) — the streaming
// aggregate behind the Fig. 8(a) panel. The zero value is usable.
type HardwareCDFSink struct {
	byLevel [][]*stats.Sketch // [2][numHardware], nil until first use
}

// NewHardwareCDFSink returns an empty hardware-fraction sink.
func NewHardwareCDFSink() *HardwareCDFSink {
	s := &HardwareCDFSink{}
	s.init()
	return s
}

func (s *HardwareCDFSink) init() {
	if s.byLevel != nil {
		return
	}
	s.byLevel = make([][]*stats.Sketch, 2)
	for lvl := range s.byLevel {
		s.byLevel[lvl] = make([]*stats.Sketch, numHardware)
		for h := range s.byLevel[lvl] {
			s.byLevel[lvl][h] = newFractionSketch()
		}
	}
}

// Kind implements Sink.
func (s *HardwareCDFSink) Kind() string { return kindHardwareCDF }

// Add folds one evaluated job's hardware fractions at both levels.
func (s *HardwareCDFSink) Add(f workload.Features, t core.Times) error {
	s.init()
	s.add(t.HardwareFractions(), JobLevel.weight(f), CNodeLevel.weight(f))
	return nil
}

// add folds one job's hardware-fraction vector at both levels; Add and
// AddColumns share it so both routes run the same operations.
func (s *HardwareCDFSink) add(fr [numHardware]float64, wj, wc float64) {
	for h := range fr {
		s.byLevel[JobLevel][h].AddWeighted(fr[h], wj)
		s.byLevel[CNodeLevel][h].AddWeighted(fr[h], wc)
	}
}

// Merge folds another HardwareCDFSink into the receiver.
func (s *HardwareCDFSink) Merge(other Sink) error {
	if other == nil {
		return nil
	}
	o, ok := other.(*HardwareCDFSink)
	if !ok {
		return fmt.Errorf("analyze: cannot merge %T into HardwareCDFSink", other)
	}
	s.init()
	o.init()
	for lvl := range s.byLevel {
		for h := range s.byLevel[lvl] {
			if err := s.byLevel[lvl][h].Merge(o.byLevel[lvl][h]); err != nil {
				return err
			}
		}
	}
	return nil
}

// CDF returns the fraction sketch for one (level, hardware component) line.
func (s *HardwareCDFSink) CDF(lvl Level, h core.HardwareComponent) (*stats.Sketch, error) {
	if lvl != JobLevel && lvl != CNodeLevel {
		return nil, fmt.Errorf("analyze: unknown level %v", lvl)
	}
	if int(h) < 0 || int(h) >= numHardware {
		return nil, fmt.Errorf("analyze: unknown hardware component %v", h)
	}
	s.init()
	return s.byLevel[lvl][h], nil
}

// Panel assembles the Fig. 8(a) panel for one level, or returns an error
// when no job has been folded.
func (s *HardwareCDFSink) Panel(lvl Level) (HardwareCDFs, error) {
	s.init()
	if s.byLevel[JobLevel][0].Weight() == 0 {
		return HardwareCDFs{}, fmt.Errorf("analyze: no jobs folded into the hardware CDF sink")
	}
	out := HardwareCDFs{Level: lvl, CDF: map[core.HardwareComponent]*stats.Sketch{}}
	for _, h := range core.HardwareComponents() {
		sk, err := s.CDF(lvl, h)
		if err != nil {
			return HardwareCDFs{}, err
		}
		out.CDF[h] = sk
	}
	return out, nil
}

// hardwareCDFVersion tags the HardwareCDFSink snapshot layout.
const hardwareCDFVersion = 1

// MarshalBinary encodes the sink deterministically.
func (s *HardwareCDFSink) MarshalBinary() ([]byte, error) {
	s.init()
	raws, size, err := marshalAll(len(s.byLevel)*numHardware, func(i int) ([]byte, error) {
		return s.byLevel[i/numHardware][i%numHardware].MarshalBinary()
	})
	if err != nil {
		return nil, err
	}
	w := binenc.NewWriter(size + 16)
	w.U8(hardwareCDFVersion)
	w.Int(numHardware)
	for _, raw := range raws {
		w.Raw(raw)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a MarshalBinary snapshot, replacing the receiver.
func (s *HardwareCDFSink) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != hardwareCDFVersion {
		return fmt.Errorf("analyze: hardware-cdf snapshot version %d, want %d", v, hardwareCDFVersion)
	}
	if n := r.Int(); r.Err() == nil && n != numHardware {
		return fmt.Errorf("analyze: hardware-cdf snapshot has %d hardware components, want %d", n, numHardware)
	}
	fresh := NewHardwareCDFSink()
	for lvl := range fresh.byLevel {
		for h := range fresh.byLevel[lvl] {
			raw := r.View()
			if r.Err() != nil {
				break
			}
			sk := new(stats.Sketch)
			if err := sk.UnmarshalBinary(raw); err != nil {
				return err
			}
			fresh.byLevel[lvl][h] = sk
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("analyze: hardware-cdf snapshot: %w", err)
	}
	*s = *fresh
	return nil
}

// sortedClasses returns the map's keys in ascending class order, the
// deterministic iteration order every snapshot encoder uses.
func sortedClasses[V any](m map[workload.Class]V) []workload.Class {
	out := make([]workload.Class, 0, len(m))
	for class := range m {
		out = append(out, class)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
