package analyze

import (
	"unsafe"

	"repro/internal/evalcache"
	"repro/internal/project"
	"repro/internal/stream"
)

// The fold memo: production traces resubmit the same jobs again and again,
// so the same evaluated blocks reach the sinks again and again. When a
// block's evaluation is a block-cache hit, the pipeline hands its consumer
// the cache entry (evalcache.Block), and a memoizable sink folds the block
// once into a fresh partial sink of its own configuration, memoized on that
// entry; every later sighting of the block merges the partial instead of
// folding the block's records. Every memoizable sink merges exactly, so a
// merged partial leaves the sink with the same state — and snapshot
// bytes — as folding the records in place.
//
// The partial lives on the cache entry, so it shares the entry's
// hash-and-verify identity, its second-sighting admission and its byte
// budget. Without a cache there are no entries and no memo.

// memoSink is a ColumnSink whose fold of a block the fold memo may replace
// with a merge of the block's memoized partial. Its AddColumns may read only
// the block's keyed columns — everything the cache verifies, so not Name or
// ArrivalSec — and the times, and its Merge must be exact.
type memoSink interface {
	Sink
	ColumnSink
	// memoKey identifies everything besides the block that the sink's fold
	// depends on: its kind and parameters. The key must be comparable; ok
	// is false when the sink cannot be memoized.
	memoKey() (key any, ok bool)
	// newPartial returns an empty sink with the receiver's configuration.
	newPartial() memoSink
	// footprint estimates the sink's resident bytes.
	footprint() int64
}

// addBlock folds one evaluated block into s. With a block-cache entry, a
// MultiSink memoizes member by member and a memoizable sink merges the
// block's partial, reading no columns at all once the partial is built;
// otherwise a column-capable sink takes the whole block and any other sink
// the row loop. A frame hit arrives undecoded and is decoded here only when
// one of those needs its columns. This is the only place the choice is
// made.
func addBlock(s Sink, b *stream.Evaluated) error {
	if blk := b.Memo(); blk != nil {
		if m, ok := s.(*MultiSink); ok {
			for _, member := range m.sinks {
				if err := addBlock(member, b); err != nil {
					return err
				}
			}
			return nil
		}
		if ms, ok := s.(memoSink); ok {
			if key, ok := ms.memoKey(); ok {
				return mergePartial(ms, key, b, blk)
			}
		}
	}
	cols, times, err := b.Columns()
	if err != nil {
		return err
	}
	if cs, ok := s.(ColumnSink); ok {
		return cs.AddColumns(cols, times)
	}
	for i := 0; i < cols.Len(); i++ {
		if err := s.Add(cols.Row(i), times[i]); err != nil {
			return err
		}
	}
	return nil
}

// readsColumns reports whether folding a block-cache hit into s reads the
// block's columns even when every partial is built: s or one of its
// members has no memo key.
func readsColumns(s Sink) bool {
	if m, ok := s.(*MultiSink); ok {
		for _, member := range m.sinks {
			if readsColumns(member) {
				return true
			}
		}
		return false
	}
	if ms, ok := s.(memoSink); ok {
		_, ok := ms.memoKey()
		return !ok
	}
	return true
}

// mergePartial merges the block's partial for key into s, folding the block
// into a fresh partial first when this is the key's first sighting.
func mergePartial(s memoSink, key any, b *stream.Evaluated, blk *evalcache.Block) error {
	p, err := blk.Memo(key, func() (any, int64, error) {
		cols, times, err := b.Columns()
		if err != nil {
			return nil, 0, err
		}
		part := s.newPartial()
		if err := part.AddColumns(cols, times); err != nil {
			return nil, 0, err
		}
		return part, part.footprint(), nil
	})
	if err != nil {
		return err
	}
	return s.Merge(p.(Sink))
}

// Memo keys of the parameterless sinks are their kinds; ProjectionSink's
// key adds its target and projector.
func (a *BreakdownAccumulator) memoKey() (any, bool) { return kindBreakdown, true }
func (s *ComponentCDFSink) memoKey() (any, bool)     { return kindComponentCDF, true }
func (s *HardwareCDFSink) memoKey() (any, bool)      { return kindHardwareCDF, true }

// projectionMemoKey is a ProjectionSink's memo key: its target and the
// identity of its projector's evaluation.
type projectionMemoKey struct {
	target    project.Target
	projector any
}

func (s *ProjectionSink) memoKey() (any, bool) {
	if s.pr == nil {
		return nil, false
	}
	pk, ok := s.pr.MemoKey()
	if !ok {
		return nil, false
	}
	return projectionMemoKey{target: s.target, projector: pk}, true
}

func (a *BreakdownAccumulator) newPartial() memoSink { return NewBreakdownAccumulator() }
func (s *ComponentCDFSink) newPartial() memoSink     { return NewComponentCDFSink() }
func (s *HardwareCDFSink) newPartial() memoSink      { return NewHardwareCDFSink() }
func (s *ProjectionSink) newPartial() memoSink {
	return &ProjectionSink{target: s.target, pr: s.pr}
}

func (a *BreakdownAccumulator) footprint() int64 {
	a.init()
	return int64(unsafe.Sizeof(*a)) + int64(len(a.byClass))*int64(unsafe.Sizeof(classCell{})) + a.stepHist.Footprint()
}

func (s *ComponentCDFSink) footprint() int64 {
	var n int64
	for _, cell := range s.byClass {
		for lvl := range cell {
			for c := range cell[lvl] {
				n += cell[lvl][c].Footprint()
			}
		}
	}
	return n
}

func (s *HardwareCDFSink) footprint() int64 {
	s.init()
	var n int64
	for lvl := range s.byLevel {
		for _, sk := range s.byLevel[lvl] {
			n += sk.Footprint()
		}
	}
	return n
}

func (s *ProjectionSink) footprint() int64 {
	return int64(unsafe.Sizeof(*s)) + s.acc.NodeSpeedups().Footprint() + s.acc.ThroughputSpeedups().Footprint()
}
