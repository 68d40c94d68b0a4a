// Package window buckets a continuous stream of evaluated jobs into
// fixed-width time windows of mergeable analysis sinks — the serving-side
// counterpart of the batch grid fold (analyze.FoldRanges). A Ring holds the
// most recent B windows of width W seconds, each a live sink that keeps
// folding for as long as the window stays in the ring, so a late arrival is
// one Add into its window. Windows older than the ring are rotated out for
// flat memory under unbounded streams.
//
// Fold merges the last N windows in ascending window order through a fresh
// factory sink — the exact merge shape of analyze.FoldRanges — so the folded
// aggregate is byte-identical to evaluating the same records offline, one
// cell per window.
package window

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/workload"
)

// Factory builds one empty per-window sink. Every window of a ring uses the
// same factory, mirroring the per-cell factory of analyze.FoldRanges.
type Factory func() (*analyze.MultiSink, error)

// Ring is the WindowRing: a bounded ring of time windows, each folding the
// jobs whose ArrivalSec falls inside it. Every non-empty window inside the
// ring is a live factory sink, so memory is bounded by Count sinks and a
// window accepts jobs for its whole life in the ring, not just while it is
// the newest. A Ring is not goroutine-safe; callers serialize access.
type Ring struct {
	width   float64
	count   int
	factory Factory

	started bool
	head    int64             // index of the newest window
	windows map[int64]*bucket // non-empty windows inside the ring

	jobs    int64
	late    int64
	dropped int64
	rotated int64
}

// bucket is one non-empty window: its live sink and job count.
type bucket struct {
	sink *analyze.MultiSink
	n    int
}

// New builds a ring of count windows of width seconds each.
func New(width float64, count int, factory Factory) (*Ring, error) {
	if width <= 0 || math.IsNaN(width) || math.IsInf(width, 0) {
		return nil, fmt.Errorf("window: width must be finite and > 0, got %v", width)
	}
	if count <= 0 {
		return nil, fmt.Errorf("window: count must be > 0, got %d", count)
	}
	if factory == nil {
		return nil, errors.New("window: nil factory")
	}
	return &Ring{width: width, count: count, factory: factory,
		windows: map[int64]*bucket{}}, nil
}

// Width returns the window width in seconds.
func (r *Ring) Width() float64 { return r.width }

// Count returns the ring capacity in windows.
func (r *Ring) Count() int { return r.count }

// indexOf maps an arrival time to its window index. Negative and non-finite
// times clamp to window 0 ("unknown arrival lands in the first window").
func (r *Ring) indexOf(arrival float64) int64 {
	if !(arrival > 0) { // catches negatives, zero and NaN
		return 0
	}
	return int64(arrival / r.width)
}

// Add folds one evaluated job into the window its arrival time selects.
// Jobs for windows newer than the head rotate the ring forward; jobs for
// older windows still inside the ring are counted late and added to their
// window; jobs older than the ring are counted and dropped.
func (r *Ring) Add(f workload.Features, t core.Times) error {
	idx := r.indexOf(f.ArrivalSec)
	switch {
	case !r.started:
		r.started, r.head = true, idx
	case idx > r.head:
		r.rotateTo(idx)
	case idx <= r.head-int64(r.count):
		r.dropped++
		return nil
	case idx < r.head:
		r.late++
	}
	b, ok := r.windows[idx]
	if !ok {
		s, err := r.factory()
		if err != nil {
			return err
		}
		b = &bucket{sink: s}
	}
	if err := b.sink.Add(f, t); err != nil {
		return err
	}
	if !ok {
		r.windows[idx] = b
	}
	b.n++
	r.jobs++
	return nil
}

// rotateTo moves the head to idx and prunes the windows that fall off the
// ring.
func (r *Ring) rotateTo(idx int64) {
	r.head = idx
	oldest := idx - int64(r.count) + 1
	for w := range r.windows {
		if w < oldest {
			delete(r.windows, w)
			r.rotated++
		}
	}
}

// Fold merges the newest lastN windows (lastN <= 0 or > Count folds the
// whole ring) into one fresh sink, in ascending window order — the merge
// shape of analyze.FoldRanges with one cell per window, so the result is
// byte-identical to the offline fold of the same records. The second return
// is the number of jobs in the folded windows. An unstarted ring folds to an
// empty factory sink.
func (r *Ring) Fold(lastN int) (*analyze.MultiSink, int, error) {
	if lastN <= 0 || lastN > r.count {
		lastN = r.count
	}
	total, err := r.factory()
	if err != nil {
		return nil, 0, err
	}
	jobs := 0
	for w := r.head - int64(lastN) + 1; w <= r.head; w++ {
		b, ok := r.windows[w]
		if !ok {
			continue // empty window: merging it would be a no-op
		}
		if err := total.Merge(b.sink); err != nil {
			return nil, 0, fmt.Errorf("window: fold window %d: %w", w, err)
		}
		jobs += b.n
	}
	return total, jobs, nil
}

// Stats is a point-in-time occupancy snapshot for /metrics.
type Stats struct {
	// Jobs counts every job folded into the ring (late arrivals included,
	// too-old drops excluded).
	Jobs int64 `json:"jobs"`
	// Head is the index of the newest window (arrival 0 is window 0).
	Head int64 `json:"head_window"`
	// Occupied counts non-empty windows currently in the ring.
	Occupied int `json:"windows_occupied"`
	// Late counts out-of-order arrivals folded into a window behind the
	// head.
	Late int64 `json:"late_arrivals"`
	// Dropped counts arrivals older than the whole ring, silently skipped.
	Dropped int64 `json:"dropped_too_old"`
	// Rotated counts non-empty windows aged out of the ring.
	Rotated int64 `json:"windows_rotated"`
}

// Stats reports ring occupancy.
func (r *Ring) Stats() Stats {
	return Stats{Jobs: r.jobs, Head: r.head, Occupied: len(r.windows),
		Late: r.late, Dropped: r.dropped, Rotated: r.rotated}
}

// Windows lists the non-empty window indices currently held, ascending —
// introspection for tests and debugging.
func (r *Ring) Windows() []int64 {
	var ws []int64
	for w := range r.windows {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	return ws
}
