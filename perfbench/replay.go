package main

import (
	"bufio"
	"context"
	"os"
	"path/filepath"
	"time"
)

// The congested replay: arrivals outpace a small FIFO cluster, so the
// pending queue holds most of each trace for most of its horizon and every
// departure scans the servers for the head job's placement. The cache and
// the report sinks are not used.
//
// The input is replayEpisodes independent arrival-stamped traces of
// replayEpisodeJobs jobs, one colbin block each. A single long congested
// trace makes the cost of a pass hinge on a few giant gangs blocking the
// queue head, which differ from seed to seed; many short ones average that
// out. A pass replays every episode into fresh fleet sinks and merges them
// in order.
const (
	replayEpisodes    = 64
	replayEpisodeJobs = 1024
	replayPerHour     = 6_000
	// replayUploads small episodes of replayUploadJobs jobs; one upload
	// replays the next of them, so a run's upload latencies come from as
	// many different traces as it makes uploads.
	replayUploads       = 64
	replayUploadJobs    = 512
	replayUploadPerHour = 60
)

var replayCluster = replayConfig{servers: 64, steps: 2000}

func generateReplay(dir string, seed int64, _ int) error {
	if err := writeEpisodes(filepath.Join(dir, "trace.colbin"), seed, replayEpisodes, replayEpisodeJobs, replayPerHour); err != nil {
		return err
	}
	return writeEpisodes(filepath.Join(dir, "upload.colbin"), seed+1<<32, replayUploads, replayUploadJobs, replayUploadPerHour)
}

// writeEpisodes writes n independently seeded traces of jobs records each,
// one colbin block per trace.
func writeEpisodes(path string, seed int64, n, jobs int, perHour float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	w := newColbinBlockWriter(bw, jobs)
	for k := 0; k < n; k++ {
		ts := traceSpec{jobs: jobs, seed: seed*int64(n) + int64(k), arrivalPerHour: perHour}
		if err := generate(ts, w.Write); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type congestedReplay struct {
	e          *engine
	trace, upl *colbinInput
	nextUpload int
	last       sink
	stats      []replayStats // of the last pass, per episode
	// bad counts episodes whose simulated counts broke an invariant.
	bad       int
	bytesBase int64
	// Traced rounds: the event loop's self time and the wait for the
	// first evaluated record, summed over episodes.
	loopSelf, firstWait time.Duration
}

func setupReplay(dir string, tr *tracer) (batchRun, error) {
	e, err := newEngine(0, tr)
	if err != nil {
		return nil, err
	}
	w := &congestedReplay{e: e}
	if w.trace, err = readColbin(filepath.Join(dir, "trace.colbin")); err != nil {
		return nil, err
	}
	if w.upl, err = readColbin(filepath.Join(dir, "upload.colbin")); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *congestedReplay) newFleet() (sink, error) { return w.e.newFleetSinks(replayCluster) }

// episode replays block k of in into fresh fleet sinks.
func (w *congestedReplay) episode(ctx context.Context, in *colbinInput, k int) (replayStats, sink, error) {
	fleet, err := w.newFleet()
	if err != nil {
		return replayStats{}, nil, err
	}
	t := w.e.tr
	var sinkBefore int64
	start := time.Now()
	if t != nil {
		t.replayFirst.Store(0)
		sinkBefore = t.replaySink.busyNS.Load()
	}
	st, err := w.e.replay(ctx, in.blockRange(w.e, k, k+1), replayCluster, fleet)
	if err != nil {
		return replayStats{}, nil, err
	}
	if t != nil {
		// The evaluation pipeline runs ahead of the single-threaded event
		// loop, so the loop waits only for the first evaluated block.
		wall := time.Since(start)
		wait := time.Duration(t.replayFirst.Load()) - start.Sub(t.epoch)
		sinkBusy := time.Duration(t.replaySink.busyNS.Load() - sinkBefore)
		w.firstWait += wait
		w.loopSelf += wall - wait - sinkBusy
	}
	if st.submitted != st.completed+st.rejected || st.utilization > 1 || st.submitted != in.ir.Index().Block(k).Records {
		w.bad++
	}
	return st, fleet, nil
}

func (w *congestedReplay) pass(ctx context.Context) (int, error) {
	total, err := w.newFleet()
	if err != nil {
		return 0, err
	}
	w.stats = w.stats[:0]
	n := 0
	for k := 0; k < w.trace.blocks; k++ {
		st, fleet, err := w.episode(ctx, w.trace, k)
		if err != nil {
			return 0, err
		}
		if err := total.Merge(fleet); err != nil {
			return 0, err
		}
		w.stats = append(w.stats, st)
		n += st.submitted
	}
	w.last = total
	return n, nil
}

func (w *congestedReplay) upload(ctx context.Context) error {
	_, _, err := w.episode(ctx, w.upl, w.nextUpload%w.upl.blocks)
	w.nextUpload++
	return err
}

func (w *congestedReplay) snapshot() ([]byte, error) { return payload(w.last) }

func (w *congestedReplay) report() error {
	_, err := w.e.rebuild(w.last, w.newFleet)
	return err
}

// check verifies the simulated invariants of every episode replayed and
// compares the merged fleet snapshot with Engine.Replay's own sinks over
// the same episodes.
func (w *congestedReplay) check(ctx context.Context, r *result, first []byte) error {
	r.check(w.bad == 0, "every replay has submitted = completed + rejected and utilization <= 1 (%d broke it)", w.bad)
	var total sink
	var sum replayStats
	same := true
	for k := 0; k < w.trace.blocks; k++ {
		st, fleet, err := w.e.replayDefault(ctx, w.trace.blockRange(w.e, k, k+1), replayCluster)
		if !checkErr(r, err, "Engine.Replay") {
			return nil
		}
		if total == nil {
			total = fleet
		} else if err := total.Merge(fleet); err != nil {
			return err
		}
		same = same && st == w.stats[k]
		sum.submitted += st.submitted
		sum.completed += st.completed
		sum.rejected += st.rejected
		if st.maxQueueDepth > sum.maxQueueDepth {
			sum.maxQueueDepth = st.maxQueueDepth
		}
	}
	snap, err := payload(total)
	if err != nil {
		return err
	}
	r.check(string(snap) == string(first), "Engine.Replay's merged fleet snapshot equals the timed passes' (%d bytes)", len(first))
	r.check(same, "Engine.Replay's counts equal the timed passes' in every episode")
	r.note("replay %d episodes, %d jobs: completed %d, rejected %d, max queue depth %d",
		w.trace.blocks, sum.submitted, sum.completed, sum.rejected, sum.maxQueueDepth)
	return nil
}

func (w *congestedReplay) markLayers() {
	w.bytesBase = w.trace.bytesRead() + w.upl.bytesRead()
	w.loopSelf, w.firstWait = 0, 0
}

func (w *congestedReplay) layers(r *result, rounds int) {
	per := func(v float64) float64 { return v / float64(rounds) }
	var sum replayStats
	for _, st := range w.stats {
		sum.submitted += st.submitted
		sum.completed += st.completed
		sum.rejected += st.rejected
		if st.maxQueueDepth > sum.maxQueueDepth {
			sum.maxQueueDepth = st.maxQueueDepth
		}
	}
	r.add("colbin.bytes", per(float64(w.trace.bytesRead()+w.upl.bytesRead()-w.bytesBase)), "B", rounds)
	r.add("replay.submitted", float64(sum.submitted), "count", rounds)
	r.add("replay.completed", float64(sum.completed), "count", rounds)
	r.add("replay.rejected", float64(sum.rejected), "count", rounds)
	r.add("replay.max_queue_depth", float64(sum.maxQueueDepth), "count", rounds)
	r.add("replay.loop_self_s", per(w.loopSelf.Seconds()), "s", rounds)
	r.add("stream.deliver_wait_s", per(w.firstWait.Seconds()), "s", rounds)
}
