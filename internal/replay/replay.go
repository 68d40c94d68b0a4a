// Package replay is the discrete-event cluster replay engine: it streams an
// arrival-stamped trace from any stream.Source through the Table II
// placement rules (placementFor) against an internal/cluster inventory,
// with per-job durations predicted by a backend evaluator, and folds
// fleet-level outcomes (queue delays, occupancy timelines, admission
// counters) into analyze.Sink aggregates.
//
// The pipeline has two halves. Per-job evaluation rides stream.EvaluateBlocks
// over stream.Blocks(src) — block by block, parallel, cache-eligible — which
// delivers results to a single goroutine in submission order. That goroutine runs the event loop: it
// advances simulated time to each arrival, releases completed jobs'
// GPUs, admits or rejects the arrival, queues it under the configured
// scheduling policy, and places queue heads greedily on the most-free
// servers. Because the loop is single-threaded and fed in input order, a
// replay is deterministic: same trace + same Config means byte-identical
// sink snapshots regardless of evaluation parallelism.
//
// With capacity at least the trace's peak concurrency and the FIFO policy,
// queueing never engages: every job starts the instant it arrives, outcomes
// are dispatched in submission order, and plain sinks (breakdowns, CDFs)
// receive the exact Add sequence the streaming evaluation path produces —
// so their snapshots are byte-identical to Engine.StreamInto over the same
// records.
package replay

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/analyze"
	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/workload"
)

// ErrNoArrivals reports a trace without arrival stamps: every record's
// arrival_sec is zero (or absent). Replay is a queueing simulation over the
// arrival process, so an unstamped trace is almost always a mistake —
// regenerate it with `tracegen -rate R`, or set Config.AllowUnstamped for a
// deliberate batch replay where every job is submitted at t=0.
var ErrNoArrivals = errors.New("replay: trace carries no arrival stamps (arrival_sec); generate one with tracegen -rate, or allow batch replay explicitly")

// ErrUnsortedArrivals reports a trace whose records are not in
// nondecreasing arrival_sec order. The replay consumes arrivals as a
// time-ordered event stream; sort or regenerate the trace.
var ErrUnsortedArrivals = errors.New("replay: arrivals are not in nondecreasing order")

// Config parameterizes one replay run.
type Config struct {
	// Cluster is the capacity inventory the replay schedules against.
	Cluster *cluster.Cluster
	// Policy names a scheduling policy (PolicyNames); empty selects FIFO.
	Policy string
	// Steps maps a job to its training-step count, which scales the
	// predicted step time into the job's runtime. Nil runs every job for
	// one step.
	Steps func(index int, f workload.Features) int
	// QueueLimit, when positive, is the admission bound: an arrival that
	// finds QueueLimit jobs already pending is rejected instead of queued.
	// Zero means no bound.
	QueueLimit int
	// StragglerFraction samples that fraction of admitted jobs (by a
	// deterministic hash of the submission index) as stragglers.
	StragglerFraction float64
	// StragglerFactor multiplies a straggler's runtime; <= 0 means 1 (no
	// slowdown).
	StragglerFactor float64
	// StragglerSeed decorrelates the straggler sample across runs.
	StragglerSeed int64
	// AllowUnstamped accepts traces whose records all arrive at t=0 (a
	// batch replay) instead of failing with ErrNoArrivals.
	AllowUnstamped bool
}

// Outcome is the replay's per-job result: the evaluated record plus the
// scheduling decision. OutcomeSinks receive one Outcome per submission, in
// submission order for arrivals and in placement order for starts (the two
// coincide whenever queueing never engages).
type Outcome struct {
	// Index is the job's 0-based position in the submission stream.
	Index int
	// Job is the feature record as submitted.
	Job workload.Features
	// Times is the backend's per-step breakdown (never straggler-scaled;
	// plain sinks fold the model's prediction, not the injected fault).
	Times core.Times
	// Steps is the number of training steps replayed.
	Steps int
	// GPUs is the total GPU allocation; Servers the distinct servers used.
	GPUs, Servers int
	// Arrival, Start and Finish are simulation times in seconds. Rejected
	// jobs carry Start = Finish = Arrival.
	Arrival, Start, Finish float64
	// Duration is the scheduled runtime (Times.Total() x Steps, times the
	// straggler factor when Straggler).
	Duration float64
	// Straggler marks jobs sampled for straggler slowdown.
	Straggler bool
	// Rejected marks jobs refused admission; Reason says why.
	Rejected bool
	Reason   string
}

// Wait is the job's queueing delay (Start - Arrival); zero for rejected
// jobs.
func (o Outcome) Wait() float64 { return o.Start - o.Arrival }

// GPUSeconds is the job's occupancy integral; zero for rejected jobs.
func (o Outcome) GPUSeconds() float64 { return float64(o.GPUs) * (o.Finish - o.Start) }

// OutcomeSink is the fleet-level fold surface: sinks that understand
// scheduling outcomes (queue delay, utilization, admission counters)
// implement it beside analyze.Sink. The replay dispatches an Outcome to
// OutcomeSinks and a plain Add(f, times) to every other sink (MultiSinks
// are walked member by member); rejected jobs reach only OutcomeSinks.
type OutcomeSink interface {
	AddOutcome(o Outcome) error
}

// Result summarizes one replay run. The distributional views live in the
// sinks; Result carries the scalar fleet aggregates every caller wants.
type Result struct {
	// Policy is the scheduling policy the run used.
	Policy string
	// Servers and GPUs echo the cluster capacity.
	Servers, GPUs int
	// Submitted = Completed + Rejected; Stragglers counts the sampled
	// slow jobs among the completed.
	Submitted, Completed, Rejected, Stragglers int
	// Makespan is the last completion time; Horizon the last arrival time.
	Makespan, Horizon float64
	// GPUSeconds integrates GPU occupancy over all completed jobs.
	GPUSeconds float64
	// Utilization is GPUSeconds / (GPUs x Makespan).
	Utilization float64
	// TotalQueueDelay sums Start - Arrival over completed jobs.
	TotalQueueDelay float64
	// MaxQueueDepth is the largest pending-queue length observed.
	MaxQueueDepth int
}

// MeanQueueDelay is the average queueing delay of completed jobs.
func (r Result) MeanQueueDelay() float64 {
	if r.Completed == 0 {
		return 0
	}
	return r.TotalQueueDelay / float64(r.Completed)
}

// Run replays every job from src through the scheduler under cfg,
// evaluating per-step times through ev over a pool of parallelism workers,
// and dispatches per-job outcomes into sink (which may be nil, or an
// analyze.MultiSink bundling OutcomeSinks with plain sinks). It returns the
// fleet-level summary.
func Run(ctx context.Context, ev backend.Evaluator, parallelism int, src stream.Source, cfg Config, sink analyze.Sink) (Result, error) {
	if cfg.Cluster == nil {
		return Result{}, fmt.Errorf("replay: nil cluster")
	}
	if cfg.StragglerFraction < 0 || cfg.StragglerFraction > 1 || math.IsNaN(cfg.StragglerFraction) {
		return Result{}, fmt.Errorf("replay: straggler fraction %v outside [0,1]", cfg.StragglerFraction)
	}
	factor := cfg.StragglerFactor
	if factor <= 0 {
		factor = 1
	}
	if math.IsNaN(factor) || math.IsInf(factor, 0) {
		return Result{}, fmt.Errorf("replay: straggler factor %v must be finite", cfg.StragglerFactor)
	}
	st, err := newState(cfg, factor, sink)
	if err != nil {
		return Result{}, err
	}
	_, err = stream.EvaluateBlocks(ctx, ev, stream.Blocks(src), parallelism, func(r stream.Result) error {
		return st.submit(r.Index, r.Job, r.Times)
	})
	if err != nil {
		return Result{}, err
	}
	if err := st.drain(); err != nil {
		return Result{}, err
	}
	if !cfg.AllowUnstamped && st.submitted > 1 && !st.sawArrival {
		return Result{}, ErrNoArrivals
	}
	return st.result(), nil
}

// state is the single-threaded event loop: all fields are touched only from
// the stream collector goroutine.
type state struct {
	cfg     Config
	policy  string
	factor  float64
	sink    analyze.Sink
	servers []cluster.Server

	gpusPerServer int
	totalGPUs     int

	// free[s] is server s's currently free GPU count and level[k] the
	// bitset of servers with exactly k free GPUs; move keeps the two in
	// step and is the only writer of either.
	free  []int
	level [][]uint64
	// taken marks the servers a distinct placement attempt already holds
	// and picks is the attempt's scratch allocation; both are empty
	// between attempts.
	taken []uint64
	picks []allocation
	// blocked is the queue head whose last placement attempt failed; it is
	// not retried until a release or a start changes free.
	blocked *pendingJob

	pending minHeap[*pendingJob]
	events  minHeap[event]
	seq     int

	now         float64
	lastArrival float64
	sawArrival  bool

	submitted, completed, rejected, stragglers int
	gpuSeconds, totalWait, makespan, horizon   float64
	maxQueueDepth                              int
}

func newState(cfg Config, factor float64, sink analyze.Sink) (*state, error) {
	policy, less, err := policyOrder(cfg.Policy)
	if err != nil {
		return nil, err
	}
	n := cfg.Cluster.NumServers()
	words := (n + 63) / 64
	st := &state{
		cfg:           cfg,
		policy:        policy,
		factor:        factor,
		sink:          sink,
		gpusPerServer: cfg.Cluster.Config().GPUsPerServer,
		totalGPUs:     cfg.Cluster.NumGPUs(),
		free:          make([]int, n),
		taken:         make([]uint64, words),
		pending:       minHeap[*pendingJob]{less: less},
	}
	st.level = make([][]uint64, st.gpusPerServer+1)
	for k := range st.level {
		st.level[k] = make([]uint64, words)
	}
	st.servers = make([]cluster.Server, n)
	for i := 0; i < n; i++ {
		srv, _ := cfg.Cluster.Server(i)
		st.servers[i] = srv
		st.level[0][i>>6] |= 1 << (i & 63)
		st.move(i, srv.NumGPUs)
	}
	st.events.less = func(a, b event) bool {
		if a.time != b.time {
			return a.time < b.time
		}
		return a.seq < b.seq
	}
	return st, nil
}

// move changes server s's free GPU count by delta and moves its bit to the
// matching level.
func (st *state) move(s, delta int) {
	w, bit := s>>6, uint64(1)<<(s&63)
	st.level[st.free[s]][w] &^= bit
	st.free[s] += delta
	st.level[st.free[s]][w] |= bit
}

// submit processes one evaluated arrival: advance time, admit or reject,
// queue, and schedule whatever fits.
func (st *state) submit(index int, f workload.Features, times core.Times) error {
	arrival := f.ArrivalSec
	if arrival < st.lastArrival {
		return fmt.Errorf("%w: job %d (%q) arrives at %gs after a job at %gs",
			ErrUnsortedArrivals, index, f.Name, arrival, st.lastArrival)
	}
	st.lastArrival = arrival
	if arrival > 0 {
		st.sawArrival = true
	}
	if arrival > st.horizon {
		st.horizon = arrival
	}
	if err := st.advanceTo(arrival); err != nil {
		return err
	}
	st.now = arrival
	st.submitted++

	steps := 1
	if st.cfg.Steps != nil {
		steps = st.cfg.Steps(index, f)
		if steps <= 0 {
			return fmt.Errorf("replay: job %d (%q): steps must be positive, got %d", index, f.Name, steps)
		}
	}

	if f.CNodes <= 0 {
		// workload.Features.Validate refuses these too; a gang of no GPUs
		// (or fewer) has no place on the free-level index.
		return fmt.Errorf("replay: job %d (%q): CNodes must be positive, got %d", index, f.Name, f.CNodes)
	}
	place, perr := placementFor(f, st.gpusPerServer)
	if errors.Is(perr, errUnknownClass) {
		// An unknown class is a malformed record, not an admission decision.
		return fmt.Errorf("replay: job %d: %w", index, perr)
	}
	// Admission: jobs the cluster can never host are rejected and counted
	// (the real cluster is far larger than any replay inventory), as are
	// arrivals past the queue bound.
	reason := ""
	switch {
	case perr != nil:
		reason = perr.Error()
	case place.needsNVLink && !st.cfg.Cluster.Config().HasNVLink:
		reason = fmt.Sprintf("class %v requires NVLink servers", f.Class)
	case place.servers() > len(st.servers):
		reason = fmt.Sprintf("needs %d distinct servers, cluster has %d", place.servers(), len(st.servers))
	case st.cfg.QueueLimit > 0 && len(st.pending.items) >= st.cfg.QueueLimit:
		reason = fmt.Sprintf("admission queue full (%d pending)", len(st.pending.items))
	}
	if reason != "" {
		st.rejected++
		return st.dispatch(Outcome{
			Index: index, Job: f, Times: times, Steps: steps,
			Arrival: arrival, Start: arrival, Finish: arrival,
			Rejected: true, Reason: reason,
		})
	}

	duration := times.Total() * float64(steps)
	straggler := st.cfg.StragglerFraction > 0 && sampleStraggler(st.cfg.StragglerSeed, index, st.cfg.StragglerFraction)
	if straggler {
		duration *= st.factor
		st.stragglers++
	}
	// placementFor returns a fresh slice, so it is sorted in place. Largest
	// gang first: fit the hardest gang while the most servers are free.
	gangs := place.gangs
	for i := 1; i < len(gangs); i++ {
		for j := i; j > 0 && gangs[j] > gangs[j-1]; j-- {
			gangs[j], gangs[j-1] = gangs[j-1], gangs[j]
		}
	}
	st.pending.push(&pendingJob{
		q: queuedJob{index: index, arrival: arrival, duration: duration, gpus: place.gpus()},
		f: f, times: times, steps: steps,
		gangs: gangs, distinct: place.distinct, straggler: straggler,
	})
	st.maxQueueDepth = max(st.maxQueueDepth, len(st.pending.items))
	return st.schedule()
}

// advanceTo processes every completion event up to and including time t,
// re-scheduling after each release instant.
func (st *state) advanceTo(t float64) error {
	for len(st.events.items) > 0 && st.events.items[0].time <= t {
		at := st.events.items[0].time
		for len(st.events.items) > 0 && st.events.items[0].time == at {
			e := st.events.pop()
			for _, a := range e.alloc {
				st.move(a.server, a.gpus)
			}
		}
		st.blocked = nil
		st.now = at
		if err := st.schedule(); err != nil {
			return err
		}
	}
	return nil
}

// schedule starts queue heads while they fit (head-of-line blocking under
// the configured policy's order). A head that already failed is not tried
// again while free is unchanged: placement reads nothing else, so the retry
// would fail the same way.
func (st *state) schedule() error {
	for len(st.pending.items) > 0 {
		head := st.pending.items[0]
		if head == st.blocked {
			return nil
		}
		alloc, ok := st.tryPlace(head.gangs, head.distinct)
		if !ok {
			st.blocked = head
			return nil
		}
		st.blocked = nil
		j := st.pending.pop()
		start := st.now
		finish := start + j.q.duration
		st.completed++
		st.gpuSeconds += float64(j.q.gpus) * j.q.duration
		st.totalWait += start - j.q.arrival
		if finish > st.makespan {
			st.makespan = finish
		}
		st.events.push(event{time: finish, seq: st.seq, alloc: alloc})
		st.seq++
		if err := st.dispatch(Outcome{
			Index: j.q.index, Job: j.f, Times: j.times, Steps: j.steps,
			GPUs: j.q.gpus, Servers: len(alloc),
			Arrival: j.q.arrival, Start: start, Finish: finish,
			Duration: j.q.duration, Straggler: j.straggler,
		}); err != nil {
			return err
		}
	}
	return nil
}

// allocation is one server's share of a placed job.
type allocation struct {
	server, gpus int
}

// tryPlace attempts the greedy placement: for each gang (largest first),
// the server with the most free GPUs that fits it — ties to the lowest
// server index — skipping servers the attempt already uses when the
// placement is distinct. Walking level[k] from the top level down to the
// gang size and taking the lowest set bit of level[k] &^ taken is exactly
// that pick, at O(levels × ⌈servers/64⌉) per gang instead of O(servers).
// Each pick is applied to free as it is made; on success those moves are
// the commit and the merged per-server allocation is returned, on failure
// they are undone in reverse and ok=false leaves no state modified.
func (st *state) tryPlace(gangs []int, distinct bool) ([]allocation, bool) {
	picks := st.picks[:0]
	ok := true
	for _, g := range gangs {
		best := st.pick(g, distinct)
		if best < 0 {
			ok = false
			break
		}
		st.move(best, -g)
		if distinct {
			st.taken[best>>6] |= 1 << (best & 63)
		}
		picks = append(picks, allocation{server: best, gpus: g})
	}
	if distinct {
		for _, a := range picks {
			st.taken[a.server>>6] = 0
		}
	}
	st.picks = picks
	if !ok {
		for i := len(picks) - 1; i >= 0; i-- {
			st.move(picks[i].server, picks[i].gpus)
		}
		return nil, false
	}
	// Merge same-server entries (non-distinct placements may stack gangs).
	merged := picks[:0]
	for _, a := range picks {
		if n := len(merged); n > 0 && merged[n-1].server == a.server {
			merged[n-1].gpus += a.gpus
			continue
		}
		merged = append(merged, a)
	}
	return append([]allocation(nil), merged...), true
}

// pick returns the server with the most free GPUs, at least g, that is not
// taken when distinct — ties to the lowest index — or -1 when none fits.
func (st *state) pick(g int, distinct bool) int {
	for k := len(st.level) - 1; k >= g; k-- {
		for w, set := range st.level[k] {
			if distinct {
				set &^= st.taken[w]
			}
			if set != 0 {
				return w<<6 | bits.TrailingZeros64(set)
			}
		}
	}
	return -1
}

// drain runs the simulation to completion after the last arrival.
func (st *state) drain() error {
	for len(st.events.items) > 0 || len(st.pending.items) > 0 {
		if len(st.events.items) == 0 {
			// Admission screens every queue entry for feasibility on an
			// empty cluster, so a stuck queue with no in-flight work is a
			// bug, not a trace property.
			return fmt.Errorf("replay: %d jobs pending with no running work (placement bug)", len(st.pending.items))
		}
		if err := st.advanceTo(st.events.items[0].time); err != nil {
			return err
		}
	}
	// Conservation: with every job departed, every GPU is free again. A
	// leaked or double-released allocation would otherwise go unnoticed.
	for s, srv := range st.servers {
		if st.free[s] != srv.NumGPUs {
			return fmt.Errorf("replay: server %d ends with %d of %d GPUs free (placement bug)", s, st.free[s], srv.NumGPUs)
		}
	}
	return nil
}

// dispatch routes one outcome into the sink tree: OutcomeSinks get the full
// outcome, MultiSinks are walked per member, and plain sinks get the
// evaluated record via Add — except for rejected jobs, which never ran and
// so never reach plain sinks.
func (st *state) dispatch(o Outcome) error {
	return dispatchInto(st.sink, o)
}

func dispatchInto(sink analyze.Sink, o Outcome) error {
	switch s := sink.(type) {
	case nil:
		return nil
	case *analyze.MultiSink:
		for _, m := range s.Sinks() {
			if err := dispatchInto(m, o); err != nil {
				return err
			}
		}
		return nil
	case OutcomeSink:
		return s.AddOutcome(o)
	default:
		if o.Rejected {
			return nil
		}
		return sink.Add(o.Job, o.Times)
	}
}

func (st *state) result() Result {
	r := Result{
		Policy:  st.policy,
		Servers: len(st.servers), GPUs: st.totalGPUs,
		Submitted: st.submitted, Completed: st.completed,
		Rejected: st.rejected, Stragglers: st.stragglers,
		Makespan: st.makespan, Horizon: st.horizon,
		GPUSeconds:      st.gpuSeconds,
		TotalQueueDelay: st.totalWait,
		MaxQueueDepth:   st.maxQueueDepth,
	}
	if st.makespan > 0 && st.totalGPUs > 0 {
		r.Utilization = st.gpuSeconds / (float64(st.totalGPUs) * st.makespan)
	}
	return r
}

// sampleStraggler deterministically samples a submission index into the
// straggler set: a splitmix64-style hash of (seed, index) compared against
// the fraction. Same seed + index always agree, so replays are reproducible
// across runs and parallelism levels.
func sampleStraggler(seed int64, index int, fraction float64) bool {
	x := uint64(seed) ^ (uint64(index)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < fraction
}

// pendingJob is one queued submission with everything placement and
// dispatch need.
type pendingJob struct {
	q         queuedJob
	f         workload.Features
	times     core.Times
	steps     int
	gangs     []int
	distinct  bool
	straggler bool
}

// event is a job-finish event releasing GPUs back to servers.
type event struct {
	time  float64
	seq   int
	alloc []allocation
}

// minHeap is a binary min-heap under less. The queue orders by the run's
// policy, whose final tiebreak is the unique submission index, and the
// events by completion time, ties by start sequence. The sifts make exactly
// the comparisons container/heap makes, moving the sifted item through a
// hole instead of swapping, so the pop order matches it for any less.
type minHeap[T any] struct {
	items []T
	less  func(a, b T) bool
}

func (h *minHeap[T]) push(x T) {
	h.items = append(h.items, x)
	j := len(h.items) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(x, h.items[i]) {
			break
		}
		h.items[j] = h.items[i]
		j = i
	}
	h.items[j] = x
}

func (h *minHeap[T]) pop() T {
	n := len(h.items) - 1
	top, x := h.items[0], h.items[n]
	var zero T
	h.items[n] = zero
	h.items = h.items[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(h.items[j2], h.items[j]) {
			j = j2
		}
		if !h.less(h.items[j], x) {
			break
		}
		h.items[i] = h.items[j]
		i = j
	}
	h.items[i] = x
	return top
}
