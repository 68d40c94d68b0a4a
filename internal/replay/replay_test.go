package replay

import (
	"bytes"
	"container/heap"
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/stream"
	"repro/internal/workload"
)

func testEvaluator(t testing.TB) backend.Evaluator {
	t.Helper()
	ev, err := backend.New(backend.AnalyticalName, backend.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func testCluster(t testing.TB, servers int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(hw.Baseline(), servers)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// quickJob is a 1w1g record whose step time is dominated by a single compute
// term: 7.7e12 FLOPs at 11 TFLOPS x 70% = exactly 1 second per step.
func quickJob(name string, arrival float64) workload.Features {
	return workload.Features{
		Name: name, Class: workload.OneWorkerOneGPU, CNodes: 1, BatchSize: 8,
		FLOPs: 7.7e12, ArrivalSec: arrival,
	}
}

// classJob is a record of any class with cNodes GPUs and small
// communication terms.
func classJob(name string, class workload.Class, cNodes int, arrival float64) workload.Features {
	return workload.Features{
		Name: name, Class: class, CNodes: cNodes, BatchSize: 8,
		FLOPs: 7.7e12, MemAccessBytes: 1e6, InputBytes: 1e3,
		DenseWeightBytes: 1e6, ArrivalSec: arrival,
	}
}

// captureSink records every outcome in dispatch order.
type captureSink struct {
	outcomes []Outcome
}

func (c *captureSink) Kind() string                                { return "test-capture" }
func (c *captureSink) Add(f workload.Features, t core.Times) error { return nil }
func (c *captureSink) Merge(analyze.Sink) error                    { return nil }
func (c *captureSink) AddOutcome(o Outcome) error                  { c.outcomes = append(c.outcomes, o); return nil }
func (c *captureSink) MarshalBinary() ([]byte, error)              { return nil, nil }
func (c *captureSink) UnmarshalBinary([]byte) error                { return nil }

// plainCountSink counts plain Add calls — the view a breakdown accumulator
// would get.
type plainCountSink struct {
	adds int
}

func (p *plainCountSink) Kind() string                                { return "test-plain" }
func (p *plainCountSink) Add(f workload.Features, t core.Times) error { p.adds++; return nil }
func (p *plainCountSink) Merge(analyze.Sink) error                    { return nil }
func (p *plainCountSink) MarshalBinary() ([]byte, error)              { return nil, nil }
func (p *plainCountSink) UnmarshalBinary([]byte) error                { return nil }

func runReplay(t *testing.T, jobs []workload.Features, cfg Config, sink analyze.Sink) Result {
	t.Helper()
	res, err := Run(context.Background(), testEvaluator(t), 2, stream.NewSliceSource(jobs), cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	ev := testEvaluator(t)
	ctx := context.Background()
	src := func() stream.Source { return stream.NewSliceSource([]workload.Features{quickJob("a", 0)}) }
	cl := testCluster(t, 1)

	if _, err := Run(ctx, ev, 1, src(), Config{}, nil); err == nil {
		t.Error("expected error for nil cluster")
	}
	for _, frac := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := Run(ctx, ev, 1, src(), Config{Cluster: cl, StragglerFraction: frac}, nil); err == nil {
			t.Errorf("expected error for straggler fraction %v", frac)
		}
	}
	if _, err := Run(ctx, ev, 1, src(), Config{Cluster: cl, StragglerFraction: 0.5, StragglerFactor: math.Inf(1)}, nil); err == nil {
		t.Error("expected error for infinite straggler factor")
	}
	if _, err := Run(ctx, ev, 1, src(), Config{Cluster: cl, Policy: "no-such-policy"}, nil); err == nil {
		t.Error("expected error for unknown policy")
	} else if !strings.Contains(err.Error(), fifoName) || !strings.Contains(err.Error(), sjfName) {
		t.Errorf("unknown-policy error %q should list the policy names", err)
	}
	// A class outside Table II is a malformed record, not a rejection.
	odd := quickJob("odd", 0)
	odd.Class = workload.Class(99)
	if _, err := Run(ctx, unvalidatedEvaluator{}, 1, stream.NewSliceSource([]workload.Features{odd}), Config{Cluster: cl}, nil); !errors.Is(err, errUnknownClass) {
		t.Errorf("unknown class: err = %v, want errUnknownClass", err)
	}
	badSteps := Config{Cluster: cl, AllowUnstamped: true,
		Steps: func(int, workload.Features) int { return 0 }}
	if _, err := Run(ctx, ev, 1, src(), badSteps, nil); err == nil {
		t.Error("expected error for non-positive steps")
	}
}

func TestUnstampedTraceRefused(t *testing.T) {
	ev := testEvaluator(t)
	ctx := context.Background()
	cl := testCluster(t, 1)
	jobs := []workload.Features{quickJob("a", 0), quickJob("b", 0)}

	_, err := Run(ctx, ev, 1, stream.NewSliceSource(jobs), Config{Cluster: cl}, nil)
	if !errors.Is(err, ErrNoArrivals) {
		t.Errorf("unstamped multi-job trace: err = %v, want ErrNoArrivals", err)
	}
	// A single job carries no arrival process; it replays without stamps.
	if _, err := Run(ctx, ev, 1, stream.NewSliceSource(jobs[:1]), Config{Cluster: cl}, nil); err != nil {
		t.Errorf("single unstamped job should replay: %v", err)
	}
	// AllowUnstamped opts into batch replay.
	res, err := Run(ctx, ev, 1, stream.NewSliceSource(jobs), Config{Cluster: cl, AllowUnstamped: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Errorf("batch replay completed %d, want 2", res.Completed)
	}
}

func TestUnsortedArrivalsRefused(t *testing.T) {
	ev := testEvaluator(t)
	jobs := []workload.Features{quickJob("a", 5), quickJob("b", 3)}
	_, err := Run(context.Background(), ev, 1, stream.NewSliceSource(jobs),
		Config{Cluster: testCluster(t, 1)}, nil)
	if !errors.Is(err, ErrUnsortedArrivals) {
		t.Errorf("err = %v, want ErrUnsortedArrivals", err)
	}
}

// TestQueueingWhenFull: one 8-GPU server, nine 10-second 1-GPU jobs
// submitted at t=0 — the ninth waits exactly one service time.
func TestQueueingWhenFull(t *testing.T) {
	jobs := make([]workload.Features, 9)
	for i := range jobs {
		jobs[i] = quickJob("j", 0)
	}
	cap := &captureSink{}
	res := runReplay(t, jobs, Config{
		Cluster:        testCluster(t, 1),
		AllowUnstamped: true,
		Steps:          func(int, workload.Features) int { return 10 },
	}, cap)

	if res.Completed != 9 || res.Rejected != 0 {
		t.Fatalf("completed/rejected = %d/%d, want 9/0", res.Completed, res.Rejected)
	}
	if math.Abs(res.Makespan-20) > 1e-9 {
		t.Errorf("makespan = %v, want 20", res.Makespan)
	}
	if math.Abs(res.TotalQueueDelay-10) > 1e-9 {
		t.Errorf("total queue delay = %v, want 10", res.TotalQueueDelay)
	}
	if math.Abs(res.GPUSeconds-90) > 1e-9 {
		t.Errorf("GPU-seconds = %v, want 90", res.GPUSeconds)
	}
	// 90 GPU-seconds over 8 GPUs x 20s.
	if math.Abs(res.Utilization-90.0/160) > 1e-9 {
		t.Errorf("utilization = %v", res.Utilization)
	}
	if res.MaxQueueDepth != 1 {
		t.Errorf("max queue depth = %d, want 1", res.MaxQueueDepth)
	}
	waited := 0
	for _, o := range cap.outcomes {
		if o.Wait() > 1e-9 {
			waited++
			if math.Abs(o.Wait()-10) > 1e-9 {
				t.Errorf("waiting job waited %v, want 10", o.Wait())
			}
		}
	}
	if waited != 1 {
		t.Errorf("%d jobs waited, want 1", waited)
	}
}

// TestSchedulingScenarios pins batch replays of the cluster-level claims,
// including the paper's porting claim: every job of a row runs one runtime
// d (its predicted step time x steps), and each row gives every job's
// queueing delay in units of d and the number of servers its placement
// spans. Starts (arrival + wait·d), finishes (start + d), the makespan, the
// GPU-seconds and the utilization are all compared exactly.
func TestSchedulingScenarios(t *testing.T) {
	porting := func(class workload.Class) []workload.Features {
		jobs := make([]workload.Features, 12)
		for i := range jobs {
			jobs[i] = workload.Features{
				Name: "porting", Class: class, CNodes: 8, BatchSize: 64,
				FLOPs: 1e12, MemAccessBytes: 5e9, InputBytes: 1e6,
				DenseWeightBytes: 1e9, WeightTrafficBytes: 8e9,
			}
		}
		return jobs
	}
	ps := classJob("ps", workload.PSWorker, 4, 0)
	results := map[string]Result{}
	for _, row := range []struct {
		name    string
		servers int
		steps   int
		jobs    []workload.Features
		waits   []float64 // per job, in units of d
		spans   []int     // servers per job
	}{
		{"single-job", 1, 10, []workload.Features{quickJob("a", 0)}, []float64{0}, []int{1}},
		// Two 8-GPU AllReduce-Local gangs on one server: the second starts
		// exactly when the first finishes.
		{"gang-blocks-until-server-free", 1, 1,
			[]workload.Features{classJob("a", workload.AllReduceLocal, 8, 0), classJob("b", workload.AllReduceLocal, 8, 0)},
			[]float64{0, 1}, []int{1, 1}},
		{"arrivals-respected", 1, 1, []workload.Features{quickJob("late", 100)}, []float64{0}, []int{1}},
		{"empty-job-list", 2, 1, nil, nil, nil},
		// Two 4-worker PS jobs on four servers: one worker per server each,
		// and the second still fits beside the first.
		{"ps-workers-on-distinct-servers", 4, 1, []workload.Features{ps, ps}, []float64{0, 0}, []int{4, 4}},
		// A 20-GPU AllReduce-Cluster job packs 8+8+4 onto three servers.
		{"allreduce-cluster-packs-servers", 3, 1,
			[]workload.Features{classJob("arc", workload.AllReduceCluster, 20, 0)}, []float64{0}, []int{3}},
		// Nine 1-GPU jobs on one 8-GPU server: the ninth waits one runtime.
		{"queueing-when-full", 1, 10,
			[]workload.Features{quickJob("j", 0), quickJob("j", 0), quickJob("j", 0), quickJob("j", 0),
				quickJob("j", 0), quickJob("j", 0), quickJob("j", 0), quickJob("j", 0), quickJob("j", 0)},
			[]float64{0, 0, 0, 0, 0, 0, 0, 0, 1}, []int{1, 1, 1, 1, 1, 1, 1, 1, 1}},
		// Twelve 8-worker PS jobs on eight servers, then the same jobs
		// ported to AllReduce-Local: eight run at once either way.
		{"porting/ps-worker", 8, 10, porting(workload.PSWorker),
			[]float64{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1}, []int{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8}},
		{"porting/allreduce-local", 8, 10, porting(workload.AllReduceLocal),
			[]float64{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1}, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
	} {
		t.Run(row.name, func(t *testing.T) {
			cap := &captureSink{}
			res := runReplay(t, row.jobs, Config{
				Cluster:        testCluster(t, row.servers),
				AllowUnstamped: true,
				Steps:          func(int, workload.Features) int { return row.steps },
			}, cap)
			if res.Policy != fifoName {
				t.Errorf("the empty policy name ran %q, want the FIFO default", res.Policy)
			}
			if res.Completed != len(row.jobs) || res.Rejected != 0 || len(cap.outcomes) != len(row.jobs) {
				t.Fatalf("completed/rejected/outcomes = %d/%d/%d, want %d/0/%d",
					res.Completed, res.Rejected, len(cap.outcomes), len(row.jobs), len(row.jobs))
			}
			makespan, gpuSeconds := 0.0, 0.0
			for _, o := range cap.outcomes {
				d := o.Times.Total() * float64(row.steps)
				arrival := row.jobs[o.Index].ArrivalSec
				if start := arrival + row.waits[o.Index]*d; o.Start != start || o.Finish != start+d {
					t.Errorf("job %d: start/finish = %v/%v, want %v/%v", o.Index, o.Start, o.Finish, start, start+d)
				}
				if o.Servers != row.spans[o.Index] || o.GPUs != row.jobs[o.Index].CNodes {
					t.Errorf("job %d: %d GPUs on %d servers, want %d on %d",
						o.Index, o.GPUs, o.Servers, row.jobs[o.Index].CNodes, row.spans[o.Index])
				}
				makespan = max(makespan, o.Finish)
				gpuSeconds += float64(o.GPUs) * d
			}
			util := 0.0
			if makespan > 0 {
				util = gpuSeconds / (float64(res.GPUs) * makespan)
			}
			if res.Makespan != makespan || res.GPUSeconds != gpuSeconds || res.Utilization != util {
				t.Errorf("makespan/GPU-seconds/utilization = %v/%v/%v, want %v/%v/%v",
					res.Makespan, res.GPUSeconds, res.Utilization, makespan, gpuSeconds, util)
			}
			results[row.name] = res
		})
	}

	// The paper's porting claim: AllReduce-Local jobs occupy one server and
	// run faster, so GPU-seconds and makespan both fall on a busy cluster.
	before, after := results["porting/ps-worker"], results["porting/allreduce-local"]
	if after.GPUSeconds >= before.GPUSeconds || after.Makespan >= before.Makespan {
		t.Errorf("porting PS jobs to AllReduce-Local: GPU-seconds %v -> %v, makespan %v -> %v; both should fall",
			before.GPUSeconds, after.GPUSeconds, before.Makespan, after.Makespan)
	}
}

// TestAdmissionRejections: jobs the cluster can never host are rejected and
// reach OutcomeSinks but never plain sinks.
func TestAdmissionRejections(t *testing.T) {
	// A 4-worker PS job needs 4 distinct servers; the cluster has 2.
	jobs := []workload.Features{quickJob("ok", 0), classJob("wide", workload.PSWorker, 4, 1)}
	cap := &captureSink{}
	plain := &plainCountSink{}
	res := runReplay(t, jobs, Config{Cluster: testCluster(t, 2)},
		analyze.NewMultiSink(cap, plain))

	if res.Completed != 1 || res.Rejected != 1 {
		t.Fatalf("completed/rejected = %d/%d, want 1/1", res.Completed, res.Rejected)
	}
	var rej *Outcome
	for i := range cap.outcomes {
		if cap.outcomes[i].Rejected {
			rej = &cap.outcomes[i]
		}
	}
	if rej == nil {
		t.Fatal("no rejected outcome dispatched")
	}
	if rej.Reason == "" {
		t.Error("rejected outcome should carry a reason")
	}
	if rej.Start != rej.Arrival || rej.Finish != rej.Arrival {
		t.Error("rejected outcome should carry Start = Finish = Arrival")
	}
	if rej.GPUSeconds() != 0 || rej.Wait() != 0 {
		t.Error("rejected outcome should carry zero occupancy and wait")
	}
	if plain.adds != 1 {
		t.Errorf("plain sink saw %d adds, want 1 (rejected jobs never ran)", plain.adds)
	}
}

func TestNVLinkRejection(t *testing.T) {
	cl, err := cluster.New(hw.BaselineNoNVLink(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ar := workload.Features{
		Name: "ar", Class: workload.AllReduceLocal, CNodes: 4, BatchSize: 8,
		FLOPs: 7.7e12, DenseWeightBytes: 1e6,
	}
	res := runReplay(t, []workload.Features{ar},
		Config{Cluster: cl, AllowUnstamped: true}, nil)
	if res.Rejected != 1 {
		t.Errorf("AllReduce on a no-NVLink cluster: rejected = %d, want 1", res.Rejected)
	}
}

func TestQueueLimitRejects(t *testing.T) {
	// Fill the single server with eight long jobs, then submit two more:
	// the first queues (depth 1), the second finds the queue full.
	var jobs []workload.Features
	for i := 0; i < 8; i++ {
		jobs = append(jobs, quickJob("blocker", 0))
	}
	jobs = append(jobs, quickJob("queued", 1), quickJob("over", 2))
	res := runReplay(t, jobs, Config{
		Cluster:    testCluster(t, 1),
		QueueLimit: 1,
		Steps:      func(int, workload.Features) int { return 100 },
	}, nil)
	if res.Completed != 9 || res.Rejected != 1 {
		t.Errorf("completed/rejected = %d/%d, want 9/1", res.Completed, res.Rejected)
	}
}

// TestPolicyOrdersDispatch: eight blockers hold the single server until
// t=100, so every later job queues and all start together at t=100; the
// dispatch order is then the policy's queue order alone. A long job queued
// before a short one starts first under FIFO and second under SJF. Two
// equal jobs queued around a shorter one keep their submission order under
// both policies: the tiebreak by index, not the heap's layout, decides.
func TestPolicyOrdersDispatch(t *testing.T) {
	for _, tc := range []struct {
		name      string
		queued    []workload.Features
		steps     map[string]int
		fifo, sjf []string
	}{
		{
			name:   "long-then-short",
			queued: []workload.Features{quickJob("long", 1), quickJob("short", 2)},
			steps:  map[string]int{"long": 5, "short": 1},
			fifo:   []string{"long", "short"},
			sjf:    []string{"short", "long"},
		},
		{
			name:   "equal-jobs-by-index",
			queued: []workload.Features{quickJob("tie-first", 1), quickJob("short", 1), quickJob("tie-second", 1)},
			steps:  map[string]int{"tie-first": 3, "short": 1, "tie-second": 3},
			fifo:   []string{"tie-first", "short", "tie-second"},
			sjf:    []string{"short", "tie-first", "tie-second"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var jobs []workload.Features
			for i := 0; i < 8; i++ {
				jobs = append(jobs, quickJob("blocker", 0))
			}
			jobs = append(jobs, tc.queued...)
			steps := func(_ int, f workload.Features) int {
				if n, ok := tc.steps[f.Name]; ok {
					return n
				}
				return 100
			}
			for policy, want := range map[string][]string{fifoName: tc.fifo, sjfName: tc.sjf} {
				cap := &captureSink{}
				res := runReplay(t, jobs, Config{
					Cluster: testCluster(t, 1), Policy: policy, Steps: steps,
				}, cap)
				if res.Completed != len(jobs) || res.Policy != policy {
					t.Fatalf("%s: completed %d under %q, want %d", policy, res.Completed, res.Policy, len(jobs))
				}
				var names []string
				for _, o := range cap.outcomes {
					if o.Job.Name != "blocker" {
						names = append(names, o.Job.Name)
						if math.Abs(o.Start-100) > 1e-9 {
							t.Errorf("%s: %s started at %v, want 100", policy, o.Job.Name, o.Start)
						}
					}
				}
				if !slices.Equal(names, want) {
					t.Errorf("%s: dispatch order = %v, want %v", policy, names, want)
				}
			}
		})
	}
}

// TestStragglers: fraction 1 marks every completed job, the factor scales
// Duration but never Times, and the sample is a pure function of (seed,
// index).
func TestStragglers(t *testing.T) {
	jobs := []workload.Features{quickJob("a", 0), quickJob("b", 1)}
	cap := &captureSink{}
	res := runReplay(t, jobs, Config{
		Cluster:           testCluster(t, 1),
		StragglerFraction: 1,
		StragglerFactor:   3,
	}, cap)
	if res.Stragglers != 2 {
		t.Fatalf("stragglers = %d, want 2", res.Stragglers)
	}
	for _, o := range cap.outcomes {
		if !o.Straggler {
			t.Error("every job should be sampled at fraction 1")
		}
		want := o.Times.Total() * float64(o.Steps) * 3
		if math.Abs(o.Duration-want) > 1e-9 {
			t.Errorf("duration = %v, want %v (3x the model's runtime)", o.Duration, want)
		}
	}

	for _, seed := range []int64{0, 1, 42} {
		for index := 0; index < 100; index++ {
			a := sampleStraggler(seed, index, 0.3)
			b := sampleStraggler(seed, index, 0.3)
			if a != b {
				t.Fatalf("sampleStraggler(%d, %d) not deterministic", seed, index)
			}
		}
	}
}

// TestDeterministicAcrossParallelism pins the replay determinism contract:
// the same congested trace replayed at parallelism 1 and 8 produces
// byte-identical snapshots of all three fleet sinks.
func TestDeterministicAcrossParallelism(t *testing.T) {
	var jobs []workload.Features
	for i := 0; i < 300; i++ {
		arrival := float64(i) * 0.05
		if i%7 == 3 {
			jobs = append(jobs, classJob("ps", workload.PSWorker, 1+i%2, arrival))
		} else {
			jobs = append(jobs, quickJob("w", arrival))
		}
	}
	ev := testEvaluator(t)

	snapshot := func(parallelism int) []byte {
		cl := testCluster(t, 2)
		util, err := NewUtilizationSink(10, cl.NumGPUs())
		if err != nil {
			t.Fatal(err)
		}
		sink := analyze.NewMultiSink(NewCounterSink(), NewQueueDelaySink(), util)
		_, err = Run(context.Background(), ev, parallelism, stream.NewSliceSource(jobs), Config{
			Cluster:           cl,
			Steps:             func(int, workload.Features) int { return 40 },
			StragglerFraction: 0.25,
			StragglerFactor:   2,
			StragglerSeed:     7,
		}, sink)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := analyze.WriteSnapshot(&buf, sink); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	base := snapshot(1)
	for _, par := range []int{2, 8} {
		if !bytes.Equal(base, snapshot(par)) {
			t.Errorf("parallelism %d produced a different fleet snapshot", par)
		}
	}
}

// intHeap adapts a slice and a less func to container/heap, the reference
// the replay's minHeap must match.
type intHeap struct {
	items []int
	less  func(a, b int) bool
}

func (h *intHeap) Len() int           { return len(h.items) }
func (h *intHeap) Less(i, j int) bool { return h.less(h.items[i], h.items[j]) }
func (h *intHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *intHeap) Push(x any)         { h.items = append(h.items, x.(int)) }
func (h *intHeap) Pop() any {
	x := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return x
}

// TestMinHeapMatchesContainerHeap: under a total order and under a less
// that is not even transitive, random push/pop sequences leave minHeap and
// container/heap with the same items in the same slots and pop the same
// values, so queue and event order cannot depend on which one runs.
func TestMinHeapMatchesContainerHeap(t *testing.T) {
	for name, less := range map[string]func(a, b int) bool{
		"total":        func(a, b int) bool { return a < b },
		"intransitive": func(a, b int) bool { return (a*7+b*13)%5 < 2 },
	} {
		r := rand.New(rand.NewSource(1))
		got := minHeap[int]{less: less}
		want := &intHeap{less: less}
		for step := 0; step < 20000; step++ {
			if len(got.items) > 0 && r.Intn(3) == 0 {
				if g, w := got.pop(), heap.Pop(want).(int); g != w {
					t.Fatalf("%s: step %d: pop = %d, container/heap %d", name, step, g, w)
				}
			} else {
				x := r.Intn(100)
				got.push(x)
				heap.Push(want, x)
			}
			if !slices.Equal(got.items, want.items) {
				t.Fatalf("%s: step %d: items %v, container/heap %v", name, step, got.items, want.items)
			}
		}
	}
}
