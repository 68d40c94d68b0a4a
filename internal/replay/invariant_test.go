package replay

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/stream"
	"repro/internal/workload"
)

// smallTrace is a replay input: a trace of at most 16 jobs in
// nondecreasing arrival order with one step count per job, and the cluster
// and policy shape it replays on.
type smallTrace struct {
	jobs       []workload.Features
	steps      []int
	servers    int
	nvlink     bool
	policy     string
	queueLimit int
}

// decodeJobs appends to tr one job per four bytes of data, at most 16: a
// class of any of the six, CNodes 1–10 (1 for 1w1g), an arrival gap of 0–7
// half-seconds after the previous job, and 1–64 steps. Single-server gangs
// wider than a server are kept: replay must reject them, not fail.
func (tr *smallTrace) decodeJobs(data []byte) {
	arrival := 0.0
	for ; len(data) >= 4 && len(tr.jobs) < 16; data = data[4:] {
		class := workload.Class(data[0] % 6)
		cnodes := 1 + int(data[1])%10
		if class == workload.OneWorkerOneGPU {
			cnodes = 1
		}
		arrival += float64(data[2]%8) / 2
		tr.jobs = append(tr.jobs, classJob("fuzz", class, cnodes, arrival))
		tr.steps = append(tr.steps, 1+int(data[3])%64)
	}
}

// scaled returns tr with every arrival and every step count multiplied by
// k.
func (tr smallTrace) scaled(k int) smallTrace {
	out := tr
	out.jobs = make([]workload.Features, len(tr.jobs))
	out.steps = make([]int, len(tr.steps))
	for i, f := range tr.jobs {
		f.ArrivalSec *= float64(k)
		out.jobs[i] = f
		out.steps[i] = tr.steps[i] * k
	}
	return out
}

// run replays tr at one second per step and checks the invariants,
// returning the result and every outcome in dispatch order. The evaluator
// accepts any record, so gangs too wide for a server reach admission.
func (tr smallTrace) run(t testing.TB) (Result, []Outcome) {
	t.Helper()
	cfg := hw.Baseline()
	if !tr.nvlink {
		cfg = hw.BaselineNoNVLink()
	}
	c, err := cluster.New(cfg, tr.servers)
	if err != nil {
		t.Fatal(err)
	}
	capture := &captureSink{}
	res, err := Run(context.Background(), unvalidatedEvaluator{}, 1, stream.NewSliceSource(tr.jobs), Config{
		Cluster: c, Policy: tr.policy, QueueLimit: tr.queueLimit, AllowUnstamped: true,
		Steps: func(index int, _ workload.Features) int { return tr.steps[index] },
	}, capture)
	if err != nil {
		t.Fatalf("%+v: %v", tr, err)
	}
	checkInvariants(t, tr, res, capture.outcomes)
	return res, capture.outcomes
}

// checkInvariants asserts the replay's physical invariants over one run:
// every job gets one outcome at its own arrival; no job starts before it
// arrives and each runs exactly its duration; submitted = completed +
// rejected; at every start instant the running jobs hold at most the
// cluster's GPUs; under FIFO, admitted jobs start in submission order; and
// utilization is at most 1.
func checkInvariants(t testing.TB, tr smallTrace, res Result, outs []Outcome) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%+v: "+format, append([]any{tr}, args...)...)
	}
	if len(outs) != len(tr.jobs) || res.Submitted != len(tr.jobs) {
		fail("%d outcomes, %d submitted, for %d jobs", len(outs), res.Submitted, len(tr.jobs))
	}
	if res.Submitted != res.Completed+res.Rejected {
		fail("submitted %d != completed %d + rejected %d", res.Submitted, res.Completed, res.Rejected)
	}
	if res.Utilization > 1 {
		fail("utilization %v > 1", res.Utilization)
	}
	admitted := make([]Outcome, 0, len(outs))
	for _, o := range outs {
		if o.Arrival != tr.jobs[o.Index].ArrivalSec {
			fail("job %d: arrival %v, submitted at %v", o.Index, o.Arrival, tr.jobs[o.Index].ArrivalSec)
		}
		if o.Start < o.Arrival {
			fail("job %d starts at %v before its arrival %v", o.Index, o.Start, o.Arrival)
		}
		if o.Finish != o.Start+o.Duration {
			fail("job %d: finish %v != start %v + duration %v", o.Index, o.Finish, o.Start, o.Duration)
		}
		if !o.Rejected {
			admitted = append(admitted, o)
		}
	}
	if len(admitted) != res.Completed {
		fail("%d admitted outcomes, %d completed", len(admitted), res.Completed)
	}
	for _, a := range admitted {
		used := 0
		for _, b := range admitted {
			if b.Start <= a.Start && a.Start < b.Finish {
				used += b.GPUs
			}
		}
		if used > res.GPUs {
			fail("at t=%v running jobs hold %d of %d GPUs", a.Start, used, res.GPUs)
		}
	}
	if tr.policy == fifoName {
		byIndex := slices.Clone(admitted)
		slices.SortFunc(byIndex, func(a, b Outcome) int { return a.Index - b.Index })
		for i := 1; i < len(byIndex); i++ {
			if a, b := byIndex[i-1], byIndex[i]; a.Start > b.Start {
				fail("fifo: job %d starts at %v, after job %d at %v", a.Index, a.Start, b.Index, b.Start)
			}
		}
	}
}

// TestReplayInvariants replays seeded random small traces on every cluster
// shape of 1–6 servers with and without NVLink, under both policies and
// queue limits 0 and 3, and checks the invariants of every run.
func TestReplayInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	data := make([]byte, 64)
	runs, waited, rejected := 0, 0, 0
	for servers := 1; servers <= 6; servers++ {
		for _, nvlink := range []bool{true, false} {
			for _, policy := range PolicyNames() {
				for _, limit := range []int{0, 3} {
					for seed := 0; seed < 8; seed++ {
						r.Read(data)
						tr := smallTrace{servers: servers, nvlink: nvlink, policy: policy, queueLimit: limit}
						tr.decodeJobs(data)
						res, _ := tr.run(t)
						runs++
						rejected += res.Rejected
						if res.TotalQueueDelay > 0 {
							waited++
						}
					}
				}
			}
		}
	}
	// The sweep must reach both queueing and admission control.
	if waited < runs/4 || rejected == 0 {
		t.Errorf("%d runs: %d with queueing, %d rejections", runs, waited, rejected)
	}
}

// TestReplayScalesExactly is the metamorphic check: doubling every arrival
// and every step count doubles every start, finish and wait and the
// makespan exactly — x2 is exact in binary floating point, and the event
// order cannot change.
func TestReplayScalesExactly(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	data := make([]byte, 64)
	for trial := 0; trial < 64; trial++ {
		r.Read(data)
		tr := smallTrace{servers: 1 + trial%6, nvlink: trial%2 == 0, policy: PolicyNames()[trial/2%2], queueLimit: 3 * (trial / 4 % 2)}
		tr.decodeJobs(data)
		res, outs := tr.run(t)
		res2, outs2 := tr.scaled(2).run(t)
		if res2.Makespan != 2*res.Makespan || res2.TotalQueueDelay != 2*res.TotalQueueDelay {
			t.Fatalf("%+v: makespan %v -> %v, total wait %v -> %v", tr, res.Makespan, res2.Makespan, res.TotalQueueDelay, res2.TotalQueueDelay)
		}
		for i, o := range outs {
			o2 := outs2[i]
			if o2.Index != o.Index || o2.Rejected != o.Rejected || o2.Start != 2*o.Start || o2.Finish != 2*o.Finish || o2.Wait() != 2*o.Wait() {
				t.Fatalf("%+v: outcome %d %+v, doubled %+v", tr, i, o, o2)
			}
		}
	}
}

// FuzzReplay replays fuzzer-chosen small traces on fuzzer-chosen cluster
// shapes, policies and queue limits: the replay must not fail or panic,
// and the invariants must hold. The first byte picks the shape; every
// four further bytes are one job (see decodeJobs).
func FuzzReplay(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		data := make([]byte, 1+4*(2+2*i))
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shape := data[0]
		tr := smallTrace{
			servers:    1 + int(shape%6),
			nvlink:     shape&0x8 != 0,
			policy:     PolicyNames()[shape>>4&1],
			queueLimit: 3 * int(shape>>5&1),
		}
		tr.decodeJobs(data[1:])
		tr.run(t)
	})
}
