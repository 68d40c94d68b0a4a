package replay

import (
	"context"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/stream"
	"repro/internal/workload"
)

// referencePlace is the linear-scan greedy placement the free-level index
// must reproduce: for each gang in order, the server with the most free GPUs
// (net of what the attempt already holds there) that fits it, ties to the
// lowest index, skipping held servers when distinct. It merges consecutive
// same-server picks and never modifies free.
func referencePlace(free, gangs []int, distinct bool) ([]allocation, bool) {
	used := make([]int, len(free))
	var alloc []allocation
	for _, g := range gangs {
		best, bestAvail := -1, -1
		for s := range free {
			if distinct && used[s] > 0 {
				continue
			}
			if avail := free[s] - used[s]; avail >= g && avail > bestAvail {
				best, bestAvail = s, avail
			}
		}
		if best < 0 {
			return nil, false
		}
		used[best] += g
		alloc = append(alloc, allocation{server: best, gpus: g})
	}
	merged := alloc[:0]
	for _, a := range alloc {
		if n := len(merged); n > 0 && merged[n-1].server == a.server {
			merged[n-1].gpus += a.gpus
			continue
		}
		merged = append(merged, a)
	}
	return merged, true
}

// placementState is an empty replay loop over servers servers of gpus GPUs.
func placementState(t testing.TB, servers, gpus int) *state {
	t.Helper()
	cfg := hw.Baseline()
	cfg.GPUsPerServer = gpus
	c, err := cluster.New(cfg, servers)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newState(Config{Cluster: c}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// placementStats counts what a differential run exercised.
type placementStats struct {
	placed, failed, stacked, released int
}

// runPlacement drives st through the attempt and release sequence encoded
// in data, checking every attempt against referencePlace and the index
// invariants after every step. Each op reads one control byte: low two bits
// 3 releases the live allocation the next byte selects; anything else is an
// attempt with distinctness from bit 2, a gang count of 1–48 and one size
// byte per gang. The run stops when data runs out.
func runPlacement(t testing.TB, st *state, data []byte) placementStats {
	t.Helper()
	var stats placementStats
	gpus := len(st.level) - 1
	want := append([]int(nil), st.free...)
	var live [][]allocation
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	for step := 0; ; step++ {
		op, more := next()
		if !more {
			return stats
		}
		if op&3 == 3 {
			b, more := next()
			if !more || len(live) == 0 {
				continue
			}
			k := int(b) % len(live)
			for _, a := range live[k] {
				st.move(a.server, a.gpus)
				want[a.server] += a.gpus
			}
			live = append(live[:k], live[k+1:]...)
			stats.released++
			checkPlacementIndex(t, st, want, step)
			continue
		}
		distinct := op&4 != 0
		n, more := next()
		if !more {
			return stats
		}
		gangs := make([]int, 1+int(n)%48)
		for i := range gangs {
			b, more := next()
			if !more {
				return stats
			}
			gangs[i] = 1 + int(b)%gpus
		}
		ref, refOK := referencePlace(want, gangs, distinct)
		got, ok := st.tryPlace(gangs, distinct)
		if ok != refOK {
			t.Fatalf("step %d: tryPlace(%v, distinct=%v) ok = %v, reference %v", step, gangs, distinct, ok, refOK)
		}
		if len(got) != len(ref) {
			t.Fatalf("step %d: tryPlace(%v, distinct=%v) = %v, reference %v", step, gangs, distinct, got, ref)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("step %d: tryPlace(%v, distinct=%v) = %v, reference %v", step, gangs, distinct, got, ref)
			}
		}
		if ok {
			for _, a := range got {
				want[a.server] -= a.gpus
			}
			live = append(live, got)
			stats.placed++
			if len(got) < len(gangs) {
				stats.stacked++
			}
		} else {
			stats.failed++
		}
		checkPlacementIndex(t, st, want, step)
	}
}

// checkPlacementIndex asserts free matches the expected counts (so a failed
// attempt changed nothing), every server sits in exactly the level its free
// count names, and the attempt scratch is clear.
func checkPlacementIndex(t testing.TB, st *state, want []int, step int) {
	t.Helper()
	// Every server's bit is in its own level and the levels hold one bit per
	// server in all: so each server sits in exactly one level.
	bitsSet := 0
	for _, set := range st.level {
		for _, w := range set {
			bitsSet += bits.OnesCount64(w)
		}
	}
	if bitsSet != len(st.free) {
		t.Fatalf("step %d: levels hold %d bits for %d servers", step, bitsSet, len(st.free))
	}
	for s, f := range st.free {
		if f != want[s] {
			t.Fatalf("step %d: free[%d] = %d, want %d", step, s, f, want[s])
		}
		if st.level[f][s>>6]&(1<<(s&63)) == 0 {
			t.Fatalf("step %d: server %d (free %d) missing from its level", step, s, f)
		}
	}
	for w, set := range st.taken {
		if set != 0 {
			t.Fatalf("step %d: taken word %d = %#x after an attempt", step, w, set)
		}
	}
}

// placementOps encodes a random runPlacement sequence: one op in five is a
// release and most attempts are short, so the cluster runs near full —
// where non-distinct gangs stack on one server — with the odd list of up to
// 48 gangs.
func placementOps(r *rand.Rand, ops int) []byte {
	var data []byte
	for i := 0; i < ops; i++ {
		if r.Intn(5) == 0 {
			data = append(data, 3, byte(r.Intn(256)))
			continue
		}
		op := byte(0)
		if r.Intn(2) == 0 {
			op = 4
		}
		n := r.Intn(4)
		if r.Intn(8) == 0 {
			n = r.Intn(48)
		}
		data = append(data, op, byte(n))
		for j := 0; j <= n; j++ {
			data = append(data, byte(r.Intn(256)))
		}
	}
	return data
}

// TestPlacementMatchesReference runs random attempt and release sequences
// against the linear-scan reference on server counts either side of the
// 64-bit word edge, for distinct and non-distinct (stacked) gangs.
func TestPlacementMatchesReference(t *testing.T) {
	for _, servers := range []int{1, 63, 64, 65, 128, 130} {
		for _, gpus := range []int{8, 3} {
			r := rand.New(rand.NewSource(int64(servers*31 + gpus)))
			st := placementState(t, servers, gpus)
			stats := runPlacement(t, st, placementOps(r, 3000))
			if stats.placed == 0 || stats.failed == 0 || stats.stacked == 0 || stats.released == 0 {
				t.Errorf("%d servers × %d GPUs: sequence exercised too little: %+v", servers, gpus, stats)
			}
		}
	}
}

// FuzzPlacement is TestPlacementMatchesReference over fuzzer-chosen cluster
// shapes and op sequences.
func FuzzPlacement(f *testing.F) {
	for i, servers := range []byte{1, 63, 64, 65, 128, 130} {
		f.Add(servers, byte(7), placementOps(rand.New(rand.NewSource(int64(i))), 200))
	}
	f.Fuzz(func(t *testing.T, servers, gpus byte, data []byte) {
		// Every step rechecks the whole index; long inputs add time (and
		// minimization work), not coverage.
		if len(data) > 1024 {
			data = data[:1024]
		}
		st := placementState(t, 1+int(servers)%130, 1+int(gpus)%16)
		runPlacement(t, st, data)
	})
}

// TestDrainConservation: a congested replay reaches the end-of-run
// conservation check through Run and passes it, and a state that leaked a
// GPU fails it with a placement-bug error.
func TestDrainConservation(t *testing.T) {
	var jobs []workload.Features
	for i := 0; i < 400; i++ {
		arrival := float64(i) * 0.02
		if i%5 == 2 {
			jobs = append(jobs, classJob("ps", workload.PSWorker, 1+i%3, arrival))
		} else {
			jobs = append(jobs, quickJob("w", arrival))
		}
	}
	res, err := Run(context.Background(), testEvaluator(t), 2, stream.NewSliceSource(jobs), Config{
		Cluster: testCluster(t, 3),
		Steps:   func(int, workload.Features) int { return 30 },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxQueueDepth < 100 || res.Completed != len(jobs) {
		t.Fatalf("trace is not congested or did not complete: %+v", res)
	}

	st := placementState(t, 3, 8)
	st.move(1, -1)
	err = st.drain()
	if err == nil || !strings.Contains(err.Error(), "placement bug") {
		t.Fatalf("leaked GPU: drain err = %v, want a placement bug", err)
	}
}

// unvalidatedEvaluator predicts one second per step for any record, valid
// or not, as a backend that skips workload validation would.
type unvalidatedEvaluator struct{}

func (unvalidatedEvaluator) Breakdown(workload.Features) (core.Times, error) {
	return core.Times{ComputeFLOPs: 1}, nil
}

// TestNonPositiveCNodesRefused: a record with no cNodes reaching the loop
// through an evaluator that does not validate it is a malformed-record
// error, not a gang the free-level index cannot hold, nor a PS/Worker
// placement of a negative number of workers.
func TestNonPositiveCNodesRefused(t *testing.T) {
	for _, class := range []workload.Class{workload.OneWorkerNGPU, workload.PSWorker} {
		for _, cnodes := range []int{0, -2} {
			job := quickJob("bad", 0)
			job.Class, job.CNodes = class, cnodes
			_, err := Run(context.Background(), unvalidatedEvaluator{}, 1, stream.NewSliceSource([]workload.Features{job}),
				Config{Cluster: testCluster(t, 2)}, nil)
			if err == nil || !strings.Contains(err.Error(), "CNodes must be positive") {
				t.Errorf("%v with CNodes %d: err = %v, want a malformed-record error", class, cnodes, err)
			}
		}
	}
}
