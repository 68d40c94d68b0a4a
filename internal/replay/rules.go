package replay

import (
	"errors"
	"fmt"

	"repro/internal/workload"
)

// placement describes the GPUs a job needs, as derived from its workload
// class by the Table II placement rules (see placementFor).
type placement struct {
	// gangs[i] is the number of GPUs required together on one server.
	gangs []int
	// distinct requires each gang on a different server when true.
	distinct bool
	// needsNVLink restricts candidate servers to NVLink ones.
	needsNVLink bool
}

// gpus is the job's total GPU demand across all gangs.
func (p placement) gpus() int {
	n := 0
	for _, g := range p.gangs {
		n += g
	}
	return n
}

// servers is the number of distinct servers the placement needs: one per
// gang when distinct, otherwise one.
func (p placement) servers() int {
	if p.distinct {
		return len(p.gangs)
	}
	return 1
}

// errUnknownClass reports a class outside Table II (+PEARL): a malformed
// record rather than a job the cluster cannot host.
var errUnknownClass = errors.New("replay: unknown class")

// placementFor derives a job's placement from its class (Table II /
// Sec. II-A):
//   - 1w1g: one GPU on any server
//   - 1wng / AllReduce-Local: a gang of cNodes GPUs on one server
//     (AllReduce-Local additionally requires NVLink)
//   - PS/Worker: cNodes GPUs on cNodes distinct servers (one worker per
//     server)
//   - AllReduce-Cluster / PEARL: GPUs packed GPUs-per-server at a time on
//     distinct NVLink servers
//
// A single-server gang wider than a server is an error that names the
// class; an unknown class is errUnknownClass. f.CNodes must be positive.
func placementFor(f workload.Features, gpusPerServer int) (placement, error) {
	switch f.Class {
	case workload.OneWorkerOneGPU:
		return placement{gangs: []int{1}}, nil
	case workload.OneWorkerNGPU:
		if f.CNodes > gpusPerServer {
			return placement{}, fmt.Errorf("replay: 1wng job needs %d GPUs on one server (max %d)",
				f.CNodes, gpusPerServer)
		}
		return placement{gangs: []int{f.CNodes}}, nil
	case workload.AllReduceLocal:
		if f.CNodes > gpusPerServer {
			return placement{}, fmt.Errorf("replay: AllReduce-Local job needs %d GPUs on one server (max %d)",
				f.CNodes, gpusPerServer)
		}
		return placement{gangs: []int{f.CNodes}, needsNVLink: true}, nil
	case workload.PSWorker:
		gangs := make([]int, f.CNodes)
		for i := range gangs {
			gangs[i] = 1
		}
		return placement{gangs: gangs, distinct: true}, nil
	case workload.AllReduceCluster, workload.PEARL:
		var gangs []int
		for rest := f.CNodes; rest > 0; rest -= gpusPerServer {
			gangs = append(gangs, min(rest, gpusPerServer))
		}
		return placement{gangs: gangs, distinct: true, needsNVLink: true}, nil
	default:
		return placement{}, fmt.Errorf("%w %v", errUnknownClass, f.Class)
	}
}

// queuedJob is what a scheduling policy may order the pending queue by.
// index is the job's 0-based position in the submission stream and is
// unique, so it is every ordering's final tiebreak.
type queuedJob struct {
	index int
	// arrival is the submission time in seconds.
	arrival float64
	// duration is the model-predicted runtime in seconds (step time x
	// steps, straggler-adjusted).
	duration float64
	// gpus is the job's total GPU demand.
	gpus int
}

// Scheduling policy names. A policy orders the pending queue: the queue
// head is always the next placement attempt, and the queue blocks on it
// when it does not fit (head-of-line blocking). A policy chooses the order,
// never the mechanism, which keeps every replay deterministic.
const (
	// fifoName is the default: first-come-first-served by arrival time,
	// ties by submission order.
	fifoName = "fifo"
	// sjfName schedules the shortest predicted job first, ties by
	// submission order.
	sjfName = "sjf"
)

// PolicyNames lists the scheduling policy names Config.Policy accepts,
// sorted.
func PolicyNames() []string { return []string{fifoName, sjfName} }

// policyOrder resolves a policy name (empty selects FIFO) to its canonical
// name and its strict total order on the pending queue.
func policyOrder(name string) (string, func(a, b *pendingJob) bool, error) {
	switch name {
	case "", fifoName:
		return fifoName, fifoLess, nil
	case sjfName:
		return sjfName, sjfLess, nil
	}
	return "", nil, fmt.Errorf("replay: unknown policy %q (have %v)", name, PolicyNames())
}

// fifoLess orders by arrival, ties by submission order.
func fifoLess(a, b *pendingJob) bool {
	if a.q.arrival != b.q.arrival {
		return a.q.arrival < b.q.arrival
	}
	return a.q.index < b.q.index
}

// sjfLess orders by predicted duration, ties by submission order.
func sjfLess(a, b *pendingJob) bool {
	if a.q.duration != b.q.duration {
		return a.q.duration < b.q.duration
	}
	return a.q.index < b.q.index
}
