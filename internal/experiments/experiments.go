// Package experiments regenerates every table and figure of the paper's
// evaluation from the reproduction's substrates. Each experiment returns an
// Artifact — a structured, rendered result — so the cmd/repro tool, the
// benchmark harness and EXPERIMENTS.md all share one code path.
//
// The per-experiment index (which modules implement which artifact) lives in
// DESIGN.md §4.
package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/tracegen"
	"repro/internal/workload"
)

// Artifact is one regenerated table or figure.
type Artifact struct {
	// ID is the paper's artifact id, e.g. "Table I" or "Fig. 9".
	ID string
	// Title is the artifact caption.
	Title string
	// Text is the rendered result (rows/series the paper reports).
	Text string
}

// Suite evaluates all experiments against one trace and configuration.
type Suite struct {
	// Config is the baseline system configuration (Table I).
	Config hw.Config
	// Trace is the (synthetic) cluster trace.
	Trace *tracegen.Trace
	// Model is the analytical model over Config with the 70% assumption.
	// It backs the case-study pipelines that tune per-workload assumptions.
	Model *core.Model
	// Backend is the registered evaluation backend the cluster-scale
	// pipelines (Figs. 7-11, 15, 16, extensions) run through.
	Backend backend.Backend
	// Parallelism caps the per-job evaluation worker pool.
	Parallelism int
	// ReplayPolicy names the scheduling policy the cluster-replay extension
	// (EXT-6) runs under; empty selects FIFO (see replay.PolicyNames).
	ReplayPolicy string
}

// NewSuite generates the default calibrated trace and model. Pass numJobs <=
// 0 for the default trace size.
func NewSuite(numJobs int) (*Suite, error) {
	p := tracegen.Default()
	if numJobs > 0 {
		p.NumJobs = numJobs
	}
	tr, err := tracegen.Generate(p)
	if err != nil {
		return nil, err
	}
	return NewSuiteFromTrace(p.Config, tr)
}

// NewSuiteFromTrace wraps an existing trace (e.g. loaded from JSON) with the
// default analytical backend.
func NewSuiteFromTrace(cfg hw.Config, tr *tracegen.Trace) (*Suite, error) {
	return NewSuiteWithBackend(cfg, tr, backend.AnalyticalName, runtime.GOMAXPROCS(0))
}

// NewSuiteWithBackend wraps an existing trace with a named registered
// backend and an evaluation-parallelism cap (<= 0 uses GOMAXPROCS).
func NewSuiteWithBackend(cfg hw.Config, tr *tracegen.Trace, backendName string, parallelism int) (*Suite, error) {
	if tr == nil || len(tr.Jobs) == 0 {
		return nil, fmt.Errorf("experiments: empty trace")
	}
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	spec := backend.DefaultSpec().WithConfig(cfg)
	b, err := backend.New(backendName, spec)
	if err != nil {
		return nil, err
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Suite{Config: cfg, Trace: tr, Model: m, Backend: b, Parallelism: parallelism}, nil
}

// Experiment names in execution order.
var order = []string{
	"Table I", "Table II", "Table III", "Table IV", "Table V", "Table VI",
	"Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11",
	"Fig. 12", "Fig. 13", "Fig. 14", "Fig. 15", "Fig. 16",
}

// RunAll regenerates every artifact in paper order.
func (s *Suite) RunAll() ([]Artifact, error) {
	runners := map[string]func() (Artifact, error){
		"Table I":   s.TableI,
		"Table II":  s.TableII,
		"Table III": s.TableIII,
		"Table IV":  s.TableIV,
		"Table V":   s.TableV,
		"Table VI":  s.TableVI,
		"Fig. 5":    s.Fig5,
		"Fig. 6":    s.Fig6,
		"Fig. 7":    s.Fig7,
		"Fig. 8":    s.Fig8,
		"Fig. 9":    s.Fig9,
		"Fig. 10":   s.Fig10,
		"Fig. 11":   s.Fig11,
		"Fig. 12":   s.Fig12,
		"Fig. 13":   s.Fig13,
		"Fig. 14":   s.Fig14,
		"Fig. 15":   s.Fig15,
		"Fig. 16":   s.Fig16,
	}
	out := make([]Artifact, 0, len(order))
	for _, id := range order {
		a, err := runners[id]()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run regenerates one artifact by id (e.g. "Fig. 9", case-insensitive,
// "fig9" and "table1" shorthands accepted).
func (s *Suite) Run(id string) (Artifact, error) {
	norm := func(x string) string {
		x = strings.ToLower(x)
		for _, cut := range []string{" ", ".", "-", "_"} {
			x = strings.ReplaceAll(x, cut, "")
		}
		// Roman numerals for tables.
		for arabic, roman := range map[string]string{
			"1": "i", "2": "ii", "3": "iii", "4": "iv", "5": "v", "6": "vi"} {
			x = strings.Replace(x, "table"+arabic, "table"+roman, 1)
		}
		return x
	}
	want := norm(id)
	for _, oid := range order {
		if norm(oid) == want {
			return s.dispatch(oid)
		}
	}
	return Artifact{}, fmt.Errorf("experiments: unknown artifact %q (have %v)", id, order)
}

func (s *Suite) dispatch(id string) (Artifact, error) {
	switch id {
	case "Table I":
		return s.TableI()
	case "Table II":
		return s.TableII()
	case "Table III":
		return s.TableIII()
	case "Table IV":
		return s.TableIV()
	case "Table V":
		return s.TableV()
	case "Table VI":
		return s.TableVI()
	case "Fig. 5":
		return s.Fig5()
	case "Fig. 6":
		return s.Fig6()
	case "Fig. 7":
		return s.Fig7()
	case "Fig. 8":
		return s.Fig8()
	case "Fig. 9":
		return s.Fig9()
	case "Fig. 10":
		return s.Fig10()
	case "Fig. 11":
		return s.Fig11()
	case "Fig. 12":
		return s.Fig12()
	case "Fig. 13":
		return s.Fig13()
	case "Fig. 14":
		return s.Fig14()
	case "Fig. 15":
		return s.Fig15()
	case "Fig. 16":
		return s.Fig16()
	}
	return Artifact{}, fmt.Errorf("experiments: unknown artifact %q", id)
}

// IDs lists the artifact ids in paper order.
func IDs() []string { return append([]string(nil), order...) }

// classOrder is the rendering order for trace classes.
func classOrder() []workload.Class {
	return []workload.Class{workload.OneWorkerOneGPU, workload.OneWorkerNGPU, workload.PSWorker}
}
