package backend

import (
	"repro/internal/core"
	"repro/internal/workload"
)

// AnalyticalName is the registered name of the paper's Sec. II-B analytical
// model, the default Engine backend.
const AnalyticalName = "analytical"

// analytical adapts core.Model — the paper's primary contribution — to the
// Backend interface.
type analytical struct {
	m    *core.Model
	spec Spec
}

func newAnalytical(spec Spec) (Backend, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m, err := core.New(spec.Config)
	if err != nil {
		return nil, err
	}
	m.Eff = spec.Eff
	m.Overlap = spec.Overlap
	m.OverlapAlpha = spec.OverlapAlpha
	m.Arch = spec.Arch
	return &analytical{m: m, spec: spec}, nil
}

func (a *analytical) Name() string { return AnalyticalName }
func (a *analytical) Spec() Spec   { return a.spec }
func (a *analytical) Capabilities() Capabilities {
	return Capabilities{Sweepable: true, Projectable: true}
}

func (a *analytical) Breakdown(f workload.Features) (core.Times, error) {
	return a.m.Breakdown(f)
}

func (a *analytical) Reconfigure(spec Spec) (Backend, error) {
	return newAnalytical(spec)
}

func init() { MustRegister(AnalyticalName, newAnalytical) }
