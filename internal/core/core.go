// Package core implements the paper's primary contribution: the analytical
// performance model of Sec. II-B. One training step is decomposed into input
// data I/O time Td = Sd/Bd, weight/gradient communication time Tw = Sw/Bw
// (summed over the media of Table II, cf. Eq. 3) and computation time
// Tc = #FLOPs/peakFLOPs + Smem/Bmem, with every denominator derated by a
// hardware-efficiency assumption (70% by default).
//
// The model deliberately ignores computation/communication overlap
// (Ttotal = Td + Tc + Tw); OverlapIdeal switches to Ttotal = max(Td, Tc, Tw)
// for the Sec. V-B sensitivity study. The goal is exposing fundamental
// bottlenecks, not precise runtime prediction.
//
// Model is also the reference implementation behind the "analytical" entry
// of the internal/backend registry, which the public pai.Engine drives;
// alternative performance models plug in there without touching this
// package.
package core

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/hw"
	"repro/internal/workload"
)

// OverlapMode selects how component times combine into a step time.
type OverlapMode int

const (
	// OverlapNone sums all components (the paper's default framework).
	OverlapNone OverlapMode = iota
	// OverlapIdeal takes the max of {Td, Tc, Tw} (Sec. V-B ideal case).
	OverlapIdeal
	// OverlapPartial interpolates between the two with a factor alpha:
	// Ttotal = max + (1-alpha)(sum - max). The paper leaves quantifying the
	// practical overlap potential as an open question (Sec. V-B); this mode
	// makes alpha a first-class model parameter for sensitivity sweeps.
	OverlapPartial
)

// String names the overlap mode.
func (m OverlapMode) String() string {
	switch m {
	case OverlapNone:
		return "non-overlap"
	case OverlapIdeal:
		return "ideal-overlap"
	case OverlapPartial:
		return "partial-overlap"
	default:
		return fmt.Sprintf("OverlapMode(%d)", int(m))
	}
}

// Component identifies one slice of the execution-time breakdown
// (the legend of Figs. 7, 8, 10, 12).
type Component int

const (
	// CompDataIO is input-data movement over PCIe.
	CompDataIO Component = iota
	// CompWeights is weight/gradient communication.
	CompWeights
	// CompComputeFLOPs is compute-bound operation time.
	CompComputeFLOPs
	// CompComputeMem is memory-bound (element-wise) operation time.
	CompComputeMem
)

var componentNames = map[Component]string{
	CompDataIO:       "Data I/O",
	CompWeights:      "Weights traffic",
	CompComputeFLOPs: "Comp.(compute-bound)",
	CompComputeMem:   "Comp.(memory-bound)",
}

// String returns the figure-legend label of the component.
func (c Component) String() string {
	if s, ok := componentNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Component(%d)", int(c))
}

// Components lists the four breakdown components in figure-legend order.
func Components() []Component {
	return []Component{CompDataIO, CompWeights, CompComputeFLOPs, CompComputeMem}
}

// HardwareComponent identifies the hardware a time slice is attributed to
// (the legend of Fig. 8a).
type HardwareComponent int

const (
	HWGPUFLOPs HardwareComponent = iota
	HWGPUMemory
	HWPCIe
	HWEthernet
	HWNVLink
)

var hwNames = map[HardwareComponent]string{
	HWGPUFLOPs:  "GPU_FLOPs",
	HWGPUMemory: "GPU_memory",
	HWPCIe:      "PCIe",
	HWEthernet:  "Ethernet",
	HWNVLink:    "NVLink",
}

// String returns the Fig. 8a legend label.
func (h HardwareComponent) String() string {
	if s, ok := hwNames[h]; ok {
		return s
	}
	return fmt.Sprintf("HardwareComponent(%d)", int(h))
}

// HardwareComponents lists the hardware attribution targets in Fig. 8a order.
func HardwareComponents() []HardwareComponent {
	return []HardwareComponent{HWGPUFLOPs, HWGPUMemory, HWPCIe, HWEthernet, HWNVLink}
}

// Times is the execution-time breakdown of one training step on one cNode,
// in seconds.
type Times struct {
	// DataIO is Td, input-data transfer over PCIe (including the co-location
	// contention factor when multiple replicas share a server's PCIe).
	DataIO float64
	// ComputeFLOPs is the compute-bound part of Tc.
	ComputeFLOPs float64
	// ComputeMem is the memory-bound part of Tc.
	ComputeMem float64
	// Weights is Tw, total weight/gradient communication across all media.
	Weights float64
	// WeightsByLink attributes Tw to the link classes it crosses.
	WeightsByLink map[hw.LinkClass]float64
	// Overlap records the mode Total() will combine the parts under.
	Overlap OverlapMode
	// OverlapAlpha is the interpolation factor used by OverlapPartial:
	// 0 behaves like OverlapNone, 1 like OverlapIdeal.
	OverlapAlpha float64
}

// Compute is Tc = compute-bound + memory-bound time.
func (t Times) Compute() float64 { return t.ComputeFLOPs + t.ComputeMem }

// Total is the modeled step time under the breakdown's overlap mode.
func (t Times) Total() float64 {
	sum := t.DataIO + t.Compute() + t.Weights
	max := math.Max(t.DataIO, math.Max(t.Compute(), t.Weights))
	switch t.Overlap {
	case OverlapIdeal:
		return max
	case OverlapPartial:
		alpha := t.OverlapAlpha
		if alpha < 0 {
			alpha = 0
		}
		if alpha > 1 {
			alpha = 1
		}
		return max + (1-alpha)*(sum-max)
	default:
		return sum
	}
}

// Component returns the time of one breakdown component.
func (t Times) Component(c Component) (float64, error) {
	switch c {
	case CompDataIO:
		return t.DataIO, nil
	case CompWeights:
		return t.Weights, nil
	case CompComputeFLOPs:
		return t.ComputeFLOPs, nil
	case CompComputeMem:
		return t.ComputeMem, nil
	default:
		return 0, fmt.Errorf("core: unknown component %v", c)
	}
}

// Fraction returns the component's share of the non-overlap total
// (the per-job percentages aggregated in Figs. 7 and 8). The denominator is
// always the component sum so fractions add to 1 regardless of overlap mode.
func (t Times) Fraction(c Component) (float64, error) {
	v, err := t.Component(c)
	if err != nil {
		return 0, err
	}
	sum := t.DataIO + t.Compute() + t.Weights
	if sum == 0 {
		return 0, nil
	}
	return v / sum, nil
}

// HardwareTime attributes the breakdown to hardware components (Fig. 8a):
// compute-bound time to GPU FLOPs, memory-bound to GPU memory, data I/O plus
// any PCIe weight hop to PCIe, and weight traffic to Ethernet/NVLink as it
// crosses them.
func (t Times) HardwareTime(h HardwareComponent) (float64, error) {
	switch h {
	case HWGPUFLOPs:
		return t.ComputeFLOPs, nil
	case HWGPUMemory:
		return t.ComputeMem, nil
	case HWPCIe:
		return t.DataIO + t.WeightsByLink[hw.LinkPCIe], nil
	case HWEthernet:
		return t.WeightsByLink[hw.LinkEthernet], nil
	case HWNVLink:
		return t.WeightsByLink[hw.LinkNVLink], nil
	default:
		return 0, fmt.Errorf("core: unknown hardware component %v", h)
	}
}

// HardwareFraction returns the hardware component's share of the component
// sum.
func (t Times) HardwareFraction(h HardwareComponent) (float64, error) {
	if h < 0 || int(h) >= NumHardwareComponents {
		return 0, fmt.Errorf("core: unknown hardware component %v", h)
	}
	return t.HardwareFractions()[h], nil
}

// NumHardwareComponents is the size of the closed hardware-attribution set
// of Fig. 8a.
const NumHardwareComponents = 5

// HardwareFractions returns every hardware component's share of the
// component sum, indexed by HardwareComponent: one pass over the breakdown
// for callers that need all five. Each share is HardwareTime(h) / sum with
// the same operations, so the values are bit-identical to HardwareFraction.
func (t Times) HardwareFractions() [NumHardwareComponents]float64 {
	sum := t.DataIO + t.Compute() + t.Weights
	if sum == 0 {
		return [NumHardwareComponents]float64{}
	}
	return [NumHardwareComponents]float64{
		HWGPUFLOPs:  t.ComputeFLOPs / sum,
		HWGPUMemory: t.ComputeMem / sum,
		HWPCIe:      (t.DataIO + t.WeightsByLink[hw.LinkPCIe]) / sum,
		HWEthernet:  t.WeightsByLink[hw.LinkEthernet] / sum,
		HWNVLink:    t.WeightsByLink[hw.LinkNVLink] / sum,
	}
}

// Model evaluates the analytical breakdown for workloads on one hardware
// configuration.
type Model struct {
	// Config is the system configuration (Table I baseline, Table III
	// variations, or the Sec. IV testbed).
	Config hw.Config
	// Eff is the hardware-efficiency assumption; DefaultEfficiency (70%
	// everywhere) reproduces the paper's framework, per-workload Table VI
	// values reproduce the "measured" bars of Fig. 12.
	Eff workload.Efficiency
	// Overlap selects the total-time combination rule.
	Overlap OverlapMode
	// OverlapAlpha is the OverlapPartial interpolation factor in [0,1].
	OverlapAlpha float64
	// Arch tunes the derived traffic models.
	Arch arch.Options
}

// New returns a Model over the configuration with the paper's default
// assumptions (70% efficiency, no overlap, ring collectives).
func New(cfg hw.Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{
		Config:  cfg,
		Eff:     workload.DefaultEfficiency(),
		Overlap: OverlapNone,
		Arch:    arch.DefaultOptions(),
	}, nil
}

// Clone returns a copy of the model. Mutating the copy's assumptions (Eff,
// Overlap, Config, Arch) leaves the receiver untouched; Breakdown allocates
// fresh Times on every call, so the copy shares no mutable state.
func (m *Model) Clone() *Model {
	c := *m
	return &c
}

// linkEfficiency maps a link class to the efficiency knob that derates it.
func (m *Model) linkEfficiency(l hw.LinkClass) float64 {
	switch l {
	case hw.LinkPCIe:
		return m.Eff.PCIe
	case hw.LinkEthernet, hw.LinkNVLink:
		return m.Eff.Network
	default:
		return 1
	}
}

// Breakdown evaluates the analytical model for one workload.
func (m *Model) Breakdown(f workload.Features) (Times, error) {
	if err := m.Config.Validate(); err != nil {
		return Times{}, err
	}
	if err := m.Eff.Validate(); err != nil {
		return Times{}, err
	}
	if err := f.Validate(); err != nil {
		return Times{}, err
	}

	if m.Overlap == OverlapPartial && (m.OverlapAlpha < 0 || m.OverlapAlpha > 1 || math.IsNaN(m.OverlapAlpha)) {
		return Times{}, fmt.Errorf("core: OverlapAlpha must be in [0,1], got %v", m.OverlapAlpha)
	}
	t := Times{Overlap: m.Overlap, OverlapAlpha: m.OverlapAlpha,
		WeightsByLink: map[hw.LinkClass]float64{}}

	// Input data I/O: Sd over PCIe, shared by co-located replicas.
	coloc, err := arch.ColocatedReplicas(f, m.Config.GPUsPerServer)
	if err != nil {
		return Times{}, err
	}
	t.DataIO = f.InputBytes * float64(coloc) / (m.Config.PCIeBandwidth * m.Eff.PCIe)

	// Computation: compute-bound + memory-bound.
	t.ComputeFLOPs = f.FLOPs / (m.Config.GPU.PeakFLOPS * m.Eff.GPUCompute)
	t.ComputeMem = f.MemAccessBytes / (m.Config.GPU.MemBandwidth * m.Eff.GPUMemory)

	// Weight/gradient communication: Sw over each medium of the class.
	flows, err := arch.WeightFlows(f, m.Arch)
	if err != nil {
		return Times{}, err
	}
	for _, fl := range flows {
		bw, err := m.Config.Bandwidth(fl.Link)
		if err != nil {
			return Times{}, fmt.Errorf("core: workload %q: %w", f.Name, err)
		}
		dt := fl.Bytes / (bw * m.linkEfficiency(fl.Link))
		t.WeightsByLink[fl.Link] += dt
		t.Weights += dt
	}
	return t, nil
}

// StepTime returns the modeled per-step execution time.
func (m *Model) StepTime(f workload.Features) (float64, error) {
	t, err := m.Breakdown(f)
	if err != nil {
		return 0, err
	}
	return t.Total(), nil
}

// Throughput returns the job's training throughput in samples per second
// (Eq. 2): #cNodes / Ttotal x batch size.
func (m *Model) Throughput(f workload.Features) (float64, error) {
	total, err := m.StepTime(f)
	if err != nil {
		return 0, err
	}
	if total == 0 {
		return 0, fmt.Errorf("core: workload %q has zero step time", f.Name)
	}
	return float64(f.CNodes) / total * float64(f.BatchSize), nil
}

// Bottleneck returns the hardware component with the largest attributed time.
func (m *Model) Bottleneck(f workload.Features) (HardwareComponent, float64, error) {
	t, err := m.Breakdown(f)
	if err != nil {
		return 0, 0, err
	}
	best := HWGPUFLOPs
	var bestFrac float64
	for h, fr := range t.HardwareFractions() {
		if fr > bestFrac {
			best, bestFrac = HardwareComponent(h), fr
		}
	}
	return best, bestFrac, nil
}
