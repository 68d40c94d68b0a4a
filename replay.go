package pai

import (
	"context"
	"fmt"

	"repro/internal/analyze"
	"repro/internal/cluster"
	"repro/internal/replay"
)

// DefaultReplayServers is the cluster size Engine.Replay simulates when
// WithReplayServers is not given — a production-scale pod rather than the
// whole trace cluster, so queueing effects are visible at default settings.
const DefaultReplayServers = 128

// replayOptions collects the ReplayOption set for one run.
type replayOptions struct {
	servers        int
	policy         string
	queueLimit     int
	stragglerFrac  float64
	stragglerMult  float64
	stragglerSeed  int64
	steps          int
	stepsFn        func(index int, f Features) int
	allowUnstamped bool
	windowSec      float64
}

// ReplayOption configures one Engine.Replay / Engine.ReplayInto run.
type ReplayOption func(*replayOptions) error

// WithReplayServers sets the simulated cluster size in servers
// (DefaultReplayServers by default). GPUs per server and NVLink availability
// follow the engine's hardware configuration; derive an engine variant with
// WithConfig to change them.
func WithReplayServers(n int) ReplayOption {
	return func(o *replayOptions) error {
		if n <= 0 {
			return fmt.Errorf("pai: WithReplayServers(%d): need at least one server", n)
		}
		o.servers = n
		return nil
	}
}

// WithReplayPolicy selects a scheduling policy by name (see
// SchedulerPolicies; "fifo" by default).
func WithReplayPolicy(name string) ReplayOption {
	return func(o *replayOptions) error {
		if name == "" {
			return fmt.Errorf("pai: WithReplayPolicy with empty name")
		}
		o.policy = name
		return nil
	}
}

// WithReplayQueueLimit bounds admission: an arrival that finds n jobs
// already pending is rejected instead of queued. Zero (the default) removes
// the bound.
func WithReplayQueueLimit(n int) ReplayOption {
	return func(o *replayOptions) error {
		if n < 0 {
			return fmt.Errorf("pai: WithReplayQueueLimit(%d): limit must be >= 0", n)
		}
		o.queueLimit = n
		return nil
	}
}

// WithReplayStragglers injects stragglers: a deterministically sampled
// `fraction` of admitted jobs run `factor` times their predicted duration.
// Sampling keys on the submission index, so the straggler set is identical
// across runs and parallelism levels.
func WithReplayStragglers(fraction, factor float64) ReplayOption {
	return func(o *replayOptions) error {
		if fraction < 0 || fraction > 1 {
			return fmt.Errorf("pai: WithReplayStragglers: fraction %v outside [0,1]", fraction)
		}
		if factor < 1 {
			return fmt.Errorf("pai: WithReplayStragglers: factor %v must be >= 1", factor)
		}
		o.stragglerFrac, o.stragglerMult = fraction, factor
		return nil
	}
}

// WithReplayStragglerSeed decorrelates the straggler sample across runs
// that share a fraction (seed 0 by default).
func WithReplayStragglerSeed(seed int64) ReplayOption {
	return func(o *replayOptions) error {
		o.stragglerSeed = seed
		return nil
	}
}

// WithReplaySteps runs every job for n training steps (1 by default): the
// job's runtime is its predicted step time times n.
func WithReplaySteps(n int) ReplayOption {
	return func(o *replayOptions) error {
		if n <= 0 {
			return fmt.Errorf("pai: WithReplaySteps(%d): steps must be positive", n)
		}
		o.steps, o.stepsFn = n, nil
		return nil
	}
}

// WithReplayStepsFunc derives each job's step count from its stream index
// and feature record — for traces whose step counts live beside the trace.
// It overrides WithReplaySteps.
func WithReplayStepsFunc(fn func(index int, f Features) int) ReplayOption {
	return func(o *replayOptions) error {
		if fn == nil {
			return fmt.Errorf("pai: WithReplayStepsFunc with nil func")
		}
		o.stepsFn = fn
		return nil
	}
}

// WithReplayUnstamped accepts traces without arrival stamps as a deliberate
// batch replay (every job submitted at t=0) instead of failing with
// ErrNoArrivals.
func WithReplayUnstamped() ReplayOption {
	return func(o *replayOptions) error {
		o.allowUnstamped = true
		return nil
	}
}

// WithReplayUtilizationWindow sets the occupancy-timeline bucket width in
// seconds for the fleet UtilizationSink Engine.Replay builds (one hour by
// default). It has no effect on ReplayInto, where the caller owns the sink.
func WithReplayUtilizationWindow(sec float64) ReplayOption {
	return func(o *replayOptions) error {
		if sec <= 0 {
			return fmt.Errorf("pai: WithReplayUtilizationWindow(%v): window must be positive", sec)
		}
		o.windowSec = sec
		return nil
	}
}

// ReplayResult is Engine.Replay's return: the scalar fleet summary plus the
// filled fleet-level sinks.
type ReplayResult struct {
	// Stats is the scalar fleet summary.
	Stats ReplayStats
	// Sinks bundles the three fleet sinks in snapshot order (counters,
	// queue delay, utilization); snapshot it as one unit.
	Sinks *MultiSink
	// Counters tallies admissions, completions, rejections and stragglers,
	// in total and per class.
	Counters *ReplayCounterSink
	// QueueDelay holds the per-class queue-delay CDF sketches.
	QueueDelay *QueueDelaySink
	// Utilization holds the windowed GPU-occupancy timeline.
	Utilization *UtilizationSink
}

func buildReplayOptions(opts []ReplayOption) (replayOptions, error) {
	o := replayOptions{servers: DefaultReplayServers, steps: 1, windowSec: replay.DefaultUtilizationWindow}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return replayOptions{}, err
		}
	}
	return o, nil
}

func (o replayOptions) config(c *cluster.Cluster) replay.Config {
	cfg := replay.Config{
		Cluster:           c,
		Policy:            o.policy,
		QueueLimit:        o.queueLimit,
		StragglerFraction: o.stragglerFrac,
		StragglerFactor:   o.stragglerMult,
		StragglerSeed:     o.stragglerSeed,
		AllowUnstamped:    o.allowUnstamped,
	}
	switch {
	case o.stepsFn != nil:
		cfg.Steps = o.stepsFn
	case o.steps != 1:
		n := o.steps
		cfg.Steps = func(int, Features) int { return n }
	}
	return cfg
}

// ReplayInto replays every job from src through the discrete-event cluster
// scheduler, with per-step times predicted by the engine's backend (cache
// included when configured), and dispatches per-job outcomes into sink — a
// fleet-level OutcomeSink, a plain Sink (breakdowns, CDFs), or a MultiSink
// bundling both; nil discards outcomes. The trace must be arrival-stamped
// in nondecreasing order (ErrNoArrivals / ErrUnsortedArrivals otherwise;
// see WithReplayUnstamped). It returns the scalar fleet summary.
//
// A replay is deterministic: same trace + same options produce byte-identical
// sink snapshots regardless of the engine's parallelism. With capacity at
// least the trace's peak concurrency under FIFO, queueing never engages and
// plain sinks fill byte-identically to Engine.StreamInto over the same
// records.
func (e *Engine) ReplayInto(ctx context.Context, src JobSource, sink Sink, opts ...ReplayOption) (ReplayStats, error) {
	ev, err := e.evaluator()
	if err != nil {
		return ReplayStats{}, err
	}
	o, err := buildReplayOptions(opts)
	if err != nil {
		return ReplayStats{}, err
	}
	c, err := cluster.New(e.spec.Config, o.servers)
	if err != nil {
		return ReplayStats{}, err
	}
	return replay.Run(ctx, ev, e.parallelism, src, o.config(c), sink)
}

// Replay is ReplayInto with the standard fleet-level sink set built in: an
// admission/completion counter sink, per-class queue-delay CDF sketches,
// and a windowed GPU-occupancy timeline sized to the simulated capacity.
// The sinks come back filled (and bundled as one MultiSink for
// snapshotting) beside the scalar summary.
func (e *Engine) Replay(ctx context.Context, src JobSource, opts ...ReplayOption) (ReplayResult, error) {
	ev, err := e.evaluator()
	if err != nil {
		return ReplayResult{}, err
	}
	o, err := buildReplayOptions(opts)
	if err != nil {
		return ReplayResult{}, err
	}
	c, err := cluster.New(e.spec.Config, o.servers)
	if err != nil {
		return ReplayResult{}, err
	}
	util, err := replay.NewUtilizationSink(o.windowSec, c.NumGPUs())
	if err != nil {
		return ReplayResult{}, err
	}
	res := ReplayResult{
		Counters:    replay.NewCounterSink(),
		QueueDelay:  replay.NewQueueDelaySink(),
		Utilization: util,
	}
	res.Sinks = analyze.NewMultiSink(res.Counters, res.QueueDelay, res.Utilization)
	stats, err := replay.Run(ctx, ev, e.parallelism, src, o.config(c), res.Sinks)
	if err != nil {
		return ReplayResult{}, err
	}
	res.Stats = stats
	return res, nil
}

// SchedulerPolicies lists the replay scheduling policy names, sorted
// ("fifo", "sjf").
func SchedulerPolicies() []string { return replay.PolicyNames() }
