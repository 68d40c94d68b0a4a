package pai_test

import (
	"context"
	"math"
	"math/big"
	"testing"

	pai "repro"
)

// bigSum is an exact running sum of float64 products (4,096 bits of
// precision hold every sum these tests form without rounding).
type bigSum struct{ v *big.Float }

func newBigSum() *bigSum { return &bigSum{v: new(big.Float).SetPrec(4096)} }

func (s *bigSum) addProduct(x, w float64) {
	p := new(big.Float).SetPrec(4096).SetFloat64(x)
	p.Mul(p, new(big.Float).SetFloat64(w))
	s.v.Add(s.v, p)
}

// quo returns the exact sum divided by d, rounded once to float64.
func (s *bigSum) quo(d float64) float64 {
	q, _ := new(big.Float).SetPrec(53).Quo(s.v, new(big.Float).SetFloat64(d)).Float64()
	return q
}

// checkExact asserts that a value the report reads equals the correctly
// rounded math/big result and lies within 1e-12 relative of what the
// previous float arithmetic (plain += sums and Welford means, in record
// order) produced.
func checkExact(t *testing.T, name string, got, exact, old float64) {
	t.Helper()
	if got != exact {
		t.Errorf("%s = %v, correctly rounded value %v", name, got, exact)
	}
	if d := math.Abs(got - old); d > 1e-12*math.Abs(old) {
		t.Errorf("%s = %v moved %v from the float-arithmetic value %v", name, got, d, old)
	}
}

// TestReportAccumulatorsExact is the differential test behind the golden
// snapshots recorded with exact accumulators: it folds the golden traces
// into the full report sink and checks every mean the report reads —
// per-class and overall component shares at both levels, the step-time
// mean and variance, and the projection's mean speedups — against math/big
// and against the plain float sums the accumulators used to keep.
func TestReportAccumulatorsExact(t *testing.T) {
	eng, err := pai.New(pai.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	comps := []pai.Component{pai.CompDataIO, pai.CompWeights, pai.CompComputeFLOPs, pai.CompComputeMem}
	levels := []pai.Level{pai.JobLevel, pai.CNodeLevel}
	for name, distinct := range map[string]int{"repetitive": 64, "distinct": 0} {
		t.Run(name, func(t *testing.T) {
			jobs, _ := goldenTrace(t, distinct)
			sink, err := eng.NewReportSink(pai.ToAllReduceLocal)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.StreamInto(ctx, pai.NewSliceJobSource(jobs), sink); err != nil {
				t.Fatal(err)
			}
			acc := sink.Sinks()[0].(*pai.BreakdownAccumulator)
			proj := sink.Sinks()[3].(*pai.ProjectionSink)
			times, err := eng.EvaluateBatch(ctx, jobs)
			if err != nil {
				t.Fatal(err)
			}

			// Component shares: per (class, level) and overall per level.
			type cell struct {
				exact [4]*bigSum
				old   [4]float64
				w     float64
			}
			newCell := func() *cell {
				c := &cell{}
				for k := range c.exact {
					c.exact[k] = newBigSum()
				}
				return c
			}
			byClass := map[[2]int]*cell{}
			overall := [2]*cell{newCell(), newCell()}
			// Welford state of the old step-time accumulator.
			var stepN, stepMean, stepM2 float64
			step := newBigSum()
			stepSq := newBigSum()
			for i, tm := range times {
				f := jobs[i]
				for li, lvl := range levels {
					w := 1.0
					if lvl == pai.CNodeLevel {
						w = float64(f.CNodes)
					}
					key := [2]int{int(f.Class), li}
					c := byClass[key]
					if c == nil {
						c = newCell()
						byClass[key] = c
					}
					for k, comp := range comps {
						fr, err := tm.Fraction(comp)
						if err != nil {
							t.Fatal(err)
						}
						for _, cc := range []*cell{c, overall[li]} {
							cc.exact[k].addProduct(fr, w)
							cc.old[k] += fr * w
						}
					}
					c.w += w
					overall[li].w += w
				}
				x := tm.Total()
				stepN++
				d := x - stepMean
				stepMean += d / stepN
				stepM2 += d * (x - stepMean)
				step.addProduct(x, 1)
				stepSq.addProduct(x, x)
			}
			if len(acc.Rows()) == 0 {
				t.Fatal("no breakdown rows")
			}
			for _, row := range acc.Rows() {
				li := 0
				if row.Level == pai.CNodeLevel {
					li = 1
				}
				c := byClass[[2]int{int(row.Class), li}]
				for k, comp := range comps {
					checkExact(t, row.Class.String()+" "+comp.String(), row.Share[comp], c.exact[k].quo(c.w), c.old[k]/c.w)
				}
			}
			for li, lvl := range levels {
				shares, err := acc.Overall(lvl)
				if err != nil {
					t.Fatal(err)
				}
				c := overall[li]
				for k, comp := range comps {
					checkExact(t, "overall "+comp.String(), shares[comp], c.exact[k].quo(c.w), c.old[k]/c.w)
				}
			}

			st := acc.StepTime()
			checkExact(t, "step mean", st.Mean(), step.quo(stepN), stepMean)
			// Variance: (N·Σx² − (Σx)²) / N², rounded once.
			num := new(big.Float).SetPrec(8192).Mul(stepSq.v, new(big.Float).SetFloat64(stepN))
			num.Sub(num, new(big.Float).SetPrec(8192).Mul(step.v, step.v))
			exactVar, _ := new(big.Float).SetPrec(53).Quo(num, new(big.Float).SetFloat64(stepN*stepN)).Float64()
			checkExact(t, "step variance", st.Var(), exactVar, stepM2/stepN)

			// Projection means over the PS/Worker jobs.
			node, tp := newBigSum(), newBigSum()
			var oldNode, oldTp float64
			n := 0
			for _, f := range jobs {
				if f.Class != pai.PSWorker {
					continue
				}
				r, err := eng.Project(f, pai.ToAllReduceLocal)
				if err != nil {
					t.Fatal(err)
				}
				node.addProduct(r.NodeSpeedup, 1)
				tp.addProduct(r.ThroughputSpeedup, 1)
				oldNode += r.NodeSpeedup
				oldTp += r.ThroughputSpeedup
				n++
			}
			if n == 0 {
				t.Fatal("no PS/Worker jobs to project")
			}
			sum, err := proj.Summary()
			if err != nil {
				t.Fatal(err)
			}
			checkExact(t, "mean node speedup", sum.MeanNodeSpeedup, node.quo(float64(n)), oldNode/float64(n))
			checkExact(t, "mean throughput speedup", sum.MeanThroughputSpeedup, tp.quo(float64(n)), oldTp/float64(n))
		})
	}
}
