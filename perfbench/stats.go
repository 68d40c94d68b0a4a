package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one reported number with its unit and the number of samples
// it summarizes.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is what the measured process hands back to the orchestrator.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Checks lists every correctness check with its outcome; Notes carry
	// context such as input sizes and rates.
	Checks  []string `json:"checks"`
	Notes   []string `json:"notes"`
	Machine string   `json:"machine,omitempty"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) add(name string, value float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: value, Unit: unit, Samples: samples}
}

// check records one correctness check; a failed check fails the run.
func (r *result) check(ok bool, format string, args ...any) {
	status := "ok  "
	if !ok {
		status = "FAIL"
		r.Correct = false
	}
	r.Checks = append(r.Checks, status+" "+fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, "note "+fmt.Sprintf(format, args...))
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
