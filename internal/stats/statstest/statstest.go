// Package statstest checks that a decoded sink holds the same histograms
// and sketches as the live sink it was encoded from. Tests use it to show
// that a snapshot format change loses nothing before they re-record a
// golden hash.
package statstest

import (
	"bytes"
	"encoding"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/analyze"
	"repro/internal/stats"
)

var (
	histType   = reflect.TypeOf((*stats.Histogram)(nil))
	sketchType = reflect.TypeOf((*stats.Sketch)(nil))
	gridType   = reflect.TypeOf((*stats.Grid)(nil))
	marshaler  = reflect.TypeOf((*encoding.BinaryMarshaler)(nil)).Elem()
)

// Collect returns every histogram and sketch reachable from v, in a fixed
// order: struct fields in declaration order, slice and array elements in
// index order, map entries in the order of their formatted keys. It follows
// pointers (each once) and interfaces holding a BinaryMarshaler (nested
// sinks); it skips other interfaces, funcs and channels, so a sink's
// evaluator is not walked. A sketch's own histogram is collected too.
func Collect(v any) (hists []*stats.Histogram, sketches []*stats.Sketch) {
	c := collector{seen: map[ref]bool{}}
	c.walk(reflect.ValueOf(v))
	return c.hists, c.sketches
}

// ref identifies a pointer the walk has followed.
type ref struct {
	p uintptr
	t reflect.Type
}

type collector struct {
	seen     map[ref]bool
	hists    []*stats.Histogram
	sketches []*stats.Sketch
}

func (c *collector) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		r := ref{v.Pointer(), v.Type()}
		if v.IsNil() || c.seen[r] {
			return
		}
		c.seen[r] = true
		switch v.Type() {
		case gridType:
			return
		case histType:
			c.hists = append(c.hists, (*stats.Histogram)(v.UnsafePointer()))
		case sketchType:
			c.sketches = append(c.sketches, (*stats.Sketch)(v.UnsafePointer()))
		}
		c.walk(v.Elem())
	case reflect.Interface:
		if !v.IsNil() && v.Elem().Type().Implements(marshaler) {
			c.walk(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			c.walk(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			c.walk(v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			c.walk(v.MapIndex(k))
		}
	}
}

// quantiles are the probabilities at which Equal compares distributions.
var quantiles = []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}

// Equal fails tb unless decoded holds as many histograms and sketches as
// live, in the same places, and each holds the live one's Bins, Total,
// OutOfRange and quantiles (sketches: also Weight, Min, Max and edges),
// bit for bit. It returns the number of histograms and sketches compared.
func Equal(tb testing.TB, live, decoded any) (hists, sketches int) {
	tb.Helper()
	lh, ls := Collect(live)
	dh, ds := Collect(decoded)
	if len(lh) != len(dh) || len(ls) != len(ds) {
		tb.Fatalf("live sink holds %d histograms and %d sketches, decoded %d and %d", len(lh), len(ls), len(dh), len(ds))
	}
	for i := range lh {
		equalHist(tb, fmt.Sprintf("histogram %d", i), lh[i], dh[i])
	}
	for i := range ls {
		equalSketch(tb, fmt.Sprintf("sketch %d", i), ls[i], ds[i])
	}
	return len(lh), len(ls)
}

// RoundTrip writes live's framed snapshot, reads it back and checks with
// Equal that the decoded sink holds live's histograms and sketches. It
// fails tb unless it compared at least one histogram.
func RoundTrip(tb testing.TB, live analyze.Sink) {
	tb.Helper()
	var buf bytes.Buffer
	if err := analyze.WriteSnapshot(&buf, live); err != nil {
		tb.Fatal(err)
	}
	decoded, err := analyze.ReadSnapshot(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	if hists, _ := Equal(tb, live, decoded); hists == 0 {
		tb.Fatal("no histograms compared")
	}
}

func equalHist(tb testing.TB, name string, a, b *stats.Histogram) {
	tb.Helper()
	ae, ac := a.Bins()
	be, bc := b.Bins()
	sameFloats(tb, name+" edges", ae, be)
	sameFloats(tb, name+" counts", ac, bc)
	au, ao := a.OutOfRange()
	bu, bo := b.OutOfRange()
	sameFloats(tb, name+" total, under, over", []float64{a.Total(), au, ao}, []float64{b.Total(), bu, bo})
	for _, q := range quantiles {
		av, aerr := a.Quantile(q)
		bv, berr := b.Quantile(q)
		if (aerr == nil) != (berr == nil) || !same(av, bv) {
			tb.Errorf("%s: Quantile(%v) = %v (%v), live %v (%v)", name, q, bv, berr, av, aerr)
		}
	}
}

func equalSketch(tb testing.TB, name string, a, b *stats.Sketch) {
	tb.Helper()
	sameFloats(tb, name+" edges", a.Edges(), b.Edges())
	sameFloats(tb, name+" weight, min, max", []float64{a.Weight(), a.Min(), a.Max()}, []float64{b.Weight(), b.Min(), b.Max()})
	for _, q := range quantiles {
		if av, bv := a.Quantile(q), b.Quantile(q); !same(av, bv) {
			tb.Errorf("%s: Quantile(%v) = %v, live %v", name, q, bv, av)
		}
	}
}

func sameFloats(tb testing.TB, name string, a, b []float64) {
	tb.Helper()
	if len(a) != len(b) {
		tb.Errorf("%s: %d values, live %d", name, len(b), len(a))
		return
	}
	for i := range a {
		if !same(a[i], b[i]) {
			tb.Errorf("%s[%d] = %v, live %v", name, i, b[i], a[i])
			return
		}
	}
}

// same compares bits, so NaN equals NaN and -0 differs from 0.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
