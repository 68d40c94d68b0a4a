package pai_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	pai "repro"
)

// orderSink has no fold-memo key: it hashes every record's name, arrival,
// class and step time in stream order, so it reads the very columns a frame
// hit leaves undecoded, Name and ArrivalSec included, and the times in
// place.
type orderSink struct {
	h uint64
	n uint64
}

func (s *orderSink) Kind() string { return "test-order" }

func (s *orderSink) Add(f pai.Features, t pai.Times) error {
	const prime64 = 1099511628211
	mix := func(v uint64) { s.h = (s.h ^ v) * prime64 }
	for i := 0; i < len(f.Name); i++ {
		mix(uint64(f.Name[i]))
	}
	mix(math.Float64bits(f.ArrivalSec))
	mix(uint64(f.Class))
	mix(math.Float64bits(t.Total()))
	s.n++
	return nil
}

// AddColumns folds a block like Add and then scribbles over its times,
// which the pipeline hands the sink as its own for the call: a hit block
// whose times were the cache entry's would corrupt every later fold.
func (s *orderSink) AddColumns(cols *pai.Columns, times []pai.Times) error {
	for i := 0; i < cols.Len(); i++ {
		if err := s.Add(cols.Row(i), times[i]); err != nil {
			return err
		}
		times[i] = pai.Times{}
	}
	return nil
}

func (s *orderSink) Merge(o pai.Sink) error {
	other, ok := o.(*orderSink)
	if !ok {
		return fmt.Errorf("merge %s into %s", o.Kind(), s.Kind())
	}
	s.h = s.h*31 ^ other.h
	s.n += other.n
	return nil
}

func (s *orderSink) MarshalBinary() ([]byte, error) {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, s.h), s.n), nil
}

func (s *orderSink) UnmarshalBinary(b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("order sink snapshot of %d bytes", len(b))
	}
	s.h, s.n = binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
	return nil
}

// recordsOnly hides a source's block methods, forcing the record route.
type recordsOnly struct{ src pai.JobSource }

func (r recordsOnly) Next() (pai.Features, error) { return r.src.Next() }

// frameInput is one colbin trace of the frame-path property test.
type frameInput struct {
	name string
	jobs []pai.Features
	// repeats is whether some block's records, ArrivalSec aside, and so
	// its frame key, repeat an earlier block's within one pass.
	repeats bool
}

const frameBlock = 256

// frameInputs builds traces of 16 blocks of 256 records: one whose blocks
// alternate between two payloads, the same with every record renamed (same
// columns for the cache, other frame keys) or restamped (same frame keys,
// other payloads), one that repeats in its first half only, the generator's
// own arrival-stamped resubmissions, and one with no repetition at all.
func frameInputs(t *testing.T) []frameInput {
	t.Helper()
	gen := func(distinct int, arrivalRate float64) []pai.Features {
		p := pai.DefaultTraceParams()
		p.Seed = 5
		p.NumJobs = 16 * frameBlock
		p.DistinctJobs = distinct
		p.ArrivalRate = arrivalRate
		tr, err := pai.GenerateTrace(p)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Jobs
	}
	aligned := gen(2*frameBlock, 0)
	vary := func(from int, f func(i int, j *pai.Features)) []pai.Features {
		out := append([]pai.Features(nil), aligned...)
		for i := from; i < len(out); i++ {
			f(i, &out[i])
		}
		return out
	}
	renamed := vary(0, func(i int, j *pai.Features) { j.Name = fmt.Sprintf("%s#%d", j.Name, i) })
	restamped := vary(0, func(i int, j *pai.Features) { j.ArrivalSec = float64(i) })
	mixed := vary(len(aligned)/2, func(i int, j *pai.Features) { j.Name = fmt.Sprintf("%s#%d", j.Name, i) })
	inputs := []frameInput{
		{name: "aligned", jobs: aligned},
		{name: "renamed", jobs: renamed},
		{name: "restamped", jobs: restamped},
		{name: "mixed", jobs: mixed},
		{name: "stamped", jobs: gen(2*frameBlock, 3600)},
		{name: "distinct", jobs: gen(0, 0)},
	}
	for i := range inputs {
		in := &inputs[i]
		for b := frameBlock; b < len(in.jobs) && !in.repeats; b += frameBlock {
			for a := 0; a < b; a += frameBlock {
				if equalJobs(in.jobs[a:a+frameBlock], in.jobs[b:b+frameBlock]) {
					in.repeats = true
					break
				}
			}
		}
	}
	return inputs
}

// equalJobs reports whether a and b hold the same records, ArrivalSec
// aside.
func equalJobs(a, b []pai.Features) bool {
	for i := range a {
		x, y := a[i], b[i]
		x.ArrivalSec, y.ArrivalSec = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

func encodeColbin(t *testing.T, jobs []pai.Features) []byte {
	t.Helper()
	var cb bytes.Buffer
	w := pai.NewColumnWriterBlockRecords(&cb, frameBlock)
	for _, f := range jobs {
		if err := w.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes()
}

// frameSinks are the two sink configurations of the frame-path tests: the
// report sink, whose members all merge memoized partials, and the report
// members beside a sink that reads every column.
var frameSinks = []struct {
	name string
	new  func(*pai.Engine) (pai.Sink, error)
}{
	{"report", func(e *pai.Engine) (pai.Sink, error) { return e.NewReportSink(pai.ToAllReduceLocal) }},
	{"report+order", func(e *pai.Engine) (pai.Sink, error) {
		ms, err := e.NewReportSink(pai.ToAllReduceLocal)
		if err != nil {
			return nil, err
		}
		return pai.NewMultiSink(append(ms.Sinks()[:len(ms.Sinks()):len(ms.Sinks())], &orderSink{})...), nil
	}},
}

// foldFrames folds cb into a fresh sink through eng, by columns or through
// the record route, and returns the snapshot.
func foldFrames(t *testing.T, eng *pai.Engine, cb []byte, newSink func(*pai.Engine) (pai.Sink, error), records bool) []byte {
	t.Helper()
	s, err := newSink(eng)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var n int
	if records {
		n, err = eng.StreamInto(ctx, recordsOnly{pai.NewColumnReader(bytes.NewReader(cb))}, s)
	} else {
		n, err = eng.StreamColumnsInto(ctx, pai.NewColumnReader(bytes.NewReader(cb)), s)
	}
	if err != nil {
		t.Fatal(err)
	}
	if n != 16*frameBlock {
		t.Fatalf("folded %d of %d records", n, 16*frameBlock)
	}
	raw, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestFramePathProperty folds the same colbin bytes cold (a fresh cached
// engine), warm (later passes, whose repeated frames hit by key) and
// through the record route, into the report sink and into the report
// members beside a sink without a memo key, at parallelism 1, 2 and 4, with
// a cache that holds the working set and one that rotates mid-pass. Every
// snapshot equals the uncached fold's bytes. Frame hits are zero exactly
// where no frame key repeats: on the cold pass of an input without repeated
// blocks, and on an input whose blocks repeat a warm engine's columns under
// other names; with the working set held, a repeated key always hits, also
// when the repeat arrives at other times.
func TestFramePathProperty(t *testing.T) {
	inputs := frameInputs(t)
	plain, err := pai.New(pai.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	cbs := map[string][]byte{}
	want := map[string][]byte{}
	for _, in := range inputs {
		cbs[in.name] = encodeColbin(t, in.jobs)
		for _, sk := range frameSinks {
			want[in.name+"/"+sk.name] = foldFrames(t, plain, cbs[in.name], sk.new, false)
		}
	}
	for i, repeats := range []bool{true, false, true, true, true, false} {
		if inputs[i].repeats != repeats {
			t.Fatalf("input %s: repeats %v, the test assumes %v", inputs[i].name, inputs[i].repeats, repeats)
		}
	}
	budgets := []struct {
		name  string
		opt   pai.Option
		holds bool
	}{
		{"holding", pai.WithCache(1 << 14), true},
		{"rotating", pai.WithCacheBytes(96 << 10), false},
	}
	for _, budget := range budgets {
		for _, par := range []int{1, 2, 4} {
			for _, sk := range frameSinks {
				name := fmt.Sprintf("%s/par%d/%s", budget.name, par, sk.name)
				check := func(in string, got []byte, what string) {
					t.Helper()
					if !bytes.Equal(got, want[in+"/"+sk.name]) {
						t.Errorf("%s, %s: %s snapshot differs from the uncached fold", name, in, what)
					}
				}
				for _, in := range inputs {
					eng, err := pai.New(pai.WithParallelism(par), budget.opt)
					if err != nil {
						t.Fatal(err)
					}
					check(in.name, foldFrames(t, eng, cbs[in.name], sk.new, false), "cold")
					cold := eng.CacheStats()
					if !in.repeats && cold.FrameHits != 0 {
						t.Errorf("%s, %s: %d frame hits on a cold pass where no payload repeats", name, in.name, cold.FrameHits)
					}
					if in.repeats && budget.holds && cold.FrameHits == 0 {
						t.Errorf("%s, %s: no frame hit on a cold pass whose payloads repeat", name, in.name)
					}
					for pass := 0; pass < 2; pass++ {
						check(in.name, foldFrames(t, eng, cbs[in.name], sk.new, false), fmt.Sprintf("warm pass %d", pass))
					}
					check(in.name, foldFrames(t, eng, cbs[in.name], sk.new, true), "record-route")
					warm := eng.CacheStats()
					if budget.holds && warm.FrameHits == cold.FrameHits {
						t.Errorf("%s, %s: no frame hit on warm passes", name, in.name)
					}
					if !budget.holds && warm.Rotations == 0 {
						t.Errorf("%s, %s: the rotating budget never rotated (%+v)", name, in.name, warm)
					}
				}

				// Blocks that repeat a warm engine's columns under other names
				// hit by column, never by frame; under other arrivals they
				// hit by frame.
				eng, err := pai.New(pai.WithParallelism(par), budget.opt)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 3; pass++ {
					check("aligned", foldFrames(t, eng, cbs["aligned"], sk.new, false), "warm-up")
				}
				for _, in := range []string{"renamed", "restamped"} {
					before := eng.CacheStats()
					check(in, foldFrames(t, eng, cbs[in], sk.new, false), "cross-variant")
					after := eng.CacheStats()
					frameHits := after.FrameHits - before.FrameHits
					if in == "renamed" && frameHits != 0 {
						t.Errorf("%s, %s after aligned: %d frame hits where no frame key repeats", name, in, frameHits)
					}
					if in == "restamped" && budget.holds && frameHits != 16 {
						t.Errorf("%s, %s after aligned: %d frame hits, want all 16 blocks", name, in, frameHits)
					}
					if budget.holds && after.BlockHits == before.BlockHits {
						t.Errorf("%s, %s after aligned: no block hit", name, in)
					}
				}
			}
		}
	}
}

// TestFrameCorruptionFailsLikeCold: after warm-up, a corrupted frame fails
// with the error text a cold pass gives — whether the corruption breaks the
// frame checksum or leaves a checksummed payload that decode rejects, in
// its frame key or in the arrival column outside it — and the warm engine's
// next clean pass is unharmed.
func TestFrameCorruptionFailsLikeCold(t *testing.T) {
	jobs := frameInputs(t)[0].jobs
	clean := encodeColbin(t, jobs)
	ir, err := pai.NewIndexedColumnReader(bytes.NewReader(clean), int64(len(clean)))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), clean...)
	flipped[ir.Index().Block(9).Offset+40] ^= 0x10
	bad := append([]pai.Features(nil), jobs...)
	bad[9*frameBlock+3].FLOPs = -1
	late := append([]pai.Features(nil), jobs...)
	late[9*frameBlock+3].ArrivalSec = math.NaN()
	corrupt := []struct {
		name, cb, want string
	}{
		{"checksum", string(flipped), "block 10: checksum mismatch"},
		{"invalid-record", string(encodeColbin(t, bad)), "block 10: record 3:"},
		{"invalid-arrival", string(encodeColbin(t, late)), "block 10: record 3:"},
	}

	for _, par := range []int{1, 4} {
		plain, err := pai.New(pai.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		warm, err := pai.New(pai.WithParallelism(par), pai.WithCache(1<<14))
		if err != nil {
			t.Fatal(err)
		}
		want := foldFrames(t, plain, clean, frameSinks[0].new, false)
		for pass := 0; pass < 3; pass++ {
			foldFrames(t, warm, clean, frameSinks[0].new, false)
		}
		if warm.CacheStats().FrameHits == 0 {
			t.Fatal("warm-up had no frame hit")
		}
		for _, c := range corrupt {
			fold := func(eng *pai.Engine) error {
				s, err := eng.NewReportSink(pai.ToAllReduceLocal)
				if err != nil {
					t.Fatal(err)
				}
				_, err = eng.StreamColumnsInto(context.Background(), pai.NewColumnReader(strings.NewReader(c.cb)), s)
				return err
			}
			coldErr := fold(plain)
			if coldErr == nil || !strings.Contains(coldErr.Error(), c.want) {
				t.Fatalf("%s: the cold pass failed with %v, want %q", c.name, coldErr, c.want)
			}
			if warmErr := fold(warm); warmErr == nil || warmErr.Error() != coldErr.Error() {
				t.Errorf("par %d, %s: warm pass failed with %v, cold with %v", par, c.name, warmErr, coldErr)
			}
		}
		if got := foldFrames(t, warm, clean, frameSinks[0].new, false); !bytes.Equal(got, want) {
			t.Errorf("par %d: the clean pass after the corrupted ones differs", par)
		}
	}
}
