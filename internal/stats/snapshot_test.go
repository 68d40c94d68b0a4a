package stats

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// Fixed grids registered for these tests; the packages that own the real
// ones (analyze, project, replay) import stats, so stats cannot.
var (
	testFixedGrid    = MustGrid(LinGrid(-2, 2, 65))
	testFixedLogGrid = MustGrid(LogGrid(1e-2, 1e2, 33))
)

// histSnapshots returns one snapshot of each form: empty, sparse and dense
// integer counts, fractional weights, on fixed and ad-hoc grids.
func histSnapshots(t testing.TB) map[string][]byte {
	t.Helper()
	adhoc, err := NewGrid([]float64{0, 1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	fill := func(g *Grid, xs []float64, w float64) []byte {
		h := NewGridHistogram(g)
		for _, x := range xs {
			h.AddWeighted(x, w)
		}
		raw, err := h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	dense := make([]float64, 0, 200)
	for i := 0; i < 200; i++ {
		dense = append(dense, -2.5+float64(i)*0.025)
	}
	return map[string][]byte{
		"empty fixed":       fill(testFixedGrid, nil, 1),
		"empty ad-hoc":      fill(adhoc, nil, 1),
		"sparse fixed":      fill(testFixedGrid, []float64{-3, 0.1, 0.1, 1.9, 2, 7}, 1),
		"sparse log fixed":  fill(testFixedLogGrid, []float64{0.5, 3, 3, 3, 1e3}, 3),
		"dense fixed":       fill(testFixedGrid, dense, 1),
		"fractional fixed":  fill(testFixedGrid, []float64{-1, 0, 1.5}, 0.25),
		"sparse ad-hoc":     fill(adhoc, []float64{-1, 0.5, 3, 3, 9}, 1),
		"fractional ad-hoc": fill(adhoc, []float64{0.5, 3}, 1.5),
	}
}

// TestHistogramSnapshotForms pins which form each state takes, that every
// form round-trips bit for bit, and that a decoded fixed-grid histogram
// shares the registered Grid.
func TestHistogramSnapshotForms(t *testing.T) {
	for name, raw := range histSnapshots(t) {
		t.Run(name, func(t *testing.T) {
			var h Histogram
			if err := h.UnmarshalBinary(raw); err != nil {
				t.Fatal(err)
			}
			again, err := h.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, again) {
				t.Fatalf("re-encoded % x, want % x", again, raw)
			}
			form := raw[1]
			if fixed := strings.HasSuffix(name, "fixed"); fixed != (form&formFixedGrid != 0) {
				t.Errorf("form %#x: fixed grid bit should be %v", form, fixed)
			}
			if frac := strings.HasPrefix(name, "fractional"); frac == (form&formIntCounts != 0) {
				t.Errorf("form %#x: integer counts bit should be %v", form, !frac)
			}
			if form&formFixedGrid != 0 && h.grid != testFixedGrid && h.grid != testFixedLogGrid {
				t.Error("decoded fixed-grid histogram does not share the registered Grid")
			}
		})
	}
	// An ad-hoc grid with a fixed grid's edges is the same state, so it
	// writes the same bytes and decodes onto the fixed grid.
	edges, _ := LinGrid(-2, 2, 65)
	a, b := NewGridHistogram(testFixedGrid), mustHist(t, edges)
	for _, h := range []*Histogram{a, b} {
		h.Add(0.3)
		h.Add(5)
	}
	ra, _ := a.MarshalBinary()
	rb, _ := b.MarshalBinary()
	if !bytes.Equal(ra, rb) || len(ra) > 16 {
		t.Errorf("fixed-grid snapshots % x and % x, want one short checksum form", ra, rb)
	}
}

// TestHistogramSnapshotRejects feeds the decoder every non-canonical or
// corrupt spelling it must refuse, each with an error naming the fault.
func TestHistogramSnapshotRejects(t *testing.T) {
	h := NewGridHistogram(testFixedGrid)
	h.Add(0.1)
	h.Add(1.9)
	sparse, _ := h.MarshalBinary()
	// sparse: version, form, bins, checksum (8), non-zero bins, pairs...
	const countsAt = 1 + 1 + 1 + 8
	if sparse[countsAt] != 2 {
		t.Fatalf("layout moved: % x", sparse)
	}
	floatForm := func(g *Grid, counts []float64, total, under, over float64, form uint8) []byte {
		w := newStatsWriter(64)
		w.U8(histogramVersion)
		w.U8(form)
		if form&formFixedGrid != 0 {
			w.Int(len(g.edges) - 1)
			w.U64(g.sum)
		} else {
			w.F64s(g.edges)
		}
		w.F64Col(counts)
		w.F64(total)
		w.F64(under)
		w.F64(over)
		return w.Bytes()
	}
	bins := len(testFixedGrid.edges) - 1
	ints := make([]float64, bins)
	ints[3] = 2
	badBins := append([]byte(nil), sparse...)
	badBins[2] = byte(bins + 1)
	cases := []struct {
		name, want string
		raw        []byte
	}{
		{"version 1", "histogram snapshot version 1, want 2", append([]byte{1}, sparse[1:]...)},
		{"unknown form bit", "form 0x7", append([]byte{histogramVersion, 7}, sparse[2:]...)},
		{"trailing byte", "trailing", append(append([]byte(nil), sparse...), 0)},
		{"zero sparse count", "sparse count 0", append(append([]byte(nil), sparse[:countsAt]...), 1, 5, 0, 0, 0)},
		{"gap past the last bin", "past the last bin", append(append([]byte(nil), sparse[:countsAt]...), 1, byte(bins), 1, 0, 0)},
		{"second gap past the last bin", "past the last bin", append(append([]byte(nil), sparse[:countsAt]...), 2, byte(bins-1), 1, 0, 1, 0, 0)},
		{"count past 2^53", "sparse count", append(binary.AppendUvarint(append(append([]byte(nil), sparse[:countsAt]...), 1, 0), 1<<53+1), 0, 0)},
		{"bins of another size", "names 64 bins, snapshot has 65", badBins},
		{"integer counts as float64", "integer counts in the float64 form",
			floatForm(testFixedGrid, ints, 2, 0, 0, formFixedGrid)},
		{"fixed grid spelled out", "spelled out", floatForm(testFixedGrid, ints, 2.5, 0.5, 0, 0)},
		{"negative count", "invalid count", floatForm(testFixedGrid, append([]float64{-1}, make([]float64, bins-1)...), 0, 0, 0, formFixedGrid)},
	}
	for _, c := range cases {
		if err := new(Histogram).UnmarshalBinary(c.raw); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error containing %q", c.name, err, c.want)
		}
	}
	for i := 0; i < len(sparse); i++ {
		if err := new(Histogram).UnmarshalBinary(sparse[:i]); err == nil {
			t.Errorf("truncation to %d bytes accepted", i)
		}
	}
}

// TestHistogramSnapshotUnknownGrid: a checksum no fixed grid is registered
// under fails by name, whichever bit of it is wrong, so a snapshot never
// decodes onto a grid it does not name.
func TestHistogramSnapshotUnknownGrid(t *testing.T) {
	h := NewGridHistogram(testFixedLogGrid)
	h.Add(1)
	raw, _ := h.MarshalBinary()
	const sumAt = 3 // version, form, bins (one byte)
	if binary.LittleEndian.Uint64(raw[sumAt:]) != testFixedLogGrid.sum {
		t.Fatalf("layout moved: % x", raw)
	}
	for bit := 0; bit < 64; bit++ {
		bad := append([]byte(nil), raw...)
		sum := testFixedLogGrid.sum ^ 1<<bit
		binary.LittleEndian.PutUint64(bad[sumAt:], sum)
		err := new(Histogram).UnmarshalBinary(bad)
		if err == nil || !strings.Contains(err.Error(), "unknown grid checksum") {
			t.Fatalf("checksum %016x: %v, want unknown grid checksum", sum, err)
		}
	}
}

// TestMustGridDuplicatePanics: two fixed grids under one checksum could not
// be told apart in a snapshot, so the second registration panics.
func TestMustGridDuplicatePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "twice") {
			t.Errorf("recovered %v, want a duplicate-grid panic", r)
		}
	}()
	MustGrid(LinGrid(-2, 2, 65))
}

// FuzzHistogramSnapshot feeds arbitrary bytes to the histogram decoder.
// It must never panic, and whatever it accepts must re-encode to the same
// bytes: each state has exactly one snapshot.
func FuzzHistogramSnapshot(f *testing.F) {
	for _, raw := range histSnapshots(f) {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var h Histogram
		if err := h.UnmarshalBinary(raw); err != nil {
			return
		}
		again, err := h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, again) {
			t.Fatalf("decoded % x, re-encoded % x", raw, again)
		}
	})
}
