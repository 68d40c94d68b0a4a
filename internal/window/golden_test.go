package window_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	pai "repro"
	"repro/internal/analyze"
	"repro/internal/stats/statstest"
	"repro/internal/window"
)

// goldenRing streams a fixed-seed evaluated trace through a ring of full
// report sinks. Arrivals are laid out so the stream exercises every Add
// branch: in-order jobs fill windows w ≡ 0, 2 (mod 3) and leave w ≡ 1
// empty; every 17th job lands three windows behind (an older non-empty
// window), every 23rd two windows behind (an empty window or a non-empty
// one, by residue), every 101st twelve windows behind (older than the
// 8-window ring, so dropped once the head has moved on); and the stream
// spans ~45 windows, so the ring rotates.
func goldenRing(t *testing.T) *window.Ring {
	t.Helper()
	const (
		width  = 60.0
		count  = 8
		perWin = 40
	)
	p := pai.DefaultTraceParams()
	p.NumJobs = 1200
	p.Seed = 21
	tr, err := pai.GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Jobs {
		k := i / perWin
		w := 3*(k/2) + 2*(k%2) // windows 0, 2, 3, 5, 6, 8, ...
		switch {
		case i%101 == 50:
			w -= 12
		case i%23 == 7:
			w -= 2
		case i%17 == 5:
			w -= 3
		}
		if w < 0 {
			w = 0
		}
		tr.Jobs[i].ArrivalSec = float64(w)*width + width*float64(i%perWin)/perWin
	}
	eng, err := pai.New(pai.WithConfig(pai.BaselineConfig()))
	if err != nil {
		t.Fatal(err)
	}
	r, err := window.New(width, count, func() (*analyze.MultiSink, error) {
		return eng.NewReportSink(pai.ToAllReduceLocal)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EvaluateSource(context.Background(), pai.NewSliceJobSource(tr.Jobs),
		func(res pai.StreamResult) error { return r.Add(res.Job, res.Times) }); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRingFoldGolden pins the snapshot bytes of Fold(1), Fold(3) and
// Fold(count), and the formatted Stats, over the late-heavy golden stream.
// How the ring stores its windows is free to change; these bytes are not.
func TestRingFoldGolden(t *testing.T) {
	r := goldenRing(t)
	st := r.Stats()
	if st.Late == 0 || st.Dropped == 0 || st.Rotated == 0 {
		t.Fatalf("golden stream misses a branch: %+v", st)
	}
	want := map[string]string{
		"fold1": "20535adb1dfd1924d7c9926771384dab517817b6fe1d0c21ec338e08ff919628",
		"fold3": "6bdd3985badcf3c4093c7995690d23ff2459c924112b1766b5f2c1ec8cfe4f31",
		"fold8": "78fdc46b61085b5406469242abcb0358805fbec7069320c952e2660ce7ee951d",
		"stats": "af13e5908b075ec1928c767489f3895228f75b026479623f3984dc99c3c17a67",
	}
	got := map[string]string{}
	for _, lastN := range []int{1, 3, r.Count()} {
		sink, _, err := r.Fold(lastN)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := pai.WriteSinkSnapshot(&buf, sink); err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("fold%d", lastN)] = sha(buf.Bytes())
	}
	got["stats"] = sha([]byte(fmt.Sprintf("%+v", st)))
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: sha256 %s, want %s", k, got[k], w)
		}
	}
}

// TestRingFoldRoundTrip backs TestRingFoldGolden's fold hashes: each fold's
// framed snapshot decodes to the live fold's histograms and sketches bit
// for bit.
func TestRingFoldRoundTrip(t *testing.T) {
	r := goldenRing(t)
	for _, lastN := range []int{1, 3, r.Count()} {
		sink, _, err := r.Fold(lastN)
		if err != nil {
			t.Fatal(err)
		}
		statstest.RoundTrip(t, sink)
	}
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
