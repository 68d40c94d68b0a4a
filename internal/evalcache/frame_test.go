package evalcache

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/colbin"
	"repro/internal/core"
	"repro/internal/workload"
)

// frame is one colbin block frame: its key, the key's checksum and the
// frame's decode.
type frame struct {
	key []byte
	sum uint64
	dec func(*workload.Columns) error
}

// framesOf encodes blocks as a colbin stream, one block per frame, and
// reads the frames back.
func framesOf(t *testing.T, blocks ...*workload.Columns) []frame {
	t.Helper()
	var buf bytes.Buffer
	w := colbin.NewWriterBlockRecords(&buf, blocks[0].Len())
	for _, b := range blocks {
		if b.Len() != blocks[0].Len() {
			t.Fatal("blocks of unequal length")
		}
		if err := w.WriteColumns(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := colbin.NewReader(&buf)
	var out []frame
	for {
		key, sum, dec, err := r.NextFrame()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frame{key: key, sum: sum, dec: dec})
	}
}

// evalFrame evaluates one frame the way the block pipeline does: a key hit
// answers from the entry, and a miss decodes and goes through
// EvaluateBlock. It returns the times and whether the key hit.
func evalFrame(t *testing.T, c *Cache, f frame) ([]core.Times, bool) {
	t.Helper()
	if blk := c.Frame(f.key, f.sum); blk != nil {
		return blk.Times(), true
	}
	var cols workload.Columns
	if err := f.dec(&cols); err != nil {
		t.Fatal(err)
	}
	out := make([]core.Times, cols.Len())
	if _, err := c.EvaluateBlock(&cols, out, f.key, f.sum); err != nil {
		t.Fatal(err)
	}
	return out, false
}

// directTimes evaluates a block record by record, uncached.
func directTimes(t *testing.T, ev *countingEvaluator, b *workload.Columns) []core.Times {
	t.Helper()
	out := make([]core.Times, b.Len())
	for i := range out {
		var err error
		if out[i], err = ev.inner.Breakdown(b.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkFrameIndex pins the frame index to the block generations: every
// linked key belongs to a resident entry, in that key's slot.
func checkFrameIndex(t *testing.T, c *Cache) {
	t.Helper()
	c.blockMu.Lock()
	defer c.blockMu.Unlock()
	for k, e := range c.frames {
		if e.frame == nil || frameSlot(e.frameSum) != k {
			t.Errorf("frame slot %#x points at an entry linked in slot %#x", k, frameSlot(e.frameSum))
		}
		if c.blockCur[e.h] != e && c.blockPrev[e.h] != e {
			t.Errorf("frame slot %#x points at an entry no generation holds", k)
		}
	}
}

// TestFrameHitNeedsTheLinkedKey: a block memoizes on its second sighting
// and links that sighting's frame key, so its third sighting hits by key
// with the memoized times. A block that differs only in Name has the same
// column entry but another key: it misses by key and hits by column, every
// time. A block that differs only in ArrivalSec has the same key and hits
// by it.
func TestFrameHitNeedsTheLinkedKey(t *testing.T) {
	ev, spec := newCounting(t)
	c, err := New(ev, spec, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	block := blockOf(64, 16, 0)
	renamed := blockOf(64, 16, 0)
	for i := range renamed.Name {
		renamed.Name[i] += "-resubmitted"
	}
	restamped := blockOf(64, 16, 0)
	for i := range restamped.ArrivalSec {
		restamped.ArrivalSec[i] = 3600 + float64(i)
	}
	want := directTimes(t, ev, block)
	fs := framesOf(t, block, block, block, renamed, renamed, restamped, block)
	if bytes.Equal(fs[0].key, fs[3].key) || !bytes.Equal(fs[0].key, fs[5].key) {
		t.Fatal("renamed blocks share the frame key, or restamped ones do not")
	}
	for i, wantHit := range []bool{false, false, true, false, false, true, true} {
		got, hit := evalFrame(t, c, fs[i])
		if hit != wantHit {
			t.Errorf("frame %d: key hit %v, want %v", i, hit, wantHit)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d: times differ from direct evaluation", i)
		}
	}
	st := c.Stats()
	if st.FrameHits != 3 || st.BlockHits != 5 {
		t.Errorf("frame hits %d, block hits %d: want 3 of 5", st.FrameHits, st.BlockHits)
	}
	checkFrameIndex(t, c)
}

// TestFrameCollisionMisses forces every frame key into one slot: a frame
// whose key collides with a linked key but whose bytes differ misses,
// decodes and gets its own times, never the linked block's.
func TestFrameCollisionMisses(t *testing.T) {
	defer func(slot func(uint64) uint64) { frameSlot = slot }(frameSlot)
	frameSlot = func(uint64) uint64 { return 42 }

	ev, spec := newCounting(t)
	c, err := New(ev, spec, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	// Same-length keys, so only their bytes tell them apart.
	a, b := blockOf(64, 16, 1000), blockOf(64, 16, 2000)
	wantA, wantB := directTimes(t, ev, a), directTimes(t, ev, b)
	fs := framesOf(t, a, a, a, b, b, b, a)
	for i, step := range []struct {
		want []core.Times
		hit  bool
	}{
		{wantA, false}, {wantA, false}, // a memoizes and links slot 42
		{wantA, true},
		{wantB, false}, // collides with a's key: miss, decode
		{wantB, false}, // b memoizes and takes slot 42 over
		{wantB, true},
		{wantA, false}, // collides with b's key now
	} {
		got, hit := evalFrame(t, c, fs[i])
		if hit != step.hit {
			t.Errorf("frame %d: key hit %v, want %v", i, hit, step.hit)
		}
		if !reflect.DeepEqual(got, step.want) {
			t.Errorf("frame %d: times are not its own block's", i)
		}
	}
	if st := c.Stats(); st.FrameHits != 2 {
		t.Errorf("frame hits %d, want 2", st.FrameHits)
	}
	checkFrameIndex(t, c)
}

// TestFrameIndexFollowsRotation: with a budget of a few entries, distinct
// blocks cycle through the generations; the frame index never points at an
// entry that has left them, and a linked key's copy is charged to the
// budget.
func TestFrameIndexFollowsRotation(t *testing.T) {
	ev, spec := newCounting(t)
	var blocks []*workload.Columns
	for i := 0; i < 12; i++ {
		blocks = append(blocks, blockOf(32, 32, 1000*i))
	}
	fs := framesOf(t, blocks...)
	var sample workload.Columns
	if err := fs[0].dec(&sample); err != nil {
		t.Fatal(err)
	}
	entry := newBlockEntry(0, &sample, directTimes(t, ev, &sample)).bytes
	c, err := NewBytes(ev, spec, 3*(entry+int64(len(fs[0].key))))
	if err != nil {
		t.Fatal(err)
	}
	linked := 0
	for pass := 0; pass < 4; pass++ {
		for i, f := range fs {
			got, _ := evalFrame(t, c, f)
			if !reflect.DeepEqual(got, directTimes(t, ev, blocks[i])) {
				t.Fatalf("pass %d, block %d: times differ from direct evaluation", pass, i)
			}
			checkFrameIndex(t, c)
			c.blockMu.Lock()
			linked = max(linked, len(c.frames))
			c.blockMu.Unlock()
		}
	}
	st := c.Stats()
	if st.Rotations == 0 || st.Evictions == 0 || linked == 0 {
		t.Fatalf("the budget never evicted a linked key (%d linked at most; %+v)", linked, st)
	}
	c.blockMu.Lock()
	defer c.blockMu.Unlock()
	for h, e := range c.blockCur {
		if e != nil && e.frame != nil && e.bytes < entry+int64(len(e.frame)) {
			t.Errorf("entry %#x charges %d B, less than its columns and frame key", h, e.bytes)
		}
	}
}
