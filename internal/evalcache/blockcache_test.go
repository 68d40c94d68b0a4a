package evalcache

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// blockOf builds a Columns block out of n generated records, cycling through
// `distinct` distinct feature rows so repeated blocks are easy to construct.
func blockOf(n, distinct, offset int) *workload.Columns {
	c := &workload.Columns{}
	for i := 0; i < n; i++ {
		c.Append(job(offset + i%distinct))
	}
	return c
}

// TestBlockHitIdenticalToMiss is the block cache's correctness pin: a block
// served from memory must return exactly the times the evaluated miss
// produced, element by element, link maps included. A block is memoized on
// its second sighting, so it is evaluated twice before it hits.
func TestBlockHitIdenticalToMiss(t *testing.T) {
	ev, spec := newCounting(t)
	c, err := New(ev, spec, 1024)
	if err != nil {
		t.Fatal(err)
	}
	block := blockOf(200, 16, 0)
	missTimes := make([]core.Times, block.Len())
	for pass := 0; pass < 2; pass++ {
		if err := c.BreakdownColumns(block, missTimes); err != nil {
			t.Fatal(err)
		}
	}
	callsAfterMiss := ev.count()
	hitTimes := make([]core.Times, block.Len())
	if err := c.BreakdownColumns(block, hitTimes); err != nil {
		t.Fatal(err)
	}
	if got := ev.count(); got != callsAfterMiss {
		t.Fatalf("block hit forwarded %d evaluations to the backend", got-callsAfterMiss)
	}
	if !reflect.DeepEqual(missTimes, hitTimes) {
		t.Fatal("block hit returned times differing from the evaluated miss")
	}
	st := c.Stats()
	if st.BlockMisses != 2 || st.BlockHits != 1 || st.BlockEntries != 1 {
		t.Fatalf("stats = misses %d hits %d entries %d, want 2/1/1",
			st.BlockMisses, st.BlockHits, st.BlockEntries)
	}
}

// TestBlockSeenOnceIsNotMemoized is the admission rule: a block seen once
// leaves only a ghost (no memoized entry), a second sighting memoizes it,
// and from then on it hits — each hit adding its record count to Hits, so
// Hits+Misses stays the number of records evaluated.
func TestBlockSeenOnceIsNotMemoized(t *testing.T) {
	ev, spec := newCounting(t)
	c, err := New(ev, spec, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	const blocks, size = 20, 32
	pass := func() {
		t.Helper()
		for i := 0; i < blocks; i++ {
			b := blockOf(size, size, i*1000)
			if err := c.BreakdownColumns(b, make([]core.Times, size)); err != nil {
				t.Fatal(err)
			}
		}
	}

	pass()
	st := c.Stats()
	if st.BlockEntries != 0 || st.BlockMisses != blocks || st.BlockHits != 0 {
		t.Fatalf("seen once: entries %d misses %d hits %d, want 0/%d/0",
			st.BlockEntries, st.BlockMisses, st.BlockHits, blocks)
	}

	pass()
	st = c.Stats()
	if st.BlockEntries != blocks || st.BlockMisses != 2*blocks || st.BlockHits != 0 {
		t.Fatalf("seen twice: entries %d misses %d hits %d, want %d/%d/0",
			st.BlockEntries, st.BlockMisses, st.BlockHits, blocks, 2*blocks)
	}

	calls, hits := ev.count(), st.Hits
	pass()
	st = c.Stats()
	if st.BlockHits != blocks || ev.count() != calls {
		t.Fatalf("third pass: %d block hits and %d backend calls, want %d and 0",
			st.BlockHits, ev.count()-calls, blocks)
	}
	if got := st.Hits - hits; got != blocks*size {
		t.Fatalf("block hits added %d to Hits, want %d records", got, blocks*size)
	}
	if st.Hits+st.Misses != 3*blocks*size {
		t.Fatalf("hits %d + misses %d != %d records evaluated", st.Hits, st.Misses, 3*blocks*size)
	}
}

// TestBlockCacheDistinguishesBlocks: numerically different blocks must never
// answer for each other — including a difference only in the float bit
// pattern (-0.0 vs 0.0), which == would conflate.
func TestBlockCacheDistinguishesBlocks(t *testing.T) {
	ev, spec := newCounting(t)
	c, err := New(ev, spec, 4096)
	if err != nil {
		t.Fatal(err)
	}
	a := blockOf(50, 8, 0)
	b := blockOf(50, 8, 100)
	ta := make([]core.Times, a.Len())
	tb := make([]core.Times, b.Len())
	if err := c.BreakdownColumns(a, ta); err != nil {
		t.Fatal(err)
	}
	if err := c.BreakdownColumns(b, tb); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.BlockMisses != 2 || st.BlockHits != 0 {
		t.Fatalf("distinct blocks: misses %d hits %d, want 2/0", st.BlockMisses, st.BlockHits)
	}
	if reflect.DeepEqual(ta, tb) {
		t.Fatal("distinct blocks produced identical times (generator broken)")
	}

	// Same block with one float flipped to the other zero: the bit pattern
	// differs, so it must be keyed as a different block.
	z := blockOf(50, 8, 0)
	z.InputBytes[7] = 0
	neg := blockOf(50, 8, 0)
	neg.InputBytes[7] = negZero()
	tz := make([]core.Times, z.Len())
	tn := make([]core.Times, neg.Len())
	for pass := 0; pass < 3; pass++ { // memoized on the second, hit on the third
		if err := c.BreakdownColumns(z, tz); err != nil {
			t.Fatal(err)
		}
	}
	hitsBefore := c.Stats().BlockHits
	if hitsBefore != 1 {
		t.Fatalf("0.0 block: %d hits after three sightings, want 1", hitsBefore)
	}
	if err := c.BreakdownColumns(neg, tn); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().BlockHits; got != hitsBefore {
		t.Fatal("-0.0 block served from the 0.0 block's entry")
	}
}

// negZero builds -0.0 without tripping gofmt's constant folding.
func negZero() float64 {
	z := 0.0
	return -z
}

// TestBlockCacheRotation: memoizing past the byte budget rotates generations
// instead of growing without bound. Each block is fed twice, so every one
// is memoized.
func TestBlockCacheRotation(t *testing.T) {
	ev, spec := newCounting(t)
	// A tiny byte budget: every block entry exceeds it, so the next block
	// rotates and residency stays at two generations' worth.
	c, err := NewBytes(ev, spec, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		b := blockOf(64, 64, i*1000)
		out := make([]core.Times, b.Len())
		for pass := 0; pass < 2; pass++ {
			if err := c.BreakdownColumns(b, out); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	if st.BlockEntries < 1 || st.BlockEntries > 2 {
		t.Fatalf("block residency %d memoized entries under a one-entry budget, want 1-2", st.BlockEntries)
	}
	if st.Rotations < 11 {
		t.Fatalf("rotations = %d, want at least 11", st.Rotations)
	}
	if st.BlockMisses != 24 {
		t.Fatalf("misses = %d, want 24", st.BlockMisses)
	}
}

// TestBlockCacheMemoizeRespectsBudget: memoizing over a ghost must pass the
// budget check like a new key. K distinct blocks whose ghosts fit the budget
// many times over but whose entries do not, fed in two full passes: the
// second pass memoizes all of them, and residency must still stay within two
// generations' worth of budget.
func TestBlockCacheMemoizeRespectsBudget(t *testing.T) {
	ev, spec := newCounting(t)
	const blocks, size = 64, 32
	sample := blockOf(size, size, 0)
	ts := make([]core.Times, size)
	for i := range ts {
		var err error
		if ts[i], err = ev.Breakdown(sample.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	entry := newBlockEntry(0, sample, ts).bytes
	budget := 8 * entry
	if blocks*ghostBytes >= budget || blocks*entry <= budget {
		t.Fatalf("budget %d B does not sit between %d ghosts and %d entries of %d B", budget, blocks, blocks, entry)
	}
	c, err := NewBytes(ev, spec, budget)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < blocks; i++ {
			b := blockOf(size, size, i*1000)
			if err := c.BreakdownColumns(b, make([]core.Times, size)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	if st.Rotations == 0 {
		t.Fatal("memoizing every block never rotated the block generations")
	}
	c.blockMu.Lock()
	var resident int64
	entries := 0
	for _, gen := range []map[uint64]*blockEntry{c.blockCur, c.blockPrev} {
		for _, e := range gen {
			if e != nil {
				resident += e.bytes
				entries++
			}
		}
	}
	c.blockMu.Unlock()
	if resident > 2*budget {
		t.Fatalf("memoized blocks hold %d B, over twice the %d B budget", resident, budget)
	}
	if entries != st.BlockEntries {
		t.Fatalf("Stats.BlockEntries = %d, generations hold %d memoized blocks", st.BlockEntries, entries)
	}
}

// TestBlockCacheLengthMismatch: a wrongly sized out slice must error rather
// than truncate.
func TestBlockCacheLengthMismatch(t *testing.T) {
	ev, spec := newCounting(t)
	c, err := New(ev, spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	b := blockOf(10, 10, 0)
	if err := c.BreakdownColumns(b, make([]core.Times, 9)); err == nil {
		t.Fatal("mismatched out length accepted")
	}
}

// hitBlock evaluates b until it is a block-cache hit and returns the
// entry handle (a block is memoized on its second sighting).
func hitBlock(t *testing.T, c *Cache, b *workload.Columns) *Block {
	t.Helper()
	for i := 0; i < 3; i++ {
		blk, err := c.EvaluateBlock(b, make([]core.Times, b.Len()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if blk != nil {
			return blk
		}
	}
	t.Fatal("block never hit")
	return nil
}

// TestBlockMemo: a value memoized on a block is built once per key and
// returned on every later sighting, through a fresh handle; distinct keys
// keep distinct values; only hits carry a handle.
func TestBlockMemo(t *testing.T) {
	ev, spec := newCounting(t)
	c, err := New(ev, spec, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	b := blockOf(64, 16, 0)
	if blk, err := c.EvaluateBlock(b, make([]core.Times, b.Len()), nil, 0); err != nil || blk != nil {
		t.Fatalf("first sighting: handle %v, err %v; want neither", blk, err)
	}
	builds := 0
	build := func(v string) func() (any, int64, error) {
		return func() (any, int64, error) { builds++; return v, 100, nil }
	}
	for i := 0; i < 3; i++ {
		blk := hitBlock(t, c, b)
		for key, want := range map[string]string{"a": "A", "b": "B"} {
			got, err := blk.Memo(key, build(want))
			if err != nil || got != want {
				t.Fatalf("sighting %d key %q: %v, %v; want %q", i, key, got, err, want)
			}
		}
	}
	if builds != 2 {
		t.Fatalf("built %d values for 2 keys over 3 sightings", builds)
	}
	// The other block's entry holds its own values.
	other := hitBlock(t, c, blockOf(64, 16, 5000))
	if got, _ := other.Memo("a", build("other")); got != "other" {
		t.Fatalf("another block shared key %q's value: %v", "a", got)
	}
}

// TestBlockMemoChargesBudget: memoized values are charged to the block
// budget with their entry. Blocks whose entries alone fit the budget, but
// not with their values, must rotate the generations once the values are
// built, and residency — entries and values — must stay within two
// generations' worth of budget.
func TestBlockMemoChargesBudget(t *testing.T) {
	ev, spec := newCounting(t)
	const blocks, size = 16, 32
	sample := blockOf(size, size, 0)
	ts := make([]core.Times, size)
	for i := range ts {
		var err error
		if ts[i], err = ev.Breakdown(sample.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	entry := newBlockEntry(0, sample, ts).bytes
	value := 4 * entry
	budget := 2 * blocks * entry
	c, err := NewBytes(ev, spec, budget)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < blocks; i++ {
			b := blockOf(size, size, i*1000)
			if err := c.BreakdownColumns(b, make([]core.Times, size)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := c.Stats(); st.Rotations != 0 || st.BlockEntries != blocks {
		t.Fatalf("entries alone: %d rotations, %d entries; want 0, %d", st.Rotations, st.BlockEntries, blocks)
	}
	for i := 0; i < blocks; i++ {
		blk := hitBlock(t, c, blockOf(size, size, i*1000))
		if _, err := blk.Memo("partial", func() (any, int64, error) { return i, value, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Rotations == 0 {
		t.Fatal("charging the memoized values never rotated the block generations")
	}
	c.blockMu.Lock()
	defer c.blockMu.Unlock()
	var resident, cur int64
	for g, gen := range []map[uint64]*blockEntry{c.blockCur, c.blockPrev} {
		for _, e := range gen {
			if e == nil {
				continue
			}
			resident += e.bytes
			if g == 0 {
				cur += e.bytes
			}
			if len(e.memos) > 0 && e.bytes != entry+value {
				t.Errorf("entry with %d values charged %d B, want %d", len(e.memos), e.bytes, entry+value)
			}
		}
	}
	if cur != c.blockCurBytes {
		t.Errorf("young generation holds %d B, accounted %d B", cur, c.blockCurBytes)
	}
	if resident > 2*budget {
		t.Fatalf("entries and values hold %d B, over twice the %d B budget", resident, budget)
	}
}
