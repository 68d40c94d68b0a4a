package evalcache

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/workload"
)

// Block-granular caching: repetitive production traces make whole identical
// blocks common (a 4096-record block of a 512-distinct-job trace repeats
// verbatim every 8 blocks), and on the column path the per-record key hashing
// itself is a measurable cost next to a ~250ns evaluation. BreakdownColumns
// hashes the block's column bytes once and memoizes the whole []core.Times;
// a hit copies the memoized slice and never touches the per-record maps. A
// miss falls back to the per-record Breakdown loop — keeping the record
// cache warm, so partial overlap between blocks still pays.
//
// A block is memoized on its second sighting, not its first. The first miss
// stores a ghost — the hash with a nil entry, charged ghostBytes against the
// same budget — and only a miss that finds the hash already resident
// memoizes the block. Record sources cut into blocks (NDJSON uploads, say)
// mostly produce blocks that never repeat; memoizing each of them would
// fill the budget with dead weight.
//
// A memoized block can also carry per-block values its consumers derive from
// it — the analysis layer memoizes each sink configuration's fold of the
// block (a partial sink) this way. They live on the entry, so they share its
// hash-and-verify identity, its second-sighting admission and its byte
// budget, and leave with it on rotation.
//
// A memoized block can also be found by its encoded form. A block that
// arrives as a colbin frame carries a key — its payload without the
// ArrivalSec column (colbin.Reader.NextFrame) — and byte-identical keys
// decode to identical keyed columns, so the frame is looked up first by its
// key (Frame): the key's checksum indexes the same entries, and a hit is
// verified by comparing the key with a copy stored on the entry — no
// decode, no column hash, no column compare, no copy of the times. A
// resubmitted block stamped with new arrival times therefore hits by its
// frame too. The copy is charged to the block budget with the entry, and an
// entry links the first key that reaches it through the column path
// (EvaluateBlock hitting or memoizing it) and no other, so blocks that
// differ only in Name — one column entry, several keys — keep taking the
// column path after the first.

// ghostBytes is the budget charge of a ghost: one map slot, hash and
// pointer.
const ghostBytes = 16

// blockEntry stores one memoized block: the keyed columns (everything the
// model reads — Name and ArrivalSec excluded, matching the record key) for
// verification, the evaluated times, the values memoized on the block, the
// linked frame key, and the footprint estimate used for byte-budget
// rotation.
type blockEntry struct {
	h         uint64 // block hash, the entry's key in the block generations
	class     []workload.Class
	cNodes    []int
	batchSize []int
	num       [6][]float64
	times     []core.Times
	bytes     int64

	// Guarded by the cache's blockMu. frame is the linked frame key (nil
	// until one is linked; set once, never modified) and frameSum its
	// checksum, its key in the frame index.
	memos    []blockMemo
	frame    []byte
	frameSum uint64
}

// blockMemo is one value memoized on a block entry under a comparable key.
type blockMemo struct {
	key, value any
}

// Block is the handle of a block-cache hit: the verified, memoized entry
// that answered one evaluated block. It lets the consumer of that block
// memoize values derived from it (Memo) without re-hashing or re-verifying
// the block.
type Block struct {
	c *Cache
	h uint64
	e *blockEntry
}

// Memo returns the value memoized on the block under key, calling build to
// make it on first use. build returns the value and its resident bytes,
// which are charged to the block budget with the entry; the value must not
// change afterwards, since every later sighting of the block, on any
// goroutine, shares it. A value built after the entry has left the young
// generation is returned but not kept. key must be comparable.
func (b *Block) Memo(key any, build func() (any, int64, error)) (any, error) {
	c := b.c
	c.blockMu.Lock()
	for _, m := range b.e.memos {
		if m.key == key {
			c.blockMu.Unlock()
			return m.value, nil
		}
	}
	c.blockMu.Unlock()

	v, size, err := build()
	if err != nil {
		return nil, err
	}
	c.blockMu.Lock()
	defer c.blockMu.Unlock()
	for _, m := range b.e.memos {
		if m.key == key {
			return m.value, nil // built concurrently; keep the first
		}
	}
	if c.blockCur[b.h] == b.e {
		c.blockGrow(b.e, size, func() { b.e.memos = append(b.e.memos, blockMemo{key: key, value: v}) })
	}
	return v, nil
}

// Len returns the block's record count.
func (b *Block) Len() int { return len(b.e.times) }

// Times returns the block's memoized times. They are shared with the cache
// and with every other hit on the block, so they are read-only.
func (b *Block) Times() []core.Times { return b.e.times }

// frameSlot maps a frame key's checksum to its slot in the frame index. It
// is the identity; tests replace it to force collisions.
var frameSlot = func(sum uint64) uint64 { return sum }

// Frame returns the handle of the memoized block whose linked frame key is
// byte-identical to key, or nil. sum is the key's checksum. A hit counts as
// a block hit (and a frame hit) and promotes the entry like a column-path
// hit; its times are Block.Times. Checksum collisions are verified away by
// the byte compare, so they cost a miss, never a wrong result.
func (c *Cache) Frame(key []byte, sum uint64) *Block {
	c.blockMu.Lock()
	e := c.frames[frameSlot(sum)]
	var stored []byte
	if e != nil {
		stored = e.frame
	}
	c.blockMu.Unlock()
	// A linked key never changes, so the compare runs unlocked.
	if e == nil || !bytes.Equal(stored, key) {
		return nil
	}
	c.blockMu.Lock()
	if c.blockCur[e.h] != e && c.blockPrev[e.h] == e {
		c.blockDropPrev(e.h, e)
		c.blockInsert(e.h, e)
	}
	c.blockMu.Unlock()
	c.frameHits.Add(1)
	c.blockHits.Add(1)
	c.hits.Add(uint64(len(e.times)))
	return &Block{c: c, h: e.h, e: e}
}

// numericCols lists the six float feature columns in key order; both hashing
// and verification iterate it so the two can never disagree.
func numericCols(c *workload.Columns) [6][]float64 {
	return [6][]float64{
		c.FLOPs, c.MemAccessBytes, c.InputBytes,
		c.DenseWeightBytes, c.EmbeddingWeightBytes, c.WeightTrafficBytes,
	}
}

// blockHash folds the keyed column bytes into the same word-folded FNV-1a
// shape the record key uses, seeded with the cache's spec seed. Collisions
// are verified away by matches, so they cost a miss, never a wrong result.
func (c *Cache) blockHash(cols *workload.Columns) uint64 {
	const prime64 = 1099511628211
	h := c.seed
	h = (h ^ uint64(cols.Len())) * prime64
	for _, v := range cols.Class {
		h = (h ^ uint64(v)) * prime64
	}
	for _, v := range cols.CNodes {
		h = (h ^ uint64(v)) * prime64
	}
	for _, v := range cols.BatchSize {
		h = (h ^ uint64(v)) * prime64
	}
	for _, col := range numericCols(cols) {
		for _, v := range col {
			h = (h ^ math.Float64bits(v)) * prime64
		}
	}
	h ^= h >> 33
	h *= prime64
	h ^= h >> 29
	return h
}

// matches verifies the stored keyed columns against the block. Floats compare
// by bit pattern, not ==: the memoized times must stand in for an evaluation
// of exactly these inputs, and -0.0 vs 0.0 (or a NaN payload) under == would
// let one block answer for a numerically different one, breaking the
// byte-identity invariant downstream snapshots pin.
func (e *blockEntry) matches(cols *workload.Columns) bool {
	n := cols.Len()
	if len(e.class) != n {
		return false
	}
	for i, v := range e.class {
		if cols.Class[i] != v {
			return false
		}
	}
	for i, v := range e.cNodes {
		if cols.CNodes[i] != v {
			return false
		}
	}
	for i, v := range e.batchSize {
		if cols.BatchSize[i] != v {
			return false
		}
	}
	for ci, col := range numericCols(cols) {
		stored := e.num[ci]
		for i, v := range stored {
			if math.Float64bits(col[i]) != math.Float64bits(v) {
				return false
			}
		}
	}
	return true
}

// newBlockEntry copies the keyed columns and deep-copies the times (link
// maps included) so the entry is immutable: the pipeline recycles both input
// buffers the moment the sink returns.
func newBlockEntry(h uint64, cols *workload.Columns, ts []core.Times) *blockEntry {
	n := cols.Len()
	e := &blockEntry{
		h:         h,
		class:     append([]workload.Class(nil), cols.Class...),
		cNodes:    append([]int(nil), cols.CNodes...),
		batchSize: append([]int(nil), cols.BatchSize...),
		times:     make([]core.Times, n),
	}
	for ci, col := range numericCols(cols) {
		e.num[ci] = append([]float64(nil), col...)
	}
	var fp int64
	for i, t := range ts {
		e.times[i] = cloneTimes(t)
		fp += entryFootprint(e.times[i])
	}
	// Keyed columns: class byte + two ints + six floats per record.
	e.bytes = fp + int64(n)*(1+2*8+6*8)
	return e
}

// BreakdownColumns implements backend.ColumnEvaluator for the cache, so
// backend.EvaluateColumns routes cached engines through the block path
// instead of the scalar fallback loop.
func (c *Cache) BreakdownColumns(cols *workload.Columns, out []core.Times) error {
	_, err := c.EvaluateBlock(cols, out, nil, 0)
	return err
}

// EvaluateBlock is BreakdownColumns that also returns the handle of the
// memoized entry when the block is a block-cache hit (nil otherwise). A
// block decoded from a frame passes the frame's key and its checksum: when
// the block hits or is memoized, the key is linked to its entry (copied;
// the caller keeps its buffer), so a later frame with a byte-identical key
// hits through Frame without decoding. A nil key links nothing.
func (c *Cache) EvaluateBlock(cols *workload.Columns, out []core.Times, key []byte, sum uint64) (*Block, error) {
	n := cols.Len()
	if len(out) != n {
		return nil, fmt.Errorf("evalcache: BreakdownColumns: out has length %d, block has %d records", len(out), n)
	}
	if n == 0 {
		return nil, nil
	}
	h := c.blockHash(cols)

	c.blockMu.Lock()
	cur, inCur := c.blockCur[h]
	prev, inPrev := c.blockPrev[h]
	var hit *blockEntry
	switch {
	case cur != nil && cur.matches(cols):
		hit = cur
	case prev != nil && prev.matches(cols):
		// Promote into the young generation so the working set survives
		// rotation; the old slot is dropped so residency counts it once.
		c.blockDropPrev(h, prev)
		c.blockInsert(h, prev)
		hit = prev
	case !inCur && !inPrev:
		c.blockInsert(h, nil) // first sighting: remember the hash only
	}
	link := hit != nil && key != nil && hit.frame == nil
	c.blockMu.Unlock()
	if hit != nil {
		c.blockHits.Add(1)
		c.hits.Add(uint64(n))
		copy(out, hit.times)
		if link {
			c.linkFrame(hit, key, sum)
		}
		return &Block{c: c, h: h, e: hit}, nil
	}

	// Miss: per-record fallback through the record cache, so rows shared
	// with other blocks still hit and the record generation stays warm.
	c.blockMisses.Add(1)
	for i := 0; i < n; i++ {
		f := cols.Row(i)
		t, err := c.Breakdown(f)
		if err != nil {
			return nil, fmt.Errorf("job %q: %w", f.Name, err)
		}
		out[i] = t
	}
	if inCur || inPrev {
		// Second sighting: memoize.
		e := newBlockEntry(h, cols, out)
		if key != nil {
			e.frame, e.frameSum = bytes.Clone(key), sum
			e.bytes += int64(len(key))
		}
		c.blockMu.Lock()
		c.blockDropPrev(h, nil)
		c.blockInsert(h, e)
		if e.frame != nil {
			c.frames[frameSlot(sum)] = e
		}
		c.blockMu.Unlock()
	}
	return nil, nil
}

// linkFrame links a copy of the frame key to the entry e, unless it has
// one already or has left the young generation.
func (c *Cache) linkFrame(e *blockEntry, key []byte, sum uint64) {
	cp := bytes.Clone(key)
	c.blockMu.Lock()
	defer c.blockMu.Unlock()
	if e.frame != nil || c.blockCur[e.h] != e {
		return
	}
	c.blockGrow(e, int64(len(cp)), func() { e.frame, e.frameSum = cp, sum })
	c.frames[frameSlot(sum)] = e
}

// blockGrow applies grow to the young entry e and re-inserts it with size
// more bytes, so the charge passes the same budget check (and rotation) as
// a new entry. Caller holds c.blockMu and has checked c.blockCur[e.h] == e.
func (c *Cache) blockGrow(e *blockEntry, size int64, grow func()) {
	delete(c.blockCur, e.h)
	c.blockCurBytes -= e.bytes
	c.blockCurMemo--
	grow()
	e.bytes += size
	c.blockInsert(e.h, e)
}

// dropFrame removes e's frame-index link, if it has one. Caller holds
// c.blockMu.
func (c *Cache) dropFrame(e *blockEntry) {
	if e != nil && e.frame != nil && c.frames[frameSlot(e.frameSum)] == e {
		delete(c.frames, frameSlot(e.frameSum))
	}
}

// size is an entry's charge against the block budget; a nil entry is a
// ghost.
func (e *blockEntry) size() int64 {
	if e == nil {
		return ghostBytes
	}
	return e.bytes
}

// blockDropPrev removes h from the old block generation, if present. The
// removed entry leaves the frame index too, unless it is keep, which the
// caller moves into the young generation. Caller holds c.blockMu.
func (c *Cache) blockDropPrev(h uint64, keep *blockEntry) {
	if old, ok := c.blockPrev[h]; ok {
		delete(c.blockPrev, h)
		if old != nil {
			c.blockPrevMemo--
			if old != keep {
				c.dropFrame(old)
			}
		}
	}
}

// blockInsert stores one entry (or ghost) in the young block generation,
// rotating when its byte footprint would exceed the budget (same
// two-generation scheme as the record shards, accounted in bytes because
// block entries vary by three orders of magnitude with block size). An entry
// already stored under h — the ghost a second sighting memoizes over, say —
// is removed first, so a replacement passes the same budget check as a new
// key. Caller holds c.blockMu.
func (c *Cache) blockInsert(h uint64, e *blockEntry) {
	if c.blockCur == nil {
		c.blockCur = make(map[uint64]*blockEntry)
	}
	if old, ok := c.blockCur[h]; ok {
		delete(c.blockCur, h)
		c.blockCurBytes -= old.size()
		if old != nil {
			c.blockCurMemo--
			if old != e {
				c.dropFrame(old)
			}
		}
	}
	if c.blockCurBytes+e.size() > c.blockBudget && len(c.blockCur) > 0 {
		if len(c.frames) > 0 {
			for _, old := range c.blockPrev {
				c.dropFrame(old)
			}
		}
		c.evictions.Add(uint64(c.blockPrevMemo))
		c.rotations.Add(1)
		c.blockPrev, c.blockPrevMemo = c.blockCur, c.blockCurMemo
		c.blockCur = make(map[uint64]*blockEntry)
		c.blockCurBytes, c.blockCurMemo = 0, 0
	}
	c.blockCur[h] = e
	c.blockCurBytes += e.size()
	if e != nil {
		c.blockCurMemo++
	}
}
