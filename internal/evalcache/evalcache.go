// Package evalcache provides a sharded, concurrency-safe, content-keyed
// result cache in front of any backend.Evaluator. The PAI trace window is
// dominated by heavy-tailed, highly repetitive production jobs — the same
// feature record recurs thousands of times across a trace — yet evaluation
// is a pure function of the numeric features and the backend's Spec, so
// repeated jobs can hit memory instead of re-running the analytical model.
//
// The cache keys on the semantic content of a workload.Features record (its
// class and numeric demands; Name only decorates error messages) hashed
// together with the wrapped backend's Spec via FNV-1a. The hash picks one of
// a power-of-two number of independently locked shards; within a shard,
// entries carry the full content key and lookups verify it, so hash
// collisions can never return a wrong breakdown — they only cost a miss.
//
// Memory is bounded: each shard keeps two generations of entries and
// rotates (dropping the older generation wholesale) when the young one
// fills. Eviction is therefore O(1) amortized with no recency bookkeeping
// on the hit path, and total residency never exceeds roughly twice the
// configured entry budget even on a no-repeat trace.
package evalcache

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/workload"
)

// key is the content identity of one evaluation: every Features field that
// the performance model reads. Name is deliberately excluded — breakdowns do
// not depend on it — so recurring production jobs resubmitted under fresh
// job names still hit. ArrivalSec is excluded for the same reason: it routes
// a record into a time window but never enters the model, so a job
// resubmitted at a later time still hits.
type key struct {
	class     workload.Class
	cNodes    int
	batchSize int
	flops     float64
	memAccess float64
	input     float64
	dense     float64
	embedding float64
	traffic   float64
}

func keyOf(f workload.Features) key {
	return key{
		class:     f.Class,
		cNodes:    f.CNodes,
		batchSize: f.BatchSize,
		flops:     f.FLOPs,
		memAccess: f.MemAccessBytes,
		input:     f.InputBytes,
		dense:     f.DenseWeightBytes,
		embedding: f.EmbeddingWeightBytes,
		traffic:   f.WeightTrafficBytes,
	}
}

// hash mixes the content key into a 64-bit FNV-1a state seeded with the
// cache's Spec hash, so identical features under different specs occupy
// unrelated slots if caches ever share storage. It folds whole 64-bit words
// per round (one xor + one multiply each) — this runs once per Breakdown
// call, and byte-wise FNV was measurably visible next to a ~250ns
// evaluation. A 64-bit collision between distinct keys is possible in
// principle; lookups verify the full key, so a collision costs a cache
// miss, never a wrong result.
func (k key) hash(seed uint64) uint64 {
	const prime64 = 1099511628211
	h := seed
	h = (h ^ uint64(k.class)) * prime64
	h = (h ^ uint64(k.cNodes)) * prime64
	h = (h ^ uint64(k.batchSize)) * prime64
	h = (h ^ math.Float64bits(k.flops)) * prime64
	h = (h ^ math.Float64bits(k.memAccess)) * prime64
	h = (h ^ math.Float64bits(k.input)) * prime64
	h = (h ^ math.Float64bits(k.dense)) * prime64
	h = (h ^ math.Float64bits(k.embedding)) * prime64
	h = (h ^ math.Float64bits(k.traffic)) * prime64
	// Final avalanche so the low bits used for shard selection depend on
	// every field.
	h ^= h >> 33
	h *= prime64
	h ^= h >> 29
	return h
}

// entry stores one memoized breakdown together with the full content key:
// the maps are indexed by the 64-bit hash (cheap to re-hash on lookup), and
// the stored key disambiguates the astronomically rare 64-bit collision.
type entry struct {
	k key
	t core.Times
}

// shard is one independently locked slice of the cache. Two generations
// bound memory: inserts go to cur; when cur reaches the shard's capacity it
// becomes prev and the old prev is dropped. A prev hit promotes the entry,
// so the working set survives rotation while one-shot entries age out.
type shard struct {
	mu        sync.Mutex
	cur, prev map[uint64]*entry
}

// Cache memoizes Breakdown results of one wrapped Evaluator. It is safe for
// concurrent use.
//
// Hits return a Times whose WeightsByLink map is shared with the cache (and
// with every other hit on the same entry): the map is defensively cloned
// once at insert time and must be treated as read-only by callers. Cloning
// it per hit instead would cost more than the evaluation the cache saves.
type Cache struct {
	inner    backend.Evaluator
	seed     uint64
	shards   []shard
	mask     uint64
	shardCap int

	// targetBytes, when positive, switches the cache to byte-budget mode:
	// the per-shard entry capacity is re-derived from the measured average
	// entry footprint instead of staying fixed at shardCap (which then only
	// seeds the budget until the first insert is measured).
	targetBytes int64
	// footprintSum and footprintN measure inserted entries: their ratio is
	// the running average entry footprint the byte budget divides by.
	footprintSum atomic.Int64
	footprintN   atomic.Uint64

	hits, misses         atomic.Uint64
	rotations, evictions atomic.Uint64

	// Block-granular generation (blockcache.go): whole memoized blocks keyed
	// by a single hash of the column bytes, byte-accounted because block
	// entries dwarf record entries. One mutex rather than shards — a block
	// lookup amortizes over thousands of records, so contention is negligible.
	blockMu       sync.Mutex
	blockCur      map[uint64]*blockEntry
	blockPrev     map[uint64]*blockEntry
	blockCurBytes int64
	blockBudget   int64
	// Memoized (non-ghost) entries in blockCur and blockPrev, kept in step
	// by blockInsert and blockDropPrev so Stats never walks a generation.
	blockCurMemo, blockPrevMemo int
	// frames is the frame index: the checksums (through frameSlot) of the
	// linked frame keys to their entries, which are resident in blockCur
	// or blockPrev.
	frames map[uint64]*blockEntry

	blockHits, blockMisses, frameHits atomic.Uint64
}

// Stats is a point-in-time snapshot of the cache's effectiveness counters.
type Stats struct {
	// Hits and Misses count records served from memory vs forwarded to the
	// wrapped evaluator, on both the record and the block path: a block hit
	// adds its record count to Hits, and a block miss counts each record
	// through the record cache. Hits+Misses is the number of records
	// evaluated through the cache.
	Hits, Misses uint64
	// Rotations counts generation turnovers (a young generation filling and
	// displacing the old one); Evictions counts the entries dropped by those
	// turnovers. A high eviction rate next to a low hit rate means the
	// working set does not fit the budget.
	Rotations, Evictions uint64
	// Entries is the current number of resident breakdowns.
	Entries int
	// Capacity is the current entry budget (residency can transiently reach
	// about twice this across the two generations). In byte-budget mode it
	// moves as the measured entry footprint converges.
	Capacity int
	// TargetBytes is the configured byte budget (0 in fixed-entry mode) and
	// AvgEntryBytes the measured average footprint the budget divides by.
	TargetBytes   int64
	AvgEntryBytes float64
	// BlockHits and BlockMisses count whole-block lookups on the column path
	// served from the block generation vs evaluated (a block miss still
	// consults the per-record cache row by row). BlockEntries is the number
	// of resident memoized blocks; the ghosts of blocks seen only once are
	// not counted.
	BlockHits, BlockMisses uint64
	BlockEntries           int
	// FrameHits counts the block hits answered by a frame key without
	// decoding the frame (Cache.Frame); each is also one of BlockHits.
	FrameHits uint64
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// New wraps ev in a cache bounded to roughly `entries` resident breakdowns.
// The spec must be the one ev was instantiated under; it is hashed into
// every key so a cache never conflates results across configurations.
func New(ev backend.Evaluator, spec backend.Spec, entries int) (*Cache, error) {
	if ev == nil {
		return nil, fmt.Errorf("evalcache: New with nil evaluator")
	}
	if entries < 1 {
		return nil, fmt.Errorf("evalcache: need a positive entry budget, got %d", entries)
	}
	return build(ev, spec, entries, 0), nil
}

// assumedEntryBytes seeds the byte-budget entry estimate before any entry
// has been measured; the first inserts replace it with the measured average.
const assumedEntryBytes = 256

// NewBytes wraps ev in a cache bounded to roughly targetBytes of resident
// breakdown memory. The entry budget is adaptive: it starts from a
// conservative assumed footprint and converges onto
// targetBytes / measured-average-entry-footprint as real entries are
// inserted, so traces with heavy link-attribution maps get fewer resident
// entries than lean ones under the same byte budget.
func NewBytes(ev backend.Evaluator, spec backend.Spec, targetBytes int64) (*Cache, error) {
	if ev == nil {
		return nil, fmt.Errorf("evalcache: NewBytes with nil evaluator")
	}
	if targetBytes < 1 {
		return nil, fmt.Errorf("evalcache: need a positive byte budget, got %d", targetBytes)
	}
	seedEntries := int(targetBytes / assumedEntryBytes)
	if seedEntries < 1 {
		seedEntries = 1
	}
	return build(ev, spec, seedEntries, targetBytes), nil
}

// build assembles the cache for both sizing modes.
func build(ev backend.Evaluator, spec backend.Spec, entries int, targetBytes int64) *Cache {
	// Power-of-two shard count scaled to the machine so concurrent workers
	// rarely contend on one lock, but never more shards than entries.
	n := 1
	for n < runtime.GOMAXPROCS(0)*4 && n < 256 && n < entries {
		n *= 2
	}
	perShard := (entries + n - 1) / n
	// The block generation shares the cache's overall budget: the configured
	// bytes in byte mode, the entry budget times the assumed footprint
	// otherwise. Residency transiently reaches about twice this across the
	// two generations, mirroring the record shards.
	blockBudget := targetBytes
	if blockBudget == 0 {
		blockBudget = int64(entries) * assumedEntryBytes
	}
	return &Cache{
		inner:       ev,
		seed:        specSeed(spec),
		shards:      make([]shard, n),
		mask:        uint64(n - 1),
		shardCap:    perShard,
		targetBytes: targetBytes,
		blockBudget: blockBudget,
		frames:      make(map[uint64]*blockEntry),
	}
}

// entryFootprint estimates one resident entry's heap bytes: the entry
// struct (key + breakdown), its share of the generation map's buckets, and
// the cloned link-attribution map. Map overheads use the usual ~2x bucket
// factor; the point is a consistent, monotone estimate for budget division,
// not byte-perfect accounting.
func entryFootprint(t core.Times) int64 {
	const (
		mapSlotOverhead  = 2 * (8 + 8) // hash key + entry pointer, ~2x bucket factor
		mapHeaderBytes   = 48
		linkElementBytes = 2 * (8 + 8) // LinkClass + float64, ~2x bucket factor
	)
	fp := int64(unsafe.Sizeof(entry{})) + mapSlotOverhead
	if t.WeightsByLink != nil {
		fp += mapHeaderBytes + int64(len(t.WeightsByLink))*linkElementBytes
	}
	return fp
}

// capacity returns the current per-shard entry budget. Fixed-entry caches
// return the configured value; byte-budget caches divide the target by the
// measured average footprint (seeded with assumedEntryBytes until the first
// insert lands).
func (c *Cache) capacity() int {
	if c.targetBytes == 0 {
		return c.shardCap
	}
	avg := int64(assumedEntryBytes)
	if n := c.footprintN.Load(); n > 0 {
		avg = c.footprintSum.Load() / int64(n)
		if avg < 1 {
			avg = 1
		}
	}
	perShard := c.targetBytes / avg / int64(len(c.shards))
	if perShard < 1 {
		perShard = 1
	}
	return int(perShard)
}

// specSeed folds the backend spec into an FNV-1a seed. Construction-time
// only, so the reflective formatting cost is irrelevant; fmt renders map
// fields in sorted key order, keeping the seed deterministic.
func specSeed(spec backend.Spec) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", spec)
	return h.Sum64()
}

// Breakdown returns the cached breakdown for f's content, evaluating and
// memoizing on a miss. Evaluation errors are returned verbatim and never
// cached (they are rare and depend on Name-bearing messages).
func (c *Cache) Breakdown(f workload.Features) (core.Times, error) {
	k := keyOf(f)
	h := k.hash(c.seed)
	s := &c.shards[h&c.mask]

	// Entries are immutable after insert, so once a pointer is fetched
	// under the lock its fields are safe to read after release.
	s.mu.Lock()
	if e, ok := s.cur[h]; ok && e.k == k {
		s.mu.Unlock()
		c.hits.Add(1)
		return e.t, nil
	}
	if e, ok := s.prev[h]; ok && e.k == k {
		// Promote to the young generation; drop the old slot so residency
		// counts each breakdown once. The promoted entry's footprint is
		// already in the running measurement.
		delete(s.prev, h)
		c.insert(s, h, e)
		s.mu.Unlock()
		c.hits.Add(1)
		return e.t, nil
	}
	s.mu.Unlock()

	// Evaluate outside the shard lock: a slow model must not serialize the
	// shard. Concurrent misses on the same key may duplicate work once; both
	// store the same deterministic result.
	t, err := c.inner.Breakdown(f)
	if err != nil {
		return core.Times{}, err
	}
	c.misses.Add(1)
	e := &entry{k: k, t: cloneTimes(t)}
	c.footprintSum.Add(entryFootprint(e.t))
	c.footprintN.Add(1)
	s.mu.Lock()
	// Store a private copy of the link map: the caller keeps the backend's
	// original, so whatever it does to it cannot poison the cache.
	c.insert(s, h, e)
	s.mu.Unlock()
	return t, nil
}

// mapHint caps the pre-sized generation maps: shard capacity can be in the
// thousands, but the resident working set of most traces is far smaller,
// and maps grow fine on demand.
const mapHint = 64

// insert stores one entry in the shard's young generation, rotating
// generations when it reaches the current capacity and counting what the
// rotation evicts. Caller holds s.mu.
func (c *Cache) insert(s *shard, h uint64, e *entry) {
	capacity := c.capacity()
	if s.cur == nil {
		s.cur = make(map[uint64]*entry, min(capacity, mapHint))
	}
	if _, ok := s.cur[h]; !ok && len(s.cur) >= capacity {
		if dropped := len(s.prev); dropped > 0 {
			c.evictions.Add(uint64(dropped))
		}
		c.rotations.Add(1)
		s.prev = s.cur
		s.cur = make(map[uint64]*entry, min(capacity, mapHint))
	}
	s.cur[h] = e
}

// cloneTimes deep-copies the link-attribution map, giving the cache its own
// immutable copy at insert time.
func cloneTimes(t core.Times) core.Times {
	if t.WeightsByLink != nil {
		m := make(map[hw.LinkClass]float64, len(t.WeightsByLink))
		for l, v := range t.WeightsByLink {
			m[l] = v
		}
		t.WeightsByLink = m
	}
	return t
}

// Stats snapshots the hit/miss/eviction counters and residency. Counters
// are read atomically; residency walks the shard maps under their locks.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Rotations:   c.rotations.Load(),
		Evictions:   c.evictions.Load(),
		Capacity:    c.capacity() * len(c.shards),
		TargetBytes: c.targetBytes,
		BlockHits:   c.blockHits.Load(),
		BlockMisses: c.blockMisses.Load(),
		FrameHits:   c.frameHits.Load(),
	}
	c.blockMu.Lock()
	st.BlockEntries = c.blockCurMemo + c.blockPrevMemo
	c.blockMu.Unlock()
	if n := c.footprintN.Load(); n > 0 {
		st.AvgEntryBytes = float64(c.footprintSum.Load()) / float64(n)
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.cur) + len(s.prev)
		s.mu.Unlock()
	}
	return st
}
