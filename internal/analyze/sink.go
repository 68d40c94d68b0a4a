package analyze

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/binenc"
	"repro/internal/core"
	"repro/internal/workload"
)

// Sink is the one interface every streaming analysis implements: a mergeable,
// serializable fold over evaluated jobs. The pipeline feeds any set of sinks
// in a single streamed pass (Add is called once per job from one goroutine
// per shard), per-shard sinks reduce with Merge, and MarshalBinary /
// UnmarshalBinary snapshot a sink's aggregate state so shards can run in
// separate OS processes — or separate machines — and merge at a coordinator.
//
// Contract: Merge must be deterministic (merging the same sinks in the same
// order always produces identical state) and snapshots must round-trip
// bit-exactly, so a multi-process merge of snapshots is byte-identical to
// the in-process sharded fold. The report sinks (breakdown, component and
// hardware CDFs, projection) and the sweep sink go further: their state is
// exact until read, so Merge is associative and commutative and any split
// of a stream, merged in any order, leaves the bytes of one bulk fold.
// Sinks are not safe for concurrent use; give every shard its own sink.
type Sink interface {
	// Kind names the sink's registered type, making snapshots
	// self-describing: ReadSnapshot reconstructs a sink of the right type
	// from the kind name alone.
	Kind() string
	// Add folds one evaluated job into the aggregate.
	Add(f workload.Features, t core.Times) error
	// Merge folds another sink of the same kind into the receiver.
	Merge(other Sink) error

	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// sinkRegistry maps kind names to empty-sink factories for snapshot
// decoding. Guarded by a mutex so tests and future backends can register
// concurrently with decoding.
var (
	sinkRegistryMu sync.RWMutex
	sinkRegistry   = map[string]func() Sink{}
)

// RegisterSink registers a sink kind for snapshot decoding. The factory must
// return an empty sink whose UnmarshalBinary accepts that kind's payload.
// Registering a duplicate kind panics, like flag redefinition: it is a
// programming error that would make snapshots ambiguous.
func RegisterSink(kind string, factory func() Sink) {
	sinkRegistryMu.Lock()
	defer sinkRegistryMu.Unlock()
	if kind == "" || factory == nil {
		panic("analyze: RegisterSink with empty kind or nil factory")
	}
	if _, dup := sinkRegistry[kind]; dup {
		panic(fmt.Sprintf("analyze: RegisterSink called twice for kind %q", kind))
	}
	sinkRegistry[kind] = factory
}

// NewSinkOf returns an empty sink of a registered kind.
func NewSinkOf(kind string) (Sink, error) {
	sinkRegistryMu.RLock()
	factory := sinkRegistry[kind]
	sinkRegistryMu.RUnlock()
	if factory == nil {
		return nil, fmt.Errorf("analyze: unknown sink kind %q", kind)
	}
	return factory(), nil
}

// SinkKinds lists the registered sink kinds, sorted.
func SinkKinds() []string {
	sinkRegistryMu.RLock()
	defer sinkRegistryMu.RUnlock()
	kinds := make([]string, 0, len(sinkRegistry))
	for k := range sinkRegistry {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

func init() {
	RegisterSink(kindBreakdown, func() Sink { return NewBreakdownAccumulator() })
	RegisterSink(kindComponentCDF, func() Sink { return NewComponentCDFSink() })
	RegisterSink(kindHardwareCDF, func() Sink { return NewHardwareCDFSink() })
	RegisterSink(kindProjection, func() Sink { return new(ProjectionSink) })
	RegisterSink(kindSweep, func() Sink { return new(SweepSink) })
	RegisterSink(kindMulti, func() Sink { return new(MultiSink) })
}

// Sink kind names. The name is part of the snapshot wire format; never
// reuse a retired name for a different layout — bump the payload version
// inside the sink instead.
const (
	kindBreakdown    = "breakdown"
	kindComponentCDF = "component-cdf"
	kindHardwareCDF  = "hardware-cdf"
	kindProjection   = "projection"
	kindSweep        = "sweep"
	kindMulti        = "multi"
)

// MultiSink fans one streamed pass over an ordered list of sinks — the whole
// characterization (breakdowns, CDF panels, projection summary, hardware
// sweep) folds in a single pipeline traversal. MultiSink itself implements
// Sink, so a full report aggregate snapshots and merges as one unit.
type MultiSink struct {
	sinks []Sink
}

// NewMultiSink bundles the given sinks. Order matters: Merge pairs sinks by
// position, and the snapshot encodes them in order.
func NewMultiSink(sinks ...Sink) *MultiSink {
	return &MultiSink{sinks: sinks}
}

// Kind implements Sink.
func (m *MultiSink) Kind() string { return kindMulti }

// Sinks returns the bundled sinks in order.
func (m *MultiSink) Sinks() []Sink { return m.sinks }

// SinkOf returns the first bundled sink of the given kind, or nil.
func (m *MultiSink) SinkOf(kind string) Sink {
	for _, s := range m.sinks {
		if s.Kind() == kind {
			return s
		}
	}
	return nil
}

// Add folds one evaluated job into every bundled sink.
func (m *MultiSink) Add(f workload.Features, t core.Times) error {
	for _, s := range m.sinks {
		if err := s.Add(f, t); err != nil {
			return err
		}
	}
	return nil
}

// Merge folds another MultiSink into the receiver, pairing sinks by
// position and requiring matching kinds.
func (m *MultiSink) Merge(other Sink) error {
	if other == nil {
		return nil
	}
	o, ok := other.(*MultiSink)
	if !ok {
		return fmt.Errorf("analyze: cannot merge %T into MultiSink", other)
	}
	if len(o.sinks) != len(m.sinks) {
		return fmt.Errorf("analyze: merge of MultiSinks with %d vs %d sinks", len(m.sinks), len(o.sinks))
	}
	for i, s := range m.sinks {
		if s.Kind() != o.sinks[i].Kind() {
			return fmt.Errorf("analyze: MultiSink slot %d holds %q vs %q", i, s.Kind(), o.sinks[i].Kind())
		}
		if err := s.Merge(o.sinks[i]); err != nil {
			return err
		}
	}
	return nil
}

// multiSinkVersion tags the MultiSink snapshot layout.
const multiSinkVersion = 1

// MarshalBinary encodes every bundled sink, tagged by kind.
func (m *MultiSink) MarshalBinary() ([]byte, error) {
	raws, size, err := marshalAll(len(m.sinks), func(i int) ([]byte, error) {
		raw, err := m.sinks[i].MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("analyze: marshal %q sink: %w", m.sinks[i].Kind(), err)
		}
		return raw, nil
	})
	if err != nil {
		return nil, err
	}
	w := binenc.NewWriter(size + 32*len(m.sinks) + 16)
	w.U8(multiSinkVersion)
	w.Int(len(m.sinks))
	for i, s := range m.sinks {
		w.Str(s.Kind())
		w.Raw(raws[i])
	}
	return w.Bytes(), nil
}

// marshalAll encodes n nested payloads and returns them with their total
// size, so the enclosing writer is sized once instead of growing (and
// copying) through a report-sized snapshot.
func marshalAll(n int, marshal func(i int) ([]byte, error)) ([][]byte, int, error) {
	raws := make([][]byte, n)
	size := 0
	for i := range raws {
		raw, err := marshal(i)
		if err != nil {
			return nil, 0, err
		}
		raws[i] = raw
		size += len(raw) + binary.MaxVarintLen64
	}
	return raws, size, nil
}

// UnmarshalBinary reconstructs the bundled sinks from a MarshalBinary
// snapshot via the kind registry.
func (m *MultiSink) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != multiSinkVersion {
		return fmt.Errorf("analyze: MultiSink snapshot version %d, want %d", v, multiSinkVersion)
	}
	n := r.Int()
	sinks := make([]Sink, 0, n)
	for i := 0; i < n; i++ {
		kind := r.Str()
		raw := r.View()
		if r.Err() != nil {
			break
		}
		// The pipeline never nests MultiSinks, and decoding one here would
		// recurse once per level — a crafted snapshot could nest millions
		// deep and exhaust the stack, which "decoding untrusted bytes fails
		// with an error" forbids.
		if kind == kindMulti {
			return fmt.Errorf("analyze: MultiSink snapshot nests another MultiSink")
		}
		s, err := NewSinkOf(kind)
		if err != nil {
			return err
		}
		if err := s.UnmarshalBinary(raw); err != nil {
			return fmt.Errorf("analyze: decode %q sink: %w", kind, err)
		}
		sinks = append(sinks, s)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("analyze: MultiSink snapshot: %w", err)
	}
	m.sinks = sinks
	return nil
}

// Snapshot container: a small framed file format around one sink's
// MarshalBinary payload. The frame carries a magic string (so a truncated or
// foreign file fails immediately), the sink kind (so the reader can
// reconstruct the right type), a free-form provenance string (so a
// coordinator can refuse to merge shards of different runs), and an FNV-64a
// checksum over provenance + payload (so bit rot fails loudly instead of
// merging garbage).
const snapshotMagic = "PAISINK1"

// WriteSnapshot frames one sink's snapshot into w with empty provenance.
// The bytes are deterministic for identical sink state.
func WriteSnapshot(w io.Writer, s Sink) error {
	return WriteSnapshotMeta(w, s, "")
}

// WriteSnapshotMeta is WriteSnapshot with a provenance string — typically
// the run parameters the sink was folded under (trace seed, shard grid,
// backend). The coordinator reads it back with ReadSnapshotMeta and decides
// whether shards are compatible; the sink payload itself stays
// provenance-free so identical aggregate state keeps identical payload
// bytes.
func WriteSnapshotMeta(w io.Writer, s Sink, meta string) error {
	if s == nil {
		return fmt.Errorf("analyze: WriteSnapshot with nil sink")
	}
	payload, err := s.MarshalBinary()
	if err != nil {
		return err
	}
	h := fnv.New64a()
	io.WriteString(h, meta)
	h.Write(payload)
	bw := binenc.NewWriter(len(snapshotMagic) + len(meta) + len(payload) + 32)
	bw.Str(s.Kind())
	bw.Str(meta)
	bw.Raw(payload)
	bw.U64(h.Sum64())
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return err
	}
	_, err = w.Write(bw.Bytes())
	return err
}

// Shard provenance convention: a snapshot's provenance string ends with a
// " shard-index=K" field naming the shard's position in the run grid, and
// everything before it (the base) identifies the run. A coordinator folds
// shards whose bases agree, refuses foreign bases, and uses the index for
// at-most-once folding and deterministic fold order.

// ShardMeta appends the shard-index provenance field to a run-identifying
// base string. An empty base yields a bare "shard-index=K" provenance.
func ShardMeta(base string, index int) string {
	if base == "" {
		return fmt.Sprintf("shard-index=%d", index)
	}
	return fmt.Sprintf("%s shard-index=%d", base, index)
}

// MetaShardIndex parses the shard index out of a ShardMeta-shaped
// provenance string. It reports false when the string carries no
// well-formed trailing shard-index field.
func MetaShardIndex(meta string) (int, bool) {
	i := strings.LastIndex(meta, "shard-index=")
	if i < 0 || (i > 0 && meta[i-1] != ' ') {
		return 0, false
	}
	n, err := strconv.Atoi(meta[i+len("shard-index="):])
	if err != nil {
		return 0, false
	}
	return n, true
}

// MetaBase strips the trailing shard-index field, returning the
// run-identifying part every shard of one run must share. Strings without a
// well-formed shard-index field are returned unchanged.
func MetaBase(meta string) string {
	if _, ok := MetaShardIndex(meta); !ok {
		return meta
	}
	if i := strings.LastIndex(meta, " shard-index="); i >= 0 {
		return meta[:i]
	}
	return ""
}

// ReadSnapshot reads one framed sink snapshot, discarding the provenance
// string.
func ReadSnapshot(r io.Reader) (Sink, error) {
	s, _, err := ReadSnapshotMeta(r)
	return s, err
}

// ReadSnapshotMeta reads one framed sink snapshot plus its provenance
// string, reconstructing the sink via the kind registry and verifying the
// checksum.
func ReadSnapshotMeta(r io.Reader) (Sink, string, error) {
	var data []byte
	if b, ok := r.(*bytes.Buffer); ok {
		// Decoding copies everything it keeps, so the buffer's own bytes
		// serve without a second copy of the snapshot.
		data = b.Next(b.Len())
	} else {
		var err error
		if data, err = io.ReadAll(r); err != nil {
			return nil, "", err
		}
	}
	if len(data) < len(snapshotMagic) || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, "", fmt.Errorf("analyze: not a sink snapshot (bad magic)")
	}
	br := binenc.NewReader(data[len(snapshotMagic):])
	kind := br.Str()
	meta := br.Str()
	payload := br.View()
	sum := br.U64()
	if err := br.Err(); err != nil {
		return nil, "", fmt.Errorf("analyze: snapshot frame: %w", err)
	}
	h := fnv.New64a()
	io.WriteString(h, meta)
	h.Write(payload)
	if h.Sum64() != sum {
		return nil, "", fmt.Errorf("analyze: snapshot checksum mismatch (corrupted %q payload)", kind)
	}
	s, err := NewSinkOf(kind)
	if err != nil {
		return nil, "", err
	}
	if err := s.UnmarshalBinary(payload); err != nil {
		return nil, "", fmt.Errorf("analyze: decode %q snapshot: %w", kind, err)
	}
	return s, meta, nil
}
