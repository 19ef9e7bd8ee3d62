package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// EdgeBatchCodecVersion is the wire-format version of EdgeBatch's binary
// codec. It is the first byte of every encoding; decoders reject any other
// value, so the format can evolve without silently misreading old payloads.
const EdgeBatchCodecVersion = 1

// ErrEdgeCodec marks an EdgeBatch payload that failed to decode — wrong
// codec version, truncated columns, or corrupt varints. The cluster wire
// layer wraps it (via gob) into its own typed ErrWire.
var ErrEdgeCodec = errors.New("graph: bad edge batch encoding")

// Edges is a read-only sequence of edges, what a computation steps: a view's
// edge set or one of its difference sets. Its order carries no meaning; the
// dataflow reads it as a multiset. Two types implement it: EdgeRefs, edge
// indices resolved against the graph's own columns as they are read (every
// local path), and *EdgeBatch, the materialized columns a shard ships.
type Edges interface {
	// Len returns the number of edges.
	Len() int
	// Triple returns edge i.
	Triple(i int) Triple
}

// EdgeRefs is an edge set by reference: a list of edge indices of a graph,
// each read from the graph's source, destination and weight columns when it
// is asked for, so the set costs no copy of its edges. It is valid while the
// graph keeps those rows: a mutation appends rows and tombstones others but
// never renumbers or rewrites one, so references made at any graph version
// read the same triples at every later one. The list is shared, not copied,
// and must not change while the set is read.
type EdgeRefs struct {
	G   *Graph
	W   int      // weight column, -1 for unit weights (see Graph.Triple)
	Idx []uint32 // edge indices
}

// Len returns the number of edges.
func (r EdgeRefs) Len() int { return len(r.Idx) }

// Triple returns edge i of the set, edge Idx[i] of the graph.
func (r EdgeRefs) Triple(i int) Triple { return r.G.Triple(int(r.Idx[i]), r.W) }

// EdgeBatch is an immutable columnar edge multiset: parallel source,
// destination, and weight columns sorted by (Src, Dst, W). It is the wire
// unit for edge sets — a shard's seed and difference sets (core's
// SegmentSpec), a mutation's inserts and deletes — where the receiving side
// holds no graph to resolve edge indices against; local execution reads
// EdgeRefs instead.
//
// The fields are exported for the wire codec and columnar consumers but
// must be treated as read-only after construction; sharing is only safe
// because nothing mutates a built batch.
//
// On the wire a batch travels as its own versioned binary format (see
// MarshalBinary) rather than per-record gob: sorted sources delta-encode
// into near-minimal varints, destinations and weights ride as fixed-width
// columns (with a one-value shortcut when every weight is equal, the
// unit-weight common case).
type EdgeBatch struct {
	Srcs []uint64
	Dsts []uint64
	Ws   []int64
}

// NewEdgeBatch builds a sorted batch from triples. The input slice is not
// retained or mutated.
func NewEdgeBatch(ts []Triple) *EdgeBatch {
	return MakeEdgeBatch(len(ts), func(i int) Triple { return ts[i] })
}

// MakeEdgeBatch builds a sorted batch from n triples produced by at, without
// an intermediate []Triple. Sorting makes a batch a function of its multiset:
// the same edge set ships as the same bytes whatever order it was read in.
func MakeEdgeBatch(n int, at func(i int) Triple) *EdgeBatch {
	b := &EdgeBatch{
		Srcs: make([]uint64, n),
		Dsts: make([]uint64, n),
		Ws:   make([]int64, n),
	}
	for i := 0; i < n; i++ {
		t := at(i)
		b.Srcs[i] = t.Src
		b.Dsts[i] = t.Dst
		b.Ws[i] = t.W
	}
	sort.Sort(edgeBatchSorter{b})
	return b
}

type edgeBatchSorter struct{ b *EdgeBatch }

func (s edgeBatchSorter) Len() int { return len(s.b.Srcs) }
func (s edgeBatchSorter) Less(i, j int) bool {
	b := s.b
	if b.Srcs[i] != b.Srcs[j] {
		return b.Srcs[i] < b.Srcs[j]
	}
	if b.Dsts[i] != b.Dsts[j] {
		return b.Dsts[i] < b.Dsts[j]
	}
	return b.Ws[i] < b.Ws[j]
}
func (s edgeBatchSorter) Swap(i, j int) {
	b := s.b
	b.Srcs[i], b.Srcs[j] = b.Srcs[j], b.Srcs[i]
	b.Dsts[i], b.Dsts[j] = b.Dsts[j], b.Dsts[i]
	b.Ws[i], b.Ws[j] = b.Ws[j], b.Ws[i]
}

// Len returns the number of edges; nil batches are empty.
func (b *EdgeBatch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.Srcs)
}

// Triple returns edge i as a materialized triple.
func (b *EdgeBatch) Triple(i int) Triple {
	return Triple{Src: b.Srcs[i], Dst: b.Dsts[i], W: b.Ws[i]}
}

// Triples materializes the whole batch (tests and compatibility shims; hot
// paths iterate the columns via Len/Triple instead).
func (b *EdgeBatch) Triples() []Triple {
	out := make([]Triple, b.Len())
	for i := range out {
		out[i] = b.Triple(i)
	}
	return out
}

// MarshalBinary encodes the batch in the versioned columnar wire format:
//
//	byte     codec version (EdgeBatchCodecVersion)
//	uvarint  edge count n
//	n×uvarint source column, delta-encoded (sorted, so deltas are small)
//	n×8      destination column, fixed-width little-endian
//	byte     weight flag: 1 = constant column, 0 = full column
//	         flag 1: one zigzag-varint weight; flag 0: n×8 little-endian
//
// gob picks this up automatically for SegmentSpec fields, replacing
// per-record gob triples on the cluster wire.
func (b *EdgeBatch) MarshalBinary() ([]byte, error) {
	n := b.Len()
	out := make([]byte, 0, 1+binary.MaxVarintLen64+n+16*n)
	out = append(out, EdgeBatchCodecVersion)
	out = binary.AppendUvarint(out, uint64(n))
	if n == 0 {
		return out, nil
	}
	prev := uint64(0)
	for i, s := range b.Srcs {
		if i == 0 {
			out = binary.AppendUvarint(out, s)
		} else {
			out = binary.AppendUvarint(out, s-prev)
		}
		prev = s
	}
	for _, d := range b.Dsts {
		out = binary.LittleEndian.AppendUint64(out, d)
	}
	constW := true
	for _, w := range b.Ws[1:] {
		if w != b.Ws[0] {
			constW = false
			break
		}
	}
	if constW {
		out = append(out, 1)
		out = binary.AppendVarint(out, b.Ws[0])
	} else {
		out = append(out, 0)
		for _, w := range b.Ws {
			out = binary.LittleEndian.AppendUint64(out, uint64(w))
		}
	}
	return out, nil
}

// UnmarshalBinary decodes the columnar wire format, rejecting unknown
// versions and any truncation or varint corruption with ErrEdgeCodec.
func (b *EdgeBatch) UnmarshalBinary(data []byte) error {
	if len(data) < 1 {
		return fmt.Errorf("%w: empty payload", ErrEdgeCodec)
	}
	if data[0] != EdgeBatchCodecVersion {
		return fmt.Errorf("%w: codec version %d, want %d", ErrEdgeCodec, data[0], EdgeBatchCodecVersion)
	}
	data = data[1:]
	n64, k := binary.Uvarint(data)
	if k <= 0 {
		return fmt.Errorf("%w: bad edge count", ErrEdgeCodec)
	}
	data = data[k:]
	// Each edge costs at least one source byte plus eight destination bytes,
	// so an honest payload bounds n — checked before allocating columns.
	if n64 > uint64(len(data)) {
		return fmt.Errorf("%w: %d edges in %d payload bytes", ErrEdgeCodec, n64, len(data))
	}
	n := int(n64)
	b.Srcs = make([]uint64, n)
	b.Dsts = make([]uint64, n)
	b.Ws = make([]int64, n)
	if n == 0 {
		return nil
	}
	prev := uint64(0)
	for i := 0; i < n; i++ {
		d, k := binary.Uvarint(data)
		if k <= 0 {
			return fmt.Errorf("%w: truncated source column at %d/%d", ErrEdgeCodec, i, n)
		}
		data = data[k:]
		if i == 0 {
			prev = d
		} else {
			prev += d
		}
		b.Srcs[i] = prev
	}
	if len(data) < 8*n {
		return fmt.Errorf("%w: truncated destination column", ErrEdgeCodec)
	}
	for i := 0; i < n; i++ {
		b.Dsts[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	data = data[8*n:]
	if len(data) < 1 {
		return fmt.Errorf("%w: missing weight flag", ErrEdgeCodec)
	}
	flag := data[0]
	data = data[1:]
	switch flag {
	case 1:
		w, k := binary.Varint(data)
		if k <= 0 {
			return fmt.Errorf("%w: bad constant weight", ErrEdgeCodec)
		}
		for i := range b.Ws {
			b.Ws[i] = w
		}
	case 0:
		if len(data) < 8*n {
			return fmt.Errorf("%w: truncated weight column", ErrEdgeCodec)
		}
		for i := 0; i < n; i++ {
			b.Ws[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
	default:
		return fmt.Errorf("%w: unknown weight flag %d", ErrEdgeCodec, flag)
	}
	return nil
}
