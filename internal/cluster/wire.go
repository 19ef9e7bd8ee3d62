// Package cluster shards a view-collection run across processes: a
// Coordinator splits a static plan into self-contained segment shards
// (internal/core's SegmentSpec — seed and difference sets as columnar
// graph.EdgeBatch payloads, so workers hold no graph or view state), hands
// them to whichever registered worker slot is free, in the run's dispatch
// order (collection order, or largest first under LPT), ships them over
// net/rpc, and merges the returned outcomes in collection order
// exactly as the local executor does. Workers are thin: a worker process
// wraps an Engine whose warm runner pools amortize dataflow construction
// across jobs, exactly as they do across local runs.
//
// Failure handling is degrade-don't-fail: a worker that misses heartbeats,
// breaks its connection, or blows the per-job deadline is marked dead and
// every shard it still owed is re-queued onto the coordinator's own engine,
// so a cluster run finishes with single-process semantics rather than an
// error. See DESIGN.md ("Cluster execution").
package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"graphsurge/internal/core"
	"graphsurge/internal/obs"
)

// ProtocolVersion guards coordinator/worker compatibility: the Hello
// handshake rejects a peer speaking a different version, so a stale worker
// binary fails loudly at registration instead of corrupting a run.
//
// Version 2 switched segment edge payloads from per-record gob triples to
// the columnar graph.EdgeBatch binary codec (delta-encoded source column,
// fixed-width destinations, constant-weight shortcut); a v1 peer cannot
// decode those specs, so the bump is mandatory.
const ProtocolVersion = 2

// ServiceName is the rpc service name workers register under.
const ServiceName = "Graphsurge"

// ErrWire marks a wire payload that failed to decode — a truncated or
// corrupt gob stream, or a payload whose decoded content fails validation.
// It is the typed boundary error: callers branch with errors.Is instead of
// string-matching gob internals, and a corrupt stream can never panic a
// worker.
var ErrWire = errors.New("cluster: bad wire payload")

// EncodeWire gob-encodes a wire value. The coordinator encodes each shard
// once at dispatch; a shard re-shipped after a worker failure reuses the
// original in-memory spec, not the encoding.
func EncodeWire(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("cluster: encoding %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// DecodeWire decodes a wire payload into v, converting every failure mode —
// gob decode errors and any decoder panic — into an error wrapping ErrWire.
func DecodeWire(data []byte, v any) (err error) {
	defer func() {
		// gob is documented to return errors rather than panic, but a decode
		// panic on a hostile stream must cost one RPC, not the worker
		// process.
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: decode panic for %T: %v", ErrWire, v, r)
		}
	}()
	if derr := gob.NewDecoder(bytes.NewReader(data)).Decode(v); derr != nil {
		return fmt.Errorf("%w: decoding %T: %v", ErrWire, v, derr)
	}
	return nil
}

// HelloArgs opens the coordinator→worker handshake.
type HelloArgs struct {
	Version int
}

// HelloReply advertises the worker's protocol version and capacity — the
// number of shards the coordinator may keep in flight on it concurrently
// (the worker engine's Parallelism).
type HelloReply struct {
	Version  int
	Capacity int
}

// PingArgs is the heartbeat request.
type PingArgs struct{}

// PingReply reports worker liveness plus the lifetime completed-job count
// (observability; the coordinator only needs the reply to arrive).
type PingReply struct {
	Jobs int
}

// RunSegmentArgs carries one shard. The spec travels as an opaque gob
// payload (EncodeWire of a core.SegmentSpec) so the worker's decode boundary
// is explicit and typed — see DecodeWire.
type RunSegmentArgs struct {
	Spec []byte
	// TimeoutMillis is the coordinator's per-job deadline. The worker bounds
	// the shard's execution with it so a call the coordinator has already
	// timed out cannot pin a replica indefinitely; 0 means no deadline.
	TimeoutMillis int64
	// RunID and Trace carry the coordinator's trace context: the worker opens
	// its spans under Trace (the coordinator's shard span) so the returned
	// records stitch into the coordinator's trace. Zero values mean the run is
	// untraced. gob tolerates these fields being absent on an older peer, so
	// they ride on protocol version 2.
	RunID string
	Trace obs.SpanContext
}

// RunSegmentReply carries the shard's outcome back, plus the worker-side
// span records for the coordinator to stitch into its trace (empty when the
// call carried no trace context).
type RunSegmentReply struct {
	Outcome core.SegmentOutcome
	Spans   []obs.SpanRecord
}
