package cluster

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"graphsurge/internal/core"
	"graphsurge/internal/graph"
)

// TestWireCorruptBatchPayload pins the typed-error path through the nested
// codec: the columnar edge batches ride inside the gob envelope as their own
// binary format, and corrupting *that* layer — not the gob framing — must
// still surface as an error wrapping ErrWire, never a panic or a silently
// wrong batch.
func TestWireCorruptBatchPayload(t *testing.T) {
	spec := sampleSpec()
	good, err := EncodeWire(spec)
	if err != nil {
		t.Fatal(err)
	}
	seedBytes, err := spec.Seed.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(good, seedBytes)
	if at < 0 {
		t.Fatal("encoded spec does not embed the seed batch's binary encoding")
	}

	// Flip the batch codec's version byte: the batch decoder must reject it
	// and the failure must propagate out of DecodeWire as ErrWire, carrying
	// the batch codec's diagnosis through the gob layer.
	bad := append([]byte(nil), good...)
	bad[at] ^= 0xff
	var out core.SegmentSpec
	err = DecodeWire(bad, &out)
	if !errors.Is(err, ErrWire) {
		t.Fatalf("flipped batch version byte: err = %v, want ErrWire", err)
	}
	if !strings.Contains(err.Error(), graph.ErrEdgeCodec.Error()) {
		t.Fatalf("error %q does not surface the batch codec failure", err)
	}

	// Corrupt the batch's edge count upward: the decoder's bounds check must
	// refuse the truncated columns.
	bad = append([]byte(nil), good...)
	bad[at+1] = 0xf0
	if err := DecodeWire(bad, &out); !errors.Is(err, ErrWire) {
		t.Fatalf("inflated batch edge count: err = %v, want ErrWire", err)
	}
}

// TestWireSpecNamesNodeOutOfRange: a payload that decodes but names a node
// id at or above its NumNodes is refused by Validate with core.ErrNodeRange,
// so a shard cannot make a worker grow its per-node columns without bound.
func TestWireSpecNamesNodeOutOfRange(t *testing.T) {
	bad := sampleSpec()
	bad.Adds[0] = graph.NewEdgeBatch([]graph.Triple{{Src: 0, Dst: 1 << 40, W: 1}})
	data, err := EncodeWire(bad)
	if err != nil {
		t.Fatal(err)
	}
	var spec core.SegmentSpec
	if err := DecodeWire(data, &spec); err != nil {
		t.Fatalf("structurally valid gob refused: %v", err)
	}
	if err := spec.Validate(); !errors.Is(err, core.ErrNodeRange) {
		t.Fatalf("Validate = %v, want ErrNodeRange", err)
	}
}

// TestWireBitFlipsNeverPanic sweeps a single-bit flip across every byte of a
// good payload. Any individual flip may still decode (gob and the batch
// codec cannot checksum every bit), but the contract is: DecodeWire either
// succeeds or fails with an error wrapping ErrWire — no panics, no other
// error types.
func TestWireBitFlipsNeverPanic(t *testing.T) {
	good, err := EncodeWire(sampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		var out core.SegmentSpec
		if err := DecodeWire(bad, &out); err != nil && !errors.Is(err, ErrWire) {
			t.Fatalf("flip at byte %d: error %v does not wrap ErrWire", i, err)
		}
	}
}

// FuzzDecodeWireSegmentSpec fuzzes the full decode boundary a worker exposes
// to the network: arbitrary payloads must produce either a decoded spec or a
// typed ErrWire, never a panic, and a decoded spec's Validate never panics.
// Seeds cover the valid encoding, the classic corruptions and a spec whose
// edges name a node outside its NumNodes.
func FuzzDecodeWireSegmentSpec(f *testing.F) {
	good, err := EncodeWire(sampleSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte("\x07\xffnot a gob stream"))
	tail := append([]byte(nil), good...)
	tail[len(tail)-1] ^= 0xff
	f.Add(tail)
	outside := sampleSpec()
	outside.NumNodes = 2 // the seed names node 2
	if data, err := EncodeWire(outside); err == nil {
		f.Add(data)
	} else {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var out core.SegmentSpec
		err := DecodeWire(data, &out)
		if err != nil && !errors.Is(err, ErrWire) {
			t.Fatalf("error %v does not wrap ErrWire", err)
		}
		if err == nil {
			_ = out.Validate() // refuses or accepts; never panics
		}
	})
}
