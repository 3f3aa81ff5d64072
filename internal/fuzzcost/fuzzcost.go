// Package fuzzcost holds a decoder of outside input to a cost bound:
// whatever the bytes, decoding n of them may allocate at most A·n + B bytes.
// A fuzz target that checks only the values a decoder returns stays green
// while the decoder allocates gigabytes for a megabyte of commas; one that
// runs the decode through Bound does not.
package fuzzcost

import (
	"runtime"
	"testing"
)

// Limit is a decoder's allocation bound: A bytes per input byte, plus B.
type Limit struct{ A, B uint64 }

// The limits, each about 1.4× the most its decoder was measured to allocate
// (go1.24, amd64, with and without -race): B over the seeds and a minute of
// fuzzing, where inputs stay small, and A over built worst cases, where the
// per-byte cost settles. Both worst cases are linear, not quadratic: a
// slice of structs, each made from a byte or a few of input.
var (
	// Mutation bounds catalog.decodeMutation over the payload of a WAL
	// mutation frame of any kind (FuzzDecodeMutation). Measured: at most
	// 3.4 KB for any fuzzed payload; 3.0–3.3 B a byte for well-formed
	// batches of 1–1,024 elements, kinds 10 and 11; and 32.0–32.1 B a byte
	// for an element of 40,000–131,000 null values (one byte each, 32 B as
	// an element.Value; backlog.DecodeRecord sizes their array before
	// decoding, TestNullValueFrameCost).
	Mutation = Limit{A: 45, B: 4096}
	// BatchRequest bounds the server's decode of an elements:batch body:
	// the fast parse, then, for a body it hands on, the element-at-a-time
	// read of encoding/json (FuzzBatchInsertRequest,
	// TestEmptyElementsBatchCost). Measured: at most 22 KB for any fuzzed
	// body up to 3.2 KB (≈ 12 KB of it fixed: the request and the
	// decoders); 6.7 B a byte for 10^3–5·10^4 minimal elements spelled as
	// the encoder spells them, and 25–38.1 B a byte spelled otherwise (one
	// space before each comma), the insertions and their slice's growth;
	// 21.3 B a byte for such a list named twice, the second of `{}`s that
	// decode over the first's elements; and 5–11.3 B a byte for a megabyte
	// of empty elements ({"elements":[{},{},…]}, with or without the field
	// named again after it), which both decoders refused at ≈ 451 B a byte
	// while each grew a request for every element before converting one.
	BatchRequest = Limit{A: 55, B: 32 << 10}
	// Snapshot bounds backlog.Read of a snapshot stream and
	// relation.Replay of what it accepted (FuzzRead). Measured: at most
	// 7.5 KB for any fuzzed stream, 13.3 KB under -race (the reader's
	// buffer and the first 4 KiB of a block's body, which is all a length
	// prefix buys before its bytes arrive); 3.1–3.4 B a byte for integrity
	// leaves, 6.9–8.6 for minimal inserts, 9–12.9 for minimal deletes; and
	// 63.8–67.4 B a byte for an element of 2,000–120,000 null values, one
	// byte each, decoded into 32-byte element.Values and then cloned by the
	// replay.
	Snapshot = Limit{A: 95, B: 19 << 10}
)

// Bound runs decode, which reads n bytes of input, and fails tb when it
// allocated more than l.A·n + l.B bytes. It reads the runtime's allocation
// total around the call, so whatever other goroutines allocate meanwhile
// counts too.
func (l Limit) Bound(tb testing.TB, n int, decode func()) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, l.A*uint64(n)+l.B; got > limit {
		tb.Fatalf("decoding %d bytes allocated %d, over the bound %d·%d + %d = %d", n, got, l.A, n, l.B, limit)
	}
}
