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

// The limits, each about 1.4× (the request decoders' 1.1×) the most its
// decoder was measured to allocate (go1.24, amd64, with and without
// -race): B over the seeds and a minute of fuzzing, where inputs stay
// small, and A over built worst cases, where the per-byte cost settles. Both worst cases are linear, not quadratic: a
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
	// BatchRequest bounds the server's decode of an elements:batch body,
	// the request parser straight into insertions (FuzzBatchInsertRequest,
	// TestEmptyElementsBatchCost). Measured (with -race, where it differs):
	// at most 11.1 KB for any seed or fuzzed body up to 3.2 KB, most of it
	// the request and its pooled buffer; 1.0 (2.0) B a byte for a megabyte
	// of empty elements, refused at the first; 5.2 (6.2) for one list of
	// {"kind":"int"} values, 7.0 (8.0) for a string of \u00e9 escapes, 6.7
	// (7.7) for an unknown field nested past the depth limit or for a list
	// of numbers after one element, 19.7 (20.7) for minimal elements spaced
	// after each comma, 18.6 (19.6) for a list of empty keys that ends in a
	// space and a syntax error, read by the canonical parse and again by the
	// general reading; 33.0 (34.0) for a list of empty values the general
	// reading takes, a 64-byte wire value and a 32-byte engine value for
	// each 3 bytes; and 34.7 (35.7) for a megabyte of invalid UTF-8 in an
	// unknown member's name, which the refusal quotes, each byte as U+FFFD.
	BatchRequest = Limit{A: 40, B: 13 << 10}
	// Request bounds the server's decode of a single-element body — insert,
	// delete, modify, query, select (FuzzDecodeTransaction,
	// FuzzDecodeQuery, TestEmptyElementsBatchCost). Measured (with -race,
	// where it differs): at most 13.9 KB for any seed or fuzzed body, most
	// of it the request and its pooled buffer; 9.4 (10.4) B a byte for a
	// list of {"kind":"int"} values, 8.4 (9.4) for user times, 1.0 (2.0)
	// for a list of numbers after one value, 14.7 (15.7) for a list of
	// values that ends in a space and a syntax error, read twice as the
	// list of keys above; 22.4 (23.4) for a list of empty values, 64 bytes
	// each for 3; and 29.0 (30.0) for the unknown name above.
	Request = Limit{A: 33, B: 16 << 10}
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
	// Statement bounds tsql.Parse of a statement and tsql.Eval of what
	// parsed over FuzzParse's eight-version fixture (FuzzParse). Measured
	// (with -race, where it differs): at most 13.7 (14.0) KB for any seed;
	// 16 B a byte for a string, a number or a run of spaces, 73–132 for a
	// run of one-byte operator tokens, 98 for a select list of pseudo-columns
	// and 53–56 for WHERE conjuncts; and 834 (835) for a list of eight-byte
	// aggregate calls, min(es), each a row of cells in every window the
	// fixture populates, measured over a cumulative window of one chronon.
	Statement = Limit{A: 1170, B: 20 << 10}
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
