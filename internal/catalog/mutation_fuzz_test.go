package catalog

// Fuzzing for the mutation frame codec: decodeMutation must never panic
// or over-allocate on arbitrary (kind, payload) — a batch's count prefixes
// are attacker-controlled on a corrupt log, so what it allocates for them
// is bounded by the payload's length — and whatever it accepts must
// re-encode canonically. Replay and follower apply both trust this codec.

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/fuzzcost"
	"repro/internal/relation"
	"repro/internal/wal"
)

// seedMutation builds a well-formed mutation of the given kind over
// n event elements.
func seedMutation(kind wal.Kind, keys []string, vts ...int64) mutation {
	m := mutation{kind: kind, keys: keys}
	for i, vt := range vts {
		unit := frameShapes[kind].unit
		rec := relation.LogRecord{Op: unit[i%len(unit)], TT: 10, Elem: &element.Element{
			ES: 1, OS: 1, VT: element.EventAt(chronon.Chronon(vt)), TTStart: 10, TTEnd: chronon.Forever,
		}}
		m.recs = append(m.recs, rec)
	}
	return m
}

func mustEncode(t testing.TB, m mutation) (wal.Kind, []byte) {
	t.Helper()
	payload, err := m.encode(nil)
	if err != nil {
		t.Fatalf("encode kind %d: %v", m.kind, err)
	}
	return m.kind, payload
}

// seedOneKey is a kind-11 seed: a batch of n under one key that stored
// the units stored (all of them when stored is nil).
func seedOneKey(key string, n, digest uint32, stored []uint32) mutation {
	vts := make([]int64, n)
	if stored != nil {
		vts = vts[:len(stored)]
	}
	for i := range vts {
		vts[i] = int64(5 + 4*i)
	}
	m := seedMutation(walInsertBatchOneKey, nil, vts...)
	m.oneKey, m.stored = oneKey{key, n, digest}, stored
	return m
}

func FuzzDecodeMutation(f *testing.F) {
	for _, m := range []mutation{
		seedMutation(walInsertKeyed, []string{""}, 5),
		seedMutation(walInsertKeyed, []string{"retry-abc123"}, 5),
		seedMutation(walDeleteKeyed, []string{"k"}, 5),
		seedMutation(walModifyKeyed, []string{string(bytes.Repeat([]byte{'x'}, maxIdemKeyLen))}, 5, 9),
		seedMutation(walInsertBatch, []string{"k-1", "", "k-3"}, 5, 9, 12),
		seedMutation(walInsertBatch, nil),
		seedOneKey("bk", 3, 0xfeedface, nil),
		seedOneKey("bk", 5, 1, []uint32{0, 3, 4}),
		seedOneKey("", 2, 0, nil),
		seedOneKey(string(bytes.Repeat([]byte{'y'}, maxIdemKeyLen)), 1, 2, nil),
	} {
		kind, payload := mustEncode(f, m)
		f.Add(uint8(kind), payload)
		if kind < walInsertBatch {
			f.Add(uint8(kind-3), payload[2+len(m.keys[0]):]) // the legacy unkeyed form
		}
		if len(payload) > 0 {
			corrupt := append([]byte(nil), payload...)
			corrupt[len(corrupt)-1] ^= 0xff
			f.Add(uint8(kind), corrupt)
		}
		f.Add(uint8(kind), append(payload, 0x00)) // trailing garbage
	}
	f.Add(uint8(walInsertKeyed), []byte{})
	f.Add(uint8(walInsertKeyed), []byte{0xff, 0xff, 'x'})                                                             // key length far past the buffer
	f.Add(uint8(walInsertBatch), []byte{0xff, 0xff, 0xff, 0xff})                                                      // absurd count, no bytes behind it
	f.Add(uint8(walDeclare), []byte{1, 2, 3})                                                                         // not a mutation kind
	f.Add(uint8(walDeleteKeyed), mustEncodeSeed(f, walInsertKeyed))                                                   // op contradicts the kind
	f.Add(uint8(walInsertBatch), mustEncodeSeed(f, walModifyKeyed))                                                   // wrong framing for the kind
	f.Add(uint8(walInsertBatchOneKey), []byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})      // absurd counts, no bytes behind them
	f.Add(uint8(walInsertBatchOneKey), append([]byte{0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, make([]byte, 16)...)) // a batch that stored nothing
	f.Add(uint8(walInsertBatchOneKey), payloadOf(f, seedOneKey("k", 4, 0, []uint32{2, 1})))                           // stored indexes out of order

	f.Fuzz(func(t *testing.T, kind uint8, b []byte) {
		var m mutation
		var err error
		fuzzcost.Mutation.Bound(t, len(b), func() { m, err = decodeMutation(wal.Kind(kind), b) })
		if err != nil {
			return
		}
		unit := frameShapes[m.kind].unit
		if m.kind != walInsertBatchOneKey && len(m.recs) != len(m.keys)*len(unit) {
			t.Fatalf("kind %d: %d records for %d keys", m.kind, len(m.recs), len(m.keys))
		}
		if m.kind == walInsertBatchOneKey {
			if stored := len(m.recs); m.keys != nil || stored == 0 || stored > int(m.n) ||
				m.stored != nil && (len(m.stored) != stored || stored == int(m.n)) || m.stored == nil && stored != int(m.n) {
				t.Fatalf("kind 11: %d records, %d stored indexes for %d units", stored, len(m.stored), m.n)
			}
			if len(m.key) > maxIdemKeyLen {
				t.Fatalf("accepted %d-byte key (max %d)", len(m.key), maxIdemKeyLen)
			}
		}
		// What was allocated for the counts the payload declares is bounded
		// by its length: every record and every stored index took bytes.
		if len(m.recs)+len(m.keys)+len(m.stored) > len(b) {
			t.Fatalf("%d records, %d keys and %d indexes from %d bytes", len(m.recs), len(m.keys), len(m.stored), len(b))
		}
		for i, rec := range m.recs {
			if rec.Elem == nil || rec.Op != unit[i%len(unit)] {
				t.Fatalf("record %d: accepted %+v in a kind-%d frame", i, rec, m.kind)
			}
		}
		for _, key := range m.keys {
			if len(key) > maxIdemKeyLen {
				t.Fatalf("accepted %d-byte key (max %d)", len(key), maxIdemKeyLen)
			}
		}
		// The writer's form is a fixed point: re-encoding what was accepted
		// decodes to the same mutation and encodes to the same bytes again.
		// (Equality with the input is not required — a legacy kind re-frames
		// as its keyed kind, and event stamps carry a redundant end field
		// the record decoder normalizes away.)
		p1, err := m.encode(nil)
		if err != nil {
			return // only absurd inputs exceed the frame bound
		}
		again, err := decodeMutation(m.kind, p1)
		if err != nil {
			t.Fatalf("canonical re-encode rejected: %v", err)
		}
		if again.kind != m.kind || len(again.recs) != len(m.recs) || again.oneKey != m.oneKey || !slices.Equal(again.stored, m.stored) {
			t.Fatalf("re-decode drifted: kind %d -> %d, %d -> %d records", m.kind, again.kind, len(m.recs), len(again.recs))
		}
		for i := range again.keys {
			if again.keys[i] != m.keys[i] {
				t.Fatalf("key %d: %q -> %q", i, m.keys[i], again.keys[i])
			}
		}
		for i, got := range again.recs {
			if want := m.recs[i]; got.Op != want.Op || got.TT != want.TT || got.Elem.ES != want.Elem.ES {
				t.Fatalf("record %d drifted: %+v -> %+v", i, want, got)
			}
		}
		if p2, err := again.encode(nil); err != nil || !bytes.Equal(p1, p2) {
			t.Fatalf("encode is not a fixed point (err %v):\n 1st %x\n 2nd %x", err, p1, p2)
		}
	})
}

// payloadOf is the payload mustEncode frames m into.
func payloadOf(t testing.TB, m mutation) []byte {
	_, payload := mustEncode(t, m)
	return payload
}

func mustEncodeSeed(t testing.TB, kind wal.Kind) []byte {
	vts := []int64{5}
	if kind == walModifyKeyed {
		vts = []int64{5, 9}
	}
	_, payload := mustEncode(t, seedMutation(kind, []string{"k"}, vts...))
	return payload
}

// TestNullValueFrameCost holds the decoder's worst known case to its bound:
// an element of null values, one byte each, as many as the two value
// lists hold. Each value is a 32-byte element.Value made from one byte, so
// the array that holds them must be sized once, not grown and copied.
func TestNullValueFrameCost(t *testing.T) {
	m := seedMutation(walInsertKeyed, []string{"k"}, 5)
	m.recs[0].Elem.Invariant = make([]element.Value, 65535)
	m.recs[0].Elem.Varying = make([]element.Value, 65535)
	kind, b := mustEncode(t, m)
	var err error
	fuzzcost.Mutation.Bound(t, len(b), func() { _, err = decodeMutation(kind, b) })
	if err != nil {
		t.Fatal(err)
	}
}
