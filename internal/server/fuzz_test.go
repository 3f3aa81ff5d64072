package server_test

// Fuzzing the HTTP decode surface: arbitrary bytes posted at the
// transaction and query endpoints must always produce a well-formed JSON
// response with a sensible status — never a panic escaping the handler and
// never a 500 from the decode/convert path.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/fuzzcost"
	"repro/internal/server"
	"repro/internal/tx"
	"repro/internal/wire"
)

// newFuzzHandler builds an in-memory server with one event relation to aim
// payloads at.
func newFuzzHandler(f *testing.F) http.Handler {
	f.Helper()
	cat := catalog.New(catalog.Config{
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
	})
	srv := server.New(server.Config{Catalog: cat})
	rec := httptest.NewRecorder()
	body := `{"schema":{"name":"emp","valid_time":"event","granularity":1,` +
		`"invariant":[{"name":"name","type":"string"}],` +
		`"varying":[{"name":"salary","type":"int"}]}}`
	req := httptest.NewRequest("POST", "/v1/relations", bytes.NewReader([]byte(body)))
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		f.Fatalf("seeding relation: status %d: %s", rec.Code, rec.Body)
	}
	return srv.Handler()
}

// post drives one payload through the handler and applies the shared
// invariants: a valid status, JSON out, and no internal error.
func post(t *testing.T, h http.Handler, path string, payload []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", path, bytes.NewReader(payload))
	h.ServeHTTP(rec, req)
	if rec.Code >= 500 {
		t.Fatalf("POST %s %q: status %d: %s", path, payload, rec.Code, rec.Body)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("POST %s %q: non-JSON response %q", path, payload, rec.Body)
	}
	if rec.Code >= 400 {
		var eb wire.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code == "" {
			t.Fatalf("POST %s %q: error response without code: %s", path, payload, rec.Body)
		}
	}
	return rec
}

// sameBothWays holds decode to the strict json.Decoder on payload — the
// same value, or the same refusal in the same words — and to
// fuzzcost.Request.
func sameBothWays[T any](t *testing.T, payload []byte) {
	t.Helper()
	var handler server.Decoded
	fuzzcost.Request.Bound(t, len(payload), func() { handler = server.DecodeHandler[T](payload) })
	if _, plain := server.DecodeBothWays[T](payload); !reflect.DeepEqual(handler, plain) {
		t.Fatalf("%T body %q:\n handler %+v\n plain   %+v", *new(T), payload, handler, plain)
	}
}

// FuzzDecodeTransaction holds the single-element write endpoints to the
// shared invariants, and the decode of each of their bodies to the strict
// json.Decoder: what the parser takes decodes to what encoding/json makes
// of it, and what it refuses is refused in encoding/json's words.
func FuzzDecodeTransaction(f *testing.F) {
	h := newFuzzHandler(f)
	f.Add([]byte(`{"vt":{"event":5},"invariant":[{"kind":"string","str":"a"}],"varying":[{"kind":"int","int":1}]}`))
	f.Add([]byte(`{"vt":{"start":5,"end":9}}`))
	f.Add([]byte(`{"vt":{}}`))
	f.Add([]byte(`{"es":1}`))
	f.Add([]byte(`{"es":0,"vt":{"event":-9223372036854775808}}`))
	f.Add([]byte(`{"object":18446744073709551615,"vt":{"event":5}}`))
	f.Add([]byte(`{"vt":{"event":5},"invariant":[{"kind":"zebra"}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`[`))
	f.Add([]byte(`{"es":5,"vt":{"event":9},"varying":[{"kind":"int","int":1}]}`))
	f.Add([]byte(`{"es":5,"vt":{"start":1,"end":2},"varying":[]}`))
	f.Add([]byte(`{"vt":{"event":9},"es":5}`))
	f.Add([]byte(`{"es":5.0}`))
	f.Add([]byte(`{"es":5} {"es":6}`))
	f.Add([]byte(`{ "vt" : { "event" : 5 } , "varying" : [ { "kind" : "int" , "int" : 1 } ] }`))
	f.Add([]byte(`{"es":5 6}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		post(t, h, "/v1/relations/emp/insert", payload)
		post(t, h, "/v1/relations/emp/delete", payload)
		post(t, h, "/v1/relations/emp/modify", payload)
		sameBothWays[wire.InsertRequest](t, payload)
		sameBothWays[wire.DeleteRequest](t, payload)
		sameBothWays[wire.ModifyRequest](t, payload)
	})
}

// FuzzDecodeQuery is FuzzDecodeTransaction for the read endpoints' bodies.
func FuzzDecodeQuery(f *testing.F) {
	h := newFuzzHandler(f)
	f.Add([]byte(`{"kind":"current"}`))
	f.Add([]byte(`{"kind":"timeslice","vt":5}`))
	f.Add([]byte(`{"kind":"rollback","tt":-1}`))
	f.Add([]byte(`{"kind":"asof","vt":9223372036854775807,"tt":5}`))
	f.Add([]byte(`{"kind":"sideways"}`))
	f.Add([]byte(`{"query":"select name from emp"}`))
	f.Add([]byte(`{"query":"select ((("}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`"kind"`))
	f.Add([]byte(`{ "kind" : "current" }`))
	f.Add([]byte(`{"vt":5,"kind":"timeslice"}`))
	f.Add([]byte(`{"kind":"timeslice","vt":5.0}`))
	f.Add([]byte(`{"query":"select count(*) from emp group by window(10)","x":1}`))
	f.Add([]byte(`{"query":"\u00e9\ud800<&>"} trailing`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		post(t, h, "/v1/relations/emp/query", payload)
		post(t, h, "/v1/select", payload)
		sameBothWays[wire.QueryRequest](t, payload)
		sameBothWays[wire.SelectRequest](t, payload)
	})
}

// TestEmptyElementsBatchCost: a megabyte of empty elements — the body the
// server's default -max-body lets through that cost the most a byte to
// refuse, ≈ 451 B, when the decoders before the one parser grew a request
// per element before converting one — is refused within
// fuzzcost.BatchRequest, with the status and words decoding it whole gives:
// nothing is kept past the first element that does not convert. So is one
// whose last element is also a type error, which decides the refusal
// instead, and ones that name a field again after the list — the
// elements, as a list, as null or as no list, or the keys — which decoding
// the whole request reads twice, the last value winning. Beside them, a
// megabyte in one list of int values, in one string of \u escapes, and in an
// unknown field nested past encoding/json's depth limit, which refuses it;
// lists whose first item decodes and whose other items are numbers, type
// errors that no item is kept for; and the bodies the parser was measured
// to spend the most a byte on: a list of empty values spelled for the
// general reading and a list of empty keys — checked only for their cost
// and outcome, since encoding/json's decode of them costs 34–150 B a byte —
// a list of empty keys that ends in a space and garbage, read by the
// canonical parse and again by the general reading, and an unknown member
// named by a megabyte of invalid UTF-8, which the refusal quotes. The
// single-element bodies of the same kinds are held to fuzzcost.Request.
func TestEmptyElementsBatchCost(t *testing.T) {
	megabyte := func(head, item, last string) []byte {
		n := (1<<20 - len(head) - len(last)) / len(item)
		return append(append([]byte(head), bytes.Repeat([]byte(item), n)...), last...)
	}
	type body struct {
		name          string
		b             []byte
		refused, same bool
	}
	var bodies []body
	for _, c := range []struct{ last, after string }{
		{`{}`, ``},
		{`{"vt":5}`, ``},
		{`{}`, `,"elements":[]`},
		{`{}`, `,"Elements":null`},
		{`{}`, `,"elements":{"vt":5}`},
		{`{}`, `,"keys":[],"keys":[]`},
	} {
		b := append(bytes.Repeat([]byte(`{},`), (1<<20-64)/3), c.last...)
		b = append(append(append([]byte(`{"elements":[`), b...), `]`+c.after...), '}')
		bodies = append(bodies, body{fmt.Sprintf("%d empty elements then %s]%s", (1<<20-64)/3, c.last, c.after), b, true, true})
	}
	const one = `{"elements":[{"vt":{"event":1}`
	bodies = append(bodies,
		body{"int values", megabyte(one+`,"invariant":[`, `{"kind":"int"},`, `{"kind":"int"}]}]}`), false, true},
		body{"escapes", megabyte(one+`,"invariant":[{"kind":"string","str":"`, `\u00e9`, `"}]}]}`), false, true},
		body{"nested", []byte(one + `}],"x":` + strings.Repeat(`[`, 1<<20)), true, true},
		body{"empty values", megabyte(one+`,"invariant":[`, `{},`, `{}]}]}`), false, false},
		body{"empty keys", megabyte(one+`}],"keys":[`, `"",`, `""]}`), true, false},
		body{"empty keys then a space and garbage", megabyte(one+`}],"keys":[`, `"",`, `"" ,x]}`), true, true},
		body{"elements of numbers", megabyte(one+`}},`, `1,`, `1]}`), true, true},
		body{"int values of numbers", megabyte(one+`,"invariant":[{"kind":"int"},`, `1,`, `1]}]}`), true, true},
		body{"invalid UTF-8 name", megabyte(one+`}],"`, "\xff", `":1}`), true, true},
	)
	for _, c := range bodies {
		var handler server.BatchDecoded
		fuzzcost.BatchRequest.Bound(t, len(c.b), func() { handler = server.DecodeBatchHandler(c.b) })
		if refused := handler.Status == http.StatusBadRequest; refused != c.refused || !refused && handler.Status != 0 {
			t.Fatalf("%s: handler %d %s", c.name, handler.Status, handler.Message)
		}
		if !c.same {
			continue
		}
		if _, plain := server.DecodeBatchBothWays(c.b); !reflect.DeepEqual(handler, plain) {
			t.Fatalf("%s: handler %d %s, decoded whole %d %s", c.name, handler.Status, handler.Message, plain.Status, plain.Message)
		}
	}
	// One element and a megabyte of keys: the element list is reserved for
	// its one element, not for as many as the keys' bytes would hold — 7.7
	// (8.7) B a byte, where it was 13.3 (14.3).
	keys := megabyte(one+`}],"keys":[`, `"",`, `""]}`)
	fuzzcost.Limit{A: 10, B: fuzzcost.BatchRequest.B}.Bound(t, len(keys), func() { server.DecodeBatchHandler(keys) })
	const single = `{"vt":{"event":1}`
	for _, b := range [][]byte{
		megabyte(single+`,"invariant":[`, `{"kind":"int"},`, `{"kind":"int"}]}`),
		megabyte(single+`,"invariant":[{"kind":"int"},`, `1,`, `1]}`),
		megabyte(single+`,"invariant":[`, `{"kind":"int"},`, `{"kind":"int"} ,x]}`),
		megabyte(single+`,"`, "\xff", `":1}`),
	} {
		sameBothWays[wire.InsertRequest](t, b)
	}
}

// FuzzBatchInsertRequest holds the batch endpoint to the shared invariants
// and its decode to encoding/json's: the parse straight into insertions
// builds exactly the insertions encoding/json and ToInsertions build from
// the same bytes, or both refuse the body with the same status and
// message. A body that decodes is also sent, as the typed client spells
// it, to two more servers in lockstep — asking for a brief report and not:
// the same status, and the brief report completed from the request is the
// whole one.
func FuzzBatchInsertRequest(f *testing.F) {
	h := newFuzzHandler(f)
	brief, whole := newFuzzHandler(f), newFuzzHandler(f)
	f.Add([]byte(`{"elements":[{"vt":{"event":5},"invariant":[{"kind":"string","str":"a"}],"varying":[{"kind":"int","int":1}]}]}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}},{"vt":{"event":9}}],"keys":["a","b"]}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}}],"keys":["only"],"atomic":true}`))
	f.Add([]byte(`{"elements":[],"keys":[]}`))
	f.Add([]byte(`{"elements":[{"vt":{}}]}`))
	f.Add([]byte(`{"elements":[{"vt":{"start":9,"end":5}}]}`))
	f.Add([]byte(`{"keys":["orphan"]}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}}],"keys":["a","b","c"]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`[`))
	// Canonical spellings the conversion refuses, and the shapes the fast
	// parse builds that ToInsertions builds too: every value kind with its
	// payloads (the ones the kind does not name included), empty and null
	// lists, an object, user times, an interval.
	f.Add([]byte(`{"elements":[{"vt":{"event":5},"varying":[{"kind":"zebra"}]}]}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5,"start":1,"end":2}}],"keys":["k"]}`))
	f.Add([]byte(`{"elements":[{"object":7,"vt":{"start":1,"end":9},"invariant":[],"varying":null,"user_times":[4,-3]},` +
		`{"vt":{"event":-9223372036854775808},"invariant":[{"kind":"string","str":"\u00e9\u2028<"},{"kind":""},{"kind":"null","int":3}],` +
		`"varying":[{"kind":"float","float":1e-7},{"kind":"bool","bool":true},{"kind":"time","time":-1},{"kind":"int","str":"x","int":9}],"user_times":[]}],` +
		`"keys":["a","b"],"atomic":false}`))
	// Brief requests: canonical, off, out of order, not a boolean.
	f.Add([]byte(`{"elements":[{"vt":{"event":5},"invariant":[{"kind":"string","str":"a\u00e9"}],"varying":[{"kind":"int","int":1}]},` +
		`{"object":1,"vt":{"event":7},"invariant":[{"kind":""}],"varying":[{"kind":"null"}]},{"vt":{"start":1,"end":2}}],"keys":["a","b","c"],"brief":true}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}}],"atomic":true,"brief":false}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}}],"brief":true,"atomic":true}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}}],"brief":1}`))
	// Bodies the handler reads an element at a time: empty elements, a type
	// error after one that does not convert, folded and unknown names, a
	// count the keys do not match, type errors in the element list and the
	// flags, spacing the fast parse refuses.
	f.Add([]byte(`{"elements":[{},{},{}]}`))
	f.Add([]byte(`{"elements":[{}, {"vt":{"event":"x"}}]}`))
	f.Add([]byte(`{"Elements":[{"vt":{"event":5}}],"KEYS":["a"],"\u212aeys":[]}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}}],"extra":{"a":[1]},"more":2}`))
	f.Add([]byte(`{"elements":["x",{}],"keys":[1]}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}},{}],"keys":["a"]}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}}],"atomic":"yes","brief":null}`))
	f.Add([]byte(`{ "elements" : [ {"vt":{"event":5}} , {"vt":{"start":1,"end":2},"user_times":[1]} ] , "keys" : null }`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}}],"elements":[{}]}`))
	f.Add([]byte(`{"elements":[{}],"elements":null,"keys":["a"]}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}},{"vt":{"event":6}},{"vt":{"event":7}}],"elements":[{}],"elements":[{},null],"keys":["a","b"]}`))
	f.Add([]byte(`{"elements":[{"vt":{"start":1,"end":4},"varying":[{"kind":"int","int":1},{"kind":"int"}]}],"elements":[ {"varying":[{"kind":"float"}]} ]}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}}],"elements":[],"elements":[{}]}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}}],"ELEMENTS":[{"vt":{"event":6}},{}],"elements":7}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}}],"keys":["a","b"],"atomic":true,"keys":["c"],"atomic":null}`))
	// Spaced between tokens, and between two literals.
	f.Add([]byte(`{"elements": [{"vt": {"event": 5}}, {"vt": {"start": 1, "end": 2}}], "keys": ["a", "b"]}`))
	f.Add([]byte(`{"elements": [{"vt": {"event": 5}}], "keys": ["a", "b", "c"]}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}}],"atomic":true false}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		post(t, h, "/v1/relations/emp/elements:batch", payload)
		var handler server.BatchDecoded
		fuzzcost.BatchRequest.Bound(t, len(payload), func() { handler = server.DecodeBatchHandler(payload) })
		if _, plain := server.DecodeBatchBothWays(payload); !reflect.DeepEqual(handler, plain) {
			t.Fatalf("batch body %q:\n handler %+v\n plain   %+v", payload, handler, plain)
		}

		var req wire.BatchInsertRequest
		if json.Unmarshal(payload, &req) != nil {
			return
		}
		req.Brief = true
		briefDoc, err := req.AppendJSON(nil)
		if err != nil {
			return
		}
		req.Brief = false
		wholeDoc, _ := req.AppendJSON(nil)
		b := post(t, brief, "/v1/relations/emp/elements:batch", briefDoc)
		w := post(t, whole, "/v1/relations/emp/elements:batch", wholeDoc)
		if b.Code != w.Code {
			t.Fatalf("batch %s: status %d brief, %d whole", wholeDoc, b.Code, w.Code)
		}
		if b.Code >= 300 {
			if b.Body.String() != w.Body.String() {
				t.Fatalf("batch %s refused in other words:\n brief %s\n whole %s", wholeDoc, b.Body, w.Body)
			}
			return
		}
		var got, want wire.BatchInsertResponse
		if err := got.ParseJSON(b.Body.Bytes()); err != nil {
			t.Fatalf("brief report: %v\n%s", err, b.Body)
		}
		if err := want.ParseJSON(w.Body.Bytes()); err != nil {
			t.Fatalf("whole report: %v\n%s", err, w.Body)
		}
		if err := got.Complete(req.Elements); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %s (%v):\n completed %+v\n whole     %+v", wholeDoc, err, got, want)
		}
	})
}
