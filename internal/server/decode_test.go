package server

// The request parser must not move the protocol's edges: whatever the
// strict json.Decoder accepts, refuses, and says about a body, decode
// accepts, refuses and says. A defined type drops the wire type's
// ParseJSON, so decoding into it is encoding/json's, and the two are
// compared body by body; the batch body's decode is compared with
// encoding/json and ToInsertions the same way.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wire"
)

type (
	plainInsert wire.InsertRequest
	plainQuery  wire.QueryRequest
	plainSelect wire.SelectRequest
	plainDelete wire.DeleteRequest
	plainModify wire.ModifyRequest
)

// decodeBody runs decode over body under a size cap; the plain type's
// name is spelled back so that error texts compare.
func decodeBody(body io.Reader, limit int64, into any) *apiError {
	r := httptest.NewRequest("POST", "/", body)
	r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, limit)
	aerr := decode(r, into)
	if aerr != nil {
		var names []string
		for _, n := range []string{"Insert", "Query", "Select", "Delete", "Modify"} {
			names = append(names, "server.plain"+n, "wire."+n+"Request", "plain"+n, n+"Request")
		}
		aerr.message = strings.NewReplacer(names...).Replace(aerr.message)
	}
	return aerr
}

func TestDecodeKeepsTheAcceptSet(t *testing.T) {
	const element = `{"vt":{"event":5},"invariant":[{"kind":"string","str":"a"}],"varying":[{"kind":"int","int":1}]}`
	bodies := []string{
		element,
		`{"object":3,"vt":{"start":1,"end":9},"user_times":[4]}`,
		" {\n \"vt\" : { \"event\" : 5 } }\n",
		element + ` {"trailing":"value"}`,
		element + `]`,
		`{"vt":{"event":5},"VT":{"event":6}}`,
		`{"vt":{"event":5},"vt":{"event":6}}`,
		`{"vt":{"event":5},"color":"red"}`,
		`{"vt":{"ev\u0065nt":5}}`,
		`{"vt":{"event":5.0}}`,
		`{"vt":{"event":"5"}}`,
		`{"vt":{"event":99999999999999999999}}`,
		`{"vt":null,"invariant":null}`,
		`{"object":-1,"vt":{"event":5}}`,
		`{"vt":{"event":5},"invariant":[{"kind":"string","str":"\ud800x\'"}]}`,
		`{"vt":{"event":5}`,
		`null`, `[]`, `7`, ``, ` `, `{`,
		`{"elements":[` + element + `,` + element + `],"keys":["a","b"],"atomic":true}`,
		`{"elements":[` + element + `],"keys":["a"],"atomic":1}`,
		`{"elements":[` + element + `],"Keys":["a"]}`,
		`{"elements":null}`,
		`{"elements":[null]}`,
		`{"elements":[{}],"keys":[null]}`,
		// Spellings encoding/json accepts and the fast path, which follows
		// the encoder field by field, hands back: keys in another order, a
		// space after a colon, a pretty-printed body, a duplicated key.
		`{"invariant":[{"kind":"string","str":"a"}],"vt":{"event":5}}`,
		`{"vt":{"end":9,"start":1},"object":3}`,
		`{"vt":{"event":5},"varying":[{"int":1,"kind":"int"}]}`,
		`{"vt": {"event":5}}`,
		`{"vt":{"event":5}, "varying":[]}`,
		"{\n  \"vt\": {\n    \"event\": 5\n  },\n  \"varying\": [\n    {\n      \"kind\": \"int\",\n      \"int\": 1\n    }\n  ]\n}\n",
		`{"vt":{"event":5,"event":6}}`,
		`{"keys":["a"],"elements":[` + element + `]}`,
		`{"atomic":true,"keys":["a"],"elements":[` + element + `]}`,
		`{"elements": [` + element + `], "keys": ["a"]}`,
		`{"elements":[` + element + `],"atomic":true,"atomic":false}`,
		element + strings.Repeat(" ", 4096),                                                             // past the cap, after a complete value
		`{"vt":{"event":5},"invariant":[` + strings.Repeat(`{"kind":"int"},`, 400) + `{"kind":"int"}]}`, // past the cap, mid-value
		// A scalar set back to null keeps what it held; a list named again
		// reads its items over the items before (which the second vt makes
		// both an event and an interval); folded and escaped names; a second
		// value, or a bracket, after the first.
		`{"object":5,"object":null,"vt":{"event":1}}`,
		`{"elements":[{"vt":{"event":1}}],"elements":[{"vt":{"start":2,"end":3}}]}`,
		`{"elements":[{"vt":{"event":1}}],"elements":[{"VT":{"start":2,"end":3}}],"elements":[{"vt":{"event":null}}]}`,
		`{"vt":{"ſTART":1,"end":9},"Varying":[{"Kind":"int","int":1}],"uſer_times":[1]}`,
		`{"elements":[{"vt":{"\u0065vent":5},"inv\u0061riant":[{"\u212aind":"int","int":2}]}],"\u006beys":["a"]}`,
		element + `] {"vt":{"event":6}}`,
		`{"elements":[` + element + `]} {"elements":[]}`,
		// Refusals in order: a syntax error past a type error, a type error
		// past an unknown field, an element that does not convert past a
		// count the keys do not match.
		`{"vt":{"event":"x"},"varying":[}`,
		`{"vt":{"event":5},"x":1,"varying":5}`,
		`{"elements":[{"vt":{}}],"keys":["a","b"]}`,
		`{"elements":[{"vt":{}},{"vt":{"event":1},"varying":[{"kind":"zebra"}]}]}`,
		`{"elements":[{"vt":{"event":1},"varying":[{"kind":"int","kind":"zebra"}]}]}`,
		"{\"vt\":{\"event\":5},\"invariant\":[{\"kind\":\"string\",\"str\":\"a\x01\"}]}",
		`{"vt":{"event":-},"x":[1,2,{"y":tru}]}`,
		`{"vt":{"event":5},"x":[1,2,{"y":true]}`,
		`{"vt":{"event":5},"x":` + strings.Repeat(`[`, 10001) + `}`,
		// Spaced between tokens, which the canonical parse reads with the
		// spaces taken out — but not between two numbers or literals.
		`{"elements": [` + element + `], "keys": ["a", "b"]}`,
		`{"elements": [ ]}`,
		`{"elements": [{"vt": {}}]}`,
		"{\n\t\"elements\" : [ " + element + " ] , \"atomic\" : true }\n",
		`{"vt":{"event":5 6}}`,
		`{"vt":{"event":- 5}}`,
		`{"elements":[` + element + `],"atomic":tr ue}`,
		`{"elements":[` + element + `],"atomic":true false}`,
		`{"elements": [` + element + `], "keys": ["a" "b"]}`,
	}
	const limit = 2048
	for _, body := range bodies {
		var fastI wire.InsertRequest
		var slowI plainInsert
		fe, se := decodeBody(strings.NewReader(body), limit, &fastI), decodeBody(strings.NewReader(body), limit, &slowI)
		if !reflect.DeepEqual(fe, se) || fe == nil && !reflect.DeepEqual(fastI, wire.InsertRequest(slowI)) {
			t.Errorf("insert body %.80q:\n fast %+v %+v\n slow %+v %+v", body, fe, fastI, se, slowI)
		}
		// The batch handler's decode, straight into insertions, against
		// encoding/json and ToInsertions.
		limited := func() *http.Request {
			r := httptest.NewRequest("POST", "/", strings.NewReader(body))
			r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, limit)
			return r
		}
		fastIns, fe := decodeBatch(limited())
		slowIns, se := batchOracle(limited().Body)
		if !reflect.DeepEqual(fe, se) || !reflect.DeepEqual(fastIns, slowIns) {
			t.Errorf("batch insertions of %.80q:\n fast %+v %+v\n slow %+v %+v", body, fe, fastIns, se, slowIns)
		}
	}

	// The small requests, canonical and in the spellings only encoding/json
	// may judge: spaces, another key order, an unknown key, a float for an
	// integer, trailing data.
	for _, body := range []string{
		`{"kind":"timeslice","vt":5,"tt":9}`, `{"kind":"current"}`, `{"kind":"asof","vt":-5,"tt":9223372036854775807}`,
		`{ "kind" : "asof" , "vt" : 5 }`, `{"vt":5,"kind":"timeslice"}`, `{"kind":"current","color":"red"}`,
		`{"kind":"timeslice","vt":5.0}`, `{"kind":"current"} {"kind":"rollback"}`, `{"kind":"current"}]`,
		`{"kind":"sideways"}`, `{"kind":"current","kind":"timeslice"}`, `{"KIND":"current"}`, `{"kind":null}`,
		`{"kind":"cur\u0072ent"}`, `{"kind":"current","vt":0}`, `{"kind":"current","vt":99999999999999999999}`,
		`null`, ``, `{`, `[]`,
	} {
		sameDecode[wire.QueryRequest, plainQuery](t, body, limit)
	}
	for _, body := range []string{
		`{"query":"select * from emp"}`, `{ "query": "x" }`, `{"query":"x","limit":1}`, `{"query":5.0}`,
		`{"query":"a"} trailing`, `{"query":"\u00e9\ud800<&>\t"}`, `{"Query":"x"}`, `{"query":""}`, `{"query":null}`,
		`{"query":"a","query":"b"}`, `{}`, ``,
	} {
		sameDecode[wire.SelectRequest, plainSelect](t, body, limit)
	}
	for _, body := range []string{
		`{"es":5,"es":null}`, `{"\u0065s":5}`, `{"es":5}]`, `{"es":5}{"es":6}`,
		`{"es":5}`, `{ "es" : 5 }`, `{"es":5,"x":1}`, `{"es":5.0}`, `{"es":5} 7`, `{"es":-1}`, `{"es":0}`,
		`{"es":18446744073709551615}`, `{"es":18446744073709551616}`, `{"ES":5}`, `{}`, `{"es":05}`,
	} {
		sameDecode[wire.DeleteRequest, plainDelete](t, body, limit)
	}
	for _, body := range []string{
		`{"es":5,"vt":{"event":9},"varying":[{"kind":"int","int":1}]}`, `{"vt":{"event":9},"es":5}`,
		`{"es":5, "vt":{"start":1,"end":2}}`, `{"es":5,"vt":{"event":9},"x":1}`, `{"es":5.0,"vt":{"event":9}}`,
		`{"es":5,"vt":{"event":9.0}}`, `{"es":5,"vt":{"event":9}}garbage`, `{"es":5,"vt":{"event":9},"varying":null}`,
		`{"es":5,"vt":{"event":9},"varying":[]}`, `{"es":5,"vt":{}}`, `{"es":5}`, `{"es":5,"varying":[],"vt":{"event":9}}`,
	} {
		sameDecode[wire.ModifyRequest, plainModify](t, body, limit)
	}

	// A body whose read fails midway reports the failure, not the prefix.
	var req wire.InsertRequest
	if aerr := decodeBody(io.MultiReader(strings.NewReader(`{"vt":`), brokenReader{}), limit, &req); aerr == nil || aerr.status != http.StatusBadRequest {
		t.Errorf("broken body decoded as %+v, %+v", req, aerr)
	}
}

// sameDecode decodes body into W, which has its own parser, and into P,
// its plain twin, which does not, and holds the two to the same status and
// message, and to the same value where they accept the body. (What a
// refused decode leaves behind is no part of the protocol: encoding/json
// leaves what it decoded before the refusal, the parser what was there.)
func sameDecode[W, P any](t *testing.T, body string, limit int64) {
	t.Helper()
	var fast W
	var slow P
	fe, se := decodeBody(strings.NewReader(body), limit, &fast), decodeBody(strings.NewReader(body), limit, &slow)
	if !reflect.DeepEqual(fe, se) || fe == nil && !reflect.DeepEqual(fast, reflect.ValueOf(slow).Convert(reflect.TypeOf(fast)).Interface()) {
		t.Errorf("%T body %.80q:\n fast %+v %+v\n slow %+v %+v", fast, body, fe, fast, se, slow)
	}
}

type brokenReader struct{}

func (brokenReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

// TestWriteJSONBothEncoders: a body with its own encoder and the same
// body without it leave writeJSON as the same bytes under the same
// Content-Length.
func TestWriteJSONBothEncoders(t *testing.T) {
	rec := httptest.NewRecorder()
	n, _, err := writeJSON(new(wire.BufferList), rec, http.StatusOK, wire.InsertRequest{VT: wire.EventAt(5), Varying: []wire.Value{wire.String("<x>")}})
	if err != nil || n != rec.Body.Len() {
		t.Fatalf("writeJSON = %d bytes, %v; body has %d", n, err, rec.Body.Len())
	}
	ref := httptest.NewRecorder()
	if _, _, err := writeJSON(new(wire.BufferList), ref, http.StatusOK, plainInsert{VT: wire.EventAt(5), Varying: []wire.Value{wire.String("<x>")}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes()) || rec.Header().Get("Content-Length") != ref.Header().Get("Content-Length") {
		t.Fatalf("hand-written %q (%s) against encoding/json %q (%s)", rec.Body, rec.Header().Get("Content-Length"), ref.Body, ref.Header().Get("Content-Length"))
	}
}
