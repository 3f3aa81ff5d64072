package server

// The fast request parser must not move the protocol's edges: whatever
// the strict json.Decoder accepted, refused, and said about a body
// before, decode still accepts, refuses and says. A defined type drops
// the wire type's ParseJSON, so decoding into it is the old path, and
// the two are compared body by body; the batch body's decode is compared
// with its encoding/json path the same way.

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

type plainInsert wire.InsertRequest

// decodeBody runs decode over body under a size cap; the plain type's
// name is spelled back so that error texts compare.
func decodeBody(body io.Reader, limit int64, into any) *apiError {
	r := httptest.NewRequest("POST", "/", body)
	r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, limit)
	aerr := decode(r, into)
	if aerr != nil {
		aerr.message = strings.NewReplacer("server.plainInsert", "wire.InsertRequest", "plainInsert", "InsertRequest").Replace(aerr.message)
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
	}
	const limit = 2048
	for _, body := range bodies {
		var fastI wire.InsertRequest
		var slowI plainInsert
		fe, se := decodeBody(strings.NewReader(body), limit, &fastI), decodeBody(strings.NewReader(body), limit, &slowI)
		if !reflect.DeepEqual(fe, se) || !reflect.DeepEqual(fastI, wire.InsertRequest(slowI)) {
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
		slowIns, se := decodeBatchJSON(limited().Body)
		if !reflect.DeepEqual(fe, se) || !reflect.DeepEqual(fastIns, slowIns) {
			t.Errorf("batch insertions of %.80q:\n fast %+v %+v\n slow %+v %+v", body, fe, fastIns, se, slowIns)
		}
	}

	// A body whose read fails midway reports the failure, not the prefix.
	var req wire.InsertRequest
	if aerr := decodeBody(io.MultiReader(strings.NewReader(`{"vt":`), brokenReader{}), limit, &req); aerr == nil || aerr.status != http.StatusBadRequest {
		t.Errorf("broken body decoded as %+v, %+v", req, aerr)
	}
}

// TestDecodeNotesTheSlowPath: a body its own parser refused is marked for
// the endpoint's slow_decodes, whatever encoding/json then makes of it; a
// canonical body, a body that never had a fast parser, and a body that
// was not read whole — too large, or cut by a broken read: no parser saw
// it — are not.
func TestDecodeNotesTheSlowPath(t *testing.T) {
	markedBody := func(body io.Reader, into any) (bool, *apiError) {
		r := httptest.NewRequest("POST", "/", body)
		r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, 1<<10)
		aerr := decode(r, into)
		_, slow := r.Body.(slowDecoded)
		return slow, aerr
	}
	marked := func(body string, into any) bool {
		slow, _ := markedBody(strings.NewReader(body), into)
		return slow
	}
	for body, want := range map[string]bool{
		`{"vt":{"event":5},"varying":[{"kind":"int","int":1}]}`: false,
		`{"vt": {"event":5}}`:      true,
		`{"varying":[],"vt":{}}`:   true,
		`{"vt":{"event":5},"x":1}`: true,
		`{"vt":`:                   true,
	} {
		if got := marked(body, &wire.InsertRequest{}); got != want {
			t.Errorf("insert body %s: slow decode %v, want %v", body, got, want)
		}
	}
	if marked(`{ "kind" : "current" }`, &wire.QueryRequest{}) {
		t.Error("a query request has no fast parser to miss")
	}
	// The batch body's fast parse: a canonical body is taken whole, an
	// element that does not convert is refused without counting a slow
	// decode — its spelling was the encoder's — and another spelling is
	// counted.
	for body, want := range map[string]struct{ slow, refused bool }{
		`{"elements":[{"object":7,"vt":{"start":1,"end":9},"invariant":[],"varying":[{"kind":"int","int":1}],"user_times":[4]}],"keys":["k"],"atomic":true}`: {false, false},
		`{"elements":[{"vt":{"event":5},"varying":[{"kind":"zebra"}]}]}`:                                                                                     {false, true},
		`{"elements":[{"vt":{"start":9,"end":5}}]}`:                                                                                                          {false, true},
		`{"elements": [{"vt":{"event":5}}]}`:                                                                                                                 {true, false},
	} {
		r := httptest.NewRequest("POST", "/", strings.NewReader(body))
		_, aerr := decodeBatch(r)
		if _, slow := r.Body.(slowDecoded); slow != want.slow || (aerr != nil) != want.refused {
			t.Errorf("batch body %s: slow decode %v, refusal %+v; want %v, %v", body, slow, aerr, want.slow, want.refused)
		}
	}
	big := `{"vt":{"event":5},"invariant":[{"kind":"string","str":"` + strings.Repeat("x", 2<<10) + `"}]}`
	if slow, aerr := markedBody(strings.NewReader(big), &wire.InsertRequest{}); slow || aerr == nil || aerr.status != http.StatusRequestEntityTooLarge {
		t.Errorf("a body over the cap: slow decode %v, %+v; want a 413 that is not booked as a spelling", slow, aerr)
	}
	if slow, aerr := markedBody(io.MultiReader(strings.NewReader(`{"vt":`), brokenReader{}), &wire.InsertRequest{}); slow || aerr == nil {
		t.Errorf("a broken read: slow decode %v, %+v; want an error that is not booked as a spelling", slow, aerr)
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
