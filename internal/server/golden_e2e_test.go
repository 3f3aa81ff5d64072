package server_test

// The byte-identity contract of the wire codec, end to end: a fixed
// script of requests is replayed against an in-memory server with
// logical clocks, and every response — status, ETag (less the boot's
// lineage token), body — must match testdata/wire_v1.golden byte for byte. The golden file was generated
// on the commit before the hand-written codec existed (encoding/json
// wrote every byte of it); regenerate with `go test -run
// TestGoldenWireBytes -update ./internal/server` only when the protocol
// is changed on purpose.

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/server"
	"repro/internal/tx"
	"repro/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire_v1.golden from this tree's responses")

type goldenStep struct {
	method, path, body string
	// inm, when set, is sent as If-None-Match.
	inm string
}

// goldenScript covers every shape the hand-written codec owns: element
// and batch responses, the four query kinds over event and interval
// stamps, row results from both aggregate engines, and the conditional
// GET with its 304 — over values of every kind, with the string and
// float spellings encoding/json is particular about.
var goldenScript = []goldenStep{
	{method: "POST", path: "/v1/relations", body: `{"schema":{"name":"emp","valid_time":"event","granularity":1,` +
		`"invariant":[{"name":"name","type":"string"}],"varying":[{"name":"salary","type":"int"}]}}`},
	{method: "POST", path: "/v1/relations", body: `{"schema":{"name":"led","valid_time":"interval","granularity":1,` +
		`"invariant":[{"name":"acct","type":"string"}],` +
		`"varying":[{"name":"amt","type":"float"},{"name":"ok","type":"bool"},{"name":"due","type":"time"},{"name":"n","type":"int"}],` +
		`"user_times":["booked"]}}`},
	{method: "POST", path: "/v1/relations/emp/elements:batch", body: `{"elements":[` +
		`{"vt":{"event":5},"invariant":[{"kind":"string","str":"merrie"}],"varying":[{"kind":"int","int":27000}]},` +
		`{"vt":{"event":12},"invariant":[{"kind":"string","str":"tom"}],"varying":[{"kind":"int"}]},` +
		`{"vt":{"event":17},"invariant":[{"kind":"string"}],"varying":[{"kind":"null"}]},` +
		`{"vt":{"start":1,"end":2}}],"keys":["k1","k2","k3","k4"]}`},
	{method: "POST", path: "/v1/relations/emp/elements:batch", body: `{"elements":[` +
		`{"vt":{"event":5},"invariant":[{"kind":"string","str":"merrie"}],"varying":[{"kind":"int","int":27000}]}],"keys":["k1"]}`},
	{method: "POST", path: "/v1/relations/emp/insert",
		body: `{"vt":{"event":21},"invariant":[{"kind":"string","str":"<a href=\"x\">&amp;\u2028\u00e9\t\u0001</a>"}],"varying":[{"kind":"int","int":-9223372036854775808}]}`},
	{method: "POST", path: "/v1/relations/led/insert",
		body: `{"vt":{"start":-100,"end":9223372036854775807},"invariant":[{"kind":"string","str":"a-1"}],` +
			`"varying":[{"kind":"float","float":1e-7},{"kind":"bool","bool":true},{"kind":"time","time":86400},{"kind":"int","int":7}],"user_times":[3]}`},
	{method: "POST", path: "/v1/relations/led/insert",
		body: `{"object":1,"vt":{"start":10,"end":20},"invariant":[{"kind":"string","str":"a-1"}],` +
			`"varying":[{"kind":"float","float":123456789012345678901234},{"kind":"bool"},{"kind":"time"},{"kind":"null"}],"user_times":[0]}`},
	{method: "POST", path: "/v1/relations/led/insert",
		body: `{"vt":{"start":15,"end":16},"invariant":[{"kind":"string","str":"b-2"}],` +
			`"varying":[{"kind":"float","float":-0.000001},{"kind":"bool","bool":true},{"kind":"time","time":-1},{"kind":"int","int":1}],"user_times":[-5]}`},
	{method: "POST", path: "/v1/relations/emp/modify", body: `{"es":2,"vt":{"event":13},"varying":[{"kind":"int","int":31000}]}`},
	{method: "POST", path: "/v1/relations/emp/delete", body: `{"es":3}`},
	{method: "POST", path: "/v1/relations/emp/query", body: `{"kind":"current"}`},
	{method: "POST", path: "/v1/relations/emp/query", body: `{"kind":"timeslice","vt":5}`},
	{method: "POST", path: "/v1/relations/emp/query", body: `{"kind":"rollback","tt":10}`},
	{method: "POST", path: "/v1/relations/emp/query", body: `{"kind":"rollback","tt":35}`},
	{method: "POST", path: "/v1/relations/emp/query", body: `{"kind":"asof","vt":12,"tt":10}`},
	{method: "POST", path: "/v1/relations/emp/query", body: `{"kind":"timeslice","vt":999}`},
	{method: "POST", path: "/v1/relations/led/query", body: `{"kind":"current"}`},
	{method: "POST", path: "/v1/relations/led/query", body: `{"kind":"timeslice","vt":15}`},
	{method: "POST", path: "/v1/relations/led/query", body: `{"kind":"rollback","tt":20}`},
	{method: "POST", path: "/v1/select", body: `{"query":"select name, salary from emp"}`},
	{method: "POST", path: "/v1/select", body: `{"query":"select acct, amt, ok, due, n from led"}`},
	{method: "POST", path: "/v1/select", body: `{"query":"select count(*), sum(salary) from emp group by window(10)"}`},
	{method: "POST", path: "/v1/select", body: `{"query":"select count(*), sum(salary) from emp group by window(10) using row"}`},
	{method: "POST", path: "/v1/select", body: `{"query":"select name from emp where salary > 99999999"}`},
	{method: "GET", path: "/v1/relations/emp/query?kind=timeslice&vt=5"},
	{method: "GET", path: "/v1/relations/emp/query?kind=timeslice&vt=5", inm: `"emp-5"`},
	{method: "GET", path: "/v1/relations/emp/select?query=select+count(*)+from+emp+group+by+window(10)"},
	{method: "POST", path: "/v1/relations/emp/insert", body: `{"vt":{"event":1},"varying":[{"kind":"zebra"}]}`},
	{method: "POST", path: "/v1/relations/nope/query", body: `{"kind":"current"}`},
	// Brief reports, appended after the steps the pre-codec commit wrote:
	// stored items brief, a deduped item (k1, above) and a rejection whole,
	// and on a relation of a minute's granularity an item whose valid time
	// was truncated whole beside one that was not.
	{method: "POST", path: "/v1/relations/emp/elements:batch", body: `{"elements":[` +
		`{"vt":{"event":5},"invariant":[{"kind":"string","str":"merrie"}],"varying":[{"kind":"int","int":27000}]},` +
		`{"vt":{"event":30},"invariant":[{"kind":"string","str":"ann"}],"varying":[{"kind":"int","int":1}]},` +
		`{"vt":{"start":1,"end":2}},` +
		`{"object":2,"vt":{"event":31},"invariant":[{"kind":""}],"varying":[{"kind":"int"}]}],"keys":["k1","k5","k6","k7"],"brief":true}`},
	{method: "POST", path: "/v1/relations", body: `{"schema":{"name":"min","valid_time":"interval","granularity":60,` +
		`"varying":[{"name":"v","type":"float"}]}}`},
	{method: "POST", path: "/v1/relations/min/elements:batch", body: `{"elements":[` +
		`{"vt":{"start":120,"end":180},"varying":[{"kind":"float","float":-0.5}]},` +
		`{"vt":{"start":125,"end":200},"varying":[{"kind":"float"}]}],"atomic":true,"brief":true}`},
}

func TestGoldenWireBytes(t *testing.T) {
	cat := catalog.New(catalog.Config{
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
	})
	h := server.New(server.Config{Catalog: cat}).Handler()
	// A validator names the catalog's boot, which no two runs share: the
	// file holds it without the token ("emp-5"), and the script's validators
	// get it back before they are sent.
	token := "." + cat.Lineage() + `"`

	var got bytes.Buffer
	for _, st := range goldenScript {
		req := httptest.NewRequest(st.method, st.path, strings.NewReader(st.body))
		if st.inm != "" {
			req.Header.Set(wire.HeaderIfNoneMatch, strings.TrimSuffix(st.inm, `"`)+token)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		etag := strings.Replace(rec.Header().Get(wire.HeaderETag), token, `"`, 1)
		fmt.Fprintf(&got, "### %s %s %s\n%d etag=%s type=%s\n%s", st.method, st.path, st.body,
			rec.Code, etag, rec.Header().Get("Content-Type"), rec.Body.Bytes())
		if rec.Code == http.StatusNotModified {
			got.WriteByte('\n')
		}
	}

	golden := filepath.Join("testdata", "wire_v1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("response bytes diverge from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("response bytes diverge from %s: %d lines against %d", golden, len(gl), len(wl))
	}
}
