package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/server"
	"repro/internal/tx"
)

func newTestClient(t *testing.T) *client.Client {
	t.Helper()
	cat := catalog.New(catalog.Config{
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
	})
	srv := server.New(server.Config{Catalog: cat})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return client.New(hs.URL)
}

func TestClientRoundTrip(t *testing.T) {
	ctx := context.Background()
	cli := newTestClient(t)
	if _, err := cli.Create(ctx, client.Schema{
		Name: "m", ValidTime: "event", Granularity: 1,
	}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	el, err := cli.Insert(ctx, "m", client.InsertRequest{VT: client.EventAt(5)})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if el.ES != 1 || el.TTStart != 10 {
		t.Fatalf("element = %+v", el)
	}
	q, err := cli.Timeslice(ctx, "m", 5)
	if err != nil || len(q.Elements) != 1 {
		t.Fatalf("Timeslice = %d elements, %v", len(q.Elements), err)
	}
	if err := cli.Delete(ctx, "m", el.ES); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if q, _ := cli.Current(ctx, "m"); len(q.Elements) != 0 {
		t.Fatalf("Current after delete = %d elements", len(q.Elements))
	}
	rels, err := cli.List(ctx)
	if err != nil || len(rels) != 1 || rels[0].Name != "m" {
		t.Fatalf("List = %+v, %v", rels, err)
	}
	h, err := cli.Health(ctx)
	if err != nil || h.Status != "ok" || h.Relations != 1 {
		t.Fatalf("Health = %+v, %v", h, err)
	}
}

func TestClientErrorTyping(t *testing.T) {
	ctx := context.Background()
	cli := newTestClient(t)

	_, err := cli.Current(ctx, "ghost")
	if !client.IsNotFound(err) {
		t.Fatalf("Current(ghost) err = %v, want not_found", err)
	}
	var ae *client.APIError
	if ok := asAPIError(err, &ae); !ok || ae.Status != http.StatusNotFound {
		t.Fatalf("err = %#v, want APIError with 404", err)
	}
	if client.IsRejected(err) {
		t.Fatal("not_found classified as rejected")
	}

	// A double delete is a conflict, not a rejection.
	if _, err := cli.Create(ctx, client.Schema{Name: "m", ValidTime: "event", Granularity: 1}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	el, err := cli.Insert(ctx, "m", client.InsertRequest{VT: client.EventAt(5)})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := cli.Delete(ctx, "m", el.ES); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	err = cli.Delete(ctx, "m", el.ES)
	if !asAPIError(err, &ae) || ae.Code != client.CodeConflict {
		t.Fatalf("double delete err = %v, want conflict", err)
	}
}

// TestClientNonJSONError covers servers answering with plain text (e.g. a
// proxy in front of tsdbd): the client still returns a typed APIError.
func TestClientNonJSONError(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	defer hs.Close()
	cli := client.New(hs.URL)
	_, err := cli.Health(context.Background())
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusBadGateway {
		t.Fatalf("err = %v, want APIError with 502", err)
	}
}

func asAPIError(err error, into **client.APIError) bool {
	ae, ok := err.(*client.APIError)
	if ok {
		*into = ae
	}
	return ok
}

// TestResponseOverTheLimitIsTypedNotTruncated: a body one byte past the
// client's buffer limit is a too_large error that names the limit — it
// used to be cut at the limit and surface as a JSON syntax error — and
// a body exactly at the limit still decodes.
func TestResponseOverTheLimitIsTypedNotTruncated(t *testing.T) {
	const limit = 16 << 20
	var size atomic.Int64
	size.Store(limit + 1)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// {"elements":[],"plan":"xxx…"} padded to exactly size bytes.
		const head, tail = `{"elements":[],"plan":"`, `"}`
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path != "/v1/relations/chunked/query" {
			w.Header().Set("Content-Length", strconv.FormatInt(size.Load(), 10))
		}
		io.WriteString(w, head)
		w.Write(bytes.Repeat([]byte{'x'}, int(size.Load())-len(head)-len(tail)))
		io.WriteString(w, tail)
	}))
	defer hs.Close()
	cli := client.New(hs.URL)

	for _, rel := range []string{"sized", "chunked"} {
		_, err := cli.Current(context.Background(), rel)
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Code != client.CodeTooLarge || !strings.Contains(ae.Message, strconv.Itoa(limit)) {
			t.Fatalf("%s body of limit+1 bytes: %v, want too_large naming %d", rel, err, limit)
		}
	}
	size.Store(limit)
	q, err := cli.Current(context.Background(), "sized")
	if err != nil || len(q.Plan) < limit-64 {
		t.Fatalf("body of exactly the limit: %d plan bytes, %v", len(q.Plan), err)
	}
}

// TestBodyBufferOutlivesTheCollector: the buffer a response body is read into
// belongs to the client, not to a sync.Pool the collector empties — and a
// collection is what parsing one large answer brings on. Ten 300 KB answers
// in a row, a collection between any two, allocate no body buffer past the
// first answer's; out of the pool they allocated, and zeroed, ten.
func TestBodyBufferOutlivesTheCollector(t *testing.T) {
	const size = 300 << 10
	body := bytes.Repeat([]byte{'x'}, size)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(size))
		w.Write(body)
	}))
	defer hs.Close()
	cli := client.New(hs.URL)
	ctx := context.Background()
	// A delete reads its answer whole and decodes none of it, so what the
	// call allocates is the transport's share and the body's buffer. The
	// first one, untimed, dials the connection and allocates the buffer the
	// client keeps.
	deleteAndCollect := func() {
		if err := cli.Delete(ctx, "r", 1); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC() // twice: a pool keeps its victims for one more cycle
	}
	deleteAndCollect()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		deleteAndCollect()
	}
	runtime.ReadMemStats(&after)
	// Both ends of the connection live in this process and their own pools
	// are emptied as well: ≈ 60 KB a call. Ten buffers would be 3 MB.
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 10*size/3 {
		t.Fatalf("ten %d-byte answers allocated %d bytes: a body buffer past the first", size, spent)
	}
}

// TestClientKeepsTheAcceptSet is the client-side twin of the server's
// TestDecodeKeepsTheAcceptSet: a response spelled as the fast parser does
// not take it — by another server, or a proxy that re-serializes bodies —
// decodes to the same value through encoding/json, and is counted.
func TestClientKeepsTheAcceptSet(t *testing.T) {
	const element = `{"es":1,"os":2,"tt_start":10,"tt_end":20,"current":false,"vt":{"start":1,"end":9},"varying":[{"kind":"int","int":7}]}`
	const canonical = `{"elements":[` + element + `],"plan":"p","touched":1,"epoch":2}`
	swap := func(a, b string) string { return strings.Replace(canonical, a+","+b, b+","+a, 1) }
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, []byte(canonical), "", "\t"); err != nil {
		t.Fatal(err)
	}
	bodies := []string{
		canonical,
		swap(`"es":1`, `"os":2`),
		swap(`"tt_start":10`, `"tt_end":20`),
		swap(`"touched":1`, `"epoch":2`),
		strings.Replace(canonical, `"es":1`, `"es": 1`, 1),
		pretty.String(),
		strings.Replace(canonical, `"es":1`, `"es":9,"es":1`, 1),
		strings.Replace(canonical, `"touched":1`, `"touched":1,"served_by":"proxy"`, 1),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/relations/{i}/query", func(w http.ResponseWriter, r *http.Request) {
		i, _ := strconv.Atoi(r.PathValue("i"))
		io.WriteString(w, bodies[i]+"\n")
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()
	cli := client.New(hs.URL)

	want, err := cli.Current(context.Background(), "0")
	if err != nil || len(want.Elements) != 1 || cli.SlowDecodes() != 0 {
		t.Fatalf("canonical body: %+v, %v, %d slow decodes", want, err, cli.SlowDecodes())
	}
	for i := 1; i < len(bodies); i++ {
		got, err := cli.Current(context.Background(), strconv.Itoa(i))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("body %s:\n decoded %+v, %v\n want    %+v", bodies[i], got, err, want)
		}
		if n := cli.SlowDecodes(); n != uint64(i) {
			t.Errorf("after %d refused spellings the client counts %d slow decodes", i, n)
		}
	}
}

// TestTypedClientNeverDecodesSlowly: through a session of every call that
// carries elements or rows, no response of the server misses the client's
// fast parser.
func TestTypedClientNeverDecodesSlowly(t *testing.T) {
	ctx := context.Background()
	cli := newTestClient(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := cli.Create(ctx, client.Schema{Name: "led", ValidTime: "interval", Granularity: 1,
		Invariant: []client.Column{{Name: "id", Type: "string"}}, Varying: []client.Column{{Name: "v", Type: "int"}},
		UserTimes: []string{"seen"}})
	must(err)
	req := func(i int64) client.InsertRequest {
		return client.InsertRequest{VT: client.SpanOf(10*i, 10*i+25), Invariant: []client.Value{client.String("a<b")},
			Varying: []client.Value{client.Int(i)}, UserTimes: []int64{-i}}
	}
	el, err := cli.Insert(ctx, "led", req(1))
	must(err)
	batch, err := cli.InsertBatch(ctx, "led", []client.InsertRequest{req(2), req(3), req(4)}, true)
	must(err)
	if batch.Stored != 3 {
		t.Fatalf("batch stored %d of 3", batch.Stored)
	}
	el, err = cli.Modify(ctx, "led", el.ES, client.SpanOf(5, 40), []client.Value{client.Int(-7)})
	must(err)
	must(cli.Delete(ctx, "led", batch.Items[0].Element.ES))
	for _, q := range []client.QueryRequest{{Kind: client.QueryCurrent}, {Kind: client.QueryTimeslice, VT: 30},
		{Kind: client.QueryRollback, TT: el.TTStart}, {Kind: client.QueryAsOf, VT: 30, TT: el.TTStart}} {
		_, err := cli.Query(ctx, "led", q)
		must(err)
	}
	_, err = cli.QueryCached(ctx, "led", client.QueryRequest{Kind: client.QueryCurrent})
	must(err)
	_, err = cli.Select(ctx, "SELECT count(*), sum(v) FROM led GROUP BY WINDOW(20)")
	must(err)
	_, err = cli.Select(ctx, "SELECT id, v FROM led")
	must(err)

	if n := cli.SlowDecodes(); n != 0 {
		t.Fatalf("a typed-client session left %d slow decodes", n)
	}
}

// TestConditionalCachesAreBounded: a dashboard whose valid time follows the
// clock sends a new path with every read. Each conditional cache keeps at
// most CondCacheSize answers and gives up the least recently used: a path
// read all along still revalidates to 304, the first path read once and
// never again has to be fetched.
func TestConditionalCachesAreBounded(t *testing.T) {
	ctx := context.Background()
	cli := newTestClient(t)
	if _, err := cli.Create(ctx, client.Schema{Name: "m", ValidTime: "event", Granularity: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Insert(ctx, "m", client.InsertRequest{VT: client.EventAt(7)}); err != nil {
		t.Fatal(err)
	}
	hot := client.QueryRequest{Kind: client.QueryTimeslice, VT: 7}
	cold := client.QueryRequest{Kind: client.QueryTimeslice, VT: -1}
	for _, req := range []client.QueryRequest{cold, hot} {
		if _, err := cli.QueryCached(ctx, "m", req); err != nil {
			t.Fatal(err)
		}
	}
	for vt := int64(1000); vt < 1000+client.CondCacheSize+200; vt++ {
		if _, err := cli.QueryCached(ctx, "m", client.QueryRequest{Kind: client.QueryTimeslice, VT: vt}); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.SelectCached(ctx, "m", "select count(*) from m when valid at "+strconv.FormatInt(vt, 10)+" group by window(10)"); err != nil {
			t.Fatal(err)
		}
		if vt%100 == 0 {
			if r, err := cli.QueryCached(ctx, "m", hot); err != nil || !r.NotModified {
				t.Fatalf("the hot path at vt %d: not modified %v, %v", vt, r.NotModified, err)
			}
		}
	}
	if q, s := cli.CachedAnswers(); q != client.CondCacheSize || s != client.CondCacheSize {
		t.Fatalf("the caches hold %d and %d answers, bound %d", q, s, client.CondCacheSize)
	}
	if r, err := cli.QueryCached(ctx, "m", hot); err != nil || !r.NotModified || len(r.Elements) != 1 {
		t.Fatalf("the hot path: not modified %v, %d elements, %v", r.NotModified, len(r.Elements), err)
	}
	if r, err := cli.QueryCached(ctx, "m", cold); err != nil || r.NotModified {
		t.Fatalf("the cold path was kept: not modified %v, %v", r.NotModified, err)
	}
}
