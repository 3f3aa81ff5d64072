package server_test

// Conditional-read acceptance: the GET query endpoint publishes a
// validator naming the relation's mutation epoch and the server's boot as
// an ETag, answers If-None-Match revalidation with 304 (no query runs, no
// body crosses the wire) while no change since meets the query, and a
// change the query sees sends stale clients a fresh body. The typed client's
// QueryCached drives the same protocol end to end, and /metrics exposes
// the result cache's counters.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/server"
	"repro/internal/tx"
	"repro/internal/wal"
	"repro/internal/wire"
)

// bootCachedServer is bootServer with the query-result cache enabled.
func bootCachedServer(t *testing.T, dir string) (*client.Client, string, func()) {
	t.Helper()
	cat := catalog.New(catalog.Config{
		Dir:        dir,
		NewClock:   func() tx.Clock { return tx.NewLogicalClock(0, 10) },
		CacheBytes: 1 << 20,
	})
	if err := cat.Open(); err != nil {
		t.Fatalf("catalog.Open: %v", err)
	}
	srv := server.New(server.Config{Catalog: cat})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := cat.Close(); err != nil {
			t.Errorf("catalog.Close: %v", err)
		}
	}
	return client.New(base), base, stop
}

func getWithValidator(t *testing.T, url, inm string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	if inm != "" {
		req.Header.Set(wire.HeaderIfNoneMatch, inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}

func TestConditionalGetQuery(t *testing.T) {
	ctx := context.Background()
	c, base, stop := bootCachedServer(t, t.TempDir())
	defer stop()
	if _, err := c.Create(ctx, empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := c.Insert(ctx, "emp", insertReq(100, "merrie", 27000)); err != nil {
		t.Fatalf("Insert: %v", err)
	}

	url := base + "/v1/relations/emp/query?kind=timeslice&vt=100"
	resp := getWithValidator(t, url, "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET query = %d: %s", resp.StatusCode, body)
	}
	etag := resp.Header.Get(wire.HeaderETag)
	if etag == "" {
		t.Fatal("GET query carried no ETag")
	}
	if cl := resp.Header.Get("Content-Length"); cl == "" || cl == "0" {
		t.Fatalf("pooled encoder set Content-Length %q", cl)
	}
	var qr wire.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(qr.Elements) != 1 || qr.Epoch == 0 {
		t.Fatalf("body = %d elements, epoch %d", len(qr.Elements), qr.Epoch)
	}

	// Revalidation against an unmutated relation: 304, empty body.
	resp = getWithValidator(t, url, etag)
	notModBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", resp.StatusCode)
	}
	if len(notModBody) != 0 {
		t.Fatalf("304 carried a body: %q", notModBody)
	}

	// A mutation changes the validator: the stale ETag fetches fresh.
	if _, err := c.Insert(ctx, "emp", insertReq(100, "tom", 31000)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	resp = getWithValidator(t, url, etag)
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-mutation GET = %d", resp.StatusCode)
	}
	if newTag := resp.Header.Get(wire.HeaderETag); newTag == etag || newTag == "" {
		t.Fatalf("ETag did not change across mutation: %q", newTag)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(qr.Elements) != 2 {
		t.Fatalf("post-mutation body = %d elements, want 2", len(qr.Elements))
	}
}

func TestConditionalExplain(t *testing.T) {
	ctx := context.Background()
	c, base, stop := bootCachedServer(t, t.TempDir())
	defer stop()
	if _, err := c.Create(ctx, empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := c.Insert(ctx, "emp", insertReq(100, "merrie", 27000)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	url := base + "/v1/relations/emp/explain?kind=current"
	resp := getWithValidator(t, url, "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get(wire.HeaderETag)
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("explain = %d, etag %q", resp.StatusCode, etag)
	}
	resp = getWithValidator(t, url, etag)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("explain revalidation = %d, want 304", resp.StatusCode)
	}
}

func TestClientQueryCached(t *testing.T) {
	ctx := context.Background()
	c, _, stop := bootCachedServer(t, t.TempDir())
	defer stop()
	if _, err := c.Create(ctx, empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := c.Insert(ctx, "emp", insertReq(100, "merrie", 27000)); err != nil {
		t.Fatalf("Insert: %v", err)
	}

	req := client.QueryRequest{Kind: client.QueryTimeslice, VT: 100}
	first, err := c.QueryCached(ctx, "emp", req)
	if err != nil {
		t.Fatalf("QueryCached: %v", err)
	}
	if first.NotModified || len(first.Elements) != 1 || first.ETag == "" {
		t.Fatalf("first = %+v", first)
	}
	second, err := c.QueryCached(ctx, "emp", req)
	if err != nil {
		t.Fatalf("QueryCached: %v", err)
	}
	if !second.NotModified {
		t.Fatal("repeat QueryCached did not revalidate to 304")
	}
	if len(second.Elements) != 1 {
		t.Fatalf("304 body from local cache = %d elements", len(second.Elements))
	}

	if _, err := c.Insert(ctx, "emp", insertReq(100, "tom", 31000)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	third, err := c.QueryCached(ctx, "emp", req)
	if err != nil {
		t.Fatalf("QueryCached: %v", err)
	}
	if third.NotModified || len(third.Elements) != 2 {
		t.Fatalf("post-mutation = %+v", third)
	}

	// The server's result cache shows up on /metrics.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if m.QueryCache == nil {
		t.Fatal("metrics carry no query_cache section")
	}
	if m.QueryCache.Capacity != 1<<20 {
		t.Fatalf("query_cache capacity = %d", m.QueryCache.Capacity)
	}
}

// serveRecorded drives one request through h, with inm as If-None-Match
// when set.
func serveRecorded(h http.Handler, method, path, body, inm string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if inm != "" {
		req.Header.Set(wire.HeaderIfNoneMatch, inm)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestValidatorDoesNotSurviveARestart: epochs restart at every boot — the
// relation's entry publishes epoch 1, the log's replay epoch 2 — so a
// validator naming a relation and an epoch alone matches a different state
// once the rebooted relation has been written up to that epoch again, and
// the client is served its stale body as a 304. A validator names the boot
// too, and one from another boot validates nothing.
func TestValidatorDoesNotSurviveARestart(t *testing.T) {
	root := t.TempDir()
	boot := func() (*catalog.Catalog, http.Handler) {
		t.Helper()
		w, err := wal.Open(wal.Options{Dir: filepath.Join(root, "wal"), Sync: wal.SyncAlways})
		if err != nil {
			t.Fatalf("wal.Open: %v", err)
		}
		cat := catalog.New(catalog.Config{
			Dir:        filepath.Join(root, "data"),
			NewClock:   func() tx.Clock { return tx.NewLogicalClock(0, 10) },
			WAL:        w,
			CacheBytes: 1 << 20,
		})
		if err := cat.Open(); err != nil {
			t.Fatalf("catalog.Open: %v", err)
		}
		return cat, server.New(server.Config{Catalog: cat}).Handler()
	}
	insert := func(h http.Handler, vt int) {
		t.Helper()
		if rec := serveRecorded(h, "POST", "/v1/relations/emp/insert", fmt.Sprintf(`{"vt":{"event":%d}}`, vt), ""); rec.Code != http.StatusCreated {
			t.Fatalf("insert = %d: %s", rec.Code, rec.Body)
		}
	}
	const url = "/v1/relations/emp/query?kind=current"

	cat, h := boot()
	if rec := serveRecorded(h, "POST", "/v1/relations", `{"schema":{"name":"emp","valid_time":"event","granularity":1}}`, ""); rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body)
	}
	for vt := 1; vt <= 3; vt++ {
		insert(h, vt)
	}
	first := serveRecorded(h, "GET", url, "", "")
	etag := first.Header().Get(wire.HeaderETag)
	e, err := cat.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	epoch := e.Epoch()
	// The process dies: no snapshot, no close. The log holds every write.

	cat2, h2 := boot()
	e2, err := cat2.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	for vt := 10; e2.Epoch() < epoch; vt++ {
		insert(h2, vt)
	}
	if e2.Epoch() != epoch {
		t.Fatalf("the rebooted relation skipped epoch %d (at %d)", epoch, e2.Epoch())
	}
	rec := serveRecorded(h2, "GET", url, "", etag)
	if rec.Code != http.StatusOK {
		t.Fatalf("a validator from before the crash answered %d at the same epoch %d, want 200 and the new body", rec.Code, epoch)
	}
	var qr wire.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	if want := 3 + int(epoch) - 2; len(qr.Elements) != want {
		t.Fatalf("the new body holds %d elements, want %d", len(qr.Elements), want)
	}
	if v := rec.Header().Get(wire.HeaderValidation); v != "unknown" {
		t.Fatalf("validation %q, want unknown", v)
	}
	if got := rec.Header().Get(wire.HeaderETag); got == etag {
		t.Fatalf("the rebooted server issued the pre-crash validator %s again", got)
	}
}

// TestRevalidationAcrossWrites: a validator survives the writes its query
// cannot see — a time-slice at an instant no write touches, a rollback to
// before them — and answers 304 with the current validator; the current
// state and a time-slice at the written instant see the write and answer
// 200. Weak comparison holds (W/"x" names what "x" does), and /metrics
// counts every outcome per endpoint.
func TestRevalidationAcrossWrites(t *testing.T) {
	cat := catalog.New(catalog.Config{NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }, CacheBytes: 1 << 20})
	h := server.New(server.Config{Catalog: cat}).Handler()
	if rec := serveRecorded(h, "POST", "/v1/relations", `{"schema":{"name":"emp","valid_time":"event","granularity":1}}`, ""); rec.Code != http.StatusCreated {
		t.Fatalf("create = %d", rec.Code)
	}
	for vt := 1; vt <= 3; vt++ {
		serveRecorded(h, "POST", "/v1/relations/emp/insert", fmt.Sprintf(`{"vt":{"event":%d}}`, vt), "")
	}
	paths := map[string]string{
		"before":   "/v1/relations/emp/query?kind=timeslice&vt=2",
		"rollback": "/v1/relations/emp/query?kind=rollback&tt=25",
		"current":  "/v1/relations/emp/query?kind=current",
		"head":     "/v1/relations/emp/query?kind=timeslice&vt=9",
		"clamped":  "/v1/relations/emp/select?query=" + strings.ReplaceAll("select count(*) from emp when valid during [0, 5) group by window(2)", " ", "+"),
		"whole":    "/v1/relations/emp/select?query=" + strings.ReplaceAll("select count(*) from emp group by window(2)", " ", "+"),
	}
	tags := map[string]string{}
	for name, p := range paths {
		rec := serveRecorded(h, "GET", p, "", "")
		if rec.Code != http.StatusOK || rec.Header().Get(wire.HeaderValidation) != "" {
			t.Fatalf("%s: %d, validation %q", name, rec.Code, rec.Header().Get(wire.HeaderValidation))
		}
		tags[name] = rec.Header().Get(wire.HeaderETag)
	}
	serveRecorded(h, "POST", "/v1/relations/emp/insert", `{"vt":{"event":9}}`, "")
	now := `"emp-5.` + cat.Lineage() + `"`
	want := map[string]struct {
		status     int
		validation string
	}{
		"before":   {http.StatusNotModified, "revalidated"},
		"rollback": {http.StatusNotModified, "revalidated"},
		"clamped":  {http.StatusNotModified, "revalidated"},
		"current":  {http.StatusOK, "changed"},
		"head":     {http.StatusOK, "changed"},
		"whole":    {http.StatusOK, "changed"},
	}
	for name, w := range want {
		rec := serveRecorded(h, "GET", paths[name], "", "W/"+tags[name])
		if rec.Code != w.status || rec.Header().Get(wire.HeaderValidation) != w.validation || rec.Header().Get(wire.HeaderETag) != now {
			t.Errorf("%s after a write at vt 9: %d %q %s, want %d %q %s", name, rec.Code,
				rec.Header().Get(wire.HeaderValidation), rec.Header().Get(wire.HeaderETag), w.status, w.validation, now)
		}
	}
	// At the current epoch every validator is the same one; another boot's
	// or another relation's is unknown.
	for _, inm := range []string{now, `"emp-5.0000000000000000"`, `"dept-5.` + cat.Lineage() + `"`} {
		rec := serveRecorded(h, "GET", paths["current"], "", inm)
		if v := rec.Header().Get(wire.HeaderValidation); (inm == now) != (rec.Code == http.StatusNotModified) || (inm == now) != (v == "same") {
			t.Errorf("If-None-Match %s: %d, validation %q", inm, rec.Code, v)
		}
	}

	var m wire.MetricsResponse
	if err := json.Unmarshal(serveRecorded(h, "GET", "/metrics", "", "").Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	wantCond := map[string]wire.ConditionalMetrics{
		"query":  {Same: 1, Revalidated: 2, Changed: 2, Unknown: 2},
		"select": {Revalidated: 1, Changed: 1},
	}
	for ep, w := range wantCond {
		if got := m.Endpoints[ep].Conditional; got == nil || *got != w {
			t.Errorf("/metrics %s conditional = %+v, want %+v", ep, got, w)
		}
	}
}

// TestPostAnswersAcrossEpochs: the POST query and select endpoints read the
// result cache, which serves an answer across the writes its query cannot
// see. After a write elsewhere in valid time the body is the one computed
// before it byte for byte — plan and touched included — but for the epoch,
// which is the view's it was served on; /metrics counts the hit as
// revalidated. A write the query sees recomputes it.
func TestPostAnswersAcrossEpochs(t *testing.T) {
	ctx := context.Background()
	c, base, stop := bootCachedServer(t, t.TempDir())
	defer stop()
	if _, err := c.Create(ctx, empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i, vt := range []int64{100, 110, 120} {
		if _, err := c.Insert(ctx, "emp", insertReq(vt, fmt.Sprintf("e%d", i), 1000)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	post := func(path, body string) map[string]json.RawMessage {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", path, resp.StatusCode, b)
		}
		var out map[string]json.RawMessage
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	revalidated := func() uint64 {
		t.Helper()
		m, err := c.Metrics(ctx)
		if err != nil || m.QueryCache == nil {
			t.Fatalf("Metrics: %v", err)
		}
		return m.QueryCache.Revalidated
	}
	reads := []struct{ path, body string }{
		{"/v1/relations/emp/query", `{"kind":"timeslice","vt":110}`},
		{"/v1/select", `{"query":"select count(*) from emp when valid during [100, 200) group by window(50)"}`},
	}
	held := make([]map[string]json.RawMessage, len(reads))
	for i, r := range reads {
		held[i] = post(r.path, r.body)
	}
	if _, err := c.Insert(ctx, "emp", insertReq(900, "late", 1000)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	for i, r := range reads {
		got := post(r.path, r.body)
		for k, v := range held[i] {
			if k != "epoch" && string(got[k]) != string(v) {
				t.Fatalf("%s after a write it cannot see: %s = %s, was %s", r.body, k, got[k], v)
			}
		}
		if i == 0 && string(got["epoch"]) == string(held[i]["epoch"]) {
			t.Fatalf("%s: served at epoch %s, the epoch it was computed at", r.body, got["epoch"])
		}
	}
	if n := revalidated(); n != uint64(len(reads)) {
		t.Fatalf("query_cache.revalidated = %d, want %d", n, len(reads))
	}
	if _, err := c.Insert(ctx, "emp", insertReq(150, "mid", 1000)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if got := post(reads[1].path, reads[1].body); string(got["rows"]) == string(held[1]["rows"]) {
		t.Fatal("a write inside the clamp left the aggregate as it was")
	}
	if n := revalidated(); n != uint64(len(reads)) {
		t.Fatalf("query_cache.revalidated = %d after a recomputation, want %d", n, len(reads))
	}
}
