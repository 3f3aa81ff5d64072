package server_test

// The byte-identity contract of the chunk images, end to end: whatever the
// encoder copies out of an image, the response is, byte for byte, the plain
// AppendElement loop over the same result — duplicates and order kept —
// under every query kind, on every organization the catalog can reach, on a
// primary and on the follower replaying its log — a primary whose clock
// stepped back included — with the images cold, warm,
// closed into, re-labelled under and thrown away by a removing vacuum. (The
// indexed store is not an organization the catalog chooses: its walks are the
// embedded store's, and internal/query holds its spans to the same oracle.)

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wal"
	"repro/internal/wire"
)

// backstepClock issues a logical clock's stamps, except that from the at-th
// on they start over far behind. The relation's stamps do not follow it back
// (each is floored past the newest it holds): its history stays in
// transaction-time order on the tt-ordered log, and its log is one the
// follower replays.
type backstepClock struct {
	inner *tx.LogicalClock
	at, n int
}

func (c *backstepClock) Now() chronon.Chronon { return c.inner.Now() }
func (c *backstepClock) Next() chronon.Chronon {
	if c.n++; c.n == c.at {
		c.inner = tx.NewLogicalClock(5, 10)
	}
	return c.inner.Next()
}

// imagesNode is one server of the pair with its catalog, cache on.
type imagesNode struct {
	name string
	url  string
	cat  *catalog.Catalog
}

// bootImagesNodes starts a primary on the given clock and a follower tailing
// its log, each with a result cache — without one there is nowhere to keep
// an image.
func bootImagesNodes(t *testing.T, clock func() tx.Clock) (primary, follower imagesNode, caughtUp func()) {
	t.Helper()
	dir := t.TempDir()
	serve := func(cfg server.Config) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		hs := &http.Server{Handler: server.New(cfg).Handler()}
		go hs.Serve(ln)
		t.Cleanup(func() { _ = hs.Close() })
		return "http://" + ln.Addr().String()
	}
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncGroup})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	pcat := catalog.New(catalog.Config{Dir: filepath.Join(dir, "primary"), NewClock: clock, WAL: w, CacheBytes: 32 << 20})
	if err := pcat.Open(); err != nil {
		t.Fatalf("primary Open: %v", err)
	}
	primary = imagesNode{"primary", serve(server.Config{Catalog: pcat}), pcat}

	fcat := catalog.New(catalog.Config{Dir: filepath.Join(dir, "follower"), NewClock: clock, Follower: true, CacheBytes: 32 << 20})
	if err := fcat.Open(); err != nil {
		t.Fatalf("follower Open: %v", err)
	}
	fol := repl.NewFollower(repl.FollowerConfig{Primary: primary.url, Catalog: fcat, Wait: 25 * time.Millisecond, MaxBackoff: 50 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); fol.Run(ctx) }()
	follower = imagesNode{"follower", serve(server.Config{Catalog: fcat, Follower: fol}), fcat}
	t.Cleanup(func() {
		cancel()
		<-done
		_ = fcat.Close()
		_ = pcat.Close()
		_ = w.Close()
	})
	return primary, follower, func() {
		t.Helper()
		waitUntil(t, "the follower to catch up", func() bool { return fol.Stats().AppliedLSN >= pcat.WAL().DurableLSN() })
	}
}

// plainQueryBody is the oracle: the response to the query res answered
// must go out as els — the definition's answer — with every element written
// by AppendElement and the rest of the document, from res, by encoding/json.
func plainQueryBody(t *testing.T, els []*element.Element, res catalog.QueryResult) []byte {
	t.Helper()
	out := []byte(`{"elements":[`)
	for i, e := range els {
		if i > 0 {
			out = append(out, ',')
		}
		var err error
		if out, err = wire.AppendElement(out, e); err != nil {
			t.Fatal(err)
		}
	}
	tail, err := json.Marshal(wire.QueryResponse{Elements: []wire.Element{}, Plan: res.Plan,
		PlanNode: wire.FromPlanNode(res.Node), Touched: res.Touched, Epoch: res.Epoch})
	if err != nil {
		t.Fatal(err)
	}
	return append(append(out, tail[len(`{"elements":[`):]...), '\n')
}

// imagesQuery is one read of the matrix.
type imagesQuery struct {
	kind   string
	vt, tt int64
}

func (q imagesQuery) run(ctx context.Context, e *catalog.Entry) (catalog.QueryResult, error) {
	pq := plan.Query{Kind: plan.QAsOf, VTLo: q.vt, TT: q.tt}
	switch q.kind {
	case wire.QueryCurrent:
		pq = plan.Query{Kind: plan.QCurrent}
	case wire.QueryTimeslice:
		pq = plan.Query{Kind: plan.QTimeslice, VTLo: q.vt, VTHi: q.vt + 1}
	case wire.QueryRollback:
		pq = plan.Query{Kind: plan.QRollback, TT: q.tt}
	}
	return e.AnswerCtx(ctx, pq)
}

// defined is the definition's answer to q: the relation's own query, which
// is refmodel's over its versions and shares no search with the engine.
func (q imagesQuery) defined(e *catalog.Entry) []*element.Element {
	l, vt, tt := e.Locked(), chronon.Chronon(q.vt), chronon.Chronon(q.tt)
	switch q.kind {
	case wire.QueryCurrent:
		return l.Current()
	case wire.QueryTimeslice:
		return l.Timeslice(vt)
	case wire.QueryRollback:
		return l.Rollback(tt)
	}
	return l.TimesliceAsOf(vt, tt)
}

// checkSplicedBytes asks node every query twice over HTTP — the second
// answer comes from the result cache and resolves its images anew — and
// holds both bodies to the definition's answer, encoded.
func checkSplicedBytes(t *testing.T, state string, node imagesNode, queries []imagesQuery) {
	t.Helper()
	ctx := context.Background()
	e, err := node.cat.Get("r")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		req := fmt.Sprintf(`{"kind":%q,"vt":%d,"tt":%d}`, q.kind, q.vt, q.tt)
		var bodies [2][]byte
		for i := range bodies {
			resp, err := http.Post(node.url+"/v1/relations/r/query", "application/json", strings.NewReader(req))
			if err != nil {
				t.Fatal(err)
			}
			bodies[i], err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s, %s, %s: status %d, %v", state, node.name, req, resp.StatusCode, err)
			}
		}
		res, err := q.run(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		want := plainQueryBody(t, q.defined(e), res)
		for i, got := range bodies {
			if !bytes.Equal(got, want) {
				at := 0
				for at < len(got) && at < len(want) && got[at] == want[at] {
					at++
				}
				t.Fatalf("%s, %s, %s, answer %d: %d bytes against the plain encode's %d, first difference at %d:\n got …%s\nwant …%s",
					state, node.name, req, i, len(got), len(want), at, got[max(at-60, 0):min(at+60, len(got))], want[max(at-60, 0):min(at+60, len(want))])
			}
		}
	}
}

func TestSplicedBytesAreTheEncodedScan(t *testing.T) {
	const n = 3*256 + 40
	ctx := context.Background()
	logical := func() tx.Clock { return tx.NewLogicalClock(0, 10) }
	intervalStamp := func(i int) element.Timestamp {
		lo := chronon.Chronon(1000 + 50*i)
		if i < 600 && i%2 == 0 {
			return element.SpanOf(lo, lo+400_000) // all of them cover vt 200,000
		}
		return element.SpanOf(lo, lo+60)
	}
	for _, org := range []struct {
		name     string
		interval bool
		clock    func() tx.Clock
		want     storage.Kind
	}{
		{"backward-clock", true, func() tx.Clock { return &backstepClock{inner: tx.NewLogicalClock(0, 10), at: 300} }, storage.TTOrdered},
		{"tt-ordered", true, logical, storage.TTOrdered},
		{"vt-ordered", false, logical, storage.VTOrdered},
		// Declared before it is loaded: each chunk seals into columns as it
		// fills, on the primary and, by replaying its frames, the follower.
		{"declared", false, logical, storage.VTOrdered},
	} {
		t.Run(org.name, func(t *testing.T) {
			primary, follower, caughtUp := bootImagesNodes(t, org.clock)
			schema := client.Schema{Name: "r", ValidTime: "event", Granularity: 1,
				Invariant: []client.Column{{Name: "id", Type: "string"}}, Varying: []client.Column{{Name: "v", Type: "int"}}}
			if org.interval {
				schema.ValidTime = "interval"
			}
			if _, err := client.New(primary.url).Create(ctx, schema); err != nil {
				t.Fatal(err)
			}
			e, err := primary.cat.Get("r")
			if err != nil {
				t.Fatal(err)
			}
			if org.name == "declared" {
				d, _ := constraint.Describe(constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()}, constraint.PerRelation)
				if err := e.Declare([]constraint.Descriptor{d}); err != nil {
					t.Fatal(err)
				}
			}
			var stored []*element.Element
			load := func(from, to int) {
				t.Helper()
				ins := make([]relation.Insertion, 0, to-from)
				for i := from; i < to; i++ {
					vt := element.EventAt(chronon.Chronon(1000 + 10*i))
					if org.interval {
						vt = intervalStamp(i)
					}
					ins = append(ins, relation.Insertion{VT: vt, Invariant: []element.Value{element.String_(fmt.Sprint("s", i%7))},
						Varying: []element.Value{element.Int(int64(i) * 37)}})
				}
				res, err := e.InsertBatch(ctx, ins, nil, true)
				if err != nil {
					t.Fatal(err)
				}
				for _, it := range res.Items {
					stored = append(stored, it.Elem)
				}
			}
			for from := 0; from < n; from += 200 {
				load(from, min(from+200, n))
			}
			if org.name == "vt-ordered" {
				// Arrived undeclared on the tt-ordered log; the advisor's
				// re-label comes later, over warm images.
				org.want = storage.TTOrdered
			}
			if got := e.Physical().Org; got != org.want {
				t.Fatalf("loaded onto the %v, want the %v", got, org.want)
			}

			queries := []imagesQuery{
				{kind: wire.QueryCurrent},
				{kind: wire.QueryTimeslice, vt: 200_000},                       // dense on the first chunks of an interval relation
				{kind: wire.QueryTimeslice, vt: int64(stored[700].VT.Start())}, // a handful of elements
				{kind: wire.QueryRollback, tt: int64(stored[300].TTStart)},     // cut inside chunk 1
				{kind: wire.QueryRollback, tt: int64(stored[n-1].TTStart) + 1_000_000},
				{kind: wire.QueryAsOf, vt: 200_000, tt: int64(stored[500].TTStart)},
				{kind: wire.QueryAsOf, vt: int64(stored[100].VT.Start()), tt: int64(stored[400].TTStart)},
			}
			check := func(state string) catalog.ImageStats {
				t.Helper()
				caughtUp()
				checkSplicedBytes(t, state, primary, queries)
				checkSplicedBytes(t, state, follower, queries)
				return e.ImageStats()
			}

			cold := check("cold")
			if cold.Built < 3 || cold.SpansSpliced == 0 || primary.cat.Cache().Stats().ChunkBytes == 0 {
				t.Fatalf("the first reads of three full chunks left %+v", cold)
			}
			warm := check("images warm")
			if warm.Built != cold.Built || warm.SpansSpliced <= cold.SpansSpliced {
				t.Fatalf("warm reads moved the counters %+v → %+v", cold, warm)
			}

			// One insert empties the result cache and touches no full chunk.
			load(n, n+1)
			if st := check("after an insert"); st.Built != warm.Built {
				t.Fatalf("an insert into the tail rebuilt images: %+v → %+v", warm, st)
			}

			// A delete and a modify inside chunk 1.
			if err := e.DeleteKeyed(ctx, stored[300].ES, ""); err != nil {
				t.Fatal(err)
			}
			moved := stored[310].VT // the new version lands in the tail
			if !org.interval {
				moved = element.EventAt(chronon.Chronon(1000 + 10*(n+5))) // and keeps the events in valid-time order
			}
			if _, err := e.ModifyKeyed(ctx, stored[310].ES, moved, []element.Value{element.Int(-1)}, ""); err != nil {
				t.Fatal(err)
			}
			closed := check("after a delete and a modify inside an imaged chunk")
			if closed.Built <= warm.Built {
				t.Fatalf("two closes into chunk 1: %+v → %+v, want it rebuilt", warm, closed)
			}

			// Re-labels keep the store, its generation and so every image.
			if org.name == "vt-ordered" {
				if _, migrated, err := e.Respecialize(); err != nil || !migrated || e.Physical().Org != storage.VTOrdered {
					t.Fatalf("Respecialize: migrated %v onto the %v, %v", migrated, e.Physical().Org, err)
				}
				check("after the advisor's re-label to the vt-ordered log")
				// A retroactive element breaks the adopted order: back down.
				if _, err := e.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(5), Invariant: []element.Value{element.String_("late")},
					Varying: []element.Value{element.Int(0)}}, ""); err != nil {
					t.Fatal(err)
				}
				if got := e.Physical().Org; got != storage.TTOrdered {
					t.Fatalf("degraded onto the %v, want the tt-ordered log", got)
				}
			} else if org.interval {
				d, ok := constraint.Describe(constraint.InterInterval{Spec: core.NonDecreasingIntervalsSpec()}, constraint.PerPartition)
				if !ok {
					t.Fatal("no descriptor for per-partition non-decreasing intervals")
				}
				if err := e.Declare([]constraint.Descriptor{d}); err != nil {
					t.Fatal(err)
				}
			}
			if st := check("after a re-label"); st.Built != closed.Built {
				t.Fatalf("a re-label built images anew: %+v → %+v", closed, st)
			}

			// A removing vacuum rebuilds the store: a new generation, whose
			// images are built from nothing. It is not replicated, so each
			// node is held to its own catalog from here on.
			if removed, err := e.Vacuum(chronon.Chronon(1) << 40); err != nil || removed == 0 {
				t.Fatalf("Vacuum removed %d, %v", removed, err)
			}
			if st := check("after a removing vacuum"); st.Built <= closed.Built {
				t.Fatalf("a new store generation reused images: %+v → %+v", closed, st)
			}

			m, err := client.New(primary.url).Metrics(ctx)
			if err != nil || m.Images == nil || m.Chunks == nil || m.Chunks.Images.Built == 0 || m.Images.SpansSpliced == 0 || m.Chunks.Bytes == 0 {
				t.Fatalf("/metrics images = %+v, chunks = %+v, %v", m.Images, m.Chunks, err)
			}
		})
	}
}

// TestLargeSplicedAnswerIsStreamed: a `current` over 9,000 elements is 1.4 MB,
// past what the server keeps a buffer for. With its chunks imaged — they are,
// from the first read on — it is measured, its status committed and its
// bytes copied to the connection through a 256 KB buffer: the body is the
// encoded scan, the Content-Length is its length, and the request allocates
// far less than the body's size, where assembling it took a buffer that big,
// zeroed, every time.
func TestLargeSplicedAnswerIsStreamed(t *testing.T) {
	const n = 9000
	cat := catalog.New(catalog.Config{NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }, CacheBytes: 32 << 20})
	h := server.New(server.Config{Catalog: cat}).Handler()
	serveOnce(t, h, "/v1/relations", `{"schema":{"name":"r","valid_time":"interval","granularity":1,"varying":[{"name":"v","type":"int"}]}}`, http.StatusCreated)
	e, err := cat.Get("r")
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]relation.Insertion, n)
	for i := range ins {
		lo := chronon.Chronon(1000 + 50*i)
		ins[i] = relation.Insertion{VT: element.SpanOf(lo, lo+60), Varying: []element.Value{element.Int(int64(i))}}
	}
	if res, err := e.InsertBatch(context.Background(), ins, nil, true); err != nil || res.Stored != n {
		t.Fatalf("InsertBatch stored %d: %v", res.Stored, err)
	}
	read := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/relations/r/query", strings.NewReader(`{"kind":"current"}`)))
		return rec
	}
	for round := 0; round < 3; round++ { // cold, from the result cache, and again
		rec := read()
		res, err := e.AnswerCtx(context.Background(), plan.Query{Kind: plan.QCurrent})
		if err != nil {
			t.Fatal(err)
		}
		want := plainQueryBody(t, e.Locked().Current(), res)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) || rec.Header().Get("Content-Length") != fmt.Sprint(len(want)) || len(want) < 1<<20 {
			t.Fatalf("round %d: status %d, %d bytes under Content-Length %s; the encoded scan is %d bytes",
				round, rec.Code, rec.Body.Len(), rec.Header().Get("Content-Length"), len(want))
		}
	}
	var before, after runtime.MemStats
	w := &sinkWriter{h: make(http.Header)}
	req := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/relations/r/query", strings.NewReader(`{"kind":"current"}`))
	}
	h.ServeHTTP(w, req())
	runtime.GC()
	runtime.GC() // the server's pools are empty; its own buffer list is not
	w.n = 0
	r := req()
	runtime.ReadMemStats(&before)
	h.ServeHTTP(w, r)
	runtime.ReadMemStats(&after)
	spent := after.TotalAlloc - before.TotalAlloc
	t.Logf("a warm %d-byte answer allocates %d bytes", w.n, spent)
	if w.n < 1<<20 || spent > uint64(w.n)/4 {
		t.Fatalf("a warm %d-byte answer allocated %d bytes: it was assembled, not streamed", w.n, spent)
	}
}

// TestMetricsScrapeLeavesTheEvictionOrder: a /metrics scrape reads counters,
// never a cache entry, so what the query cache evicts next is the same
// whether or not one ran. Each run reads a relation's current state (its
// full chunks imaged, so the images are the oldest entries), five small
// time-slices, then — after a scrape or not — as many other time-slices as
// the unscraped run needed before its first eviction, and finally asks the
// cache again for the five.
func TestMetricsScrapeLeavesTheEvictionOrder(t *testing.T) {
	const n = 4*256 + 40
	slice := func(i int) string { return fmt.Sprintf(`{"kind":"timeslice","vt":%d}`, 1010+50*i) }
	run := func(scrape bool, fillers int) (survived []bool, filled int) {
		cat := catalog.New(catalog.Config{NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }, CacheBytes: 512 << 10})
		h := server.New(server.Config{Catalog: cat}).Handler()
		serveOnce(t, h, "/v1/relations", `{"schema":{"name":"r","valid_time":"interval","granularity":1,"varying":[{"name":"v","type":"int"}]}}`, http.StatusCreated)
		e, err := cat.Get("r")
		if err != nil {
			t.Fatal(err)
		}
		ins := make([]relation.Insertion, n)
		for i := range ins {
			lo := chronon.Chronon(1000 + 50*i)
			ins[i] = relation.Insertion{VT: element.SpanOf(lo, lo+60), Varying: []element.Value{element.Int(int64(i))}}
		}
		if _, err := e.InsertBatch(context.Background(), ins, nil, true); err != nil {
			t.Fatal(err)
		}
		query := func(body string) { serveOnce(t, h, "/v1/relations/r/query", body, http.StatusOK) }
		query(`{"kind":"current"}`)
		for i := 0; i < 5; i++ {
			query(slice(i))
		}
		if scrape {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("/metrics: %d", rec.Code)
			}
		}
		for filled = 0; fillers > 0 && filled < fillers || fillers == 0 && cat.Cache().Stats().Evictions == 0; filled++ {
			query(slice(5 + filled))
		}
		for i := 0; i < 5; i++ {
			hits := cat.Cache().Stats().Hits
			query(slice(i))
			survived = append(survived, cat.Cache().Stats().Hits > hits)
		}
		return survived, filled
	}
	quiet, fillers := run(false, 0)
	scraped, _ := run(true, fillers)
	t.Logf("%d time-slices to the first eviction; the five survived %v unscraped, %v scraped", fillers, quiet, scraped)
	if !quiet[0] {
		t.Fatal("the unscraped run evicted the oldest time-slice first: no image was older, and the test proves nothing")
	}
	if fmt.Sprint(quiet) != fmt.Sprint(scraped) {
		t.Fatalf("a scrape changed what the cache evicted: the five time-slices survived %v without one, %v with one", quiet, scraped)
	}
}
