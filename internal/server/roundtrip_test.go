package server_test

// What one request costs between the socket and the catalog: the
// loopback round-trip benchmark (`make bench-smoke`) and the allocation
// budget of the wrapper around a handler that itself does almost nothing.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/integrity"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wal"
	"repro/internal/wire"
)

// roundTripServer is tsdbd's stack as the benchmark's server child wires
// it — group-commit WAL, Merkle tree, signer, result cache — over the log
// file system and the transaction clock given; a nil clock is the
// catalog's default, the system clock.
func roundTripServer(tb testing.TB, fs wal.FS, clock func() tx.Clock) *server.Server {
	tb.Helper()
	return server.New(server.Config{Catalog: roundTripCatalog(tb, fs, clock)})
}

// roundTripCatalog is roundTripServer's catalog, for a test that also drives
// the catalog directly.
func roundTripCatalog(tb testing.TB, fs wal.FS, clock func() tx.Clock) *catalog.Catalog {
	tb.Helper()
	w, err := wal.Open(wal.Options{FS: fs, Sync: wal.SyncGroup})
	if err != nil {
		tb.Fatalf("wal.Open: %v", err)
	}
	signer, err := integrity.NewSigner(bytes.Repeat([]byte{7}, 32))
	if err != nil {
		tb.Fatalf("NewSigner: %v", err)
	}
	cat := catalog.New(catalog.Config{
		NewClock:   clock,
		WAL:        w,
		CacheBytes: 32 << 20,
		Signer:     signer,
	})
	if err := cat.Open(); err != nil {
		tb.Fatalf("catalog.Open: %v", err)
	}
	tb.Cleanup(func() {
		_ = cat.Close()
		_ = w.Close()
	})
	return cat
}

// memoryLog is the log most of these measurements want: no disk in them.
func memoryLog(tb testing.TB) *server.Server {
	return roundTripServer(tb, wal.NewErrFS(), func() tx.Clock { return tx.NewLogicalClock(0, 1) })
}

// noSyncFS is a log file system whose Sync does nothing: the real
// directory's write path without the device's latency.
type noSyncFS struct{ wal.FS }

type noSyncFile struct{ wal.File }

func (noSyncFile) Sync() error { return nil }

func (f noSyncFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	return noSyncFile{file}, err
}

func (f noSyncFS) OpenAppend(name string, size int64) (wal.File, error) {
	file, err := f.FS.OpenAppend(name, size)
	return noSyncFile{file}, err
}

// listen serves h on a loopback port until the test ends.
func listen(tb testing.TB, h http.Handler) (base string) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	tb.Cleanup(func() { _ = hs.Close() })
	return "http://" + ln.Addr().String()
}

func insertBody(vt int) string {
	return fmt.Sprintf(`{"vt":{"event":%d},"invariant":[{"kind":"string","str":"s%d"}],"varying":[{"kind":"int","int":%d}]}`, vt, vt%16, vt)
}

// serveOnce drives one request through h without a socket.
func serveOnce(tb testing.TB, h http.Handler, path, body string, want int) {
	tb.Helper()
	r, err := http.NewRequest(http.MethodPost, path, strings.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	w := &sinkWriter{h: make(http.Header)}
	h.ServeHTTP(w, r)
	if w.status != want {
		tb.Fatalf("POST %s: status %d, want %d", path, w.status, want)
	}
}

// sinkWriter is a ResponseWriter that keeps nothing, so the allocations
// counted are the server's.
type sinkWriter struct {
	h      http.Header
	status int
	n      int
}

func (s *sinkWriter) Header() http.Header { return s.h }
func (s *sinkWriter) WriteHeader(c int)   { s.status = c }
func (s *sinkWriter) Write(p []byte) (int, error) {
	s.n += len(p)
	return len(p), nil
}

const createEvent = `{"schema":{"name":%q,"valid_time":"event","granularity":1,` +
	`"invariant":[{"name":"sensor","type":"string"}],"varying":[{"name":"v","type":"int"}]}}`

// BenchmarkServeRoundTrip times whole requests over loopback through
// srv.Handler(): a one-element time-slice (no cache hit: the vt moves), an
// insert (acknowledged durable by the group commit, signer configured),
// a 1000-element read (≈ 90 KB body — what copying a body costs), and a
// 256-element InsertBatch through the typed client, keys and both parses
// included, and the read the result cache cannot help: a 2,000-element
// time-slice of a 20,000-element ledger-shaped interval relation through the
// typed client, an insert before each one (inside the timer: ≈ a tenth of
// it), so every answer is computed, and encoded, after a write — the chunk
// images are what it finds warm. Between them, revalidate-after-insert: a
// head insert, then a cached time-slice behind the head and a clamped
// aggregate through QueryCached and SelectCached, both answered 304; and
// post-after-insert, the same head insert and the same two reads POSTed,
// both served by the result cache across the insert. Those two run on a log in a real directory
// with Sync elided
// and on the system clock, as tsbench's server child does: the in-memory
// log's Sync copies the segment, which under a 256-element frame hides
// everything else.
func BenchmarkServeRoundTrip(b *testing.B) {
	h := memoryLog(b).Handler()
	serveOnce(b, h, "/v1/relations", fmt.Sprintf(createEvent, "r"), http.StatusCreated)
	serveOnce(b, h, "/v1/relations", fmt.Sprintf(createEvent, "w"), http.StatusCreated)
	for i := 0; i < 1000; i++ {
		serveOnce(b, h, "/v1/relations/r/insert", insertBody(i), http.StatusCreated)
	}
	base := listen(b, h)
	cli := &http.Client{Timeout: 10 * time.Second}

	do := func(b *testing.B, path, body string, want int) {
		resp, err := cli.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != want {
			b.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	b.Run("point-read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			do(b, "/v1/relations/r/query", fmt.Sprintf(`{"kind":"timeslice","vt":%d}`, i%1000), http.StatusOK)
		}
	})
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			do(b, "/v1/relations/w/insert", insertBody(i), http.StatusCreated)
		}
	})
	b.Run("read-1000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			do(b, "/v1/relations/r/query", `{"kind":"current"}`, http.StatusOK)
		}
	})
	b.Run("batch-256", func(b *testing.B) {
		ctx := context.Background()
		typed := client.New(listen(b, roundTripServer(b, noSyncFS{wal.DirFS(b.TempDir())}, nil).Handler()))
		if _, err := typed.Create(ctx, client.Schema{Name: "led", ValidTime: "interval", Granularity: 1,
			Invariant: []client.Column{{Name: "id", Type: "string"}}, Varying: []client.Column{{Name: "value", Type: "int"}}}); err != nil {
			b.Fatal(err)
		}
		reqs := make([]client.InsertRequest, 256)
		for i := range reqs {
			reqs[i] = client.InsertRequest{VT: client.SpanOf(1700000000+int64(i), 1700003600+int64(i)),
				Invariant: []client.Value{client.String("s1")}, Varying: []client.Value{client.Int(int64(i) * 37)}}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if out, err := typed.InsertBatch(ctx, "led", reqs, true); err != nil || out.Stored != len(reqs) {
				b.Fatalf("InsertBatch stored %d of %d: %v", out.Stored, len(reqs), err)
			}
		}
	})
	b.Run("agg-after-batch", func(b *testing.B) {
		// tsbench's firehose-analytics in one loop: a 256-element batch at
		// the head of a declared, advised event relation, then the five
		// aggregates it cycles — each after a write, so none is answered
		// whole from the result cache; the windows the batch moved are
		// folded again and the answer is emitted and sent.
		ctx := context.Background()
		cat := roundTripCatalog(b, noSyncFS{wal.DirFS(b.TempDir())}, nil)
		typed := client.New(listen(b, server.New(server.Config{Catalog: cat}).Handler()))
		if _, err := typed.Create(ctx, client.Schema{Name: "sensor", ValidTime: "event", Granularity: 1,
			Invariant: []client.Column{{Name: "id", Type: "string"}}, Varying: []client.Column{{Name: "value", Type: "int"}}}); err != nil {
			b.Fatal(err)
		}
		if _, err := typed.Declare(ctx, "sensor", mustDescriptor(b, constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()})); err != nil {
			b.Fatal(err)
		}
		vt, n := int64(1_700_000_000), 0
		batch := func() []client.InsertRequest {
			reqs := make([]client.InsertRequest, 256)
			for i := range reqs {
				vt += 1 + int64(n*7919%19)
				reqs[i] = client.InsertRequest{VT: client.EventAt(vt),
					Invariant: []client.Value{client.String("s1")}, Varying: []client.Value{client.Int(int64(n * 37 % 1000))}}
				n++
			}
			return reqs
		}
		insert := func() {
			if out, err := typed.InsertBatch(ctx, "sensor", batch(), true); err != nil || out.Stored != 256 {
				b.Fatalf("InsertBatch stored %d of 256: %v", out.Stored, err)
			}
		}
		for i := 0; i < 64; i++ { // 16,384 elements: a spine block of sealed runs
			insert()
		}
		if _, err := cat.AdvisePass(catalog.DefaultAdvisorConfig()); err != nil {
			b.Fatal(err)
		}
		lo := int64(1_700_000_000) + 20_000
		stmts := []string{
			"SELECT count(*) FROM sensor GROUP BY WINDOW(16384)",
			"SELECT sum(value) FROM sensor GROUP BY WINDOW(16384)",
			"SELECT max(value) FROM sensor GROUP BY WINDOW(16384, ROLLING 8)",
			"SELECT count(*) FROM sensor GROUP BY WINDOW(16384, CUMULATIVE)",
			fmt.Sprintf("SELECT sum(value) FROM sensor WHEN VALID DURING [%d, %d) GROUP BY WINDOW(4096)", lo, lo+65536),
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			insert()
			for _, stmt := range stmts {
				if res, err := typed.Select(ctx, stmt); err != nil || len(res.Rows) == 0 {
					b.Fatalf("%s: %d rows, %v", stmt, len(res.Rows), err)
				}
			}
		}
	})
	b.Run("revalidate-after-insert", func(b *testing.B) {
		ctx := context.Background()
		h := memoryLog(b).Handler()
		revalidationRelation(b, h)
		typed := client.New(listen(b, h))
		ts := client.QueryRequest{Kind: client.QueryTimeslice, VT: 5000}
		prime := func() (bool, bool) {
			q, err := typed.QueryCached(ctx, "s", ts)
			if err != nil {
				b.Fatal(err)
			}
			a, err := typed.SelectCached(ctx, "s", revalidateAggregate)
			if err != nil {
				b.Fatal(err)
			}
			return q.NotModified, a.NotModified
		}
		prime()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := typed.Insert(ctx, "s", client.InsertRequest{VT: client.EventAt(int64(100_000 + i)),
				Invariant: []client.Value{client.String("s1")}, Varying: []client.Value{client.Int(int64(i))}}); err != nil {
				b.Fatal(err)
			}
			if q, a := prime(); !q || !a {
				b.Fatalf("after a head insert: time-slice not modified %v, aggregate %v", q, a)
			}
		}
	})
	b.Run("post-after-insert", func(b *testing.B) {
		ctx := context.Background()
		h := memoryLog(b).Handler()
		revalidationRelation(b, h)
		typed := client.New(listen(b, h))
		read := func() {
			if q, err := typed.Timeslice(ctx, "s", 5000); err != nil || len(q.Elements) != 1 {
				b.Fatalf("time-slice: %d elements, %v", len(q.Elements), err)
			}
			if a, err := typed.Select(ctx, revalidateAggregate); err != nil || len(a.Rows) != 8 {
				b.Fatalf("aggregate: %d rows, %v", len(a.Rows), err)
			}
		}
		read()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := typed.Insert(ctx, "s", client.InsertRequest{VT: client.EventAt(int64(100_000 + i)),
				Invariant: []client.Value{client.String("s1")}, Varying: []client.Value{client.Int(int64(i))}}); err != nil {
				b.Fatal(err)
			}
			read()
		}
		b.StopTimer()
		if m, err := typed.Metrics(ctx); err != nil || m.QueryCache == nil || m.QueryCache.Revalidated < uint64(2*b.N) {
			b.Fatalf("the reads after an insert were not served across it: %+v, %v", m.QueryCache, err)
		}
	})
	b.Run("read-2000-after-write", func(b *testing.B) {
		ctx := context.Background()
		typed := client.New(listen(b, roundTripServer(b, noSyncFS{wal.DirFS(b.TempDir())}, nil).Handler()))
		if _, err := typed.Create(ctx, client.Schema{Name: "led", ValidTime: "interval", Granularity: 1,
			Varying: []client.Column{{Name: "value", Type: "int"}}}); err != nil {
			b.Fatal(err)
		}
		// tsbench's ledger: every second one of the first 4,000 intervals is
		// long and covers vt 200,000.
		ledger := func(i int) client.InsertRequest {
			lo, length := int64(50*i), int64(50+i*7919%101)
			if i < 4000 && i%2 == 0 {
				length = 400_000
			}
			return client.InsertRequest{VT: client.SpanOf(lo, lo+length), Varying: []client.Value{client.Int(int64(i * 7919 % 1000))}}
		}
		const n = 20_000
		for from := 0; from < n; from += 250 {
			reqs := make([]client.InsertRequest, 250)
			for i := range reqs {
				reqs[i] = ledger(from + i)
			}
			if out, err := typed.InsertBatch(ctx, "led", reqs, true); err != nil || out.Stored != len(reqs) {
				b.Fatalf("InsertBatch stored %d of %d: %v", out.Stored, len(reqs), err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := typed.Insert(ctx, "led", ledger(n+i)); err != nil {
				b.Fatal(err)
			}
			if q, err := typed.Timeslice(ctx, "led", 200_000); err != nil || len(q.Elements) < 2000 || len(q.Elements) > 2010 { // the long ones and the few short ones at 200,000
				b.Fatalf("time-slice: %d elements, %v", len(q.Elements), err)
			}
		}
	})
}

// TestBatchAllocationBudget pins what a 256-element keyed batch costs the
// server, from the request's bytes to the report's, through srv.Handler()
// into a writer that keeps nothing, on the log and clock the batch
// round-trip benchmark uses: bytes allocated (a runtime.MemStats delta,
// which includes the amortized growth of the relation's own slices) and
// objects allocated per batch, averaged over a run of batches with fresh
// keys, each asking for the brief report the typed client asks for. It has
// two legs, one per way a batch is keyed.
//
// Under per-element keys in the body — the compatibility path — it reads
// ≈ 212 KB in 545 objects (≈ 240–247 KB in 546 under -race, where
// sync.Pool drops buffers), as it did with the whole report: the report is
// encoded into a pooled buffer either way, and what the brief one saves the
// server is half the encode and 70 % of the report's bytes (≈ 18 KB for
// ≈ 61 KB), not allocations. The tree before the batch was paid for once
// read ≈ 427 KB in 1,072 — the request parsed into wire structs and copied
// into insertions, a report body built beside the result, the frame
// copied into a FrameBody, then into the frame, then again to hash the
// leaf.
//
// Under one key, the Idempotency-Key header — what the typed client
// sends — it reads ≈ 188 KB in 543 objects (≈ 215 KB in 544 under -race):
// ≈ 26 KB less, for a body ≈ 9 KB shorter with no keys to read, a frame
// ≈ 8.7 KB shorter, and one window entry where there were 256. The keys
// were never an allocation each (the parser cuts its strings from one
// slab), so the objects hardly move: most are staging's two per element.
func TestBatchAllocationBudget(t *testing.T) {
	h := roundTripServer(t, noSyncFS{wal.DirFS(t.TempDir())}, nil).Handler()
	const warm, runs, n = 40, 40, 256
	for _, leg := range []struct {
		name                    string
		perElement              bool
		byteBudget, allocBudget uint64
	}{
		{"per-element keys", true, 256 << 10, 576},
		{"one key", false, 232 << 10, 568},
	} {
		rel := strings.ReplaceAll(leg.name, " ", "_")
		serveOnce(t, h, "/v1/relations", `{"schema":{"name":"`+rel+`","valid_time":"interval","granularity":1,`+
			`"invariant":[{"name":"id","type":"string"}],"varying":[{"name":"value","type":"int"}]}}`, http.StatusCreated)
		reqs := make([]*http.Request, warm+runs)
		for b := range reqs {
			batch := wire.BatchInsertRequest{Elements: make([]wire.InsertRequest, n), Atomic: true, Brief: true}
			if leg.perElement {
				batch.Keys = make([]string, n)
			}
			for i := range batch.Elements {
				vt := int64(1700000000 + b*n + i)
				batch.Elements[i] = wire.InsertRequest{VT: wire.SpanOf(vt, vt+3600),
					Invariant: []wire.Value{wire.String("s1")}, Varying: []wire.Value{wire.Int(int64(i) * 37)}}
				if leg.perElement {
					batch.Keys[i] = fmt.Sprintf("%032x", b*n+i)
				}
			}
			body, err := batch.AppendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			if reqs[b], err = http.NewRequest(http.MethodPost, "/v1/relations/"+rel+"/elements:batch", bytes.NewReader(body)); err != nil {
				t.Fatal(err)
			}
			if !leg.perElement {
				reqs[b].Header.Set(wire.HeaderIdempotencyKey, fmt.Sprintf("%032x", b))
			}
		}
		w := &sinkWriter{h: make(http.Header)}
		serve := func(r *http.Request) {
			clear(w.h)
			w.status, w.n = 0, 0
			h.ServeHTTP(w, r)
			if w.status != http.StatusCreated || w.n == 0 {
				t.Fatalf("%s: batch: status %d, %d body bytes", leg.name, w.status, w.n)
			}
		}
		for _, r := range reqs[:warm] {
			serve(r)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range reqs[warm:] {
			serve(r)
		}
		runtime.ReadMemStats(&after)
		bytesPer := (after.TotalAlloc - before.TotalAlloc) / runs
		allocsPer := (after.Mallocs - before.Mallocs) / runs
		t.Logf("%s: a 256-element batch allocates %d B in %d objects", leg.name, bytesPer, allocsPer)
		if bytesPer > leg.byteBudget || allocsPer > leg.allocBudget {
			t.Errorf("%s: a 256-element batch allocates %d B in %d objects, budget %d B in %d", leg.name, bytesPer, allocsPer, leg.byteBudget, leg.allocBudget)
		}
	}
}

// TestRequestAllocationBudget pins what a request costs in allocations
// through srv.Handler(), into a writer that keeps nothing: a POST …/query
// answered from the result cache, a window aggregate answered from it and
// one refolded after an insert, and a single insert, delete and modify.
// For the query the handler's own share (decode, cache lookup, encode into
// the pooled buffer) is small; the rest is the deadline wrapper
// (deadline.go: a context, a request copy, a timer, the writer and its
// header map). Under http.TimeoutHandler — a goroutine, a channel, a header
// map and an unpooled bytes.Buffer grown to the body — the query read 31
// (32–33 under -race, where sync.Pool drops items); with encoding/json
// decoding its body it read 25. A mutation (one element, acknowledged by
// the group commit, a close copying the one chunk it lands in) read 30, 32
// and 44 for an insert, a delete and a modify when its budget was set.
//
// Since the query, select, delete and modify bodies have their own parsers,
// the statement's keys are appended without fmt and the windows are
// emitted once, the rows read (without -race, then with it): the query 19
// (19), the cache-hit aggregate 26 (26; 50 before), the aggregate after an
// insert 61 (62; 98 before), the insert 29 (29), the delete 27 (28) and the
// modify 31 (31). Each budget is its reading plus 10 %, the insert's
// excepted, which kept its own.
func TestRequestAllocationBudget(t *testing.T) {
	h := memoryLog(t).Handler()
	serveOnce(t, h, "/v1/relations", fmt.Sprintf(createEvent, "r"), http.StatusCreated)
	insert := func(vt int) uint64 {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/relations/r/insert", strings.NewReader(insertBody(vt))))
		var resp wire.ElementResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != http.StatusCreated || err != nil {
			t.Fatalf("insert: %d, %v", w.Code, err)
		}
		return resp.Element.ES
	}
	for i := 0; i < 64; i++ {
		insert(i)
	}
	const q, runs = `{"kind":"current"}`, 200
	const agg = `{"query":"select count(*), sum(v) from r group by window(16)"}`
	serveOnce(t, h, "/v1/relations/r/query", q, http.StatusOK) // fills the cache
	// bodies names the runs+1 elements a delete or a modify leg writes to,
	// one a request (AllocsPerRun warms up once): each is stored when the
	// leg begins, after the query has been measured.
	each := func(body func(i int) string) func() []string {
		return func() []string {
			out := make([]string, runs+1)
			for i := range out {
				out[i] = body(i)
			}
			return out
		}
	}
	bodies := func(format string) func() []string {
		return each(func(i int) string { return fmt.Sprintf(format, insert(1000+i)) })
	}
	head := 100_000
	// A relation declared non-decreasing: the vt-ordered log, whose first
	// two chunks are sealed columns once 600 elements are in.
	serveOnce(t, h, "/v1/relations", fmt.Sprintf(createEvent, "d"), http.StatusCreated)
	desc, _ := constraint.Describe(constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()}, constraint.PerRelation)
	decl, _ := json.Marshal(wire.DeclareRequest{Constraints: []wire.Descriptor{wire.FromDescriptor(desc)}})
	serveOnce(t, h, "/v1/relations/d/declare", string(decl), http.StatusOK)
	var sealed []wire.Element
	for i := 0; i < 600; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/relations/d/insert", strings.NewReader(insertBody(i))))
		var resp wire.ElementResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != http.StatusCreated || err != nil {
			t.Fatalf("insert into d: %d, %v", w.Code, err)
		}
		sealed = append(sealed, resp.Element)
	}
	dHead := len(sealed)
	const aggD = `{"query":"select count(*), sum(v) from d group by window(16)"}`
	insertD := func() {
		dHead++
		serveOnce(t, h, "/v1/relations/d/insert", insertBody(dHead), http.StatusCreated)
	}
	for _, c := range []struct {
		name, path string
		bodies     func() []string
		before     func() // unmeasured, before each request
		status     int
		budget     float64
	}{
		{"cache-hit query", "/v1/relations/r/query", each(func(int) string { return q }), nil, http.StatusOK, 21},                                     // 27 before (25 measured)
		{"cache-hit select aggregate", "/v1/select", each(func(int) string { return agg }), nil, http.StatusOK, 29},                                   // 50 measured before
		{"select aggregate after an insert", "/v1/select", each(func(int) string { return agg }), func() { head++; insert(head) }, http.StatusOK, 68}, // 98 measured before
		{"insert", "/v1/relations/r/insert", each(func(i int) string { return insertBody(5000 + i) }), nil, http.StatusCreated, 32},
		{"delete", "/v1/relations/r/delete", bodies(`{"es":%d}`), nil, http.StatusOK, 30},                                                        // 34 before (32 measured)
		{"modify", "/v1/relations/r/modify", bodies(`{"es":%d,"vt":{"event":9000},"varying":[{"kind":"int","int":7}]}`), nil, http.StatusOK, 34}, // 46 before (44 measured)
		// On sealed chunks: each answer is materialized from the columns into
		// one slab, and a close copies the chunk's tt⊣ column.
		{"time-slice on sealed chunks", "/v1/relations/d/query", each(func(i int) string { return fmt.Sprintf(`{"kind":"timeslice","vt":%d}`, 2*i) }), nil, http.StatusOK, 34},            // 31 measured
		{"rollback on sealed chunks", "/v1/relations/d/query", each(func(i int) string { return fmt.Sprintf(`{"kind":"rollback","tt":%d}`, sealed[i].TTStart) }), nil, http.StatusOK, 48}, // 44 measured
		{"delete on a sealed chunk", "/v1/relations/d/delete", each(func(i int) string { return fmt.Sprintf(`{"es":%d}`, sealed[2*i].ES) }), nil, http.StatusOK, 37},                      // 34 measured
		// The head insert empties the result cache; the sealed chunks are
		// merged from their partials or folded from their columns.
		{"select aggregate after an insert on sealed chunks", "/v1/select", each(func(int) string { return aggD }), insertD, http.StatusOK, 67}, // 61 measured
	} {
		todo := c.bodies()
		body := strings.NewReader(todo[0]) // not empty, or the request gets http.NoBody
		r, err := http.NewRequest(http.MethodPost, c.path, body)
		if err != nil {
			t.Fatal(err)
		}
		w := &sinkWriter{h: make(http.Header)}
		serve := func() {
			body.Reset(todo[0])
			r.ContentLength, todo = int64(len(todo[0])), todo[1:]
			clear(w.h)
			w.status, w.n = 0, 0
			h.ServeHTTP(w, r)
			if w.status != c.status || w.n == 0 {
				t.Fatalf("%s: status %d, %d body bytes", c.name, w.status, w.n)
			}
		}
		var allocs float64
		if c.before == nil {
			allocs = testing.AllocsPerRun(runs, serve)
		} else {
			allocs = allocsBetween(runs, c.before, serve)
		}
		t.Logf("%s: %.0f allocations", c.name, allocs)
		if allocs > c.budget {
			t.Errorf("a %s allocates %.0f times through srv.Handler(), budget %.0f", c.name, allocs, c.budget)
		}
	}
}

// allocsBetween is testing.AllocsPerRun for a request that must follow
// another: before runs ahead of each of the runs+1 calls of f (the first
// warms up) and only f's allocations are counted.
func allocsBetween(runs int, before, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before()
	f()
	var total uint64
	var a, b runtime.MemStats
	for i := 0; i < runs; i++ {
		before()
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		total += b.Mallocs - a.Mallocs
	}
	return float64(total / uint64(runs))
}

// revalidationBench is the relation the revalidation benchmark and budget
// read: 2,000 sensor readings ten chronons apart, a time-slice among them
// and a window aggregate clamped to them, both behind the head where the
// writes land.
const (
	revalidateTimeslice = "/v1/relations/s/query?kind=timeslice&vt=5000&tt=0"
	revalidateAggregate = "select count(*), sum(v) from s when valid during [1000, 9000) group by window(1000)"
)

func revalidationRelation(tb testing.TB, h http.Handler) {
	tb.Helper()
	serveOnce(tb, h, "/v1/relations", fmt.Sprintf(createEvent, "s"), http.StatusCreated)
	var batch bytes.Buffer
	batch.WriteString(`{"elements":[`)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			batch.WriteByte(',')
		}
		batch.WriteString(insertBody(10 * i))
	}
	batch.WriteString(`]}`)
	serveOnce(tb, h, "/v1/relations/s/elements:batch", batch.String(), http.StatusCreated)
}

// TestRevalidationAllocationBudget pins what a conditional GET costs when
// epochs have passed but none of their changes meets the query: a
// time-slice behind the head and a clamped aggregate, each revalidated by a
// validator ten head inserts old, through srv.Handler() into a writer that
// keeps nothing — the envelope, the parameters, the statement's parse for
// the aggregate, a walk of ten log slots, the new validator and two
// headers. No query runs and no body is encoded. It reads 19 and 29
// allocations (the tree that compared the epoch alone answered both 200,
// and recomputed).
func TestRevalidationAllocationBudget(t *testing.T) {
	h := memoryLog(t).Handler()
	revalidationRelation(t, h)
	for _, c := range []struct {
		path   string
		budget float64
	}{
		{revalidateTimeslice, 22},
		{"/v1/relations/s/select?query=" + url.QueryEscape(revalidateAggregate), 32},
	} {
		r, err := http.NewRequest(http.MethodGet, c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		w := &sinkWriter{h: make(http.Header)}
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			t.Fatalf("GET %s: %d", c.path, w.status)
		}
		r.Header.Set(wire.HeaderIfNoneMatch, w.h.Get(wire.HeaderETag))
		for i := 0; i < 10; i++ {
			serveOnce(t, h, "/v1/relations/s/insert", insertBody(100_000+i), http.StatusCreated)
		}
		allocs := testing.AllocsPerRun(200, func() {
			clear(w.h)
			w.status, w.n = 0, 0
			h.ServeHTTP(w, r)
		})
		if w.status != http.StatusNotModified || w.h.Get(wire.HeaderValidation) != "revalidated" {
			t.Fatalf("GET %s after ten head inserts: %d, validation %q", c.path, w.status, w.h.Get(wire.HeaderValidation))
		}
		t.Logf("%.0f allocations per revalidation of %s", allocs, c.path)
		if allocs > c.budget {
			t.Errorf("a revalidation of %s allocates %.0f times, budget %.0f", c.path, allocs, c.budget)
		}
	}
}

// TestRevalidationAcrossASeal: an advisor pass that only seals — the
// relation already vt-ordered, a chunk newly filled at the head — publishes
// no epoch and records no change, so answers the head inserts left good stay
// good across it. A conditional GET of the time-slice and of the clamped
// aggregate behind the head answers 304 revalidated, and the same two asked
// by POST are served by the result cache across the inserts' epochs, which
// query_cache.revalidated counts. (While compaction published, it recorded
// everything and all four were computed again.)
func TestRevalidationAcrossASeal(t *testing.T) {
	cat := roundTripCatalog(t, wal.NewErrFS(), func() tx.Clock { return tx.NewLogicalClock(0, 1) })
	h := server.New(server.Config{Catalog: cat}).Handler()
	revalidationRelation(t, h)
	if _, err := cat.AdvisePass(catalog.AdvisorConfig{}); err != nil {
		t.Fatal(err)
	}
	e, err := cat.Get("s")
	if err != nil {
		t.Fatal(err)
	}
	runs := e.Physical().Compaction.Runs
	if org := e.Physical().Org; org != storage.VTOrdered || runs != 2000/256 {
		t.Fatalf("set-up: %v with %d sealed runs; the test means a vt-ordered log sealed up to its tail", org, runs)
	}
	revalidated := func() uint64 {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var m wire.MetricsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil || m.QueryCache == nil {
			t.Fatalf("GET /metrics: %d, %v", w.Code, err)
		}
		return m.QueryCache.Revalidated
	}

	gets := []*http.Request{
		httptest.NewRequest(http.MethodGet, revalidateTimeslice, nil),
		httptest.NewRequest(http.MethodGet, "/v1/relations/s/select?query="+url.QueryEscape(revalidateAggregate), nil),
	}
	for _, r := range gets {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", r.URL, w.Code)
		}
		r.Header.Set(wire.HeaderIfNoneMatch, w.Header().Get(wire.HeaderETag))
	}
	posts := []struct{ path, body string }{
		{"/v1/relations/s/query", `{"kind":"timeslice","vt":5000}`},
		{"/v1/select", `{"query":"` + revalidateAggregate + `"}`},
	}
	for _, p := range posts {
		serveOnce(t, h, p.path, p.body, http.StatusOK) // computes and records the answer
	}
	for i := 0; i < 8*256-2000; i++ { // fills chunk 7
		serveOnce(t, h, "/v1/relations/s/insert", insertBody(100_000+i), http.StatusCreated)
	}
	epoch, before := e.Epoch(), revalidated()
	rep, err := cat.AdvisePass(catalog.AdvisorConfig{})
	if err != nil || rep.Sealed != 256 || len(rep.Migrations) != 0 {
		t.Fatalf("the pass: %+v, %v; want one run sealed and nothing migrated", rep, err)
	}
	if e.Epoch() != epoch || e.Physical().Compaction.Runs != runs+1 {
		t.Errorf("the pass moved the epoch %d → %d and reports %d runs, want %d", epoch, e.Epoch(), e.Physical().Compaction.Runs, runs+1)
	}

	for _, r := range gets {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusNotModified || w.Header().Get(wire.HeaderValidation) != "revalidated" {
			t.Errorf("conditional GET %s after the seal: %d, validation %q; want 304 revalidated", r.URL, w.Code, w.Header().Get(wire.HeaderValidation))
		}
	}
	for _, p := range posts {
		serveOnce(t, h, p.path, p.body, http.StatusOK)
	}
	if n := revalidated() - before; n != uint64(len(posts)) {
		t.Errorf("query_cache.revalidated grew by %d across the seal, want %d: the result cache recomputed", n, len(posts))
	}
}

// TestRevalidatedHitAllocationBudget pins what the result cache adds to a hit
// it serves across epochs: a POSTed time-slice behind the head and a POSTed
// clamped aggregate, each asked after ten head inserts, against the same
// request answered again at the epoch it was then recorded at. The walk of
// ten log slots allocates nothing; recording the answer at the new epoch is
// one entry. Each side is the fewest objects any of fifty requests
// allocated, which under -race leaves out the buffers sync.Pool drops.
func TestRevalidatedHitAllocationBudget(t *testing.T) {
	h := memoryLog(t).Handler()
	revalidationRelation(t, h)
	head := 100_000
	for _, c := range []struct{ path, body string }{
		{"/v1/relations/s/query", `{"kind":"timeslice","vt":5000}`},
		{"/v1/select", `{"query":"` + revalidateAggregate + `"}`},
	} {
		body := strings.NewReader(c.body)
		r, err := http.NewRequest(http.MethodPost, c.path, body)
		if err != nil {
			t.Fatal(err)
		}
		w := &sinkWriter{h: make(http.Header)}
		serve := func() uint64 {
			body.Reset(c.body)
			clear(w.h)
			w.status, w.n = 0, 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h.ServeHTTP(w, r)
			runtime.ReadMemStats(&after)
			if w.status != http.StatusOK || w.n == 0 {
				t.Fatalf("POST %s: status %d, %d body bytes", c.path, w.status, w.n)
			}
			return after.Mallocs - before.Mallocs
		}
		serve() // computes and records the answer
		same, across := uint64(math.MaxUint64), uint64(math.MaxUint64)
		procs := runtime.GOMAXPROCS(1)
		for range 50 {
			same = min(same, serve())
			for range 10 {
				serveOnce(t, h, "/v1/relations/s/insert", insertBody(head), http.StatusCreated)
				head++
			}
			across = min(across, serve())
		}
		runtime.GOMAXPROCS(procs)
		t.Logf("%s: %d allocations for a same-epoch hit, %d for a hit across ten inserts", c.path, same, across)
		if across > same+3 {
			t.Errorf("a hit across ten head inserts allocates %d times, a same-epoch hit %d: budget %d", across, same, same+3)
		}
	}
}
