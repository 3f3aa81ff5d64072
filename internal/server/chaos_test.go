package server_test

// Chaos acceptance for the resilience layer, end to end over the wire:
//
// Phase 1 — connection resets mid-traffic: a flaky transport drops every
// Nth successful insert response after the server has applied and acked
// it. The retrying client replays each dropped mutation under its
// idempotency key; every insert must eventually succeed and the relation
// must hold exactly one element per acked insert (dedup, not re-apply).
//
// Phase 2 — WAL poisoning under load: an injected I/O fault poisons the
// log. Mutations fail typed "read_only", reads keep serving, /healthz
// reports degraded, /readyz goes 503, /metrics exports the degraded
// gauge.
//
// Phase 3 — recovery: the process "restarts" (ErrFS drops unsynced
// bytes), the catalog reboots from the WAL alone, and the surviving
// history equals the acked set exactly — every acknowledged element
// present and current, nothing unacknowledged visible — and a replayed
// idempotency key still returns the original element.
//
// Batches take the same resets: concurrent InsertBatch calls and Loader
// flushes retry under their one key, and every acknowledged element is
// stored exactly once, before and after a restart.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/tx"
	"repro/internal/wal"
	"repro/internal/wire"
)

// flakyTransport forwards requests and, when enabled, drops every Nth
// successful response to a POST whose path ends in suffix ("/insert" when
// empty) on the floor — the server has applied and acked the mutation,
// but the client sees a connection reset.
type flakyTransport struct {
	rt     http.RoundTripper
	every  int
	suffix string

	mu    sync.Mutex
	on    bool
	n     int
	drops int
}

func (f *flakyTransport) enable(on bool) {
	f.mu.Lock()
	f.on = on
	f.mu.Unlock()
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.rt.RoundTrip(req)
	suffix := f.suffix
	if suffix == "" {
		suffix = "/insert"
	}
	if err != nil || req.Method != http.MethodPost || !strings.HasSuffix(req.URL.Path, suffix) {
		return resp, err
	}
	f.mu.Lock()
	drop := false
	if f.on && resp.StatusCode < 300 {
		f.n++
		drop = f.n%f.every == 0
		if drop {
			f.drops++
		}
	}
	f.mu.Unlock()
	if drop {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("chaos: connection reset after server ack")
	}
	return resp, nil
}

// rawKeyedInsert issues an insert with an explicit idempotency key,
// bypassing the client's auto-generated keys so the test can replay the
// exact key later — including across the recovery reboot.
func rawKeyedInsert(t *testing.T, base, rel, key string, req client.InsertRequest) wire.Element {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	hr, err := http.NewRequest(http.MethodPost, base+"/v1/relations/"+rel+"/insert", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(wire.HeaderIdempotencyKey, key)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatalf("keyed insert: %v", err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		t.Fatalf("keyed insert: http %d: %s", resp.StatusCode, payload)
	}
	var out wire.ElementResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatalf("keyed insert decode: %v", err)
	}
	return out.Element
}

func TestChaosIdempotentRetryPoisonAndRecovery(t *testing.T) {
	fs := wal.NewErrFS()
	newWAL := func() *wal.Log {
		t.Helper()
		w, err := wal.Open(wal.Options{FS: fs, Sync: wal.SyncAlways, SegmentBytes: 1 << 20})
		if err != nil {
			t.Fatalf("wal.Open: %v", err)
		}
		return w
	}
	newCat := func(w *wal.Log) *catalog.Catalog {
		t.Helper()
		c := catalog.New(catalog.Config{
			NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
			WAL:      w,
		})
		if err := c.Open(); err != nil {
			t.Fatalf("catalog.Open: %v", err)
		}
		return c
	}

	boot := func(cat *catalog.Catalog) (string, *http.Server) {
		t.Helper()
		srv := server.New(server.Config{Catalog: cat})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		return "http://" + ln.Addr().String(), hs
	}

	w := newWAL()
	cat := newCat(w)
	base, hs := boot(cat)

	flaky := &flakyTransport{rt: http.DefaultTransport, every: 5}
	cli := client.New(base,
		client.WithHTTPClient(&http.Client{Transport: flaky, Timeout: 30 * time.Second}),
		client.WithRetry(client.RetryPolicy{
			MaxAttempts: 5,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  10 * time.Millisecond,
			Budget:      10 * time.Second,
		}))
	ctx := context.Background()

	if _, err := cli.Create(ctx, empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}

	// Phase 1: concurrent keyed inserts through connection resets.
	const workers, perWorker = 4, 25
	var mu sync.Mutex
	acked := make(map[uint64]int64) // ES -> vt
	flaky.enable(true)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				vt := int64(1000 + g*perWorker + i)
				el, err := cli.Insert(ctx, "emp", insertReq(vt, fmt.Sprintf("w%d-%d", g, i), vt))
				if err != nil {
					t.Errorf("worker %d insert %d: %v", g, i, err)
					return
				}
				mu.Lock()
				acked[el.ES] = vt
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	flaky.enable(false)
	if t.Failed() {
		t.FailNow()
	}
	if len(acked) != workers*perWorker {
		t.Fatalf("acked %d distinct elements, want %d (duplicate ES would mean re-apply)",
			len(acked), workers*perWorker)
	}
	flaky.mu.Lock()
	drops := flaky.drops
	flaky.mu.Unlock()
	if drops == 0 {
		t.Fatal("flaky transport dropped nothing; phase 1 exercised no retries")
	}

	// One insert under a caller-chosen key, replayed immediately: the
	// wire-level dedup must return the original element verbatim.
	manual := rawKeyedInsert(t, base, "emp", "chaos-manual-1", insertReq(5000, "manual", 1))
	replayed := rawKeyedInsert(t, base, "emp", "chaos-manual-1", insertReq(5000, "manual", 1))
	if replayed.ES != manual.ES || replayed.TTStart != manual.TTStart {
		t.Fatalf("wire replay returned %+v, want original %+v", replayed, manual)
	}
	acked[manual.ES] = 5000

	q, err := cli.Current(ctx, "emp")
	if err != nil {
		t.Fatalf("Current after phase 1: %v", err)
	}
	if len(q.Elements) != len(acked) {
		t.Fatalf("server holds %d current elements, want %d acked (retries must dedup)",
			len(q.Elements), len(acked))
	}

	// Phase 2: poison the WAL at the next file operation.
	fs.FailAt(1, wal.FaultError)
	if _, err := cli.Insert(ctx, "emp", insertReq(6000, "poison", 1)); err == nil {
		t.Fatal("poisoning insert succeeded")
	}
	if _, err := cli.Insert(ctx, "emp", insertReq(6001, "after", 1)); !client.IsReadOnly(err) {
		t.Fatalf("mutation on poisoned server = %v, want typed read_only", err)
	}
	if err := cli.Delete(ctx, "emp", manual.ES); !client.IsReadOnly(err) {
		t.Fatalf("delete on poisoned server = %v, want typed read_only", err)
	}
	q, err = cli.Current(ctx, "emp")
	if err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if len(q.Elements) != len(acked) {
		t.Fatalf("degraded read sees %d elements, want %d", len(q.Elements), len(acked))
	}
	h, err := cli.Health(ctx)
	if err != nil {
		t.Fatalf("Health degraded: %v", err)
	}
	if h.Status != "degraded" || !h.ReadOnly || h.WAL == "" {
		t.Fatalf("health = %+v, want degraded read-only with cause", h)
	}
	rr, err := cli.Ready(ctx)
	if err != nil {
		t.Fatalf("Ready degraded: %v", err)
	}
	if rr.Ready || rr.Status != "degraded" {
		t.Fatalf("ready = %+v, want not-ready degraded", rr)
	}
	m, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics degraded: %v", err)
	}
	if m.Degraded == nil || !m.Degraded.ReadOnly || m.Degraded.Cause == "" {
		t.Fatalf("metrics degraded gauge = %+v, want read-only with cause", m.Degraded)
	}

	// Phase 3: restart. The ErrFS reboot drops whatever was never
	// fsynced; recovery replays the WAL alone (no snapshots were taken).
	// Close the clients' pooled keep-alive connections first so Shutdown
	// does not wait on an idle-but-marked-active conn under load.
	http.DefaultClient.CloseIdleConnections()
	if tr, ok := flaky.rt.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	fs.CrashRecover()
	w2 := newWAL()
	cat2 := newCat(w2)
	e2, err := cat2.Get("emp")
	if err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
	res, err := e2.AnswerCtx(context.Background(), plan.Query{Kind: plan.QCurrent})
	if err != nil {
		t.Fatalf("current after recovery: %v", err)
	}
	cur := res.Answer().Elements()
	if len(cur) != len(acked) {
		t.Fatalf("recovered %d current elements, want %d acked", len(cur), len(acked))
	}
	for _, el := range cur {
		vt, ok := acked[uint64(el.ES)]
		if !ok {
			t.Fatalf("recovered element %v was never acked", el.ES)
		}
		if int64(el.VT.Start()) != vt {
			t.Fatalf("element %v recovered vt %v, want %v", el.ES, el.VT.Start(), vt)
		}
	}

	// The dedup window replayed with the history: the caller-chosen key
	// still returns the original element on the rebooted server.
	base2, hs2 := boot(cat2)
	defer func() {
		shutCtx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		hs2.Shutdown(shutCtx2)
	}()
	replayed2 := rawKeyedInsert(t, base2, "emp", "chaos-manual-1", insertReq(5000, "manual", 1))
	if replayed2.ES != manual.ES || replayed2.TTStart != manual.TTStart {
		t.Fatalf("post-recovery replay returned %+v, want original %+v", replayed2, manual)
	}
	cli2 := client.New(base2)
	q2, err := cli2.Current(ctx, "emp")
	if err != nil {
		t.Fatalf("Current after recovery: %v", err)
	}
	if len(q2.Elements) != len(acked) {
		t.Fatalf("post-recovery replay grew history to %d elements, want %d",
			len(q2.Elements), len(acked))
	}
}

// TestChaosBatchRetriesThroughResets: concurrent InsertBatch calls and
// Loader flushes run through a transport that drops every third batch
// response after the server acknowledged it. Each retry carries the
// batch's one key and the same body bytes, the server answers it from its
// dedup window, and every acknowledged element is stored exactly once.
// After a crash and a restart from the log, a batch's replay still dedups.
func TestChaosBatchRetriesThroughResets(t *testing.T) {
	ctx := context.Background()
	fs := wal.NewErrFS()
	hs := bootOnLog(t, fs)
	flaky := &flakyTransport{rt: http.DefaultTransport, every: 3, suffix: "/elements:batch"}
	cli := client.New(hs.URL,
		client.WithHTTPClient(&http.Client{Transport: flaky, Timeout: 30 * time.Second}),
		client.WithRetry(client.RetryPolicy{MaxAttempts: 8, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond, Budget: 20 * time.Second}))
	if _, err := cli.Create(ctx, empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}

	const callers, calls, size = 3, 10, 64
	const loaders, perLoader = 2, 400
	want := map[string]bool{}
	name := func(who string, i int) string { return fmt.Sprintf("%s-%d", who, i) }
	for g := 0; g < callers; g++ {
		for i := 0; i < calls*size; i++ {
			want[name(fmt.Sprintf("c%d", g), i)] = true
		}
	}
	for g := 0; g < loaders; g++ {
		for i := 0; i < perLoader; i++ {
			want[name(fmt.Sprintf("l%d", g), i)] = true
		}
	}

	flaky.enable(true)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(who string) {
			defer wg.Done()
			for c := 0; c < calls; c++ {
				reqs := make([]client.InsertRequest, size)
				for i := range reqs {
					reqs[i] = insertReq(int64(c*size+i), name(who, c*size+i), 1)
				}
				res, err := cli.InsertBatch(ctx, "emp", reqs, false)
				if err != nil || res.Stored+res.Deduped != size || res.Stored != 0 && res.Deduped != 0 {
					t.Errorf("%s batch %d: %d stored, %d deduped, %v", who, c, res.Stored, res.Deduped, err)
					return
				}
			}
		}(fmt.Sprintf("c%d", g))
	}
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func(who string) {
			defer wg.Done()
			l := cli.NewLoader("emp", client.LoaderConfig{BatchSize: 50})
			for i := 0; i < perLoader; i++ {
				if err := l.Add(ctx, insertReq(int64(i), name(who, i), 2)); err != nil {
					t.Errorf("%s add %d: %v", who, i, err)
				}
			}
			if err := l.Close(); err != nil {
				t.Errorf("%s: %v", who, err)
			}
			if st := l.Stats(); st.Stored+st.Deduped != perLoader || st.Failed != 0 {
				t.Errorf("%s: %+v", who, st)
			}
		}(fmt.Sprintf("l%d", g))
	}
	wg.Wait()
	flaky.enable(false)
	if t.Failed() {
		t.FailNow()
	}
	flaky.mu.Lock()
	drops := flaky.drops
	flaky.mu.Unlock()
	if drops == 0 {
		t.Fatal("the flaky transport dropped no batch response: nothing was retried")
	}

	// One batch under a key of the test's own, posted and replayed raw.
	raw, err := wire.BatchInsertRequest{Elements: []wire.InsertRequest{insertReq(9000, "raw-0", 3), insertReq(9001, "raw-1", 3)}}.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if code, rep := postBatch(t, hs.URL, "emp", "chaos-batch", raw); code != http.StatusCreated || rep.Stored != 2 {
		t.Fatalf("raw batch: %d, %d stored", code, rep.Stored)
	}
	want["raw-0"], want["raw-1"] = true, true

	exactlyOnce := func(route, base string) {
		t.Helper()
		q, err := client.New(base).Current(ctx, "emp")
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		seen := map[string]int{}
		for _, el := range q.Elements {
			seen[el.Invariant[0].Str]++
		}
		for n, k := range seen {
			if k != 1 || !want[n] {
				t.Fatalf("%s: %q stored %d times (acknowledged: %v)", route, n, k, want[n])
			}
		}
		if len(seen) != len(want) {
			t.Fatalf("%s: %d elements stored, %d acknowledged", route, len(seen), len(want))
		}
	}
	exactlyOnce("live", hs.URL)

	hs.Close()
	http.DefaultClient.CloseIdleConnections()
	fs.CrashRecover()
	base := bootOnLog(t, fs).URL
	exactlyOnce("restarted", base)
	if code, rep := postBatch(t, base, "emp", "chaos-batch", raw); code != http.StatusOK || rep.Deduped != 2 {
		t.Fatalf("the raw batch replayed after the restart: %d, %d deduped, %d stored", code, rep.Deduped, rep.Stored)
	}
	exactlyOnce("restarted, after the replay", base)
}
