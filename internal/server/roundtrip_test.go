package server_test

// What one request costs between the socket and the catalog: the
// loopback round-trip benchmark (`make bench-smoke`) and the allocation
// budget of the wrapper around a handler that itself does almost nothing.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/integrity"
	"repro/internal/server"
	"repro/internal/tx"
	"repro/internal/wal"
)

// roundTripServer is tsdbd's stack as the benchmark's server child wires
// it — group-commit WAL, Merkle tree, signer, result cache — over an
// in-memory log, so no disk is in the measurement.
func roundTripServer(tb testing.TB) *server.Server {
	tb.Helper()
	w, err := wal.Open(wal.Options{FS: wal.NewErrFS(), Sync: wal.SyncGroup})
	if err != nil {
		tb.Fatalf("wal.Open: %v", err)
	}
	signer, err := integrity.NewSigner(bytes.Repeat([]byte{7}, 32))
	if err != nil {
		tb.Fatalf("NewSigner: %v", err)
	}
	cat := catalog.New(catalog.Config{
		NewClock:   func() tx.Clock { return tx.NewLogicalClock(0, 1) },
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
	return server.New(server.Config{Catalog: cat})
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
// and a 1000-element read (≈ 90 KB body — what copying a body costs).
func BenchmarkServeRoundTrip(b *testing.B) {
	h := roundTripServer(b).Handler()
	serveOnce(b, h, "/v1/relations", fmt.Sprintf(createEvent, "r"), http.StatusCreated)
	serveOnce(b, h, "/v1/relations", fmt.Sprintf(createEvent, "w"), http.StatusCreated)
	for i := 0; i < 1000; i++ {
		serveOnce(b, h, "/v1/relations/r/insert", insertBody(i), http.StatusCreated)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	b.Cleanup(func() { _ = hs.Close() })
	base := "http://" + ln.Addr().String()
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
}

// TestRequestAllocationBudget pins what the envelope around a handler
// allocates: one POST …/query answered from the result cache, through
// srv.Handler(), into a writer that keeps nothing. The handler's own share
// (decode, cache lookup, encode into the pooled buffer) is the same on
// both sides; the rest is the deadline wrapper (deadline.go: a context, a
// request copy, a timer, the writer and its header map). Under
// http.TimeoutHandler — a goroutine, a channel, a header map and an
// unpooled bytes.Buffer grown to the body — this read 31 (32–33 under
// -race, where sync.Pool drops items); it reads 25 (26) now.
func TestRequestAllocationBudget(t *testing.T) {
	h := roundTripServer(t).Handler()
	serveOnce(t, h, "/v1/relations", fmt.Sprintf(createEvent, "r"), http.StatusCreated)
	for i := 0; i < 64; i++ {
		serveOnce(t, h, "/v1/relations/r/insert", insertBody(i), http.StatusCreated)
	}
	const q = `{"kind":"current"}`
	serveOnce(t, h, "/v1/relations/r/query", q, http.StatusOK) // fills the cache

	body := strings.NewReader(q)
	r, err := http.NewRequest(http.MethodPost, "/v1/relations/r/query", body)
	if err != nil {
		t.Fatal(err)
	}
	w := &sinkWriter{h: make(http.Header)}
	allocs := testing.AllocsPerRun(200, func() {
		body.Reset(q)
		clear(w.h)
		w.status, w.n = 0, 0
		h.ServeHTTP(w, r)
	})
	if w.status != http.StatusOK || w.n == 0 {
		t.Fatalf("status %d, %d body bytes", w.status, w.n)
	}
	t.Logf("%.0f allocations per cache-hit query", allocs)
	const budget = 27
	if allocs > budget {
		t.Errorf("a cache-hit query allocates %.0f times through the wrapper, budget %d", allocs, budget)
	}
}
