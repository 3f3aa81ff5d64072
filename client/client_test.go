package client_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
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
