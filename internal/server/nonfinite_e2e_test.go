package server_test

// A non-finite float is the one value the protocol cannot carry: JSON
// has no spelling for it. The CSV loader used to take strconv's word
// that "NaN" is a float, journal it and acknowledge it — after which
// every query returning that element failed to encode, forever. These
// tests pin both ends: the row is refused at ingest, and a non-finite
// float that is already in a store (embedded callers reach the catalog
// directly) costs the queries that touch it a typed 500, nothing else.

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/tx"
)

func gaugeSchema(name string) client.Schema {
	return client.Schema{
		Name: name, ValidTime: "event", Granularity: 1,
		Invariant: []client.Column{{Name: "id", Type: "string"}},
		Varying:   []client.Column{{Name: "reading", Type: "float"}},
	}
}

func TestIngestCSVRefusesNonFiniteFloats(t *testing.T) {
	ctx := context.Background()
	cli, stop := bootServer(t, t.TempDir())
	defer stop()
	if _, err := cli.Create(ctx, gaugeSchema("gauge")); err != nil {
		t.Fatalf("Create: %v", err)
	}
	res, err := cli.IngestCSV(ctx, "gauge", strings.NewReader(
		"vt,id,reading\n1,a,1.5\n2,b,NaN\n3,c,Inf\n4,d,+Infinity\n5,e,-inf\n6,f,1e400\n7,g,-2.25\n"))
	if err != nil {
		t.Fatalf("IngestCSV: %v", err)
	}
	if res.Stored != 2 || res.ErrorCount != 5 {
		t.Fatalf("stored %d with %d errors %v; want 2 stored, 5 refused", res.Stored, res.ErrorCount, res.Errors)
	}
	for i, line := range []string{"line 3", "line 4", "line 5", "line 6", "line 7"} {
		if !strings.Contains(res.Errors[i], line) || !strings.Contains(res.Errors[i], "bad float") {
			t.Errorf("error %d = %q, want a bad float on %s", i, res.Errors[i], line)
		}
	}
	q, err := cli.Current(ctx, "gauge")
	if err != nil || len(q.Elements) != 2 || q.Elements[1].Varying[0].Float != -2.25 {
		t.Fatalf("Current = %+v, %v; want the two finite rows", q.Elements, err)
	}
}

func TestStoredNonFiniteFloatIsATyped500(t *testing.T) {
	ctx := context.Background()
	cat := catalog.New(catalog.Config{NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }})
	srv := server.New(server.Config{Catalog: cat})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	cli := client.New(base)

	for _, name := range []string{"poisoned", "clean"} {
		if _, err := cli.Create(ctx, gaugeSchema(name)); err != nil {
			t.Fatalf("Create %s: %v", name, err)
		}
		if _, err := cli.Insert(ctx, name, client.InsertRequest{VT: client.EventAt(1),
			Invariant: []client.Value{client.String("a")}, Varying: []client.Value{client.Float(1.5)}}); err != nil {
			t.Fatalf("Insert %s: %v", name, err)
		}
	}
	e, err := cat.Get("poisoned")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(2),
		Invariant: []element.Value{element.String_("b")}, Varying: []element.Value{element.Float(math.NaN())}}, ""); err != nil {
		t.Fatalf("direct insert of NaN: %v", err)
	}

	// The raw response: a JSON error envelope under a JSON content type.
	resp, err := http.Post(base+"/v1/relations/poisoned/query", "application/json", strings.NewReader(`{"kind":"current"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("Content-Type") != "application/json" ||
		string(body) != `{"error":{"code":"internal","message":"response encoding failed"}}`+"\n" {
		t.Fatalf("query over a stored NaN: %d %s %q", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	// Through the client it is a typed error, for both shapes that carry it.
	var ae *client.APIError
	if _, err := cli.Current(ctx, "poisoned"); !errors.As(err, &ae) || ae.Code != client.CodeInternal || ae.Status != 500 {
		t.Fatalf("Current(poisoned) = %v, want a typed internal error", err)
	}
	if _, err := cli.Select(ctx, "select id, reading from poisoned"); !errors.As(err, &ae) || ae.Code != client.CodeInternal {
		t.Fatalf("Select(poisoned) = %v, want a typed internal error", err)
	}
	// Results that do not contain the element, and the rest of the
	// server, are untouched.
	if q, err := cli.Timeslice(ctx, "poisoned", 1); err != nil || len(q.Elements) != 1 {
		t.Fatalf("Timeslice(poisoned, 1) = %+v, %v", q.Elements, err)
	}
	if q, err := cli.Current(ctx, "clean"); err != nil || len(q.Elements) != 1 {
		t.Fatalf("Current(clean) = %+v, %v", q.Elements, err)
	}
	m, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ep := m.Endpoints["query"]; ep.Errors != 2 || ep.Requests != 4 || ep.RespBytes == 0 {
		t.Fatalf("query endpoint metrics = %+v, want both failed encodings counted in 4 requests, and the bytes written", ep)
	}
}
