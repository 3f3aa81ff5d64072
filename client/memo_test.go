package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"repro/client"
	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
	"repro/internal/wire"
)

// ledger creates an interval relation of n elements on cli, every one valid
// over [0, 1000) and some of them closed, with a string, an int and a user
// time each, the way tsbench's large ledger time-slices look.
func ledger(t *testing.T, cli *client.Client, n int) {
	t.Helper()
	ctx := context.Background()
	if _, err := cli.Create(ctx, client.Schema{Name: "led", ValidTime: "interval", Granularity: 1,
		Invariant: []client.Column{{Name: "id", Type: "string"}}, Varying: []client.Column{{Name: "v", Type: "int"}},
		UserTimes: []string{"seen"}}); err != nil {
		t.Fatal(err)
	}
	reqs := make([]client.InsertRequest, n)
	for i := range reqs {
		reqs[i] = client.InsertRequest{VT: client.SpanOf(int64(i%7), 1000), Invariant: []client.Value{client.String("a<" + strconv.Itoa(i))},
			Varying: []client.Value{client.Int(int64(i))}, UserTimes: []int64{int64(-i)}}
	}
	batch, err := cli.InsertBatch(ctx, "led", reqs, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 5 {
		if _, err := cli.Modify(ctx, "led", batch.Items[i].Element.ES, client.SpanOf(1, 900), []client.Value{client.Int(-1)}); err != nil {
			t.Fatal(err)
		}
	}
}

// scribble changes what an answer's elements hold, through every pointer
// and slice they have.
func scribble(els []client.Element) {
	for i := range els {
		e := &els[i]
		e.ES++
		for _, p := range []*int64{e.VT.Event, e.VT.Start, e.VT.End} {
			if p != nil {
				*p = -*p - 1
			}
		}
		for _, vs := range [][]client.Value{e.Invariant, e.Varying} {
			for j := range vs {
				vs[j] = client.String("scribbled")
			}
		}
		for j := range e.UserTimes {
			e.UserTimes[j]++
		}
	}
}

// TestNotModifiedIsTheServersAnswer: what a caller does to an answer
// QueryCached or SelectCached returned — fetched or revalidated — does not
// reach the next 304's answer, which is the body the server would send.
func TestNotModifiedIsTheServersAnswer(t *testing.T) {
	ctx := context.Background()
	cli := newTestClient(t)
	ledger(t, cli, 40)
	req := client.QueryRequest{Kind: client.QueryTimeslice, VT: 500}
	const stmt = "SELECT id, v FROM led"
	// A client with nothing cached asks the same: the server's answers.
	fresh := func() (client.QueryResponse, client.SelectResponse) {
		other := client.New(cli.BaseURL())
		q, err := other.QueryCached(ctx, "led", req)
		if err != nil || q.NotModified {
			t.Fatalf("a fresh client: not modified %v, %v", q.NotModified, err)
		}
		s, err := other.SelectCached(ctx, "led", stmt)
		if err != nil || s.NotModified {
			t.Fatalf("a fresh client: not modified %v, %v", s.NotModified, err)
		}
		return q.QueryResponse, s.SelectResponse
	}
	wantQ, wantS := fresh()
	if len(wantQ.Elements) != 40 || len(wantS.Rows) != 40 {
		t.Fatalf("the server answers %d elements and %d rows, want 40 and 40", len(wantQ.Elements), len(wantS.Rows))
	}
	for pass := 0; pass < 3; pass++ {
		q, err := cli.QueryCached(ctx, "led", req)
		if err != nil || q.NotModified != (pass > 0) {
			t.Fatalf("pass %d: not modified %v, %v", pass, q.NotModified, err)
		}
		if !reflect.DeepEqual(q.QueryResponse, wantQ) {
			t.Fatalf("pass %d: the query answer is not the server's", pass)
		}
		s, err := cli.SelectCached(ctx, "led", stmt)
		if err != nil || s.NotModified != (pass > 0) {
			t.Fatalf("pass %d: select not modified %v, %v", pass, s.NotModified, err)
		}
		if !reflect.DeepEqual(s.SelectResponse, wantS) {
			t.Fatalf("pass %d: the select answer is not the server's", pass)
		}
		scribble(q.Elements)
		q.Elements[0] = client.Element{}
		q.PlanNode.Est++
		for _, row := range s.Rows {
			for j := range row {
				row[j] = client.Int(-9)
			}
		}
		s.Columns[0] = "scribbled"
		s.Plan.Kind = "scribbled"
	}
	if q, s := fresh(); !reflect.DeepEqual(q, wantQ) || !reflect.DeepEqual(s, wantS) {
		t.Fatalf("the server's answers changed")
	}
}

// TestConcurrentQueriesShareNoMemory: callers of one client asking the same
// time-slices at once, through the memo and through the conditional cache,
// each get the server's answer in memory of their own — they scribble over
// it, and -race and the next answers would see it if it were shared.
func TestConcurrentQueriesShareNoMemory(t *testing.T) {
	ctx := context.Background()
	cli := newTestClient(t)
	ledger(t, cli, 120)
	vts := []int64{0, 3, 6, 500, 950}
	want := make([]client.QueryResponse, len(vts))
	for i, vt := range vts {
		// The reference decode: encoding/json, no memo.
		body, _ := json.Marshal(client.QueryRequest{Kind: client.QueryTimeslice, VT: vt})
		resp, err := http.Post(cli.BaseURL()+"/v1/relations/led/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&want[i])
		resp.Body.Close()
		if err != nil || len(want[i].Elements) == 0 {
			t.Fatalf("vt %d: %d elements, %v", vt, len(want[i].Elements), err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (g + k) % len(vts)
				var got client.QueryResponse
				if k%2 == 0 {
					r, err := cli.QueryCached(ctx, "led", client.QueryRequest{Kind: client.QueryTimeslice, VT: vts[i]})
					if err != nil {
						errs <- err.Error()
						return
					}
					got = r.QueryResponse
				} else {
					var err error
					if got, err = cli.Timeslice(ctx, "led", vts[i]); err != nil {
						errs <- err.Error()
						return
					}
				}
				if !reflect.DeepEqual(got.Elements, want[i].Elements) {
					errs <- "caller " + strconv.Itoa(g) + " got another answer at vt " + strconv.FormatInt(vts[i], 10)
					return
				}
				scribble(got.Elements)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if s := cli.MemoStats(); s.Reused == 0 || s.Parsed == 0 {
		t.Errorf("memo counters %+v: the answers repeat elements", s)
	}
}

// TestElementMemoIsBounded: a client reading many large answers of
// elements it never saw before keeps its memo within elementMemoBytes, and
// still copies the answer it reads all along.
func TestElementMemoIsBounded(t *testing.T) {
	const n = 2000
	doc := func(base int) []byte {
		els := make([]*element.Element, n)
		for i := range els {
			els[i] = &element.Element{ES: surrogate.Surrogate(base + i), OS: surrogate.Surrogate(i), TTStart: chronon.Chronon(base + i),
				TTEnd: chronon.Forever, VT: element.SpanOf(0, 1000),
				Invariant: []element.Value{element.String_("ledger entry " + strconv.Itoa(i))}, Varying: []element.Value{element.Int(int64(i))}}
		}
		b, err := json.Marshal(wire.QueryResponse{Elements: wire.FromElements(els), Touched: n})
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	hot := doc(0)
	var next int
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/relations/hot/query" {
			w.Write(hot)
			return
		}
		next += n
		w.Write(doc(next))
	}))
	defer hs.Close()
	cli := client.New(hs.URL)
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		for _, rel := range []string{"cold", "hot"} {
			if r, err := cli.Current(ctx, rel); err != nil || len(r.Elements) != n {
				t.Fatalf("%s: %d elements, %v", rel, len(r.Elements), err)
			}
		}
		if s := cli.MemoStats(); s.Bytes > client.ElementMemoBytes {
			t.Fatalf("after %d distinct answers of %d elements the memo holds %d bytes, bound %d", i+1, n, s.Bytes, client.ElementMemoBytes)
		}
	}
	s := cli.MemoStats()
	if s.Parsed < 60*n || s.Reused < 50*n {
		t.Errorf("%d parsed, %d copied: want the distinct answers parsed and the hot one copied", s.Parsed, s.Reused)
	}
	t.Logf("%+v", s)
}

// TestClientMemoIsPerRelation: a client reading two relations whose
// elements share surrogate numbers — each relation issues its own — in
// turn, by Query and by QueryCached, copies every element of either answer
// from its memo from the second round on and parses none.
func TestClientMemoIsPerRelation(t *testing.T) {
	ctx := context.Background()
	cli := newTestClient(t)
	for _, rel := range []string{"a", "b"} {
		if _, err := cli.Create(ctx, client.Schema{Name: rel, ValidTime: "event", Granularity: 1,
			Varying: []client.Column{{Name: "v", Type: "string"}}}); err != nil {
			t.Fatal(err)
		}
		reqs := make([]client.InsertRequest, 300)
		for i := range reqs {
			reqs[i] = client.InsertRequest{VT: client.EventAt(int64(i)), Varying: []client.Value{client.String(rel + strconv.Itoa(i))}}
		}
		if _, err := cli.InsertBatch(ctx, rel, reqs, true); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		before := cli.MemoStats()
		for _, rel := range []string{"a", "b"} {
			if q, err := cli.Current(ctx, rel); err != nil || len(q.Elements) != 300 || q.Elements[7].Varying[0].Str != rel+"7" {
				t.Fatalf("round %d: current of %s: %v", round, rel, err)
			}
			// A new path each round: the conditional cache answers nothing.
			if q, err := cli.QueryCached(ctx, rel, client.QueryRequest{Kind: client.QueryRollback, TT: 1<<40 + int64(round)}); err != nil || len(q.Elements) != 300 {
				t.Fatalf("round %d: rollback of %s: %v", round, rel, err)
			}
		}
		if s := cli.MemoStats(); round > 0 && (s.Parsed != before.Parsed || s.Reused-before.Reused != 4*300) {
			t.Fatalf("round %d: %d parsed and %d copied of four answers of 300", round, s.Parsed-before.Parsed, s.Reused-before.Reused)
		}
	}
}
