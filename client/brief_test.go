package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/server"
	"repro/internal/tx"
	"repro/internal/wire"
)

// twinServers is two servers with the same logical clocks, kept in lockstep
// by a proxy in front of the first: every request the typed client sends is
// served by the second too, a batch as the bytes a client that does not ask
// for a brief report would send — the same elements, under the same key.
// replay, when set, has the proxy serve each batch to both once more, as
// replayWhole the same request before it and drop the answers, as a retry
// after a lost response would, or as replayPrefix its first prefixLen
// elements under the same key after it, keeping the answers in prefix;
// whole is the second server's answer to the last batch. briefItems and
// wholeItems count the first server's stored items that came back brief
// and whole.
type twinServers struct {
	url  string
	a, b http.Handler

	mu                     sync.Mutex
	replay                 int
	prefix                 [2]*httptest.ResponseRecorder
	whole                  *httptest.ResponseRecorder
	wholeSum               [3]int // stored, deduped, rejected over every batch the second server answered
	briefItems, wholeItems int
}

const (
	replayWhole = 1 + iota
	replayPrefix
	prefixLen = 9
)

func newTwinServers(t *testing.T) *twinServers {
	t.Helper()
	handler := func() http.Handler {
		cat := catalog.New(catalog.Config{NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }})
		return server.New(server.Config{Catalog: cat}).Handler()
	}
	a, b := handler(), handler()
	tw := &twinServers{a: a, b: b}
	serve := func(h http.Handler, r *http.Request, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(r.Method, r.URL.String(), bytes.NewReader(body))
		req.Header = r.Header.Clone()
		h.ServeHTTP(rec, req)
		return rec
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw.mu.Lock()
		defer tw.mu.Unlock()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		mirror := body
		batch := strings.HasSuffix(r.URL.Path, "/elements:batch")
		var req, plain wire.BatchInsertRequest
		if batch {
			if err := json.Unmarshal(body, &req); err != nil || !req.Brief || req.Keys != nil || r.Header.Get(wire.HeaderIdempotencyKey) == "" {
				t.Errorf("the typed client's batch %s: brief %v, keys %v, key %q, %v", body, req.Brief, req.Keys, r.Header.Get(wire.HeaderIdempotencyKey), err)
			}
			plain = req
			plain.Brief = false
			mirror, _ = plain.AppendJSON(nil)
			if tw.replay == replayWhole {
				serve(a, r, body)
				serve(b, r, mirror)
			}
			tw.whole = serve(b, r, mirror)
			var rep wire.BatchInsertResponse
			if json.Unmarshal(tw.whole.Body.Bytes(), &rep) == nil {
				tw.wholeSum[0] += rep.Stored
				tw.wholeSum[1] += rep.Deduped
				tw.wholeSum[2] += rep.Rejected
			}
		} else {
			serve(b, r, mirror)
		}
		rec := serve(a, r, body)
		if batch && tw.replay == replayPrefix {
			head := func(r wire.BatchInsertRequest) []byte {
				r.Elements = r.Elements[:min(prefixLen, len(r.Elements))]
				doc, _ := r.AppendJSON(nil)
				return doc
			}
			tw.prefix = [2]*httptest.ResponseRecorder{serve(a, r, head(req)), serve(b, r, head(plain))}
		}
		tw.briefItems += strings.Count(rec.Body.String(), `{"status":"stored","assigned":`)
		tw.wholeItems += strings.Count(rec.Body.String(), `{"status":"stored","element":`)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(hs.Close)
	tw.url = hs.URL
	return tw
}

// lastWhole is the second server's answer to the last batch, decoded as the
// typed client decodes it, or the error it answered with.
func (tw *twinServers) lastWhole(t *testing.T) (wire.BatchInsertResponse, *client.APIError) {
	t.Helper()
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.whole.Code >= 300 {
		var eb wire.ErrorBody
		if err := json.Unmarshal(tw.whole.Body.Bytes(), &eb); err != nil {
			t.Fatal(err)
		}
		return wire.BatchInsertResponse{}, &client.APIError{Status: tw.whole.Code, Code: eb.Error.Code, Message: eb.Error.Message}
	}
	var out wire.BatchInsertResponse
	if err := out.ParseJSON(tw.whole.Body.Bytes()); err != nil {
		t.Fatalf("whole report: %v\n%s", err, tw.whole.Body)
	}
	return out, nil
}

// briefSweep is the batches of the differential: every value kind, with its
// zero value, -0, payloads the kind does not name, strings the encoder
// escapes and invalid UTF-8; event and interval stamps, some off the
// granularity's grid; an explicit object; user times; and, every fourth
// element, one a relation rejects (a value of the wrong kind).
func briefSweep(interval bool, at int64) []client.InsertRequest {
	strs := []string{"", "plain", "<a href=\"x\">&amp; é\t\x01\u2028</a>", "bad\xffutf\xc0\xaf8 \ufffd \xed\xa0\x80", `q"uote\`}
	ints := []client.Value{client.Int(0), client.Int(-1), client.Int(math.MaxInt64), {Kind: "int", Str: "junk", Float: 2, Bool: true, Time: 4, Int: 7}}
	floats := []client.Value{client.Float(math.Copysign(0, -1)), client.Float(0), client.Float(1e-7), client.Float(123456789012345678901234), {Kind: "float", Int: 3}}
	var reqs []client.InsertRequest
	for i := 0; i < 24; i++ {
		vt := at + int64(i)*37 // on a minute's grid every 60/gcd(37,60)-th time
		r := client.InsertRequest{VT: client.EventAt(vt),
			Invariant: []client.Value{client.String(strs[i%len(strs)])},
			Varying: []client.Value{ints[i%len(ints)], floats[i%len(floats)], client.Bool(i%3 == 0),
				client.Time(int64(i % 2)), {Kind: []string{"", "null", "string"}[i%3], Str: strs[(i+1)%len(strs)]}},
			UserTimes: []int64{int64(-i)},
		}
		if interval {
			r.VT = client.SpanOf(vt, vt+1+int64(i%5)*30)
		}
		if i%5 == 1 {
			r.Object = 1
		}
		if i%4 == 3 {
			r.Varying[0] = client.String("not an int")
		}
		if i%7 == 6 {
			r.Invariant = []client.Value{{Kind: ""}}
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// mutate changes every part of reqs a completed report could share.
func mutate(reqs []client.InsertRequest) {
	for i := range reqs {
		q := &reqs[i]
		for _, p := range []*int64{q.VT.Event, q.VT.Start, q.VT.End} {
			if p != nil {
				*p = -42
			}
		}
		for _, vs := range [][]client.Value{q.Invariant, q.Varying} {
			for j := range vs {
				vs[j] = client.String("changed")
			}
		}
		for j := range q.UserTimes {
			q.UserTimes[j] = -42
		}
	}
}

// floatBits lists every float of a report's elements to the bit, which
// reflect.DeepEqual does not compare (0 == -0).
func floatBits(r client.BatchInsertResponse) (out []uint64) {
	for _, it := range r.Items {
		if it.Element != nil {
			for _, v := range append(append([]client.Value(nil), it.Element.Invariant...), it.Element.Varying...) {
				out = append(out, math.Float64bits(v.Float))
			}
		}
	}
	return out
}

// TestBriefReportIsTheWholeReport: what InsertBatch returns — from a brief
// report, completed from the request — is field for field what a client
// that does not ask decodes from the whole report of the same batch, on a
// twin server: stored, deduped and rejected items, atomic and not, on
// event and interval relations of granularity 1 and 60 (a truncated valid
// time comes back whole), every value kind. Changing the request after the
// call changes nothing. client.Loader then runs through the same sweep,
// and both servers end up holding the same elements.
func TestBriefReportIsTheWholeReport(t *testing.T) {
	ctx := context.Background()
	tw := newTwinServers(t)
	cli := client.New(tw.url)
	cols := []client.Column{{Name: "n", Type: "int"}, {Name: "f", Type: "float"}, {Name: "ok", Type: "bool"}, {Name: "at", Type: "time"}, {Name: "s", Type: "string"}}
	type rel struct {
		name     string
		interval bool
	}
	var rels []rel
	for _, g := range []int64{1, 60} {
		for _, stamp := range []string{"event", "interval"} {
			r := rel{name: stamp + "_" + map[int64]string{1: "second", 60: "minute"}[g], interval: stamp == "interval"}
			if _, err := cli.Create(ctx, client.Schema{Name: r.name, ValidTime: stamp, Granularity: g,
				Invariant: []client.Column{{Name: "name", Type: "string"}}, Varying: cols, UserTimes: []string{"seen"}}); err != nil {
				t.Fatal(err)
			}
			rels = append(rels, r)
		}
	}
	// check sends one batch and returns the twin's whole report of it.
	check := func(rel, what string, reqs []client.InsertRequest, atomic bool) client.BatchInsertResponse {
		t.Helper()
		what = rel + " " + what
		got, err := cli.InsertBatch(ctx, rel, reqs, atomic)
		want, werr := tw.lastWhole(t)
		if werr != nil || err != nil {
			var ae *client.APIError
			if !asAPIError(err, &ae) || werr == nil || ae.Status != werr.Status || ae.Code != werr.Code || ae.Message != werr.Message {
				t.Fatalf("%s: typed client %v, twin %v", what, err, werr)
			}
			return want
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(floatBits(got), floatBits(want)) {
			t.Fatalf("%s:\n typed client %+v\n whole report %+v", what, got, want)
		}
		kept, _ := json.Marshal(got)
		mutate(reqs)
		if again, _ := json.Marshal(got); !bytes.Equal(again, kept) {
			t.Fatalf("%s: changing the request changed the answer", what)
		}
		return want
	}
	at := int64(1_000_000)
	for _, r := range rels {
		for _, atomic := range []bool{false, true} {
			reqs := briefSweep(r.interval, at)
			if atomic { // an atomic batch with a rejection fails whole; one without one stores
				if rep := check(r.name, "atomic with a rejection", reqs, true); rep.Items != nil {
					t.Fatalf("%s: an atomic batch with rejections was stored", r.name)
				}
				reqs = briefSweep(r.interval, at)
				for i := 3; i < len(reqs); i += 4 {
					reqs[i].Varying[0] = client.Int(int64(i))
				}
			}
			check(r.name, "batch", reqs, atomic)
			at += 10_000
		}
		// Replayed whole under the batch's key: every item the original
		// stored comes back deduped with its element, every other rejected,
		// and nothing more is stored. A prefix of a batch under its key is
		// refused whole.
		current := func() int {
			q, err := cli.Current(ctx, r.name)
			if err != nil {
				t.Fatal(err)
			}
			return len(q.Elements)
		}
		tw.mu.Lock()
		tw.replay = replayWhole
		tw.mu.Unlock()
		before := current()
		rep := check(r.name, "replayed", briefSweep(r.interval, at), false)
		if rep.Stored != 0 || rep.Deduped == 0 || rep.Rejected == 0 || current() != before+rep.Deduped {
			t.Fatalf("%s replayed: %d stored, %d deduped, %d rejected; %d elements current, %d before", r.name, rep.Stored, rep.Deduped, rep.Rejected, current(), before)
		}
		for i, it := range rep.Items {
			if it.Status == "rejected" && !strings.Contains(it.Error, "not stored when this batch was first applied") {
				t.Fatalf("%s replayed: item %d rejected for %q", r.name, i, it.Error)
			}
		}
		at += 10_000
		tw.mu.Lock()
		tw.replay = replayPrefix
		tw.mu.Unlock()
		before = current()
		rep = check(r.name, "followed by a prefix", briefSweep(r.interval, at), false)
		tw.mu.Lock()
		tw.replay = 0
		prefix := tw.prefix
		tw.mu.Unlock()
		for _, rec := range prefix {
			if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), `"code":"conflict"`) {
				t.Fatalf("%s: a prefix under the batch's key answered %d %s", r.name, rec.Code, rec.Body)
			}
		}
		if rep.Stored == 0 || current() != before+rep.Stored {
			t.Fatalf("%s: the batch stored %d, and %d elements are current where %d were", r.name, rep.Stored, current(), before)
		}
		at += 10_000
	}
	tw.mu.Lock()
	briefItems, wholeItems := tw.briefItems, tw.wholeItems
	tw.mu.Unlock()
	if briefItems == 0 || wholeItems == 0 {
		t.Fatalf("the sweep's reports held %d brief and %d whole stored items: it tests nothing", briefItems, wholeItems)
	}

	// The loader through the same sweep, its batches mirrored the same way.
	tw.mu.Lock()
	before := tw.wholeSum
	tw.mu.Unlock()
	for _, r := range rels {
		l := cli.NewLoader(r.name, client.LoaderConfig{BatchSize: 10})
		for _, req := range briefSweep(r.interval, at) {
			if err := l.Add(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		st := l.Stats()
		tw.mu.Lock()
		got := [3]int{int(st.Stored), int(st.Deduped), int(st.Rejected)}
		want := [3]int{tw.wholeSum[0] - before[0], tw.wholeSum[1] - before[1], tw.wholeSum[2] - before[2]}
		before = tw.wholeSum
		tw.mu.Unlock()
		if got != want || st.Stored == 0 || st.Rejected == 0 {
			t.Fatalf("loader into %s: stored, deduped, rejected %v; the twin's %v", r.name, got, want)
		}
		query := func(h http.Handler) string {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/relations/"+r.name+"/query", strings.NewReader(`{"kind":"current"}`)))
			return rec.Body.String()
		}
		if a, b := query(tw.a), query(tw.b); a != b {
			t.Fatalf("%s holds other elements on the two servers:\n%s\n%s", r.name, a, b)
		}
	}
}

// batchRequests is a 256-element batch shaped like the round-trip
// benchmark's: interval stamps, one string and one int attribute.
func batchRequests() []client.InsertRequest {
	reqs := make([]client.InsertRequest, 256)
	for i := range reqs {
		reqs[i] = client.InsertRequest{VT: client.SpanOf(1700000000+int64(i), 1700003600+int64(i)),
			Invariant: []client.Value{client.String("s1")}, Varying: []client.Value{client.Int(int64(i) * 37)}}
	}
	return reqs
}

// briefStub answers every batch with the brief report of a 256-element
// batch, every item stored, having read the request whole: a server whose
// own share of a round trip is net/http's.
func briefStub(t *testing.T) string {
	t.Helper()
	var report bytes.Buffer
	report.WriteString(`{"items":[`)
	for i := 0; i < 256; i++ {
		if i > 0 {
			report.WriteByte(',')
		}
		fmt.Fprintf(&report, `{"status":"stored","assigned":{"es":%d,"os":%d,"tt_start":%d}}`, i+1, i+1, 1700000000+i)
	}
	report.WriteString(`],"stored":256,"deduped":0,"rejected":0,"epoch":9}` + "\n")
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		w.Write(report.Bytes())
	}))
	t.Cleanup(hs.Close)
	return hs.URL
}

// roundTripCost is what one InsertBatch of reqs allocates, in bytes and
// objects, averaged over a run of calls after a warm-up. Under -race
// sync.Pool drops a quarter of what is put back, at random, so the run is
// four times as long there for the same spread.
func roundTripCost(t *testing.T, cli *client.Client, reqs []client.InsertRequest) (bytesPer, objectsPer uint64) {
	t.Helper()
	warm, runs := 20, uint64(100)
	if raceEnabled {
		runs *= 4
	}
	call := func() {
		out, err := cli.InsertBatch(context.Background(), "led", reqs, true)
		if err != nil || out.Stored != len(reqs) || out.Items[len(reqs)-1].Element == nil {
			t.Fatalf("InsertBatch: %v", err)
		}
	}
	for i := 0; i < warm; i++ {
		call()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(0); i < runs; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs, (after.Mallocs - before.Mallocs) / runs
}

// TestInsertBatchAllocationBudget pins the typed client's share of a
// 256-element InsertBatch round trip — the request's bytes, the
// transport, the brief report read and completed into 256 elements —
// against a server that answers with a canned brief report and does
// nothing else (its own share is net/http's, a few KB). Beside it the same
// client on http.DefaultTransport, whose 4 KiB write buffer hands the rest
// of the ≈ 32 KB body to the connection's ReadFrom, which copies it
// through a fresh buffer of that rest's length, at most 32 KiB, per
// request.
func TestInsertBatchAllocationBudget(t *testing.T) {
	url, reqs := briefStub(t), batchRequests()
	bytesPer, objectsPer := roundTripCost(t, client.New(url), reqs)
	dBytes, dObjects := roundTripCost(t, client.New(url, client.WithHTTPClient(&http.Client{Transport: http.DefaultTransport})), reqs)
	t.Logf("a 256-element InsertBatch allocates %d B in %d objects; on http.DefaultTransport %d B in %d", bytesPer, objectsPer, dBytes, dObjects)
	// ≈ 149 KB in 117 objects: the completed elements ≈ 76 KB, the request
	// body's buffer ≈ 39 KB, the parsed items ≈ 18 KB. The whole report
	// read ≈ 102 KB where the brief one and its completion read ≈ 97 KB,
	// and the default transport ≈ 28 KB more. A key per element cost
	// ≈ 34 KB more: ≈ 25 KB to mint them and ≈ 9 KB of body to carry them
	// (183 KB in 121, and a full 32 KiB copy buffer on the default
	// transport).
	byteBudget, objectBudget := uint64(168<<10), uint64(136)
	if raceEnabled { // ≈ 215 KB in 127 objects
		byteBudget, objectBudget = 256<<10, 152
	}
	if bytesPer > byteBudget || objectsPer > objectBudget {
		t.Errorf("a 256-element InsertBatch allocates %d B in %d objects, budget %d B in %d", bytesPer, objectsPer, byteBudget, objectBudget)
	}
	// The copy buffer is the body past the default transport's 4 KiB, up
	// to 32 KiB; three quarters of it must show through the noise.
	body, err := wire.BatchInsertRequest{Elements: reqs, Atomic: true, Brief: true}.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	copyBuf := uint64(min(32<<10, len(body)-4<<10))
	if dBytes < bytesPer+copyBuf*3/4 {
		t.Errorf("the client's own transport saves %d B a batch against http.DefaultTransport, want the ≈ %d B copy buffer", int64(dBytes)-int64(bytesPer), copyBuf)
	}
}
