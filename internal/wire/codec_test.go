package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/storage"
	"repro/internal/surrogate"
)

// viaJSON is the reference encoding: json.Encoder, as the server wrote
// every response before the hand-written codec.
func viaJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// sameBytes holds an Appender to the reference encoding of the wire
// struct it stands for: the same bytes, or an error on both sides.
func sameBytes(t *testing.T, what string, a Appender, ref any) []byte {
	t.Helper()
	got, gerr := a.AppendJSON(nil)
	want, werr := viaJSON(ref)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%s: AppendJSON error %v, encoding/json error %v", what, gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() {
			t.Fatalf("%s: AppendJSON error %q, encoding/json error %q", what, gerr, werr)
		}
		return nil
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: bytes diverge\n hand: %s\n json: %s", what, got, want)
	}
	return got
}

// reference decodes data the way its receiver would with encoding/json:
// json.Unmarshal, and for a batch request the strict decoder and the
// conversion (insertionsOracle).
func reference(data []byte, into any) error {
	if _, ok := into.(*BatchInsertions); ok {
		return insertionsOracle(data, into)
	}
	return json.Unmarshal(data, into)
}

// insertionsOracle is BatchInsertions.ParseJSON by encoding/json: the
// strict decoder into the wire request, the refusal of no elements or of
// keys that do not parallel them, then ToInsertions.
func insertionsOracle(data []byte, into any) error {
	var req BatchInsertRequest
	if err := strict(data, &req); err != nil {
		return err
	}
	switch n, k := len(req.Elements), len(req.Keys); {
	case n == 0:
		return errors.New("empty batch")
	case k != 0 && k != n:
		return fmt.Errorf("batch carries %d keys for %d elements", k, n)
	}
	ins, err := req.ToInsertions()
	if err == nil {
		*into.(*BatchInsertions) = ins
	}
	return err
}

// sameValue holds a Parser to its reference decoder on bytes the codec
// wrote: canonical input must take the fast path and decode to the same
// value.
func sameValue[T any, P interface {
	*T
	Parser
}](t *testing.T, what string, src []byte) {
	t.Helper()
	var got, want T
	if err := P(&got).ParseJSON(src); err != nil {
		t.Fatalf("%s: ParseJSON refused canonical bytes: %v\n%s", what, err, src)
	}
	if err := reference(src, &want); err != nil {
		t.Fatalf("%s: reference decode: %v", what, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: values diverge\n hand: %+v\n json: %+v\n from: %s", what, got, want, src)
	}
}

// reportItems are a batch's outcomes as a test writes them down, for the
// report BatchBody encodes from them.
type (
	reportItem struct {
		status, cause string
		el            *element.Element
		brief         bool
	}
	reportItems []reportItem
)

func (r reportItems) Len() int { return len(r) }

func (r reportItems) Item(i int) (string, string, *element.Element, bool) {
	return r[i].status, r[i].cause, r[i].el, r[i].brief
}

// checkBodies runs the four response bodies and the two requests built
// from one set of engine elements through both codecs.
func checkBodies(t *testing.T, els []*element.Element, plan *PlanNode, word string) {
	t.Helper()
	if b := sameBytes(t, "query", QueryBody{Answer: storage.ElementAnswer(els), Plan: word, PlanNode: plan, Touched: len(els), Epoch: uint64(len(word))},
		QueryResponse{Elements: FromElements(els), Plan: word, PlanNode: plan, Touched: len(els), Epoch: uint64(len(word))}); b != nil {
		sameValue[QueryResponse](t, "query", b)
		sameThroughMemo(t, "query", b, sharedMemo)
		sameThroughMemo(t, "query", b, &ElementMemo{Max: 1 << 20})
	}

	batch := BatchBody[reportItems]{Items: make(reportItems, len(els)), Stored: len(els), Rejected: 1, Epoch: 7}
	ref := BatchInsertResponse{Items: make([]BatchItem, len(els)), Stored: len(els), Rejected: 1, Epoch: 7}
	brief := BatchBody[reportItems]{Items: make(reportItems, len(els)), Stored: len(els), Rejected: 1, Epoch: 7}
	briefRef := BatchInsertResponse{Items: make([]BatchItem, len(els)), Stored: len(els), Rejected: 1, Epoch: 7}
	rows := make([][]element.Value, 0, 2*len(els))
	wrows := make([][]Value, 0, 2*len(els))
	reqs := make([]InsertRequest, len(els))
	for i, e := range els {
		we := FromElement(e)
		if b := sameBytes(t, "element", ElementBody{Element: e}, ElementResponse{Element: we}); b != nil {
			sameValue[ElementResponse](t, "element", b)
		}
		if i%3 == 2 {
			batch.Items[i] = reportItem{status: "rejected", cause: word}
			ref.Items[i] = BatchItem{Status: "rejected", Error: word}
		} else {
			batch.Items[i] = reportItem{status: "stored", el: e}
			ref.Items[i] = BatchItem{Status: "stored", Element: &we}
		}
		// The brief report of the same batch: every current element brief,
		// the others whole, as the server writes a truncated one.
		brief.Items[i], briefRef.Items[i] = batch.Items[i], ref.Items[i]
		if i%3 != 2 && e.Current() {
			brief.Items[i].brief = true
			briefRef.Items[i].Element = nil
			briefRef.Items[i].Assigned = &Assigned{ES: we.ES, OS: we.OS, TTStart: we.TTStart}
		}
		rows = append(rows, e.Invariant, e.Varying)
		wrows = append(wrows, we.Invariant, we.Varying)
		reqs[i] = InsertRequest{Object: we.OS, VT: we.VT, Invariant: we.Invariant, Varying: we.Varying, UserTimes: we.UserTimes}
		if b := sameBytes(t, "insert request", reqs[i], reqs[i]); b != nil {
			sameValue[InsertRequest](t, "insert request", b)
		}
	}
	full := sameBytes(t, "batch", batch, ref)
	if full != nil {
		sameValue[BatchInsertResponse](t, "batch", full)
	}
	if b := sameBytes(t, "brief batch", brief, briefRef); b != nil && full != nil {
		sameValue[BatchInsertResponse](t, "brief batch", b)
		// Completed from the requests, the brief report is the whole one.
		var got, want BatchInsertResponse
		if err := got.ParseJSON(b); err != nil {
			t.Fatal(err)
		}
		if err := want.ParseJSON(full); err != nil {
			t.Fatal(err)
		}
		if err := got.Complete(reqs); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("completed brief report (%v)\n got: %+v\nwant: %+v", err, got, want)
		}
	}
	cols := []string{word, "c"}
	if len(els) == 0 {
		cols = nil
	}
	if b := sameBytes(t, "select", SelectBody{Columns: cols, Rows: rows, Plan: plan, Touched: 3, Engine: word},
		SelectResponse{Columns: cols, Rows: wrows, Plan: plan, Touched: 3, Engine: word}); b != nil {
		sameValue[SelectResponse](t, "select", b)
	}
	// A batch request keyed element by element; one of no elements is
	// refused, by both readings.
	var keys []string
	for range els {
		keys = append(keys, word)
	}
	br := BatchInsertRequest{Elements: reqs, Keys: keys, Atomic: len(els)%2 == 1, Brief: len(word)%2 == 1}
	if b := sameBytes(t, "batch request", br, br); b != nil {
		if same[BatchInsertions](t, b, insertionsOracle); len(els) > 0 {
			sameValue[BatchInsertions](t, "batch request", b)
		}
	}
}

// gen draws values from fuzz input, so the mutation engine steers the
// generator; an exhausted input yields zeros.
type gen struct{ b []byte }

func (g *gen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *gen) u64() uint64 {
	var raw [8]byte
	g.b = g.b[copy(raw[:], g.b):]
	return binary.LittleEndian.Uint64(raw[:])
}

// str is raw input bytes: quotes, control bytes, HTML characters and
// invalid UTF-8 all reach the encoder as the fuzzer finds them.
func (g *gen) str() string {
	n := int(g.byte() % 24)
	if n > len(g.b) {
		n = len(g.b)
	}
	s := string(g.b[:n])
	g.b = g.b[n:]
	return s
}

func (g *gen) value() element.Value {
	switch g.byte() % 7 {
	case 0:
		return element.Null()
	case 1:
		return element.String_(g.str())
	case 2:
		return element.Int(int64(g.u64()))
	case 3:
		return element.Float(math.Float64frombits(g.u64())) // NaN, ±Inf, subnormals, -0
	case 4:
		return element.Bool(g.byte()%2 == 1)
	case 5:
		return element.Time(chronon.Chronon(g.u64()))
	}
	return element.Float(float64(int8(g.byte())) * math.Pow(10, float64(int8(g.byte())/4)))
}

func (g *gen) values() []element.Value {
	n := int(g.byte() % 4)
	if n == 3 {
		return []element.Value{} // empty, not nil
	}
	var vs []element.Value
	for i := 0; i < n; i++ {
		vs = append(vs, g.value())
	}
	return vs
}

func (g *gen) element() *element.Element {
	e := &element.Element{
		ES:      surrogate.Surrogate(g.u64()),
		OS:      surrogate.Surrogate(g.byte()),
		TTStart: chronon.Chronon(g.u64()),
		TTEnd:   chronon.Forever,
	}
	if g.byte()%2 == 1 {
		e.TTEnd = chronon.Chronon(g.u64())
	}
	if g.byte()%2 == 1 {
		e.VT = element.EventAt(chronon.Chronon(g.u64()))
	} else {
		// The engine admits no empty interval; the width is drawn instead.
		start := int64(g.u64()>>2) - 1<<61
		e.VT = element.SpanOf(chronon.Chronon(start), chronon.Chronon(start+1+int64(g.u64()>>3)))
	}
	e.Invariant, e.Varying = g.values(), g.values()
	for n := g.byte() % 3; n > 0; n-- {
		e.UserTimes = append(e.UserTimes, chronon.Chronon(g.u64()))
	}
	return e
}

func (g *gen) plan() *PlanNode {
	var root *PlanNode
	for n := g.byte() % 4; n > 0; n-- {
		node := &PlanNode{Kind: g.str(), Org: g.str(), Note: g.str(), Count: int(g.byte()), Est: int(int8(g.byte())), Input: root}
		if g.byte()%2 == 1 {
			lo, hi := int64(g.u64()), int64(g.u64())
			node.WinLo, node.WinHi = &lo, &hi
		}
		root = node
	}
	return root
}

func checkGenerated(t *testing.T, data []byte) {
	g := &gen{b: data}
	els := make([]*element.Element, g.byte()%4)
	for i := range els {
		els[i] = g.element()
	}
	checkBodies(t, els, g.plan(), g.str())
	checkSplice(t, g)

	// A wire value is freer than an engine value: any kind string, any
	// combination of payload fields, any subset of stamp pointers.
	v := Value{Kind: g.str(), Str: g.str(), Int: int64(g.u64()), Float: math.Float64frombits(g.u64()), Bool: g.byte()%2 == 1, Time: int64(g.u64())}
	if b := sameBytes(t, "value", v, v); b != nil {
		sameValue[Value](t, "value", b)
	}
	// The same value under each kind the server takes, in a batch the
	// client sends asking for a brief report.
	kv := v
	kv.Kind = [...]string{"", "null", "string", "int", "float", "bool", "time", v.Kind}[g.byte()%8]
	checkComplete(t, []InsertRequest{
		{VT: EventAt(int64(g.u64())), Invariant: []Value{kv}},
		{Object: uint64(g.byte()), VT: SpanOf(-5, int64(g.byte())), Varying: []Value{kv, v, {Kind: "float", Float: -kv.Float}}, UserTimes: []int64{v.Int}},
	})
	var ts Timestamp
	for i, p := range []**int64{&ts.Event, &ts.Start, &ts.End} {
		if g.byte()%2 == 1 {
			x := int64(g.u64()) >> (8 * i)
			*p = &x
		}
	}
	if b := sameBytes(t, "timestamp", ts, ts); b != nil {
		sameValue[Timestamp](t, "timestamp", b)
	}

	// The small requests, from the same draws.
	qr := QueryRequest{Kind: [...]string{QueryCurrent, QueryTimeslice, QueryRollback, QueryAsOf, v.Kind}[g.byte()%5], VT: v.Int, TT: v.Time}
	if b := sameBytes(t, "query request", qr, qr); b != nil {
		sameValue[QueryRequest](t, "query request", b)
	}
	sr := SelectRequest{Query: v.Str}
	if b := sameBytes(t, "select request", sr, sr); b != nil {
		sameValue[SelectRequest](t, "select request", b)
	}
	dr := DeleteRequest{ES: g.u64()}
	if b := sameBytes(t, "delete request", dr, dr); b != nil {
		sameValue[DeleteRequest](t, "delete request", b)
	}
	mr := ModifyRequest{ES: dr.ES, VT: ts, Varying: []Value{kv, v}[:g.byte()%3]}
	if b := sameBytes(t, "modify request", mr, mr); b != nil {
		sameValue[ModifyRequest](t, "modify request", b)
	}
}

// checkSplice draws a chunk, an answer out of it and a round of closes, and
// holds the body that copies from the chunk's image to the body that encodes
// — before the closes, after them with the refreshed image, and after them
// with the stale one. A sealed chunk holds versions of one shape, each under a
// surrogate of its own, as a store's do — an image names a slot by its
// surrogate and tt⊣ — so the chunk cycles through the drawn elements that
// share the first one's shape.
func checkSplice(t *testing.T, g *gen) {
	drawn := make([]*element.Element, 1+g.byte()%6)
	var shaped []*element.Element
	for i := range drawn {
		drawn[i] = g.element()
		if sameShape(drawn[i], drawn[0]) {
			shaped = append(shaped, drawn[i])
		}
	}
	chunk := make([]*element.Element, 256)
	for j := range chunk {
		e := *shaped[j%len(shaped)]
		e.ES = surrogate.Surrogate(j + 1)
		chunk[j] = &e
	}
	st := storeOf(t, chunk)
	if c0 := storage.ChunkOf(st, 0); !c0.Sealed() {
		t.Fatal("a full chunk of one shape was left elements")
	}
	pick := g.byte()
	var pos []int
	for j := range chunk {
		if pick>>(j%8)&1 == 1 {
			pos = append(pos, j)
		}
	}
	body := func(img *ChunkImage) QueryBody {
		a := storage.AnswerAt(st, pos)
		b := QueryBody{Answer: a, Touched: len(pos)}
		if len(pos) > 0 {
			b.Images = []ImageSpan{{Image: img}}
		}
		return b
	}
	img, err := BuildChunkImage(storage.ChunkOf(st, 0), nil)
	if err != nil {
		if _, err := (QueryBody{Answer: storage.ElementAnswer(chunk)}).AppendJSON(nil); err == nil {
			t.Fatal("a chunk that encodes was refused an image")
		}
		return
	}
	sameAsPlain(t, "generated chunk", body(img))
	for j, bits, tt := 0, g.byte(), chronon.Chronon(g.u64()); j < len(chunk); j++ {
		if bits>>(j%8)&1 == 1 {
			st.Replace(chunk[j], closeOf(chunk[j], tt))
		}
	}
	refreshed, err := BuildChunkImage(storage.ChunkOf(st, 0), img)
	if scratch, _ := BuildChunkImage(storage.ChunkOf(st, 0), nil); err != nil || !bytes.Equal(refreshed.slab, scratch.slab) {
		t.Fatalf("a refreshed image is not the image built from nothing (%v)", err)
	}
	sameAsPlain(t, "generated chunk after closes", body(refreshed))
	sameAsPlain(t, "generated chunk after closes, stale image", body(img))
}

// sameShape reports whether a and b have one shape: what a sealed chunk's
// versions share (storage's sealColumns).
func sameShape(a, b *element.Element) bool {
	return len(a.Invariant) == len(b.Invariant) && len(a.Varying) == len(b.Varying) && len(a.UserTimes) == len(b.UserTimes) &&
		a.VT.IsEvent() == b.VT.IsEvent() && (a.Invariant == nil) == (b.Invariant == nil) &&
		(a.Varying == nil) == (b.Varying == nil) && (a.UserTimes == nil) == (b.UserTimes == nil)
}

// checkComplete holds Complete to the round trip it stands in for: reqs
// sent as the client sends them, read as the server reads them, stored
// under assigned surrogates and tt⊢ as the relation stores an insertion,
// and reported whole — against the brief report of the same batch,
// completed from reqs. A batch the client cannot send (a non-finite float)
// or the server refuses (a value kind outside the six, an empty interval)
// has no report.
func checkComplete(t *testing.T, reqs []InsertRequest) {
	t.Helper()
	doc, err := BatchInsertRequest{Elements: reqs, Brief: true}.AppendJSON(nil)
	if err != nil {
		return
	}
	var ins BatchInsertions
	if err := ins.ParseJSON(doc); err != nil {
		if refused := BatchError(""); !errors.As(err, &refused) {
			t.Fatalf("the server's parser refused the client's spelling: %v\n%s", err, doc)
		}
		return
	}
	if !ins.Brief {
		t.Fatalf("brief was lost on the way: %s", doc)
	}
	whole := BatchBody[reportItems]{Items: make(reportItems, len(reqs)), Stored: len(reqs)}
	brief := BatchBody[reportItems]{Items: make(reportItems, len(reqs)), Stored: len(reqs)}
	for i, in := range ins.Elements {
		e := storedAs(i, in)
		whole.Items[i] = reportItem{status: "stored", el: e}
		brief.Items[i] = reportItem{status: "stored", el: e, brief: true}
	}
	wholeDoc, werr := whole.AppendJSON(nil)
	briefDoc, berr := brief.AppendJSON(nil)
	if werr != nil || berr != nil {
		t.Fatalf("reports of a batch the server took: %v, %v", werr, berr)
	}
	var got, want BatchInsertResponse
	if err := want.ParseJSON(wholeDoc); err != nil {
		t.Fatalf("whole report: %v\n%s", err, wholeDoc)
	}
	if err := got.ParseJSON(briefDoc); err != nil {
		t.Fatalf("brief report: %v\n%s", err, briefDoc)
	}
	if err := got.Complete(reqs); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if !reflect.DeepEqual(got, want) || !sameFloatBits(got, want) {
		t.Fatalf("completed brief report\n got: %+v\nwant: %+v\nfrom: %s", got, want, doc)
	}
}

// sameFloatBits is what reflect.DeepEqual leaves out: 0 and -0 are equal
// to it, and a value's float is compared to the bit.
func sameFloatBits(a, b BatchInsertResponse) bool {
	bits := func(r BatchInsertResponse) (out []uint64) {
		for _, it := range r.Items {
			if it.Element != nil {
				for _, v := range append(append([]Value(nil), it.Element.Invariant...), it.Element.Varying...) {
					out = append(out, math.Float64bits(v.Float))
				}
			}
		}
		return out
	}
	return slices.Equal(bits(a), bits(b))
}

// agree holds a response parser to its oracle on arbitrary bytes: what it
// accepts, the oracle accepts, with the same value; what it refuses it
// leaves untouched for the fallback — which is the oracle itself, so
// accept/reject and error text are the oracle's by construction.
func agree[T any, P interface {
	*T
	Parser
}](t *testing.T, data []byte, oracle func([]byte, any) error) {
	t.Helper()
	var got, want, zero T
	if err := P(&got).ParseJSON(data); err != nil {
		if !reflect.DeepEqual(got, zero) {
			t.Fatalf("%T: refused input left its mark: %+v\n%q", got, got, data)
		}
		return
	}
	if err := oracle(data, &want); err != nil {
		t.Fatalf("%T: fast path accepted what encoding/json refuses (%v)\n%q", got, err, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: values diverge\n hand: %+v\n json: %+v\n from: %q", got, got, want, data)
	}
}

// same holds a request parser to its oracle on arbitrary bytes: both
// accept, with the same value, or both refuse, in the same words, and the
// parser leaves its receiver untouched.
func same[T any, P interface {
	*T
	Parser
}](t *testing.T, data []byte, oracle func([]byte, any) error) {
	t.Helper()
	var got, want, zero T
	err, werr := P(&got).ParseJSON(data), oracle(data, &want)
	if fmt.Sprint(err) != fmt.Sprint(werr) || err == nil && !reflect.DeepEqual(got, want) || err != nil && !reflect.DeepEqual(got, zero) {
		t.Fatalf("%T of %q:\n hand %v %+v\n json %v %+v", got, data, err, got, werr, want)
	}
}

func lenient(data []byte, into any) error { return json.Unmarshal(data, into) }

// strict is the server's request decoder: the first JSON value of the
// stream, unknown fields refused.
func strict(data []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

func checkArbitrary(t *testing.T, data []byte) {
	agree[Value](t, data, lenient)
	agree[Timestamp](t, data, lenient)
	agree[Element](t, data, lenient)
	agree[QueryResponse](t, data, lenient)
	agree[ElementResponse](t, data, lenient)
	agree[BatchInsertResponse](t, data, lenient)
	agree[SelectResponse](t, data, lenient)
	same[InsertRequest](t, data, strict)
	same[QueryRequest](t, data, strict)
	same[SelectRequest](t, data, strict)
	same[DeleteRequest](t, data, strict)
	same[ModifyRequest](t, data, strict)
	same[BatchInsertions](t, data, insertionsOracle)
	sameThroughMemo(t, "arbitrary", data, sharedMemo)
}

// codecSeeds are canonical documents of every shape plus the spellings
// the fast path must hand back: the mutation engine starts next to both.
var codecSeeds = []string{
	`{"elements":[{"es":1,"os":1,"tt_start":10,"tt_end":4611686018427387903,"current":true,"vt":{"event":5},"invariant":[{"kind":"string","str":"merrie"}],"varying":[{"kind":"int","int":27000}]},{"es":2,"os":2,"tt_start":20,"tt_end":50,"current":false,"vt":{"start":1,"end":9},"user_times":[3,-4]}],"plan":"full scan (heap)","plan_node":{"kind":"current-state","est":5,"input":{"kind":"tt-window-pushdown","org":"heap","win_lo":-1,"win_hi":7,"note":"n","count":2,"est":5}},"touched":5,"epoch":5}`,
	`{"element":{"es":4,"os":4,"tt_start":40,"tt_end":4611686018427387903,"current":true,"vt":{"event":21},"invariant":[{"kind":"string","str":"<a href=\"x\">&\u2028é\t😀\ud800"}],"varying":[{"kind":"float","float":1e-7},{"kind":"bool","bool":true},{"kind":"time","time":-1},{"kind":"null"}]}}`,
	`{"items":[{"status":"stored","element":{"es":1,"os":1,"tt_start":10,"tt_end":4611686018427387903,"current":true,"vt":{"event":5}}},{"status":"rejected","error":"violates declaration"},{"status":"deduped","element":null}],"stored":1,"deduped":1,"rejected":1,"epoch":2}`,
	`{"items":[{"status":"stored","assigned":{"es":1,"os":1,"tt_start":10}},{"status":"stored","element":{"es":2,"os":2,"tt_start":20,"tt_end":4611686018427387903,"current":true,"vt":{"event":60}}},{"status":"deduped","element":{"es":3,"os":1,"tt_start":5,"tt_end":30,"current":false,"vt":{"start":1,"end":2}}},{"status":"rejected","error":"x"}],"stored":2,"deduped":1,"rejected":1,"epoch":4}`,
	`{"items":[{"status":"stored","assigned":null},{"status":"stored","assigned":{"os":1,"es":1,"tt_start":-0}}],"stored":2,"deduped":0,"rejected":0}`,
	`{"columns":["win_start","count"],"rows":[[{"kind":"time"},{"kind":"int","int":1}],[{"kind":"time","time":10},{"kind":"float","float":-1.5E+3}],null,[]],"plan":{"kind":"window-aggregate","est":5},"touched":5,"engine":"row"}`,
	`{"elements":[{"object":7,"vt":{"start":1,"end":2},"invariant":[{"kind":"string","str":"a"}],"varying":[{"kind":"int","int":-0}],"user_times":[0]},{"vt":{"event":5}}],"keys":["k1","k2"],"atomic":true}`,
	`{"elements":[{"vt":{"event":5},"invariant":[{"kind":"","str":"` + "\xff" + `"}],"varying":[{"kind":"float","float":-0}]}],"keys":["k1"],"atomic":true,"brief":true}`,
	`{"elements":[{"vt":{"event":5}}],"brief":false}`, `{"elements":[{"vt":{"event":5}}],"brief":true,"atomic":true}`,
	`{"vt":{"event":5},"invariant":[],"varying":null}`,
	` { "kind" : "int" , "int" : 12 } `,
	`{"kind":"int","int":12} trailing`,
	`{"kind":"int","Int":12}`,
	`{"kind":"int","kind":"float"}`,
	`{"kind":"int","kind":"float"}`,
	`{"kind":"int","int":1.0}`,
	`{"kind":"int","int":01}`,
	`{"kind":"float","float":1e999}`,
	`{"kind":"string","str":"\'"}`,
	`{"kind":"string","str":"` + "\xff\xc0\xaf" + `"}`,
	`{"event":9223372036854775807,"start":-9223372036854775808,"end":9223372036854775808}`,
	`{"es":18446744073709551615,"os":-0}`,
	`{"elements":[],"unknown":{"a":[1,2,{"b":null}]}}`,
	`null`, `[]`, `{}`, `{`, ``, `{"elements":[{}]}`, `{"elements":[{},{},{},{},{},{},{},{},{}]}`,
	// Valid JSON the fast path refuses since it follows the encoder.
	`{"os":2,"es":1,"tt_start":10,"tt_end":20,"current":false,"vt":{"event":5}}`,
	`{"es":1,"os":2,"tt_end":20,"tt_start":10,"current":false,"vt":{"event":5}}`,
	`{"es": 1,"os":2,"tt_start":10,"tt_end":20,"current":false,"vt":{"event":5}}`,
	`{"es":1,"es":1,"os":2,"tt_start":10,"tt_end":20,"current":false,"vt":{"event":5}}`,
	"{\n  \"elements\": [],\n  \"touched\": 0\n}",
	`{"elements":[],"touched":0}` + "\n",
	`{"int":12,"kind":"int"}`,
	`{"end":9,"start":1}`,
	`{"keys":["k"],"elements":[{"vt":{"event":5}}]}`,
	`{"vt":{"event":5},"varying":[{"kind":"int","int":1}],"invariant":[]}`,
	// The small requests, canonical and not.
	`{"kind":"asof","vt":-5,"tt":9}`, `{"kind":"current"}`, `{"tt":9,"kind":"rollback"}`, `{"kind":"timeslice","vt":5.0}`,
	`{"query":"select count(*) from s group by window(10)"}`, `{"query":"\u00e9\ud800<&>"}`, `{ "query" : "x" }`,
	`{"es":18446744073709551615}`, `{"es":5} 7`,
	`{"es":5,"vt":{"start":1,"end":9},"varying":[{"kind":"int","int":1}]}`, `{"es":5,"vt":{"event":9},"varying":null}`, `{"vt":{"event":9},"es":5}`,
}

func FuzzWireCodec(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	f.Add(splicedSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkGenerated(t, data)
		checkArbitrary(t, data)
	})
}

// TestByteIdentityEdges pins, one by one, the places where "the bytes
// encoding/json writes" has a sharp edge.
func TestByteIdentityEdges(t *testing.T) {
	for _, s := range []string{
		"", "plain", `q"uote`, `back\slash`, "<script>&amp;</script>", "line\u2028sep\u2029", "\b\f\n\r\t", "\x00\x01\x1f\x7f",
		"é世界😀", "bad\xffutf\xc0\xaf8", "\xed\xa0\x80", strings.Repeat("x", 300) + "<",
	} {
		want, _ := json.Marshal(s)
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %s, want %s", s, got, want)
		}
	}
	for _, f := range []float64{
		0, 1, -1, 0.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 9.999999999999999e20, 123456789012345678901234, -1e-9, 1e-10, 1e100,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 0.1 + 0.2, 1 << 53, math.Copysign(0, -1),
	} {
		want, _ := json.Marshal(f)
		if got, err := appendFloat(nil, f); err != nil || !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%v) = %s, %v; want %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		_, got := appendFloat(nil, f)
		if _, ok := got.(*json.UnsupportedValueError); !ok || got.Error() != want.Error() {
			t.Errorf("appendFloat(%v) error = %v, want %v", f, got, want)
		}
	}

	// omitempty: int 0, bool false, empty str, -0 float, nil and empty
	// attribute lists, no user times, zero epoch, no plan node.
	e := &element.Element{ES: 1, OS: 1, TTEnd: chronon.Forever, VT: element.EventAt(0),
		Invariant: []element.Value{element.Int(0), element.Bool(false), element.String_(""), element.Float(math.Copysign(0, -1)), element.Time(0), element.Null()},
		Varying:   []element.Value{}}
	b := sameBytes(t, "zero values", QueryBody{Answer: storage.ElementAnswer([]*element.Element{e})}, QueryResponse{Elements: FromElements([]*element.Element{e})})
	const want = `{"elements":[{"es":1,"os":1,"tt_start":0,"tt_end":4611686018427387903,"current":true,"vt":{"event":0},` +
		`"invariant":[{"kind":"int"},{"kind":"bool"},{"kind":"string"},{"kind":"float"},{"kind":"time"},{"kind":"null"}]}],"touched":0}` + "\n"
	if string(b) != want {
		t.Errorf("zero values encode as\n%s want\n%s", b, want)
	}
	sameBytes(t, "no rows", SelectBody{Rows: [][]element.Value{}}, SelectResponse{Rows: [][]Value{}})
	sameBytes(t, "empty row", SelectBody{Columns: []string{}, Rows: [][]element.Value{{}, nil}}, SelectResponse{Columns: []string{}, Rows: [][]Value{nil, nil}})
	sameBytes(t, "nil elements", BatchInsertRequest{}, BatchInsertRequest{})
	sameBytes(t, "no stamp", InsertRequest{}, InsertRequest{})
}

// splicedSeed is generator input that reaches checkSplice — no elements, no
// plan, an empty word before it — with a chunk of six elements, event and
// interval stamps alternating, one int attribute each, the third one closed
// on arrival; the answer takes four of them and two more are closed.
var splicedSeed = func() []byte {
	b := []byte{0, 0, 0, 5}
	u64 := func(x uint64) { b = binary.LittleEndian.AppendUint64(b, x) }
	for i := uint64(0); i < 6; i++ {
		u64(i + 1) // es, then os, tt⊢
		b = append(b, byte(i+1))
		u64(100 + i)
		if i == 2 {
			b = append(b, 1)
			u64(500) // tt⊣
		} else {
			b = append(b, 0)
		}
		if b = append(b, byte(i%2)); i%2 == 1 {
			u64(1000 + i) // an event
		} else {
			u64(1<<61 + 4*i) // an interval's start, offset as the generator undoes it, and width
			u64(80)
		}
		b = append(b, 0, 1, 2) // no invariant, one varying value, an int
		u64(37 * i)
		b = append(b, 0) // no user times
	}
	b = append(b, 0b101101, 0b010010)
	u64(900)
	u64(901)
	return b
}()

func TestCodecSeeds(t *testing.T) {
	for _, s := range codecSeeds {
		checkGenerated(t, []byte(s))
		checkArbitrary(t, []byte(s))
	}
	checkGenerated(t, splicedSeed)
	// A response large enough to leave the first slab chunks.
	for _, interval := range []bool{false, true} {
		checkBodies(t, benchElements(700, interval), &PlanNode{Kind: "full-scan", Org: "heap", Est: 700}, "full scan (heap)")
	}
}

// refused holds a Parser to its contract on a spelling it must hand
// back: an error, and the receiver as it was.
func refused[T any, P interface {
	*T
	Parser
}](t *testing.T, doc string) {
	t.Helper()
	var got, zero T
	if err := P(&got).ParseJSON([]byte(doc)); err == nil {
		t.Errorf("%T: fast path accepted %s as %+v", got, doc, got)
	} else if !reflect.DeepEqual(got, zero) {
		t.Errorf("%T: refusing %s left %+v behind", got, doc, got)
	}
}

// sameAsCanonical is refused for a spelling encoding/json does accept: the
// fallback must decode it to what the canonical document decodes to, on
// the fast path.
//
// A request parser takes every spelling encoding/json does: readAs holds
// it to the value of the canonical document.
func sameAsCanonical[T any, P interface {
	*T
	Parser
}](t *testing.T, doc, canonical string) {
	t.Helper()
	refused[T, P](t, doc)
	var want, got T
	if err := P(&want).ParseJSON([]byte(canonical)); err != nil {
		t.Fatalf("%T: fast path refused canonical %s", want, canonical)
	}
	if err := reference([]byte(doc), &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("%T: %s falls back to %+v, %v; canonical is %+v", got, doc, got, err, want)
	}
}

func readAs[T any, P interface {
	*T
	Parser
}](t *testing.T, doc, canonical string) {
	t.Helper()
	var want, got T
	if err := P(&want).ParseJSON([]byte(canonical)); err != nil {
		t.Fatalf("%T: canonical %s refused: %v", want, canonical, err)
	}
	if err := P(&got).ParseJSON([]byte(doc)); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("%T: %s read as %+v, %v; canonical is %+v", got, doc, got, err, want)
	}
}

// TestParserFallsBack spells out what the fast path must refuse, so the
// oracle keeps deciding it: what encoding/json refuses too, and — the
// accept set being the encoder's image — every other way to spell a
// document the encoder would have written differently.
func TestParserFallsBack(t *testing.T) {
	for _, s := range []string{
		`{"kind":"int","Int":12}`, `{"kind":"int","kind":"float"}`, `{"kind":"int","kind":"x"}`, `{"kind":"int"} x`,
		`{"kind":"int","extra":1}`, `{"kind":"int","int":1.0}`, `{"kind":"int","int":1e3}`, `{"kind":"int","int":01}`, `{"kind":"int","int":"1"}`,
		`{"kind":"string","str":"\'"}`, `{"kind":"string","str":"` + "\x01" + `"}`, `{"kind":"float","float":1e999}`, `{"kind":"float","float":.5}`,
		`{"kind":"float","float":1.}`, `{"kind":"float","float":-}`, `{"kind":1}`, `[]`, `{`, ``, `{"kind"}`, `{"kind":"int",}`,
		`{"kind":"int","int":9223372036854775808}`, `{"kind":"int","int":-9223372036854775809}`, `{"kind":"int","int":}`, `{"kind":"int","int":-}`,
	} {
		refused[Value](t, s)
	}
	deep := strings.Repeat(`{"kind":"k","est":0,"input":`, 5000) + `null` + strings.Repeat(`}`, 5000)
	refused[QueryResponse](t, `{"elements":[],"plan_node":`+deep+`,"touched":0}`)

	const (
		element = `{"es":1,"os":2,"tt_start":10,"tt_end":20,"current":false,"vt":{"start":1,"end":9},"invariant":[{"kind":"string","str":"a"}],"varying":[{"kind":"int","int":7}]}`
		request = `{"object":3,"vt":{"start":1,"end":9},"invariant":[{"kind":"string","str":"a"}],"user_times":[4]}`
		query   = `{"elements":[` + element + `],"plan":"p","touched":1,"epoch":2}`
		batch   = `{"elements":[` + request + `],"keys":["k"],"atomic":true}`
		report  = `{"items":[{"status":"stored","element":` + element + `}],"stored":1,"deduped":0,"rejected":0}`
		table   = `{"columns":["c"],"rows":[[{"kind":"int","int":1}],null],"touched":2}`
		// The brief shapes: a request that asks, a report with an item of
		// each kind.
		briefBatch  = `{"elements":[` + request + `],"keys":["k"],"atomic":true,"brief":true}`
		briefReport = `{"items":[{"status":"stored","assigned":{"es":1,"os":2,"tt_start":10}},{"status":"deduped","element":` + element +
			`},{"status":"rejected","error":"no"}],"stored":1,"deduped":1,"rejected":1,"epoch":3}`
	)
	pretty := func(doc string) string {
		var buf bytes.Buffer
		if err := json.Indent(&buf, []byte(doc), "", "  "); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	swap := func(doc, a, b string) string { // two neighbouring fields change places
		if !strings.Contains(doc, a+","+b) {
			t.Fatalf("%s does not hold %s,%s", doc, a, b)
		}
		return strings.Replace(doc, a+","+b, b+","+a, 1)
	}
	// Reordered keys, `"tt_end"` before `"tt_start"` among them.
	sameAsCanonical[Element](t, swap(element, `"es":1`, `"os":2`), element)
	sameAsCanonical[Element](t, swap(element, `"tt_start":10`, `"tt_end":20`), element)
	sameAsCanonical[Element](t, swap(element, `"start":1`, `"end":9`), element)
	sameAsCanonical[Value](t, `{"int":7,"kind":"int"}`, `{"kind":"int","int":7}`)
	readAs[InsertRequest](t, swap(request, `"object":3`, `"vt":{"start":1,"end":9}`), request)
	readAs[BatchInsertions](t, swap(batch, `"keys":["k"]`, `"atomic":true`), batch)
	sameAsCanonical[QueryResponse](t, swap(query, `"touched":1`, `"epoch":2`), query)
	sameAsCanonical[BatchInsertResponse](t, swap(report, `"stored":1`, `"deduped":0`), report)
	sameAsCanonical[SelectResponse](t, swap(table, `"columns":["c"]`, `"rows":[[{"kind":"int","int":1}],null]`), table)
	readAs[BatchInsertions](t, swap(briefBatch, `"atomic":true`, `"brief":true`), briefBatch)
	sameAsCanonical[BatchInsertResponse](t, swap(briefReport, `"es":1`, `"os":2`), briefReport)
	sameAsCanonical[BatchInsertResponse](t, swap(briefReport, `"os":2`, `"tt_start":10`), briefReport)
	sameAsCanonical[BatchInsertResponse](t, swap(briefReport, `"status":"stored"`, `"assigned":{"es":1,"os":2,"tt_start":10}`), briefReport)
	// Insignificant whitespace: after a colon, after a comma, around the
	// document, a pretty-printed body. One trailing newline is the encoder's.
	sameAsCanonical[Element](t, strings.Replace(element, `"es":1`, `"es": 1`, 1), element)
	sameAsCanonical[Element](t, strings.Replace(element, `,"os"`, `, "os"`, 1), element)
	sameAsCanonical[Element](t, " "+element, element)
	sameAsCanonical[Element](t, element+"\n\n", element)
	sameAsCanonical[Element](t, pretty(element), element)
	readAs[InsertRequest](t, pretty(request), request)
	sameAsCanonical[QueryResponse](t, pretty(query), query)
	readAs[BatchInsertions](t, pretty(batch), batch)
	sameAsCanonical[BatchInsertResponse](t, pretty(report), report)
	sameAsCanonical[SelectResponse](t, pretty(table), table)
	readAs[BatchInsertions](t, pretty(briefBatch), briefBatch)
	sameAsCanonical[BatchInsertResponse](t, pretty(briefReport), briefReport)
	// A duplicated key (encoding/json keeps the last), null for a scalar
	// or an object (encoding/json leaves the zero value).
	sameAsCanonical[Element](t, strings.Replace(element, `"es":1`, `"es":9,"es":1`, 1), element)
	sameAsCanonical[Element](t, strings.Replace(element, `"current":false`, `"current":null`, 1), element)
	sameAsCanonical[BatchInsertResponse](t, strings.Replace(report, `"element":`+element, `"element":null`, 1), strings.Replace(report, `,"element":`+element, ``, 1))
	sameAsCanonical[QueryResponse](t, `{"elements":[],"plan_node":null,"touched":0}`, `{"elements":[],"touched":0}`)
	sameAsCanonical[BatchInsertResponse](t, strings.Replace(briefReport, `{"es":1,"os":2,"tt_start":10}`, `null`, 1),
		strings.Replace(briefReport, `,"assigned":{"es":1,"os":2,"tt_start":10}`, ``, 1))
	sameAsCanonical[BatchInsertResponse](t, strings.Replace(briefReport, `"tt_start":10}`, `"tt_start":10,"tt_start":10}`, 1), briefReport)
	sameAsCanonical[BatchInsertResponse](t, strings.Replace(briefReport, `"es":1,`, ``, 1),
		strings.Replace(briefReport, `"es":1,`, `"es":0,`, 1))

	// What stays on the fast path: the encoder's own newline, a field the
	// encoder would have omitted, null where encoding/json writes it.
	sameValue[QueryResponse](t, "trailing newline", []byte(query+"\n"))
	sameValue[QueryResponse](t, "nil elements", []byte(`{"elements":null,"touched":0}`))
	sameValue[QueryResponse](t, "empty fields", []byte(`{"elements":[],"plan":"","touched":0,"epoch":0}`))
	sameValue[BatchInsertResponse](t, "nil items", []byte(`{"items":null,"stored":0,"deduped":0,"rejected":0}`))
	sameValue[SelectResponse](t, "nil columns and rows", []byte(`{"columns":null,"rows":null,"touched":0}`))
	sameValue[BatchInsertions](t, "brief request", []byte(briefBatch))
	sameValue[BatchInsertions](t, "brief false", []byte(strings.Replace(briefBatch, `"brief":true`, `"brief":false`, 1)))
	sameValue[BatchInsertResponse](t, "brief report", []byte(briefReport))
	sameValue[BatchInsertResponse](t, "brief and whole", []byte(strings.Replace(briefReport, `"element":`+element, `"element":`+element+`,"assigned":{"es":5,"os":6,"tt_start":7}`, 1)))
	// A batch the encoder spells that is no batch: refused as encoding/json
	// and ToInsertions refuse it, in their words.
	for _, doc := range []string{
		`{"elements":null}`, `{"elements":[]}`, `{"elements":[` + request + `],"keys":["k","l"]}`,
		`{"elements":[` + request + `,{"vt":{"event":5},"varying":[{"kind":"zebra"}]}],"keys":["k","l"]}`,
		`{"elements":[{"vt":{"start":9,"end":9}}]}`,
	} {
		refused[BatchInsertions](t, doc)
		same[BatchInsertions](t, []byte(doc), insertionsOracle)
	}

	// Through a memo that holds the element: a copy is taken only where the
	// input goes on with all of its bytes, and what follows them is read as
	// ever — the element cut short, or followed by bytes the encoder does
	// not write, is refused as it is without a memo; spelled on past its
	// end, it is another element, parsed.
	m := &ElementMemo{Max: 1 << 20}
	var warm QueryResponse
	if err := warm.ParseJSONMemo([]byte(query), m); err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{
		`{"elements":[` + element[:len(element)-1] + `],"touched":1}`,
		`{"elements":[` + element + ` ],"touched":1}`,
		`{"elements":[` + element + `,` + element[:40] + `],"touched":1}`,
		`{"elements":[` + element + `}],"touched":1}`,
		`{"elements":[` + element + `],"touched":1,"extra":0}`,
		`{"elements":[` + element,
		strings.Replace(query, `"es":1`, `"es": 1`, 1),
		pretty(query),
	} {
		var got QueryResponse
		if err := got.ParseJSONMemo([]byte(doc), m); err == nil || !reflect.DeepEqual(got, QueryResponse{}) {
			t.Errorf("through a warm memo %s was taken as %+v (%v)", doc, got, err)
		}
	}
	if s := m.Stats(); s.Reused != 0 || s.Parsed != 1 {
		t.Errorf("refused bodies were counted: %d copied, %d parsed", s.Reused, s.Parsed)
	}
	sameThroughMemo(t, "spelled on", []byte(`{"elements":[`+element[:len(element)-1]+`,"user_times":[1]}],"touched":1}`), m)
	sameThroughMemo(t, "after the refusals", []byte(query), m)
}

func benchElements(n int, interval bool) []*element.Element {
	els := make([]*element.Element, n)
	for i := range els {
		e := &element.Element{
			ES: surrogate.Surrogate(i + 1), OS: surrogate.Surrogate(i + 1),
			TTStart: chronon.Chronon(1700000000 + i), TTEnd: chronon.Forever,
			Invariant: []element.Value{element.String_("s1")},
			Varying:   []element.Value{element.Int(int64(i) * 37)},
		}
		if interval {
			e.VT = element.SpanOf(chronon.Chronon(1700000000+i), chronon.Chronon(1700003600+i))
		} else {
			e.VT = element.EventAt(chronon.Chronon(1700000000 + i))
		}
		els[i] = e
	}
	return els
}

// splicedBody is the answer that takes every stride-th version of st, in
// arrival order, with an image under every full chunk it draws on, as the
// catalog hands one to the encoder.
func splicedBody(tb testing.TB, st storage.Store, stride int) QueryBody {
	var pos []int
	for k := 0; k*256 < st.Len(); k++ {
		for i := k * 256; i < min(k*256+256, st.Len()); i += stride {
			pos = append(pos, i)
		}
	}
	a := storage.AnswerAt(st, pos)
	body := QueryBody{Answer: a, Plan: "full scan (heap)", PlanNode: benchPlan(), Touched: st.Len(), Epoch: 9}
	for i, sp := range a.Spans() {
		if !sp.Sealed() {
			continue
		}
		img, err := BuildChunkImage(storage.ChunkOf(st, sp.Chunk()), nil)
		if err != nil {
			tb.Fatal(err)
		}
		body.Images = append(body.Images, ImageSpan{Span: i, Image: img})
	}
	return body
}

func benchPlan() *PlanNode {
	return &PlanNode{Kind: "current-state", Est: 4096, Input: &PlanNode{Kind: "full-scan", Org: "heap", Est: 4096}}
}

// ledgerElements is the answer tsbench's ledger-general time-slice gets:
// interval stamps, one invariant string, one varying int, and every
// second element closed, so half of them miss the currentElement literal.
func ledgerElements(n int) []*element.Element {
	els := benchElements(n, true)
	for i := 1; i < n; i += 2 {
		els[i].TTEnd = els[i].TTStart + 900
	}
	return els
}

// benchBatch is a 256-element InsertBatch round trip as the typed client
// and the server spell it: keyed, atomic, every item stored.
func benchBatch(n int) (BatchInsertRequest, BatchBody[reportItems], BatchInsertResponse) {
	els := benchElements(n, true)
	req := BatchInsertRequest{Elements: make([]InsertRequest, n), Keys: make([]string, n), Atomic: true}
	body := BatchBody[reportItems]{Items: make(reportItems, n), Stored: n, Epoch: 9}
	ref := BatchInsertResponse{Items: make([]BatchItem, n), Stored: n, Epoch: 9}
	for i, e := range els {
		we := FromElement(e)
		req.Elements[i] = InsertRequest{VT: we.VT, Invariant: we.Invariant, Varying: we.Varying}
		req.Keys[i] = fmt.Sprintf("%032x", i+1)
		body.Items[i] = reportItem{status: "stored", el: e}
		ref.Items[i] = BatchItem{Status: "stored", Element: &we}
	}
	return req, body, ref
}

// TestCodecAllocationBudget is the tripwire on the two properties that
// make the codec worth having: encoding a result set into a warm buffer
// allocates nothing, and parsing one allocates per response, not per
// element.
func TestCodecAllocationBudget(t *testing.T) {
	body := QueryBody{Answer: storage.ElementAnswer(benchElements(4096, true)), Plan: "full scan (heap)", PlanNode: benchPlan(), Touched: 4096, Epoch: 9}
	buf, err := body.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { buf, _ = body.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("encoding 4096 elements into a warm buffer: %v allocations, want 0", n)
	}
	var out QueryResponse
	if n := testing.AllocsPerRun(10, func() {
		if err := out.ParseJSON(buf); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("parsing 4096 elements: %v allocations, want at most 8 in total", n)
	}
	if len(out.Elements) != 4096 || *out.Elements[4095].VT.End != 1700003600+4095 || out.Elements[7].Invariant[0].Str != "s1" {
		t.Errorf("parsed result is wrong: %d elements, last %+v", len(out.Elements), out.Elements[len(out.Elements)-1])
	}

	// The batch round trip: the server parses the request under every
	// batch, the client the report.
	req, report, _ := benchBatch(256)
	reqDoc, _ := req.AppendJSON(nil)
	var gotReq BatchInsertions
	if n := testing.AllocsPerRun(10, func() {
		if err := gotReq.ParseJSON(reqDoc); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("parsing a 256-item batch request: %v allocations, want at most 8 in total", n)
	}
	if want, err := req.ToInsertions(); err != nil || !reflect.DeepEqual(gotReq, want) {
		t.Errorf("parsed batch request is not the one encoded (%v)", err)
	}
	reportDoc, _ := report.AppendJSON(nil)
	var gotReport BatchInsertResponse
	if n := testing.AllocsPerRun(10, func() {
		if err := gotReport.ParseJSON(reportDoc); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("parsing a 256-item batch report: %v allocations, want at most 8 in total", n)
	}
	if len(gotReport.Items) != 256 || gotReport.Items[255].Element.ES != 256 || gotReport.Stored != 256 {
		t.Errorf("parsed batch report is wrong: %d items, stored %d", len(gotReport.Items), gotReport.Stored)
	}
	// The brief report the typed client asks for: parsed, then completed
	// from the request — a handful of slabs for the whole batch.
	for i := range report.Items {
		report.Items[i].brief = true
	}
	briefDoc, _ := report.AppendJSON(nil)
	var gotBrief BatchInsertResponse
	if n := testing.AllocsPerRun(10, func() {
		gotBrief = BatchInsertResponse{}
		if err := gotBrief.ParseJSON(briefDoc); err != nil {
			t.Fatal(err)
		}
		if err := gotBrief.Complete(req.Elements); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("parsing and completing a 256-item brief report: %v allocations, want at most 8 in total", n)
	}
	if !reflect.DeepEqual(gotBrief, gotReport) {
		t.Errorf("the completed brief report is not the whole one")
	}
}

var benchSink int

// benchCodec puts each direction of the codec beside encoding/json on
// one document: body is what the sender appends, ref the wire struct of
// the same bytes, T what the receiver parses into — by hand, or by its
// reference decoder.
func benchCodec[T any, P interface {
	*T
	Parser
}](b *testing.B, name string, body Appender, ref any) {
	doc, err := body.AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode/hand/"+name, func(b *testing.B) {
		buf := make([]byte, 0, len(doc)+1)
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			buf, _ = body.AppendJSON(buf[:0])
		}
		benchSink += len(buf)
	})
	b.Run("encode/json/"+name, func(b *testing.B) {
		var buf bytes.Buffer
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(ref); err != nil {
				b.Fatal(err)
			}
		}
		benchSink += buf.Len()
	})
	b.Run("parse/hand/"+name, func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out T
			if err := P(&out).ParseJSON(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse/json/"+name, func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out T
			if err := reference(doc, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireCodec is hand/ against json/, encode and parse: query
// results with event and interval stamps, 1 to 4096 elements; the
// ledger-shaped time-slice answer tsbench's worst cell reads; and the
// two bodies of a 256-element batch round trip, the request parsed into
// insertions (its json/ leg is encoding/json and ToInsertions, the
// parser's oracle).
func BenchmarkWireCodec(b *testing.B) {
	query := func(name string, els []*element.Element) {
		n := len(els)
		body := QueryBody{Answer: storage.ElementAnswer(els), Plan: "full scan (heap)", PlanNode: benchPlan(), Touched: n, Epoch: 9}
		benchCodec[QueryResponse](b, name, body, QueryResponse{Elements: FromElements(els), Plan: body.Plan, PlanNode: body.PlanNode, Touched: n, Epoch: 9})
	}
	for _, stamp := range []string{"event", "interval"} {
		for _, n := range []int{1, 256, 4096} {
			query(fmt.Sprintf("%s/n=%d", stamp, n), benchElements(n, stamp == "interval"))
		}
	}
	query("ledger/n=1000", ledgerElements(1000))
	// The same answer again through the memo a client keeps: every element
	// found, byte-checked and copied.
	b.Run("parse/memo-warm/ledger/n=1000", func(b *testing.B) {
		els := ledgerElements(1000)
		doc, _ := QueryBody{Answer: storage.ElementAnswer(els), Plan: "full scan (heap)", PlanNode: benchPlan(), Touched: len(els), Epoch: 9}.AppendJSON(nil)
		m := &ElementMemo{Max: 8 << 20}
		if err := new(QueryResponse).ParseJSONMemo(doc, m); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out QueryResponse
			if err := out.ParseJSONMemo(doc, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The slice after the current: a memo the 4000-element current taught,
	// every version of sixteen chunks, and the 2000-element time-slice of
	// every second one read through it, again and again.
	b.Run("parse/memo-warm/sparse-after-current/n=2000", func(b *testing.B) {
		els := ledgerElements(4000)
		current, _ := QueryBody{Answer: storage.ElementAnswer(els), Plan: "full scan (heap)", PlanNode: benchPlan(), Touched: len(els), Epoch: 9}.AppendJSON(nil)
		var half []*element.Element
		for i := 0; i < len(els); i += 2 {
			half = append(half, els[i])
		}
		doc, _ := QueryBody{Answer: storage.ElementAnswer(half), Plan: "full scan (heap)", PlanNode: benchPlan(), Touched: len(els), Epoch: 9}.AppendJSON(nil)
		m := &ElementMemo{Max: 32 << 20}
		if err := new(QueryResponse).ParseJSONMemo(current, m); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out QueryResponse
			if err := out.ParseJSONMemo(doc, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The same answer with every chunk imaged, beside it encoded from its
	// sealed slots without images and from its materialized elements:
	// tsbench's large time-slice, every second slot of sixteen chunks.
	sparse := splicedBody(b, storeOf(b, benchElements(4000, true)), 2)
	for _, c := range []struct {
		name string
		body QueryBody
	}{
		{"splice/n=2000", sparse},
		{"encode/sealed/sparse/n=2000", QueryBody{Answer: sparse.Answer, Plan: sparse.Plan, PlanNode: sparse.PlanNode, Touched: 4000, Epoch: 9}},
		{"encode/hand/sparse/n=2000", QueryBody{Answer: storage.ElementAnswer(sparse.Answer.Elements()), Plan: sparse.Plan, PlanNode: sparse.PlanNode, Touched: 4000, Epoch: 9}},
	} {
		b.Run(c.name, func(b *testing.B) {
			buf, _ := c.body.AppendJSON(nil)
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				buf, _ = c.body.AppendJSON(buf[:0])
			}
			benchSink += len(buf)
		})
	}
	// The request bodies as the typed client spells them:
	// ServeRoundTrip/batch-256's and one insert; and the batch again with a
	// space after every comma, which the canonical parse stops short of at
	// the first element and the general reading then takes from the start.
	typed := BatchInsertRequest{Elements: make([]InsertRequest, 256), Atomic: true, Brief: true}
	for i := range typed.Elements {
		typed.Elements[i] = InsertRequest{VT: SpanOf(1700000000+int64(i), 1700003600+int64(i)),
			Invariant: []Value{String("s1")}, Varying: []Value{Int(int64(i) * 37)}}
	}
	batchDoc, _ := typed.AppendJSON(nil)
	insertDoc, _ := typed.Elements[0].AppendJSON(nil)
	for _, c := range []struct {
		name string
		doc  []byte
		into Parser
	}{
		{"parse/batch-request/n=256", batchDoc, new(BatchInsertions)},
		{"parse/batch-request-spaced/n=256", bytes.ReplaceAll(batchDoc, []byte(","), []byte(", ")), new(BatchInsertions)},
		{"parse/insert-request", insertDoc, new(InsertRequest)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.into.ParseJSON(c.doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	req, report, ref := benchBatch(256)
	benchCodec[BatchInsertions](b, "batch-request/n=256", req, req)
	benchCodec[BatchInsertResponse](b, "batch-response/n=256", report, ref)
	// The brief report of the same batch, and what the client does with it.
	for i := range report.Items {
		report.Items[i].brief = true
		ref.Items[i] = BatchItem{Status: "stored", Assigned: &Assigned{ES: ref.Items[i].Element.ES, OS: ref.Items[i].Element.OS, TTStart: ref.Items[i].Element.TTStart}}
	}
	benchCodec[BatchInsertResponse](b, "batch-response-brief/n=256", report, ref)
	doc, _ := report.AppendJSON(nil)
	b.Run("parse+complete/hand/batch-response-brief/n=256", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out BatchInsertResponse
			if err := out.ParseJSON(doc); err != nil {
				b.Fatal(err)
			}
			if err := out.Complete(req.Elements); err != nil {
				b.Fatal(err)
			}
		}
	})
}
