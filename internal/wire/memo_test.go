package wire

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/storage"
	"repro/internal/surrogate"
)

// sharedMemo is carried from one test body to the next, so every body is
// also parsed against entries other bodies left — the same surrogates with
// other bytes among them.
var sharedMemo = &ElementMemo{Max: 4 << 20}

// sameThroughMemo holds a parse of src through m to the parse without it,
// three times: the first fills m, the others copy from it. Each answer is
// scribbled over once it has been compared, so a copy that shared memory
// with m, or with another answer, would change the next one.
func sameThroughMemo(t *testing.T, what string, src []byte, m *ElementMemo) {
	t.Helper()
	var cold QueryResponse
	coldErr := cold.ParseJSON(src)
	for i := 0; i < 3; i++ {
		var warm QueryResponse
		err := warm.ParseJSONMemo(src, m)
		if (err == nil) != (coldErr == nil) || !errors.Is(err, coldErr) {
			t.Fatalf("%s, memo pass %d: error %v, without the memo %v\n%q", what, i, err, coldErr, src)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("%s, memo pass %d: values diverge\n memo: %+v\n cold: %+v\n from: %q", what, i, warm, cold, src)
		}
		scribble(&warm)
	}
}

// scribble changes every number and string an answer holds, through every
// pointer and slice it has.
func scribble(r *QueryResponse) {
	bump := func(p *int64) {
		if p != nil {
			*p = *p*3 + 1
		}
	}
	values := func(vs []Value) {
		for i := range vs {
			vs[i] = Value{Kind: "scribbled", Str: "x", Int: vs[i].Int + 1, Float: vs[i].Float + 1, Bool: !vs[i].Bool, Time: vs[i].Time + 1}
		}
	}
	for i := range r.Elements {
		e := &r.Elements[i]
		e.ES, e.OS, e.TTStart, e.TTEnd, e.Current = e.ES+1, e.OS+1, e.TTStart+1, e.TTEnd+1, !e.Current
		bump(e.VT.Event)
		bump(e.VT.Start)
		bump(e.VT.End)
		values(e.Invariant)
		values(e.Varying)
		for j := range e.UserTimes {
			bump(&e.UserTimes[j])
		}
	}
	for n := r.PlanNode; n != nil; n = n.Input {
		n.Kind, n.Est = "scribbled", n.Est+1
		bump(n.WinLo)
		bump(n.WinHi)
	}
}

// memoElements covers what an element can be on the wire: closed and
// current, event and interval stamps, user times or none, strings with
// escapes, HTML characters and invalid UTF-8, every value kind, nil and
// empty attribute lists.
func memoElements() []*element.Element {
	vals := []element.Value{
		element.Null(), element.String_(`q"uote\ <a>&` + " \x01"), element.String_("bad\xffutf\xc0\xaf8"), element.String_(""),
		element.Int(-1 << 63), element.Int(0), element.Float(-1.5e300), element.Float(1e-7), element.Bool(true), element.Bool(false),
		element.Time(chronon.Forever), element.Time(-7),
	}
	var els []*element.Element
	for i := 0; i < 24; i++ {
		e := &element.Element{ES: surrogate.Surrogate(i + 1), OS: surrogate.Surrogate(i%5 + 1), TTStart: chronon.Chronon(100 + i), TTEnd: chronon.Forever}
		if i%3 == 1 {
			e.TTEnd = chronon.Chronon(200 + i)
		}
		if i%2 == 0 {
			e.VT = element.EventAt(chronon.Chronon(-i))
		} else {
			e.VT = element.SpanOf(chronon.Chronon(i), chronon.Chronon(i+40))
		}
		switch i % 4 {
		case 0:
			e.Invariant, e.Varying = vals[i%len(vals):], vals[:i%len(vals)]
		case 1:
			e.Varying = []element.Value{vals[i%len(vals)]}
		case 2:
			e.Invariant, e.Varying = []element.Value{}, vals
		}
		if i%5 == 0 {
			e.UserTimes = []chronon.Chronon{chronon.Chronon(i), -1}
		}
		els = append(els, e)
	}
	return els
}

// TestMemoIsTheParse: answers that share elements — a time-slice and the
// next one, the same elements closed since, another relation's elements
// under the same surrogates — parse through one memo to what they parse to
// without it, and the elements an earlier answer carried are copied, not
// parsed.
func TestMemoIsTheParse(t *testing.T) {
	els := memoElements()
	encode := func(els []*element.Element) []byte {
		b, err := QueryBody{Answer: storage.ElementAnswer(els), Plan: "p", PlanNode: benchPlan(), Touched: len(els), Epoch: 3}.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	m := &ElementMemo{Max: 1 << 20}
	first := encode(els[:16])
	sameThroughMemo(t, "first slice", first, m)
	if s := m.Stats(); s.Parsed != 16 || s.Reused != 32 {
		t.Fatalf("three passes over 16 elements: %d parsed, %d copied; want 16 and 32", s.Parsed, s.Reused)
	}
	// The next slice: eight elements of the first, eight new.
	sameThroughMemo(t, "next slice", encode(els[8:]), m)
	if s := m.Stats(); s.Parsed != 24 || s.Reused != 32+8+32 {
		t.Fatalf("the next slice: %d parsed, %d copied in all; want 24 and 72", s.Parsed, s.Reused)
	}
	// The same elements closed: other bytes behind the same key.
	closed := make([]*element.Element, len(els))
	for i, e := range els {
		c := *e
		c.TTEnd = chronon.Chronon(900 + i)
		closed[i] = &c
	}
	sameThroughMemo(t, "closed", encode(closed), m)
	if s := m.Stats(); s.Parsed != 48 {
		t.Fatalf("closing every element: %d parsed in all, want 48", s.Parsed)
	}
	// Another relation: the same surrogates and tt⊢, other attributes.
	other := make([]*element.Element, len(els))
	for i, e := range els {
		c := *e
		c.Varying = []element.Value{element.Int(int64(i))}
		other[i] = &c
	}
	sameThroughMemo(t, "other relation", encode(other), m)
	// Both relations' answers again: each finds its elements in one of the
	// two generations or parses them.
	sameThroughMemo(t, "first slice again", first, m)
	// Lists the encoder omits when empty, spelled empty: a copy keeps
	// them empty, not nil, as the parse does.
	sameThroughMemo(t, "empty lists", []byte(`{"elements":[{"es":1,"os":1,"tt_start":5,"tt_end":9,"current":false,"vt":{"event":3},"invariant":[],"varying":[],"user_times":[]},`+
		`{"es":2,"os":1,"tt_start":5,"tt_end":9,"current":false,"vt":{"start":3,"end":4},"varying":[{"kind":"zebra","str":"z"}]}],"touched":2}`), m)
	checkBodies(t, els, benchPlan(), "memo")
}

// TestMemoHintFollowsTheAnswer: an answer that takes every second or third
// element of the answer that taught the memo — a time-slice after the
// current — finds each of them a few records after the one before, without
// the index, and an answer denser than the one that taught the memo finds
// its elements through the index; either way the parse through the memo is
// the parse without it. So is the answer of another relation whose elements
// carry the same surrogates, which shares no bytes with the first, and the
// first relation's answers after it.
func TestMemoHintFollowsTheAnswer(t *testing.T) {
	els := ledgerElements(1000)
	for i, e := range memoElements() { // every shape of element among them
		e.ES = els[40*i].ES
		els[40*i] = e
	}
	every := func(els []*element.Element, k int) (out []*element.Element) {
		for i := 0; i < len(els); i += k {
			out = append(out, els[i])
		}
		return out
	}
	encode := func(els []*element.Element) []byte {
		b, err := QueryBody{Answer: storage.ElementAnswer(els), Plan: "p", PlanNode: benchPlan(), Touched: len(els), Epoch: 3}.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Each pass over a taught answer of n elements finds the first through
	// the index and the other n−1 through the hint.
	dense := &ElementMemo{Max: 8 << 20}
	sameThroughMemo(t, "dense", encode(els), dense)
	for _, k := range []int{2, 3} {
		before := dense.Stats()
		sameThroughMemo(t, "sparse after dense", encode(every(els, k)), dense)
		n := uint64(len(every(els, k)))
		if s := dense.Stats(); s.Parsed != before.Parsed || s.Reused-before.Reused != 3*n || s.Hinted-before.Hinted != 3*(n-1) {
			t.Fatalf("every %dth after every one: %d parsed, %d copied, %d of them by the hint; want 0, %d and %d",
				k, s.Parsed-before.Parsed, s.Reused-before.Reused, s.Hinted-before.Hinted, 3*n, 3*(n-1))
		}
	}
	sparse := &ElementMemo{Max: 8 << 20}
	sameThroughMemo(t, "sparse", encode(every(els, 2)), sparse)
	sameThroughMemo(t, "dense after sparse", encode(els), sparse)
	if s := sparse.Stats(); s.Parsed != uint64(len(els)) {
		t.Fatalf("every second element, then every one: %d parsed, want each of the %d once", s.Parsed, len(els))
	}
	other := make([]*element.Element, len(els))
	for i, e := range els {
		c := *e
		c.Varying = []element.Value{element.Int(int64(i) + 1)}
		other[i] = &c
	}
	for _, m := range []*ElementMemo{dense, sparse} {
		sameThroughMemo(t, "another relation", encode(every(other, 2)), m)
		sameThroughMemo(t, "the first relation again", encode(every(els, 3)), m)
		sameThroughMemo(t, "the other relation, whole", encode(other), m)
	}
}

// TestMemoStaysWithinItsBudget: many distinct large answers never take the
// memo past Max, the live heap it holds agrees with what it counts, and the
// answer read all along is still copied from it.
func TestMemoStaysWithinItsBudget(t *testing.T) {
	const max = 1 << 20
	m := &ElementMemo{Max: max}
	hot := ledgerElements(200)
	hotDoc, _ := QueryBody{Answer: storage.ElementAnswer(hot), Touched: len(hot)}.AppendJSON(nil)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < 40; k++ {
		els := ledgerElements(1000)
		for _, e := range els {
			e.ES += surrogate.Surrogate(1000 * (k + 1))
		}
		doc, _ := QueryBody{Answer: storage.ElementAnswer(els), Touched: len(els)}.AppendJSON(nil)
		var r QueryResponse
		if err := r.ParseJSONMemo(doc, m); err != nil {
			t.Fatal(err)
		}
		if err := r.ParseJSONMemo(hotDoc, m); err != nil {
			t.Fatal(err)
		}
		if s := m.Stats(); s.Bytes > max {
			t.Fatalf("after %d answers of 1000 distinct elements the memo counts %d bytes, budget %d", k+1, s.Bytes, max)
		}
	}
	s := m.Stats()
	if s.Parsed < 40_000 || s.Reused < 39*200 {
		t.Fatalf("%d parsed, %d copied: want every distinct element parsed and the hot answer copied", s.Parsed, s.Reused)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// What the memo counts is what it keeps: the live heap over the memo,
	// its body document aside, is its count and not much more.
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("the memo counts %d bytes and holds %d: %d parsed, %d copied", s.Bytes, live, s.Parsed, s.Reused)
	if live > int64(s.Bytes)+max/4 {
		t.Errorf("the memo counts %d bytes and holds %d", s.Bytes, live)
	}
	runtime.KeepAlive(m)
}

// TestMemoAllocationBudget: a warm parse of tsbench's 2000-element ledger
// time-slice allocates the answer's own memory — the element slice, one
// value run, one run of time-stamp bounds — a handful of times, and
// nothing per element.
func TestMemoAllocationBudget(t *testing.T) {
	els := ledgerElements(2000)
	doc, _ := QueryBody{Answer: storage.ElementAnswer(els), Plan: "full scan (heap)", PlanNode: benchPlan(), Touched: len(els), Epoch: 9}.AppendJSON(nil)
	m := &ElementMemo{Max: 8 << 20}
	var cold QueryResponse
	if err := cold.ParseJSONMemo(doc, m); err != nil {
		t.Fatal(err)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		var r QueryResponse
		if err := r.ParseJSONMemo(doc, m); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	spent := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	// What the answer holds: the elements, two values and two bounds each.
	held := uint64(len(els)) * uint64(unsafe.Sizeof(Element{})+2*unsafe.Sizeof(Value{})+2*8)
	t.Logf("a warm 2000-element parse: %.0f allocations and %d bytes; the answer holds %d", allocs, spent, held)
	if allocs > 8 || spent > held+held/4 {
		t.Errorf("a warm 2000-element parse: %.0f allocations and %d bytes; budget 8 and %d", allocs, spent, held+held/4)
	}
	if s := m.Stats(); s.Reused != runs*2000+2000 {
		t.Errorf("%d elements copied over %d warm parses of 2000", s.Reused, runs+1)
	}
}

// TestCloneSharesNothing: a clone is equal to its source, and scribbling
// over the clone leaves the source as it was.
func TestCloneSharesNothing(t *testing.T) {
	els := memoElements()
	doc, _ := QueryBody{Answer: storage.ElementAnswer(els), Plan: "p", PlanNode: &PlanNode{Kind: "k", WinLo: new(int64), WinHi: new(int64), Input: benchPlan()}, Touched: 1}.AppendJSON(nil)
	var r, want QueryResponse
	if err := r.ParseJSON(doc); err != nil {
		t.Fatal(err)
	}
	want.ParseJSON(doc)
	c := r.Clone()
	if !reflect.DeepEqual(c, r) {
		t.Fatalf("clone differs:\n%+v\n%+v", c, r)
	}
	scribble(&c)
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("scribbling over the clone changed its source")
	}
	rows := [][]element.Value{els[0].Invariant, nil, {}, els[2].Varying}
	sdoc, _ := SelectBody{Columns: []string{"a", "b"}, Rows: rows, Plan: benchPlan(), Touched: 4}.AppendJSON(nil)
	var s, swant SelectResponse
	if err := s.ParseJSON(sdoc); err != nil {
		t.Fatal(err)
	}
	swant.ParseJSON(sdoc)
	sc := s.Clone()
	if !reflect.DeepEqual(sc, s) {
		t.Fatalf("select clone differs:\n%+v\n%+v", sc, s)
	}
	sc.Columns[0] = "x"
	for _, row := range sc.Rows {
		for i := range row {
			row[i].Int++
			row[i].Str = "x"
		}
	}
	sc.Plan.Est++
	sc.Plan.Input.Kind = "x"
	if !reflect.DeepEqual(s, swant) {
		t.Fatalf("changing the select clone changed its source")
	}
	if (QueryResponse{}).Clone().Elements != nil || (SelectResponse{Rows: [][]Value{}}).Clone().Rows == nil {
		t.Fatalf("a clone keeps nil nil and empty empty")
	}
}
