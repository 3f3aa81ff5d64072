package wire

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
)

// briefRequests are insertions whose values the round trip normalizes: the
// empty kind, payloads the kind does not name, zero values, -0, strings the
// encoder escapes, invalid UTF-8 and a literal U+FFFD beside it, event and
// interval stamps, an explicit object, user times, empty and nil lists.
func briefRequests() []InsertRequest {
	return []InsertRequest{
		{VT: EventAt(5), Invariant: []Value{String("merrie")}, Varying: []Value{Int(27000)}},
		{VT: EventAt(0), Invariant: []Value{{Kind: ""}, {Kind: "", Str: "x", Int: 3}}, Varying: []Value{{Kind: "null", Float: 2}}},
		{VT: SpanOf(-100, math.MaxInt64), Invariant: []Value{String("")},
			Varying: []Value{Float(math.Copysign(0, -1)), Bool(false), Time(0), Int(0)}, UserTimes: []int64{0}},
		{Object: 9, VT: SpanOf(10, 20), Invariant: []Value{String("<a href=\"x\">&amp; é\t\x01</a>")},
			Varying: []Value{Float(1e-7), Bool(true), Time(-1), {Kind: "int", Str: "junk", Int: -9, Float: 1, Bool: true, Time: 4}}, UserTimes: []int64{-5, 7}},
		{VT: EventAt(math.MinInt64), Invariant: []Value{String("bad\xffutf\xc0\xaf8 � \xed\xa0\x80")},
			Varying: []Value{{Kind: "float", Float: 123456789012345678901234}, {Kind: "string", Int: 4}, {Kind: "bool", Str: "s"}}},
		{VT: EventAt(1), Invariant: []Value{}, Varying: nil, UserTimes: []int64{}},
	}
}

// TestCompleteIsTheRoundTrip: a brief report completed from its request is
// the whole report decoded, value for value and bit for bit — and it shares
// no memory with the request, which the caller may change the moment the
// call returns.
func TestCompleteIsTheRoundTrip(t *testing.T) {
	reqs := briefRequests()
	checkComplete(t, reqs)
	for i := range reqs {
		checkComplete(t, reqs[i:i+1])
	}

	got := completed(t, reqs)
	if s := got.Items[4].Element.Invariant[0].Str; s != "bad\ufffdutf\ufffd\ufffd8 \ufffd \ufffd\ufffd\ufffd" {
		t.Errorf("invalid UTF-8 came back as %q", s)
	}
	if v := got.Items[2].Element.Varying[0]; v.Kind != "float" || math.Signbit(v.Float) {
		t.Errorf("-0 came back as %+v, signbit %v", v, math.Signbit(v.Float))
	}
	if v := got.Items[1].Element.Invariant[1]; v != Null() {
		t.Errorf(`{"kind":"","str":"x","int":3} came back as %+v`, v)
	}
	before, _ := json.Marshal(got)
	for i := range reqs {
		q := &reqs[i]
		for _, p := range []*int64{q.VT.Event, q.VT.Start, q.VT.End} {
			if p != nil {
				*p = 42
			}
		}
		for _, vs := range [][]Value{q.Invariant, q.Varying} {
			for j := range vs {
				vs[j] = String("changed")
			}
		}
		for j := range q.UserTimes {
			q.UserTimes[j] = 42
		}
	}
	if after, _ := json.Marshal(got); string(after) != string(before) {
		t.Errorf("changing the request changed the completed report:\n before %s\n after  %s", before, after)
	}

	// An item the request does not cover, and a kind no server takes.
	reqs = briefRequests()
	report := briefReport(t, reqs)
	var short BatchInsertResponse
	if err := short.ParseJSON(report); err != nil {
		t.Fatal(err)
	}
	if err := short.Complete(reqs[:2]); err == nil {
		t.Error("a brief item past the request was completed")
	}
	var odd BatchInsertResponse
	if err := odd.ParseJSON(report); err != nil {
		t.Fatal(err)
	}
	reqs[3].Varying[0].Kind = "zebra"
	if err := odd.Complete(reqs); err == nil || !strings.Contains(err.Error(), `"zebra"`) {
		t.Errorf("a value kind outside the six: %v", err)
	}
}

// storedAs is the element a relation of granularity 1 stores for in as its
// i-th, under surrogates and a tt⊢ of its own.
func storedAs(i int, in relation.Insertion) *element.Element {
	inv, vary := element.PackValues(in.Invariant, in.Varying)
	return &element.Element{ES: surrogate.Surrogate(i + 1), OS: surrogate.Surrogate(7 + i), TTStart: chronon.Chronon(100 * i),
		TTEnd: chronon.Forever, VT: in.VT, Invariant: inv, Varying: vary, UserTimes: append([]chronon.Chronon(nil), in.UserTimes...)}
}

// briefReport is the brief report of reqs, every item stored: the request
// encoded as the client sends it, read as the server reads it, each
// insertion stored as storedAs stores it.
func briefReport(tb testing.TB, reqs []InsertRequest) []byte {
	doc, err := BatchInsertRequest{Elements: reqs, Brief: true}.AppendJSON(nil)
	if err != nil {
		tb.Fatal(err)
	}
	var ins BatchInsertions
	if err := ins.ParseJSON(doc); err != nil {
		tb.Fatal(err)
	}
	items := make(reportItems, len(reqs))
	for i, in := range ins.Elements {
		items[i] = reportItem{status: "stored", el: storedAs(i, in), brief: true}
	}
	report, err := BatchBody[reportItems]{Items: items, Stored: len(items)}.AppendJSON(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return report
}

// completed is briefReport parsed and completed from reqs.
func completed(tb testing.TB, reqs []InsertRequest) BatchInsertResponse {
	var out BatchInsertResponse
	if err := out.ParseJSON(briefReport(tb, reqs)); err != nil {
		tb.Fatal(err)
	}
	if err := out.Complete(reqs); err != nil {
		tb.Fatal(err)
	}
	return out
}
