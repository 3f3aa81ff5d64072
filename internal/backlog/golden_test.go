package backlog

// Golden snapshot bytes. testdata/snapshot_v1.golden is what Save wrote for
// goldenHistory before the relation stopped storing its backlog as a list
// of its own: the records are now merged from the versions and the delete
// records on demand, and the file pins that the merge writes the same
// bytes, in the same order, and that loading them gives back the same
// backlog. The file is never regenerated; -update exists only to write it
// from a tree whose bytes are known good.

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/tx"
)

var updateSnapshot = flag.Bool("update", false, "rewrite testdata/snapshot_v1.golden from this tree's Save")

const snapshotGolden = "testdata/snapshot_v1.golden"

// goldenHistory holds every value kind, a negative zero, a string that
// needs escaping in any textual form, two closes, a modify (a delete and
// an insert at one transaction time) and a vacuum that drops a closed
// version and its two records.
func goldenHistory(t *testing.T) *relation.Relation {
	t.Helper()
	r := relation.New(relation.Schema{
		Name:        "golden",
		ValidTime:   element.IntervalStamp,
		Granularity: chronon.Second,
		Invariant: []relation.Column{
			{Name: "key", Type: element.KindString},
			{Name: "n", Type: element.KindInt},
		},
		Varying: []relation.Column{
			{Name: "x", Type: element.KindFloat},
			{Name: "ok", Type: element.KindBool},
			{Name: "seen", Type: element.KindTime},
		},
		UserTimes: []string{"entered"},
	}, tx.NewLogicalClock(0, 10))
	ins := func(lo, hi int64, key string, n int64, x float64, ok bool) *element.Element {
		e, err := r.Insert(relation.Insertion{
			VT:        element.SpanOf(chronon.Chronon(lo), chronon.Chronon(hi)),
			Invariant: []element.Value{element.String_(key), element.Int(n)},
			Varying:   []element.Value{element.Float(x), element.Bool(ok), element.Time(chronon.Chronon(lo - 3))},
			UserTimes: []chronon.Chronon{chronon.Chronon(hi + 7)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a := ins(1, 5, "plain", 1, 1.5, true)
	b := ins(2, 9, "quote\" back\\slash\nnew line\ttab \u00e9 \u2028 <&>", -42, math.Copysign(0, -1), false)
	c := ins(3, 4, "", math.MaxInt64, math.Inf(-1), true)
	if err := r.Delete(a.ES); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Modify(c.ES, element.SpanOf(6, 8), []element.Value{
		element.Null(), element.Bool(true), element.Null(),
	}); err != nil {
		t.Fatal(err)
	}
	ins(7, 11, "after", math.MinInt64, 2.25e-300, false)
	if err := r.Delete(b.ES); err != nil {
		t.Fatal(err)
	}
	closedA, _ := r.ByES(a.ES)
	if removed, err := r.Vacuum(closedA.TTEnd); err != nil || removed != 1 {
		t.Fatalf("vacuum removed %d, %v", removed, err)
	}
	ins(12, 13, "last", 0, 0, true)
	return r
}

// renderBacklog prints each record with every field a snapshot keeps,
// floats by their bits so that a negative zero cannot pass for a zero.
func renderBacklog(recs []relation.LogRecord) []string {
	out := make([]string, len(recs))
	for i, rec := range recs {
		e := rec.Elem
		s := fmt.Sprintf("%v tt=%v es=%v", rec.Op, rec.TT, e.ES)
		if rec.Op == relation.OpInsert {
			s += fmt.Sprintf(" os=%v vt=%v ut=%v", e.OS, e.VT, e.UserTimes)
			for _, v := range append(append([]element.Value(nil), e.Invariant...), e.Varying...) {
				if f, ok := v.FloatVal(); ok {
					s += fmt.Sprintf(" float:%#x", math.Float64bits(f))
				} else {
					s += fmt.Sprintf(" %v:%v", v.Kind(), v)
				}
			}
		}
		out[i] = s
	}
	return out
}

func TestGoldenSnapshotBytes(t *testing.T) {
	r := goldenHistory(t)
	path := filepath.Join(t.TempDir(), "golden.tsbl")
	if err := Save(path, Of(r)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *updateSnapshot {
		if err := os.WriteFile(snapshotGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(snapshotGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Save wrote %d bytes that differ from the %d golden bytes", len(got), len(want))
	}

	loaded, _, err := Load(snapshotGolden, tx.NewLogicalClock(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, gotRecs := renderBacklog(r.Backlog()), renderBacklog(loaded.Backlog())
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("loaded %d records, want %d", len(gotRecs), len(wantRecs))
	}
	for i := range wantRecs {
		if gotRecs[i] != wantRecs[i] {
			t.Errorf("record %d:\n got %s\nwant %s", i, gotRecs[i], wantRecs[i])
		}
	}
}
