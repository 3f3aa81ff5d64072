package query

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/refmodel"
	"repro/internal/storage"
	"repro/internal/surrogate"
	"repro/internal/wire"
)

// TestSpansAcrossTheOrganizations holds what the engine answers to what the
// encoder will do with it, on each of the four stores the engine can be
// built over — the indexed one included, which the catalog never chooses:
// every sealed span names a full chunk whose slots, in order, are the span's
// stretch of the materialized answer; the answer an index seek gives is
// elements; and the body that copies from images of the named chunks is,
// byte for byte, the body that encodes every element.
func TestSpansAcrossTheOrganizations(t *testing.T) {
	const n = 3*256 + 40
	for _, build := range []func() storage.Store{
		func() storage.Store { return storage.NewHeap() },
		func() storage.Store { return storage.NewTTLog() },
		func() storage.Store { return storage.NewVTLog() },
		func() storage.Store { return storage.NewIndexedEvent() },
	} {
		st := build()
		name := fmt.Sprintf("%T/%v", st, st.Kind())
		var stored []*element.Element
		for i := 0; i < n; i++ {
			// Every vt is held by a dozen neighbours: a time-slice is small.
			e := &element.Element{ES: surrogate.Surrogate(i + 1), OS: surrogate.Surrogate(i + 1),
				TTStart: chronon.Chronon(10 * (i + 1)), TTEnd: chronon.Forever, VT: element.EventAt(chronon.Chronon(1000 + i/12)),
				Varying: []element.Value{element.Int(int64(i) * 37)}}
			if err := st.Insert(e); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			stored = append(stored, e)
		}
		for i := 5; i < n; i += 9 { // closes in every chunk
			closed := *stored[i]
			closed.TTEnd = chronon.Chronon(10*n + i)
			st.Replace(stored[i], &closed)
		}
		en := New(st, nil)
		sliceSealed, rangeSealed := 1, 3 // an index seek's answer is elements
		if en.Access().VTIndex {
			sliceSealed, rangeSealed = 0, 0
		}
		for _, q := range []struct {
			name   string
			q      plan.Query
			sealed int
		}{
			{"current", plan.Query{Kind: plan.QCurrent}, 3},
			{"rollback, cut inside chunk 1", plan.Query{Kind: plan.QRollback, TT: 10 * 400}, 2},
			{"rollback, late", plan.Query{Kind: plan.QRollback, TT: 20 * n}, 3},
			{"time-slice", plan.Query{Kind: plan.QTimeslice, VTLo: 1020, VTHi: 1021}, sliceSealed},
			{"vt-range", plan.Query{Kind: plan.QVTRange, VTLo: 1000, VTHi: 1000 + n}, rangeSealed},
		} {
			a, _, _ := en.Answer(q.q)
			els := a.Elements()
			if len(els) == 0 || len(els) != a.Len() {
				t.Fatalf("%s, %s: %d elements, the answer says %d", name, q.name, len(els), a.Len())
			}
			body := wire.QueryBody{Answer: a, Touched: len(els)}
			at, sealed := 0, 0
			for i, sp := range a.Spans() {
				if !sp.Sealed() {
					at += sp.Len()
					continue
				}
				sealed++
				chunk := storage.ChunkOf(st, sp.Chunk())
				slots := sp.Slots()
				for j := slots.Next(0); j < storage.ChunkSize; j = slots.Next(j + 1) {
					if es, tt := chunk.Key(j); els[at].ES != es || els[at].TTEnd != tt {
						t.Fatalf("%s, %s: span %d names slot %d of chunk %d, which is not the answer's element %d", name, q.name, i, j, sp.Chunk(), at)
					}
					at++
				}
				img, err := wire.BuildChunkImage(chunk, nil)
				if err != nil {
					t.Fatal(err)
				}
				body.Images = append(body.Images, wire.ImageSpan{Span: i, Image: img})
			}
			if sealed != q.sealed || at != len(els) {
				t.Fatalf("%s, %s: %d sealed spans over %d of %d elements, want %d", name, q.name, sealed, at, len(els), q.sealed)
			}
			spliced, err := body.AppendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			body.Images = nil
			if plain, _ := body.AppendJSON(nil); !bytes.Equal(spliced, plain) {
				t.Fatalf("%s, %s: the spliced body is not the encoded one", name, q.name)
			}
			rows := wire.QueryBody{Answer: storage.ElementAnswer(els), Touched: len(els)}
			if plain, _ := rows.AppendJSON(nil); !bytes.Equal(spliced, plain) {
				t.Fatalf("%s, %s: the body of the answer is not the body of its elements", name, q.name)
			}
		}
	}
}

// TestRelabelDownKeepsColumns re-labels a store down the chain — the
// vt-ordered log, then the tt-ordered log, then the heap — the way the
// catalog drops a promise: every full chunk was columns on the log and stays
// columns under each label, the chunks that fill under the lower labels seal
// as they fill, and every query kind — the current state, time-slices,
// valid-time ranges, rollbacks, as-of reads and the bounded pushdown —
// answers what the definition (refmodel) does over the flat list of versions, version for
// version. Every version lies within −2000 ≤ vt − tt⊢ ≤ 0, the bound the
// pushdown is given.
func TestRelabelDownKeepsColumns(t *testing.T) {
	st := storage.NewVTLog()
	var flat []*element.Element
	tt := chronon.Chronon(0)
	add := func(back chronon.Chronon) {
		tt += 10
		vt := tt - back
		e := &element.Element{ES: surrogate.Surrogate(len(flat) + 1), OS: 1, TTStart: tt, TTEnd: chronon.Forever,
			VT: element.EventAt(vt), Varying: []element.Value{element.Int(int64(len(flat)))}}
		if err := st.Insert(e); err != nil {
			t.Fatal(err)
		}
		flat = append(flat, e)
	}
	closeEvery := func(from, step int) {
		for i := from; i < len(flat); i += step {
			if old := flat[i]; old.Current() {
				tt += 10
				repl := *old
				repl.TTEnd = tt
				st.Replace(old, &repl)
				flat[i] = &repl
			}
		}
	}
	check := func(label string) {
		t.Helper()
		if k := st.Kind().String(); k != label {
			t.Fatalf("the store is the %s, want the %s", k, label)
		}
		for k := 0; (k+1)*storage.ChunkSize <= st.Len(); k++ {
			if c := storage.ChunkOf(st, k); !c.Sealed() {
				t.Fatalf("%s: full chunk %d is elements", label, k)
			}
		}
		same := func(what string, got, want []*element.Element) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s, %s: %d versions, the definition %d", label, what, len(got), len(want))
			}
			for i := range got {
				if got[i].ES != want[i].ES || got[i].TTEnd != want[i].TTEnd || !reflect.DeepEqual(*got[i], *want[i]) {
					t.Fatalf("%s, %s: version %d is %v, the definition's %v", label, what, i, got[i], want[i])
				}
			}
		}
		en := New(st, nil)
		if err := en.UseVTOffsetBounds(-2000, 0); err != nil {
			t.Fatal(err)
		}
		same("current", en.Current().Elements, refmodel.Current(flat))
		found := 0
		for _, i := range []int{0, 100, len(flat) / 3, len(flat) / 2, len(flat) - 5} {
			vt := flat[i].VT.Start()
			found += len(en.Timeslice(vt).Elements)
			same(fmt.Sprint("time-slice at ", vt), en.Timeslice(vt).Elements, refmodel.Timeslice(flat, vt))
			same(fmt.Sprint("vt-range from ", vt), en.VTRange(vt, vt+700).Elements, refmodel.VTRange(flat, vt, vt+700))
			a, _ := st.Pushdown(vt, vt+699+2000, vt, vt+700)
			same(fmt.Sprint("pushdown from ", vt), a.Elements(), refmodel.VTRange(flat, vt, vt+700))
		}
		if found == 0 {
			t.Fatalf("%s: no time-slice found a version; the check compares empty answers", label)
		}
		for _, at := range []chronon.Chronon{5, tt / 3, tt / 2, tt} {
			same(fmt.Sprint("rollback to ", at), en.Rollback(at).Elements, refmodel.Rollback(flat, at))
			vt := flat[len(flat)/3].VT.Start()
			a, _, err := storage.AsOf(context.Background(), st, vt, at)
			if err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprint("as of ", at), a.Elements(), refmodel.AsOf(flat, vt, at))
		}
	}
	for i := 0; i < 3*storage.ChunkSize+50; i++ {
		add(0)
	}
	closeEvery(3, 7)
	check("vt-ordered log")
	for _, down := range []storage.Kind{storage.TTOrdered, storage.Heap} {
		if err := st.Retype(down); err != nil {
			t.Fatal(err)
		}
		check(down.String())
		// Out of valid-time order, past the next chunk boundary: it fills and
		// seals under the lower label.
		for i := 0; i < storage.ChunkSize+30; i++ {
			add(chronon.Chronon(i * 7919 % 2001))
		}
		closeEvery(len(flat)-storage.ChunkSize, 5)
		check(down.String())
	}
}
