package backlog

import (
	"encoding/binary"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
)

// TestSlabIsTheRecordDecode: a run of records decoded through one slab is
// record for record what DecodeRecord makes of each — whatever the slab
// was sized for, a record it has no room for included — and the inserts'
// elements and values lie in the slab's two arrays, each value list capped
// at its own length.
func TestSlabIsTheRecordDecode(t *testing.T) {
	ins := func(es uint64, vals ...element.Value) relation.LogRecord {
		return relation.LogRecord{Op: relation.OpInsert, TT: chronon.Chronon(10 * es), Elem: &element.Element{
			ES: surrogate.Surrogate(0x100 + es), OS: 1, VT: element.EventAt(chronon.Chronon(es)),
			Invariant: vals[:1], Varying: vals[1:], UserTimes: []chronon.Chronon{chronon.Chronon(es)},
		}}
	}
	recs := []relation.LogRecord{
		ins(1, element.String_("a"), element.Int(1)),
		ins(2, element.String_("b"), element.Int(2)),
		ins(3, element.String_("c"), element.Float(3), element.Bool(true), element.Null()), // wider than the slab was sized for
		{Op: relation.OpDelete, TT: 40, Elem: &element.Element{ES: 0x101}},
		ins(4, element.String_("d"), element.Time(4)),
	}
	var run []byte
	for _, rec := range recs {
		body := AppendRecord(nil, rec)
		run = append(binary.LittleEndian.AppendUint32(run, uint32(len(body))), body...)
	}
	for _, claim := range []int{0, 1, 3, len(recs), 1 << 31} {
		s := NewSlab(claim, len(run))
		if want := min(claim, len(run)/minInsertSpan); len(s.els) != want {
			t.Fatalf("claim %d: the slab holds %d elements, want %d", claim, len(s.els), want)
		}
		var els []*element.Element
		for i, b := 0, run; len(b) > 0; i++ {
			n := binary.LittleEndian.Uint32(b)
			got, err := s.Decode(b[4 : 4+n])
			want, werr := DecodeRecord(b[4 : 4+n])
			if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("claim %d, record %d: slab decode %+v, %v; DecodeRecord %+v, %v", claim, i, got, err, want, werr)
			}
			if got.Op == relation.OpInsert {
				if cap(got.Elem.Invariant) != len(got.Elem.Invariant) || cap(got.Elem.Varying) != len(got.Elem.Varying) {
					t.Fatalf("claim %d, record %d: a value list reaches past its end", claim, i)
				}
				els = append(els, got.Elem)
			}
			b = b[4+n:]
		}
		// The elements the slab had room for are consecutive in its array.
		for i := 1; i < min(claim, len(run)/minInsertSpan, len(els)); i++ {
			if uintptr(unsafe.Pointer(els[i])) != uintptr(unsafe.Pointer(els[i-1]))+unsafe.Sizeof(element.Element{}) {
				t.Fatalf("claim %d: element %d is not next to element %d in the slab", claim, i, i-1)
			}
		}
		// The first two inserts set the value array's width: theirs share it.
		next := uintptr(unsafe.Pointer(&els[0].Varying[0])) + unsafe.Sizeof(element.Value{})
		if claim >= 2 && next != uintptr(unsafe.Pointer(&els[1].Invariant[0])) {
			t.Fatalf("claim %d: the first two inserts' values are not one array", claim)
		}
	}
}
