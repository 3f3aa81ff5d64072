package wire

// The sender's half of a brief batch report (DESIGN §14). A stored element
// is the request's valid time-stamp and values under what the server
// assigned — surrogates and tt⊢ — so the server leaves the rest out where
// the request says it all, and the sender, which holds the request, puts
// back the element the whole report would have carried.

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"repro/internal/chronon"
)

// Complete fills in the element of every brief item from reqs, the request's
// elements in order: the bytes a whole report would have carried for it,
// decoded. The values are normalized as the round trip normalizes them —
// FromValue(ToValue(v)), a float's -0 as the 0 the encoder leaves it, and
// each byte of invalid UTF-8 in a string as the U+FFFD the encoder writes —
// into a few slabs shared by the whole report, so the elements share no
// memory with reqs. The item's Assigned is cleared: the response is the one
// a whole report decodes to.
func (r *BatchInsertResponse) Complete(reqs []InsertRequest) error {
	var n, ints, vals, strs int
	for i := range r.Items {
		if r.Items[i].Assigned == nil {
			continue
		}
		if i >= len(reqs) {
			return fmt.Errorf("wire: brief item %d of a batch of %d", i, len(reqs))
		}
		q := &reqs[i]
		n++
		ints += stampInts(q.VT) + len(q.UserTimes)
		vals += len(q.Invariant) + len(q.Varying)
		strs += stringBytes(q.Invariant) + stringBytes(q.Varying)
	}
	if n == 0 {
		return nil
	}
	els := make([]Element, n)
	s := rebuild{ints: make([]int64, 0, ints), vals: make([]Value, vals)}
	s.strs.Grow(strs)
	for i := range r.Items {
		it := &r.Items[i]
		if it.Assigned == nil {
			continue
		}
		q := &reqs[i]
		e := &els[0]
		els = els[1:]
		e.ES, e.OS, e.TTStart = it.Assigned.ES, it.Assigned.OS, it.Assigned.TTStart
		e.TTEnd, e.Current = int64(chronon.Forever), true
		e.VT.Event, e.VT.Start, e.VT.End = s.ptr(q.VT.Event), s.ptr(q.VT.Start), s.ptr(q.VT.End)
		var err error
		if e.Invariant, err = s.values(q.Invariant); err != nil {
			return fmt.Errorf("wire: brief item %d: %w", i, err)
		}
		if e.Varying, err = s.values(q.Varying); err != nil {
			return fmt.Errorf("wire: brief item %d: %w", i, err)
		}
		if len(q.UserTimes) > 0 {
			at := len(s.ints)
			s.ints = append(s.ints, q.UserTimes...)
			e.UserTimes = s.ints[at:len(s.ints):len(s.ints)]
		}
		it.Element, it.Assigned = e, nil
	}
	return nil
}

// rebuild holds the slabs Complete fills, each sized beforehand: ints is
// appended to without moving, vals handed out from the front.
type rebuild struct {
	ints []int64
	vals []Value
	strs strings.Builder
}

// ptr copies *p into the integer slab; a nil stays nil.
func (s *rebuild) ptr(p *int64) *int64 {
	if p == nil {
		return nil
	}
	s.ints = append(s.ints, *p)
	return &s.ints[len(s.ints)-1]
}

// values is an attribute list as a whole report prints it back: each value
// as FromValue(ToValue(v)) — the kind's own payload alone, "" as "null" —
// with its string copied into the slab as the encoder writes it and a -0
// float as the 0 the encoder leaves; nil when empty, as the encoder omits
// it. The switch writes that value in place: going through the engine value
// and copying the result made completing a 256-element report ≈ 35 % slower.
func (s *rebuild) values(vs []Value) ([]Value, error) {
	if len(vs) == 0 {
		return nil, nil
	}
	out := s.vals[:len(vs):len(vs)]
	s.vals = s.vals[len(vs):]
	for j, v := range vs {
		w := &out[j] // zero: each field is set only when the kind names it
		switch v.Kind {
		case "string":
			w.Kind, w.Str = "string", s.str(v.Str)
		case "int":
			w.Kind, w.Int = "int", v.Int
		case "float":
			w.Kind = "float"
			if v.Float != 0 { // -0 goes out as no float at all
				w.Float = v.Float
			}
		case "bool":
			w.Kind, w.Bool = "bool", v.Bool
		case "time":
			w.Kind, w.Time = "time", v.Time
		case "null", "":
			w.Kind = "null"
		default:
			_, err := v.ToValue()
			return nil, err
		}
	}
	return out, nil
}

// str copies x into the string slab with each byte of invalid UTF-8
// replaced by U+FFFD, as appendString writes it.
func (s *rebuild) str(x string) string {
	if x == "" {
		return ""
	}
	off := s.strs.Len()
	if utf8.ValidString(x) {
		s.strs.WriteString(x)
	} else {
		for i := 0; i < len(x); {
			c, size := utf8.DecodeRuneInString(x[i:])
			if c == utf8.RuneError && size == 1 {
				s.strs.WriteRune(utf8.RuneError)
			} else {
				s.strs.WriteString(x[i : i+size])
			}
			i += size
		}
	}
	return s.strs.String()[off:]
}

func stampInts(t Timestamp) (n int) {
	if t.Event != nil {
		n++
	}
	if t.Start != nil {
		n++
	}
	if t.End != nil {
		n++
	}
	return n
}

// stringBytes is what the strings of vs take in the slab: their length, and
// two more bytes for each byte of invalid UTF-8.
func stringBytes(vs []Value) (n int) {
	for _, v := range vs {
		if v.Kind != "string" {
			continue
		}
		n += len(v.Str)
		if !utf8.ValidString(v.Str) {
			n += 2 * len(v.Str)
		}
	}
	return n
}
