// Package element implements the temporal element of the paper's conceptual
// model (§2): the unit of storage in a temporal relation, carrying an
// element surrogate, an object surrogate, a transaction-time existence
// interval, a valid time-stamp (event or interval), time-invariant and
// time-varying attribute values, and user-defined times.
package element

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/chronon"
)

// ValueKind discriminates attribute value types.
type ValueKind uint8

// The supported attribute value kinds. User-defined times (§2) are stored
// as KindTime values: the system gives them no temporal semantics.
const (
	KindNull ValueKind = iota
	KindString
	KindInt
	KindFloat
	KindBool
	KindTime
)

// String names the kind.
func (k ValueKind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindTime:
		return "time"
	}
	return fmt.Sprintf("ValueKind(%d)", uint8(k))
}

// Value is a single attribute value: a small tagged union over the
// supported kinds, four words wide. An int, a bool and a time keep their
// integer in w, a float its IEEE bits; a string its content in s. The zero
// Value is null.
type Value struct {
	kind ValueKind
	s    string
	w    int64
}

// Null returns the null value.
func Null() Value { return Value{} }

// String_ builds a string value. (Named with a trailing underscore to leave
// the String method free for fmt.Stringer.)
func String_(s string) Value { return Value{kind: KindString, s: s} }

// Int builds an integer value.
func Int(i int64) Value { return Value{kind: KindInt, w: i} }

// Float builds a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, w: int64(math.Float64bits(f))} }

// Bool builds a boolean value.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{kind: KindBool, w: i}
}

// Time builds a user-defined time value. The system interprets it as an
// ordinary comparable value, per §2.
func Time(c chronon.Chronon) Value { return Value{kind: KindTime, w: int64(c)} }

// Kind reports the value's kind.
func (v Value) Kind() ValueKind { return v.kind }

// Word is the value's integer word: an int's, bool's or time's integer, a
// float's IEEE bits, zero for a string and for null. With the kind and, for
// a string, the content, it is the whole value: a store that keeps values
// as columns keeps these (WordValue).
func (v Value) Word() int64 { return v.w }

// WordValue rebuilds a value of kind k from the word Word reported; a
// string's content goes through String_ instead.
func WordValue(k ValueKind, w int64) Value { return Value{kind: k, w: w} }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// int is the integer payload, zero for a float: its word holds bits.
func (v Value) int() int64 {
	if v.kind == KindFloat {
		return 0
	}
	return v.w
}

// float is the float payload, zero for every other kind.
func (v Value) float() float64 {
	if v.kind != KindFloat {
		return 0
	}
	return math.Float64frombits(uint64(v.w))
}

// Str returns the string content; ok is false for non-string values.
func (v Value) Str() (string, bool) { return v.s, v.kind == KindString }

// IntVal returns the integer content; ok is false for non-int values.
func (v Value) IntVal() (int64, bool) { return v.int(), v.kind == KindInt }

// FloatVal returns the float content; ok is false for non-float values.
func (v Value) FloatVal() (float64, bool) { return v.float(), v.kind == KindFloat }

// BoolVal returns the boolean content; ok is false for non-bool values.
func (v Value) BoolVal() (bool, bool) { return v.int() != 0, v.kind == KindBool }

// TimeVal returns the time content; ok is false for non-time values.
func (v Value) TimeVal() (chronon.Chronon, bool) {
	return chronon.Chronon(v.int()), v.kind == KindTime
}

// Equal reports whether two values have the same kind and content. Floats
// are equal as floats, not as bits: −0 equals +0, and NaN equals nothing.
func (v Value) Equal(w Value) bool {
	if v.kind == KindFloat && w.kind == KindFloat {
		return v.float() == w.float()
	}
	return v == w
}

// Compare orders two values of the same kind: -1, 0, or +1. Nulls compare
// equal to each other and less than everything else. Comparing values of
// different non-null kinds panics, as the schema layer prevents it.
func (v Value) Compare(w Value) int {
	if v.kind == KindNull || w.kind == KindNull {
		switch {
		case v.kind == w.kind:
			return 0
		case v.kind == KindNull:
			return -1
		}
		return 1
	}
	if v.kind != w.kind {
		panic(fmt.Sprintf("element: comparing %v to %v", v.kind, w.kind))
	}
	switch v.kind {
	case KindString:
		switch {
		case v.s < w.s:
			return -1
		case v.s > w.s:
			return 1
		}
		return 0
	case KindFloat:
		switch {
		case v.float() < w.float():
			return -1
		case v.float() > w.float():
			return 1
		}
		return 0
	default: // int, bool, time share the integer payload
		switch {
		case v.w < w.w:
			return -1
		case v.w > w.w:
			return 1
		}
		return 0
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindString:
		return strconv.Quote(v.s)
	case KindInt:
		return strconv.FormatInt(v.w, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindBool:
		if v.w != 0 {
			return "true"
		}
		return "false"
	case KindTime:
		return chronon.Chronon(v.w).String()
	}
	return fmt.Sprintf("Value(%d)", v.kind)
}
