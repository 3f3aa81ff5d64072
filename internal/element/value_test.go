package element

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/chronon"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() || Null().Kind() != KindNull {
		t.Error("Null misbehaves")
	}
	if s, ok := String_("hi").Str(); !ok || s != "hi" {
		t.Error("String_ misbehaves")
	}
	if i, ok := Int(42).IntVal(); !ok || i != 42 {
		t.Error("Int misbehaves")
	}
	if f, ok := Float(2.5).FloatVal(); !ok || f != 2.5 {
		t.Error("Float misbehaves")
	}
	if b, ok := Bool(true).BoolVal(); !ok || !b {
		t.Error("Bool(true) misbehaves")
	}
	if b, ok := Bool(false).BoolVal(); !ok || b {
		t.Error("Bool(false) misbehaves")
	}
	if c, ok := Time(chronon.Chronon(7)).TimeVal(); !ok || c != 7 {
		t.Error("Time misbehaves")
	}
	// Wrong-kind accessors report !ok.
	if _, ok := Int(1).Str(); ok {
		t.Error("Str on int should fail")
	}
	if _, ok := String_("x").IntVal(); ok {
		t.Error("IntVal on string should fail")
	}
	if _, ok := Int(1).FloatVal(); ok {
		t.Error("FloatVal on int should fail")
	}
	if _, ok := Int(1).BoolVal(); ok {
		t.Error("BoolVal on int should fail")
	}
	if _, ok := Int(1).TimeVal(); ok {
		t.Error("TimeVal on int should fail")
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(3).Equal(Int(3)) {
		t.Error("equal ints differ")
	}
	if Int(3).Equal(Int(4)) {
		t.Error("distinct ints equal")
	}
	if Int(3).Equal(Float(3)) {
		t.Error("cross-kind values equal")
	}
	if !Null().Equal(Null()) {
		t.Error("nulls differ")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{String_("a"), String_("b"), -1},
		{String_("b"), String_("a"), 1},
		{String_("a"), String_("a"), 0},
		{Float(1.5), Float(2.5), -1},
		{Float(2.5), Float(1.5), 1},
		{Float(2.5), Float(2.5), 0},
		{Bool(false), Bool(true), -1},
		{Time(1), Time(2), -1},
		{Null(), Null(), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareCrossKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("cross-kind Compare should panic")
		}
	}()
	Int(1).Compare(String_("x"))
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "null"},
		{String_("hi"), `"hi"`},
		{Int(-3), "-3"},
		{Float(2.5), "2.5"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Time(0), "1970-01-01 00:00:00"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestValueKindString(t *testing.T) {
	names := map[ValueKind]string{
		KindNull: "null", KindString: "string", KindInt: "int",
		KindFloat: "float", KindBool: "bool", KindTime: "time",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

// goldenValues is one or more values of every kind, the edges included:
// both zeros, both infinities, a NaN, the integer extremes, and strings
// that need quoting.
func goldenValues() []Value {
	return []Value{
		Null(),
		String_(""), String_("a"), String_("b\"\n\u00e9"),
		Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(1.5), Float(-2.5),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()),
		Float(math.SmallestNonzeroFloat64), Float(math.MaxFloat64),
		Bool(false), Bool(true),
		Time(0), Time(-5), Time(1e9), Time(math.MaxInt64),
	}
}

// renderValues prints every accessor, String, and Equal and Compare over
// every pair that may be compared, one line each.
func renderValues(vs []Value) string {
	var b strings.Builder
	for i, v := range vs {
		s, sok := v.Str()
		n, iok := v.IntVal()
		f, fok := v.FloatVal()
		bo, bok := v.BoolVal()
		c, tok := v.TimeVal()
		fmt.Fprintf(&b, "%d %v null=%v %s str=%q,%v int=%d,%v float=%#x,%v bool=%v,%v time=%d,%v\n",
			i, v.Kind(), v.IsNull(), v, s, sok, n, iok, math.Float64bits(f), fok, bo, bok, int64(c), tok)
	}
	for i, v := range vs {
		for j, w := range vs {
			if v.Kind() != w.Kind() && !v.IsNull() && !w.IsNull() {
				fmt.Fprintf(&b, "%d %d equal=%v\n", i, j, v.Equal(w))
				continue
			}
			fmt.Fprintf(&b, "%d %d equal=%v compare=%d\n", i, j, v.Equal(w), v.Compare(w))
		}
	}
	return b.String()
}

// TestValuesAgainstGolden holds every accessor, String, Equal and Compare to
// what testdata/values_v1.golden recorded for the 40-byte Value this one
// replaced: the layout changed, the answers did not.
func TestValuesAgainstGolden(t *testing.T) {
	got := renderValues(goldenValues())
	want, err := os.ReadFile("testdata/values_v1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, want %d", len(gl), len(wl))
	}
}

func TestValueEqualKeepsFloatEquality(t *testing.T) {
	if !Float(0).Equal(Float(math.Copysign(0, -1))) {
		t.Error("0 and -0 differ")
	}
	if nan := Float(math.NaN()); nan.Equal(nan) {
		t.Error("NaN equals itself")
	}
	if Float(0).Equal(Int(0)) || Int(1).Equal(Bool(true)) || Int(1).Equal(Time(1)) {
		t.Error("values of different kinds with one payload are equal")
	}
}

func TestValueIsFourWords(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("Value is %d bytes, want 32", got)
	}
}
