package wire

// The parsing half of the hand-written codec: one pass over the bytes,
// no validity pre-pass, and a handful of allocations per response
// instead of a handful per element. Each shape is read the way codec.go
// writes it — the same literals in the same order — so the accept set is
// the encoder's image and nothing else; see Parser for the contract. A
// request body this canonical parse does not take whole is read again by
// the general half (request.go).

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
)

// errNotCanonical is a response parser's only error: the input is either
// not JSON or JSON spelled in a way only encoding/json should judge.
var errNotCanonical = errors.New("wire: not the canonical JSON spelling")

// slab hands out items of large chunks, so the thousands of small
// objects of a response — a pointer per time-stamp bound, a slice per
// attribute list — cost a few allocations. A full chunk is abandoned,
// not copied: what was handed out keeps it alive.
type slab[T any] struct {
	buf  []T
	want int // the next chunk's capacity, when extrapolate knows better than doubling
	used int // items handed out, over all chunks
	per  int // the fewest input bytes one item can take: bounds a chunk by the input left
}

// grow appends a zero item to the run buf[start:] and returns where the
// run starts now — a run that hits the end of its chunk is carried to
// the next one. left is the unread input in bytes.
func (s *slab[T]) grow(start, left int) int {
	if len(s.buf) == cap(s.buf) {
		run := s.buf[start:]
		n := min(max(2*cap(s.buf), s.want, 2), left/s.per+1)
		s.buf = append(make([]T, 0, len(run)+n), run...)
		s.want, start = 0, 0
	}
	s.buf = s.buf[:len(s.buf)+1] // no chunk is used twice: the item is zero as make left it
	s.used++
	return start
}

// one hands out a single zero item.
func (s *slab[T]) one(left int) *T { return &s.take(1, left)[0] }

// take hands out a run of n zero items, in a new chunk when the current one
// has no room for them.
func (s *slab[T]) take(n, left int) []T {
	if cap(s.buf)-len(s.buf) < n {
		c := min(max(2*cap(s.buf), s.want, 2), left/s.per+1)
		s.buf = make([]T, 0, max(c, n))
		s.want = 0
	}
	start := len(s.buf)
	s.buf = s.buf[:start+n]
	s.used += n
	return s.buf[start : start+n : start+n]
}

// arena is the slab for string bytes. A strings.Builder that is never
// written past its capacity never moves its buffer, so every String()
// taken from it stays valid while later strings are appended behind it.
type arena struct {
	b    strings.Builder
	want int
	used int
}

func (a *arena) add(raw []byte, left int) string {
	if len(raw) == 0 {
		return ""
	}
	if a.b.Cap()-a.b.Len() < len(raw) {
		n := max(min(max(2*a.b.Cap(), a.want, 32), left), len(raw))
		a.b = strings.Builder{}
		a.b.Grow(n)
		a.want = 0
	}
	off := a.b.Len()
	a.b.Write(raw)
	a.used += len(raw)
	return a.b.String()[off:]
}

type parser struct {
	src     []byte
	i       int
	bad     bool // sticky: some byte was not the encoder's; parseTop checks it once
	ints    slab[int64]
	vals    slab[Value]
	elems   slab[Element]
	assigns slab[Assigned]
	evals   slab[element.Value]
	times   slab[chronon.Chronon]
	strs    arena
	scratch []byte // unescaping buffer
	depth   int    // plan-node nesting

	// The general reading of a request (request.go): what stopped it, the
	// first unknown member or type error, a batch's refusal; the arrays and
	// objects open, the scalar read last, the fields being read.
	err            error
	saved, refusal string
	nest           int
	tok            []byte
	ctx            [4]member
	nctx           int
	lists          []int // where a batch's element lists since the last emptied begin
	lists0         [2]int
	count          int // the elements of the last
	failed         int // where the first of its elements that does not convert begins
	failedAt       int // and which it is

	// The first chunks are part of the parser: a one-element response —
	// every insert's — and a two-node plan take no slab allocation at all.
	ints0  [2]int64
	vals0  [2]Value
	plans0 [2]PlanNode
	plans  int

	// An answer parsed through an ElementMemo (ParseJSONMemo): the
	// relation's indexes in its young and old generation; the elements
	// seen and copied from it so far, and how many of those were found
	// after the one before; the batch and entry the last copy came from
	// (nil before the first); and the elements the memo should learn. The
	// counts are 32 bits wide, so that the parser, which every body is
	// read with, stays in the 1 KiB size class.
	memo                          *ElementMemo
	memoIdx                       [2]map[uint64]uint64
	seen, reused, hinted, lastEnt int32
	last                          *memoBatch
	pending                       []memoSpan
}

func newParser(src []byte) *parser {
	p := &parser{src: src}
	p.ints.buf, p.vals.buf, p.lists = p.ints0[:0], p.vals0[:0], p.lists0[:0]
	// `1,` — `{"kind":""},` — `{"es":0,"os":0,"tt_start":0,"tt_end":0,"current":true,"vt":{}},`
	// — `{"es":0,"os":0,"tt_start":0},`
	p.ints.per, p.vals.per, p.elems.per, p.assigns.per = 2, 12, 63, 29
	p.evals.per, p.times.per = p.vals.per, p.ints.per
	return p
}

func (p *parser) left() int { return len(p.src) - p.i }

// refuse marks the input as not the encoder's. Parsing goes on to the
// end of the shape, straight-line, but no item loop below takes another
// turn: a refused body costs no more than its accepted prefix did, and
// parseTop throws away whatever was filled in.
func (p *parser) refuse() string {
	p.bad = true
	return ""
}

// lit consumes s if the input goes on with exactly those bytes. The
// first byte is looked at before the rest is compared: where an optional
// `,"key":` is absent the input has a closing bracket, and the probe
// costs no call.
func (p *parser) lit(s string) bool {
	if i := p.i; len(p.src)-i >= len(s) && p.src[i] == s[0] && string(p.src[i:i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

// expect is lit for bytes the encoder writes unconditionally.
func (p *parser) expect(s string) {
	if !p.lit(s) {
		p.bad = true
	}
}

// field is lit for an optional `,"key":` that may be the first of its
// object, where the encoder turns the comma into the brace: open is the
// position just past that brace.
func (p *parser) field(open int, key string) bool {
	if p.i == open {
		return p.lit(key[1:])
	}
	return p.lit(key)
}

// mark and extrapolate size a result set from its first item.
type mark struct{ pos, ints, vals, elems, assigns, evals, times, strs int }

func (p *parser) mark() mark {
	return mark{p.i, p.ints.used, p.vals.used, p.elems.used, p.assigns.used, p.evals.used, p.times.used, p.strs.used}
}

// extrapolate is called after the first item of an array, with the mark
// taken before it. A result set is homogeneous — one schema, one stamp
// kind — so the rest of the array is assumed to look like its first
// item: the remaining input divided by that item's length is how many
// more to expect, and each slab is told to make its next chunk big
// enough for all of them. A wrong guess costs slack or a later chunk,
// never correctness; an item under 16 bytes is not believed.
func (p *parser) extrapolate(m mark) int {
	n := p.left()/max(p.i-m.pos+1, 16) + 1
	n += n/32 + 1
	p.ints.want = n * (p.ints.used - m.ints)
	p.vals.want = n * (p.vals.used - m.vals)
	p.elems.want = n * (p.elems.used - m.elems)
	p.assigns.want = n * (p.assigns.used - m.assigns)
	p.evals.want = n * (p.evals.used - m.evals)
	p.times.want = n * (p.times.used - m.times)
	p.strs.want = n*(p.strs.used-m.strs) + 128
	return n
}

// item parses one array item in place. It is a type switch and not a
// function value so that the calls stay direct: neither the parser nor
// array's first item escapes to the heap.
func item[T any](p *parser, v *T) {
	switch v := any(v).(type) {
	case *Element:
		p.element(v)
	case *BatchItem:
		p.batchItem(v)
	case *relation.Insertion:
		p.insertion(v)
	case *[]Value:
		*v = p.values()
	case *string:
		*v = p.str()
	}
}

// array parses [item,...] — or the null encoding/json writes for a nil
// slice — into a slice sized by extrapolate.
func array[T any](p *parser) []T {
	if p.bad {
		return nil
	}
	if !p.lit("[") {
		p.expect("null")
		return nil
	}
	if p.lit("]") {
		return []T{}
	}
	m := p.mark()
	var first T
	if item(p, &first); p.bad {
		return nil
	}
	if p.lit("]") { // one item: nothing to extrapolate, whatever input follows
		return append(make([]T, 0, 1), first)
	}
	out := append(make([]T, 0, 1+p.extrapolate(m)), first)
	for !p.bad && p.lit(",") {
		if len(out) == cap(out) { // the guess was short: guess again, from every item read
			more := p.left() / max((p.i-m.pos)/len(out), 1)
			out = append(make([]T, 0, len(out)+max(len(out), more+more/16+1)), out...)
		}
		out = out[:len(out)+1]
		item(p, &out[len(out)-1])
	}
	p.expect("]")
	return out
}

const lanes = 0x0101010101010101 // times a byte: that byte in each of the eight

var pow10 = [9]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// eightDigits reads the run of ASCII digits at the low end of w — the
// first character in the lowest byte, as a little-endian load leaves it —
// and returns their value and how many there are before the first other
// byte, eight at most. No lane carries into its neighbour: the digit
// test adds 0x76 to seven bits, and the two folds multiply values that
// stay under 100 and under 10 000.
func eightDigits(w uint64) (val uint64, k int) {
	t := w ^ 0x30*lanes // a digit becomes its value, 0–9
	other := ((t&(0x7F*lanes) + 0x76*lanes) | t) & (0x80 * lanes)
	k = bits.TrailingZeros64(other) >> 3
	t <<= uint(8-k) * 8 // the k digits behind 8−k zeros; for k = 0 nothing is left
	t = t*10 + t>>8     // even lanes: pairs of digits
	const pair = 0x000000FF000000FF
	t = (t&pair)*(100+1000000<<32) + (t>>16&pair)*(1+10000<<32)
	return t >> 32, k
}

// load reads the eight bytes at i; short of them, at the end of the
// input, the rest are bytes that are not digits.
func (p *parser) load(i int) uint64 {
	if len(p.src)-i >= 8 {
		return binary.LittleEndian.Uint64(p.src[i:])
	}
	var w uint64
	for j, c := range p.src[i:] {
		w |= uint64(c) << (8 * j)
	}
	return w
}

// num parses -?(0|[1-9][0-9]*) as sign and magnitude, eight digits a
// step, wrapping. Whether the magnitude fits is decided once, at the
// end: nineteen digits cannot reach 2⁶⁴; twenty fit only if they start
// with 1 — under 2·10¹⁹ < 2·2⁶⁴ the value wrapped once at most — and the
// wrapped value still has twenty digits, since one wrap leaves less than
// 2·10¹⁹ − 2⁶⁴ < 10¹⁹. A fraction or an exponent is not looked for: a
// number is always followed by a literal, which refuses it.
func (p *parser) num() (neg bool, mag uint64) {
	s, i := p.src, p.i
	if i < len(s) && s[i] == '-' {
		neg = true
		i++
	}
	start := i
	for {
		val, k := eightDigits(p.load(i))
		mag = mag*pow10[k] + val
		if i += k; k < 8 {
			break
		}
	}
	switch n := i - start; {
	case n == 0, n > 1 && s[start] == '0', n > 20, n == 20 && (s[start] != '1' || mag < 1e19):
		p.bad = true
	}
	p.i = i
	return neg, mag
}

func (p *parser) i64() int64 {
	neg, mag := p.num()
	if neg {
		if mag > 1<<63 {
			p.bad = true
		}
		return -int64(mag)
	}
	if mag > math.MaxInt64 {
		p.bad = true
	}
	return int64(mag)
}

// u64 refuses a sign, as strconv.ParseUint does "-0".
func (p *parser) u64() uint64 {
	neg, mag := p.num()
	if neg {
		p.bad = true
	}
	return mag
}

// i64p parses an integer into a slab-backed pointer.
func (p *parser) i64p() *int64 {
	ptr := p.ints.one(p.left())
	*ptr = p.i64()
	return ptr
}

func (p *parser) i64s() []int64 {
	p.expect("[")
	if p.lit("]") {
		return []int64{}
	}
	start := len(p.ints.buf)
	for {
		start = p.ints.grow(start, p.left())
		p.ints.buf[len(p.ints.buf)-1] = p.i64()
		if p.bad || !p.lit(",") {
			break
		}
	}
	p.expect("]")
	return p.ints.buf[start:len(p.ints.buf):len(p.ints.buf)]
}

func (p *parser) digits(i int) (int, bool) {
	start := i
	for i < len(p.src) && p.src[i]-'0' <= 9 {
		i++
	}
	return i, i > start
}

// f64 scans the JSON number grammar (strconv accepts more) and converts
// it; a number float64 cannot hold is encoding/json's to refuse.
func (p *parser) f64() float64 {
	if p.i == len(p.src) || p.src[p.i] != '-' && p.src[p.i]-'0' > 9 {
		p.bad = true
		return 0
	}
	p.number()
	f, err := strconv.ParseFloat(string(p.tok), 64)
	if err != nil {
		p.bad = true
	}
	return f
}

func (p *parser) boolean() bool {
	if p.lit("true") {
		return true
	}
	p.expect("false")
	return false
}

// str parses a string into the arena.
func (p *parser) str() string {
	if p.i == len(p.src) || p.src[p.i] != '"' {
		return p.refuse()
	}
	return p.strs.add(p.text(), p.left())
}

// text reads the string whose opening quote is at p.i and returns its
// bytes as encoding/json unquotes them. Printable ASCII up to the closing
// quote is the fast case, a slice of the input; an escape or a byte from
// 0x80 up takes unquote.
func (p *parser) text() []byte {
	s := p.src
	for i := p.i + 1; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			raw := s[p.i+1 : i]
			p.i = i + 1
			return raw
		case c == '\\' || c >= utf8.RuneSelf:
			return p.unquote(p.i+1, i)
		case c < ' ':
			p.i = i
			p.fail("in string literal")
			return nil
		}
	}
	p.i = len(s)
	p.fail("")
	return nil
}

// words are the strings a response repeats per value or per item — the
// value kinds and the batch statuses — returned as constants.
var words = [...]string{"string", "int", "null", "float", "bool", "time", "stored", "deduped", "rejected"}

// queryKinds are the kinds a query request names.
var queryKinds = [...]string{QueryTimeslice, QueryCurrent, QueryAsOf, QueryRollback}

func (p *parser) word() string { return p.wordIn(words[:]) }

// wordIn is str for a string that is usually one of ws, returned without
// a copy when it is.
func (p *parser) wordIn(ws []string) string {
	if s := p.src[p.i:]; len(s) > 0 && s[0] == '"' {
		for _, w := range ws {
			if end := len(w) + 1; len(s) > end && s[1] == w[0] && s[end] == '"' && string(s[1:end]) == w {
				p.i += end + 1
				return w
			}
		}
	}
	return p.str()
}

// unhex is the value of a hexadecimal digit, or -1.
func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// hex4 reads \uXXXX at s[0:6], or -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		d := unhex(c)
		if d < 0 {
			return -1
		}
		r = r*16 + d
	}
	return r
}

// unquote finishes, into p.scratch, a string whose plain prefix
// src[start:i] text has scanned, with encoding/json's rules: the eight
// two-character escapes, \uXXXX with surrogate pairs joined and a lone
// surrogate replaced by U+FFFD, and invalid UTF-8 coerced to U+FFFD byte by
// byte. It fails where encoding/json's scanner does.
func (p *parser) unquote(start, i int) []byte {
	s := p.src
	b := append(p.scratch[:0], s[start:i]...)
	for i < len(s) {
		switch c := s[i]; {
		case c == '"':
			p.i, p.scratch = i+1, b
			return b
		case c == '\\':
			if i+1 == len(s) {
				i++
				continue
			}
			switch e := s[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j == len(s) || unhex(s[j]) < 0 {
						p.i = j
						p.fail("in \\u hexadecimal character escape")
						return nil
					}
				}
				r := hex4(s[i:])
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, hex4(s[i+6:])); pair != unicode.ReplacementChar {
						r = pair
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
				i += 4
			default:
				p.i = i + 1
				p.fail("in string escape code")
				return nil
			}
			i += 2
		case c < ' ':
			p.i = i
			p.fail("in string literal")
			return nil
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	p.i = len(s)
	p.fail("")
	return nil
}

// The shapes, each in its encoder's order: expect for what the encoder
// always writes, lit for what it writes when the field is not empty.

func (p *parser) value(v *Value) {
	p.expect(`{"kind":`)
	v.Kind = p.word()
	if p.lit(`,"str":`) {
		v.Str = p.str()
	}
	if p.lit(`,"int":`) {
		v.Int = p.i64()
	}
	if p.lit(`,"float":`) {
		v.Float = p.f64()
	}
	if p.lit(`,"bool":`) {
		v.Bool = p.boolean()
	}
	if p.lit(`,"time":`) {
		v.Time = p.i64()
	}
	p.expect("}")
}

// values parses an attribute list or a row — null for a row without
// columns — as one run of the value slab.
func (p *parser) values() []Value {
	if !p.lit("[") {
		p.expect("null")
		return nil
	}
	if p.lit("]") {
		return []Value{}
	}
	start := len(p.vals.buf)
	for {
		start = p.vals.grow(start, p.left())
		p.value(&p.vals.buf[len(p.vals.buf)-1])
		if p.bad || !p.lit(",") {
			break
		}
	}
	p.expect("]")
	return p.vals.buf[start:len(p.vals.buf):len(p.vals.buf)]
}

func (p *parser) timestamp(t *Timestamp) {
	p.expect("{")
	open := p.i
	if p.field(open, `,"event":`) {
		t.Event = p.i64p()
	}
	if p.field(open, `,"start":`) {
		t.Start = p.i64p()
	}
	if p.field(open, `,"end":`) {
		t.End = p.i64p()
	}
	p.expect("}")
}

// attributes is the tail an element and an insert request share.
func (p *parser) attributes(invariant, varying *[]Value, userTimes *[]int64) {
	if p.lit(`,"invariant":`) {
		*invariant = p.values()
	}
	if p.lit(`,"varying":`) {
		*varying = p.values()
	}
	if p.lit(`,"user_times":`) {
		*userTimes = p.i64s()
	}
	p.expect("}")
}

func (p *parser) element(e *Element) {
	start := p.i
	p.expect(`{"es":`)
	e.ES = p.u64()
	if p.memo != nil && !p.bad && p.recall(e, start) {
		return
	}
	p.expect(`,"os":`)
	e.OS = p.u64()
	p.expect(`,"tt_start":`)
	e.TTStart = p.i64()
	if p.lit(currentElement) { // written whole, matched whole
		e.TTEnd, e.Current = int64(chronon.Forever), true
	} else {
		p.expect(`,"tt_end":`)
		e.TTEnd = p.i64()
		p.expect(`,"current":`)
		e.Current = p.boolean()
	}
	p.expect(`,"vt":`)
	p.timestamp(&e.VT)
	p.attributes(&e.Invariant, &e.Varying, &e.UserTimes)
	if p.memo != nil && !p.bad {
		p.pending = append(p.pending, memoSpan{start, p.i, int(p.seen)})
		p.seen++
	}
}

// recall finishes the element that starts at start, whose surrogate e
// holds, from the memo: when the input goes on with the bytes of a
// remembered element with that surrogate, e becomes a copy of its parse in
// the answer's slabs and the bytes are skipped. One found in the old
// generation is learnt again, into the young one.
func (p *parser) recall(e *Element, start int) bool {
	b, k, old, hinted := p.memo.find(&p.memoIdx, e.ES, p.src[start:], p.last, int(p.lastEnt))
	if b == nil {
		return false
	}
	p.last, p.lastEnt = b, int32(k)
	p.recallEntry(e, b, k)
	p.i = start + int(b.ents[k].rawEnd-b.ents[k].raw)
	if old {
		p.pending = append(p.pending, memoSpan{start, p.i, int(p.seen)})
	}
	if hinted {
		p.hinted++
	}
	p.seen++
	p.reused++
	return true
}

// maxPlanDepth bounds the one recursive shape. Real plans nest a few
// decorators; past this the input is encoding/json's, which has its own
// limit and an error for it.
const maxPlanDepth = 64

func (p *parser) planNode() *PlanNode {
	if p.depth >= maxPlanDepth {
		p.bad = true
		return nil
	}
	var n *PlanNode
	if p.plans < len(p.plans0) {
		n = &p.plans0[p.plans]
		p.plans++
	} else {
		n = new(PlanNode)
	}
	p.depth++
	p.expect(`{"kind":`)
	n.Kind = p.str()
	if p.lit(`,"org":`) {
		n.Org = p.str()
	}
	if p.lit(`,"win_lo":`) {
		n.WinLo = p.i64p()
	}
	if p.lit(`,"win_hi":`) {
		n.WinHi = p.i64p()
	}
	if p.lit(`,"note":`) {
		n.Note = p.str()
	}
	if p.lit(`,"count":`) {
		n.Count = int(p.i64())
	}
	p.expect(`,"est":`)
	n.Est = int(p.i64())
	if p.lit(`,"input":`) {
		n.Input = p.planNode()
	}
	p.expect("}")
	p.depth--
	return n
}

func (p *parser) queryResponse(r *QueryResponse) {
	p.expect(`{"elements":`)
	r.Elements = array[Element](p)
	if p.lit(`,"plan":`) {
		r.Plan = p.str()
	}
	if p.lit(`,"plan_node":`) {
		r.PlanNode = p.planNode()
	}
	p.expect(`,"touched":`)
	r.Touched = int(p.i64())
	if p.lit(`,"epoch":`) {
		r.Epoch = p.u64()
	}
	p.expect("}")
}

func (p *parser) elementResponse(r *ElementResponse) {
	p.expect(`{"element":`)
	p.element(&r.Element)
	p.expect("}")
}

func (p *parser) batchItem(it *BatchItem) {
	p.expect(`{"status":`)
	it.Status = p.word()
	if p.lit(`,"error":`) {
		it.Error = p.str()
	}
	if p.lit(`,"element":`) {
		it.Element = p.elems.one(p.left())
		p.element(it.Element)
	}
	if p.lit(`,"assigned":{"es":`) {
		a := p.assigns.one(p.left())
		a.ES = p.u64()
		p.expect(`,"os":`)
		a.OS = p.u64()
		p.expect(`,"tt_start":`)
		a.TTStart = p.i64()
		p.expect("}")
		it.Assigned = a
	}
	p.expect("}")
}

func (p *parser) batchResponse(r *BatchInsertResponse) {
	p.expect(`{"items":`)
	r.Items = array[BatchItem](p)
	p.expect(`,"stored":`)
	r.Stored = int(p.i64())
	p.expect(`,"deduped":`)
	r.Deduped = int(p.i64())
	p.expect(`,"rejected":`)
	r.Rejected = int(p.i64())
	if p.lit(`,"epoch":`) {
		r.Epoch = p.u64()
	}
	p.expect("}")
}

func (p *parser) selectResponse(r *SelectResponse) {
	p.expect(`{"columns":`)
	r.Columns = array[string](p)
	p.expect(`,"rows":`)
	r.Rows = array[[]Value](p)
	if p.lit(`,"plan":`) {
		r.Plan = p.planNode()
	}
	p.expect(`,"touched":`)
	r.Touched = int(p.i64())
	if p.lit(`,"engine":`) {
		r.Engine = p.str()
	}
	p.expect("}")
}

func (p *parser) insertRequest(r *InsertRequest) {
	p.expect("{")
	if p.lit(`"object":`) {
		r.Object = p.u64()
		p.expect(",")
	}
	p.expect(`"vt":`)
	p.timestamp(&r.VT)
	p.attributes(&r.Invariant, &r.Varying, &r.UserTimes)
}

// The insertions of a batch request, each element read the way
// insertRequest reads it and converted the way InsertRequest.ToInsertion
// converts it: values straight into engine values, time-stamps into engine
// time-stamps, with no wire struct in between. What ToInsertion refuses — a
// value kind outside the six, a time-stamp that is neither an event nor a
// non-empty interval — stops the canonical parse like a byte it does not
// expect: the general reading finds the element and words the refusal.

// BatchInsertions is a BatchInsertRequest parsed into what a batch insert
// takes: one insertion per element, every value of the batch in one slab.
// ParseJSON refuses what decoding the BatchInsertRequest with the server's
// strict json.Decoder and converting it (ToInsertions) refuses, and a
// batch of no elements or with keys that do not parallel them (BatchError).
type BatchInsertions struct {
	Elements []relation.Insertion
	Keys     []string
	Atomic   bool
	Brief    bool
}

// engineValue is value converted as Value.ToValue converts.
func (p *parser) engineValue(v *element.Value) {
	var w Value
	p.value(&w)
	var ok bool
	if *v, ok = w.engine(); !ok {
		p.bad = true
	}
}

// engineValues is values into the engine slab; an empty list is nil, as
// ToValues makes it.
func (p *parser) engineValues() []element.Value {
	if p.bad {
		return nil
	}
	if !p.lit("[") {
		p.expect("null")
		return nil
	}
	if p.lit("]") {
		return nil
	}
	start := len(p.evals.buf)
	for {
		start = p.evals.grow(start, p.left())
		p.engineValue(&p.evals.buf[len(p.evals.buf)-1])
		if p.bad || !p.lit(",") {
			break
		}
	}
	p.expect("]")
	return p.evals.buf[start:len(p.evals.buf):len(p.evals.buf)]
}

// chronons is i64s into the chronon slab; an empty list is nil.
func (p *parser) chronons() []chronon.Chronon {
	p.expect("[")
	if p.lit("]") {
		return nil
	}
	start := len(p.times.buf)
	for {
		start = p.times.grow(start, p.left())
		p.times.buf[len(p.times.buf)-1] = chronon.Chronon(p.i64())
		if p.bad || !p.lit(",") {
			break
		}
	}
	p.expect("]")
	return p.times.buf[start:len(p.times.buf):len(p.times.buf)]
}

// engineStamp is timestamp converted as Timestamp.ToTimestamp converts — an
// event alone, or a start and a later end — with no pointer fields to
// allocate and no error to build.
func (p *parser) engineStamp() element.Timestamp {
	var event, start, end int64
	p.expect("{")
	open := p.i
	hasEvent := p.field(open, `,"event":`)
	if hasEvent {
		event = p.i64()
	}
	hasStart := p.field(open, `,"start":`)
	if hasStart {
		start = p.i64()
	}
	hasEnd := p.field(open, `,"end":`)
	if hasEnd {
		end = p.i64()
	}
	p.expect("}")
	switch {
	case hasEvent && !hasStart && !hasEnd:
		return element.EventAt(chronon.Chronon(event))
	case !hasEvent && hasStart && hasEnd && end > start:
		return element.SpanOf(chronon.Chronon(start), chronon.Chronon(end))
	}
	p.bad = true
	return element.Timestamp{}
}

// insertion is insertRequest converted as ToInsertion converts.
func (p *parser) insertion(ins *relation.Insertion) {
	p.expect("{")
	if p.lit(`"object":`) {
		ins.Object = surrogate.Surrogate(p.u64())
		p.expect(",")
	}
	p.expect(`"vt":`)
	ins.VT = p.engineStamp()
	if p.lit(`,"invariant":`) {
		ins.Invariant = p.engineValues()
	}
	if p.lit(`,"varying":`) {
		ins.Varying = p.engineValues()
	}
	if p.lit(`,"user_times":`) {
		ins.UserTimes = p.chronons()
	}
	p.expect("}")
}

func (p *parser) batchInsertions(r *BatchInsertions) {
	p.expect(`{"elements":`)
	r.Elements = array[relation.Insertion](p)
	if p.lit(`,"keys":`) {
		r.Keys = array[string](p)
	}
	if p.lit(`,"atomic":`) {
		r.Atomic = p.boolean()
	}
	if p.lit(`,"brief":`) {
		r.Brief = p.boolean()
	}
	p.expect("}")
	if p.count = len(r.Elements); !p.bad {
		p.refuseBatch(r)
	}
}

// parseTop runs one response type's parser over the whole of src — and the
// newline json.Encoder ends a document with, which the server keeps —
// in place, and puts *r back as it was unless every byte was the
// encoder's.
func parseTop[T any](r *T, src []byte, parse func(*parser, *T)) error {
	return parseIn(newParser(src), r, parse)
}

// parseIn is parseTop with the parser given.
func parseIn[T any](p *parser, r *T, parse func(*parser, *T)) error {
	src := p.src
	old := *r
	*r = *new(T)
	parse(p, r)
	p.lit("\n")
	if p.bad || p.i != len(src) {
		*r = old
		return errNotCanonical
	}
	return nil
}

func (v *Value) ParseJSON(src []byte) error     { return parseTop(v, src, (*parser).value) }
func (t *Timestamp) ParseJSON(src []byte) error { return parseTop(t, src, (*parser).timestamp) }
func (e *Element) ParseJSON(src []byte) error   { return parseTop(e, src, (*parser).element) }

func (r *QueryResponse) ParseJSON(src []byte) error {
	return parseTop(r, src, (*parser).queryResponse)
}

func (r *ElementResponse) ParseJSON(src []byte) error {
	return parseTop(r, src, (*parser).elementResponse)
}

func (r *BatchInsertResponse) ParseJSON(src []byte) error {
	return parseTop(r, src, (*parser).batchResponse)
}

func (r *SelectResponse) ParseJSON(src []byte) error {
	return parseTop(r, src, (*parser).selectResponse)
}

// The request parsers read every spelling the server's strict json.Decoder
// reads, to the same value, and refuse the rest in its words (request.go).

func (r *InsertRequest) ParseJSON(src []byte) error {
	return request(r, src, (*parser).insertRequest, (*parser).anyInsert)
}

func (r *BatchInsertions) ParseJSON(src []byte) error {
	return request(r, src, (*parser).batchInsertions, (*parser).anyBatch)
}

func (r *QueryRequest) ParseJSON(src []byte) error  { return request(r, src, nil, (*parser).anyQuery) }
func (r *SelectRequest) ParseJSON(src []byte) error { return request(r, src, nil, (*parser).anySelect) }
func (r *DeleteRequest) ParseJSON(src []byte) error { return request(r, src, nil, (*parser).anyDelete) }
func (r *ModifyRequest) ParseJSON(src []byte) error { return request(r, src, nil, (*parser).anyModify) }
