package wire

// The parsing half of the hand-written codec: one pass over the bytes,
// no validity pre-pass, and a handful of allocations per response
// instead of a handful per element. See Parser for the contract — this
// parser knows the canonical spelling and gives up on everything else.

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// errNotCanonical is the parser's only error: the input is either not
// JSON or JSON spelled in a way only encoding/json should judge.
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
	var zero T
	s.buf = append(s.buf, zero)
	s.used++
	return start
}

// one hands out a single zero item.
func (s *slab[T]) one(left int) *T {
	s.grow(len(s.buf), left)
	return &s.buf[len(s.buf)-1]
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
	ints    slab[int64]
	vals    slab[Value]
	elems   slab[Element]
	strs    arena
	scratch []byte // unescaping buffer
	depth   int    // plan-node nesting

	// The first chunks are part of the parser, which its callbacks put
	// on the heap anyway: a one-element response — every insert's — and
	// a two-node plan take no slab allocation at all.
	ints0  [2]int64
	vals0  [2]Value
	plans0 [2]PlanNode
	plans  int
}

func newParser(src []byte) *parser {
	p := &parser{src: src}
	p.ints.buf, p.vals.buf = p.ints0[:0], p.vals0[:0]
	// `1,` — `{"kind":""},` — `{"vt":{}},`
	p.ints.per, p.vals.per, p.elems.per = 2, 12, 10
	return p
}

func (p *parser) left() int { return len(p.src) - p.i }

// ws skips JSON whitespace; the canonical spelling has none, so the
// first comparison is the usual exit.
func (p *parser) ws() {
	for p.i < len(p.src) {
		if c := p.src[p.i]; c > ' ' || (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
			return
		}
		p.i++
	}
}

// eat consumes c if it is the next token.
func (p *parser) eat(c byte) bool {
	p.ws()
	if p.i < len(p.src) && p.src[p.i] == c {
		p.i++
		return true
	}
	return false
}

// more consumes the separator after an item: true after a comma, false
// after the closing bracket, an error for anything else.
func (p *parser) more(closing byte) (bool, error) {
	p.ws()
	if p.i < len(p.src) {
		switch c := p.src[p.i]; c {
		case ',', closing:
			p.i++
			return c == ',', nil
		}
	}
	return false, errNotCanonical
}

// null consumes a null, which in every position means "leave the zero
// value": the parser fills fresh values and refuses duplicate keys, so
// there is never an earlier value for encoding/json's no-op to keep.
func (p *parser) null() bool {
	p.ws()
	if p.left() >= 4 && p.src[p.i] == 'n' && string(p.src[p.i:p.i+4]) == "null" {
		p.i += 4
		return true
	}
	return false
}

// object walks {"key":value,...}, calling field with each key and the
// parser standing at its value. Keys must be spelled exactly as in
// keys, without escapes, each at most once; canonical order is the fast
// case (the search starts after the previous hit) but not required.
func (p *parser) object(keys []string, field func(key string) error) error {
	if p.null() {
		return nil
	}
	if !p.eat('{') {
		return errNotCanonical
	}
	if p.eat('}') {
		return nil
	}
	var seen uint
	next := 0
	for {
		if !p.eat('"') {
			return errNotCanonical
		}
		rest, idx := p.src[p.i:], -1
		for j := range keys {
			c := next + j
			if c >= len(keys) {
				c -= len(keys)
			}
			if k := keys[c]; len(rest) > len(k) && rest[len(k)] == '"' && string(rest[:len(k)]) == k {
				idx = c
				break
			}
		}
		if idx < 0 || seen&(1<<idx) != 0 {
			return errNotCanonical
		}
		p.i += len(keys[idx]) + 1
		if !p.eat(':') {
			return errNotCanonical
		}
		seen |= 1 << idx
		next = idx + 1
		if err := field(keys[idx]); err != nil {
			return err
		}
		if more, err := p.more('}'); !more {
			return err
		}
	}
}

// mark and extrapolate size a result set from its first item.
type mark struct{ pos, ints, vals, elems, strs int }

func (p *parser) mark() mark {
	return mark{p.i, p.ints.used, p.vals.used, p.elems.used, p.strs.used}
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
	p.strs.want = n*(p.strs.used-m.strs) + 128
	return n
}

// array parses [item,...] into a slice sized by extrapolate.
func array[T any](p *parser, item func(*T) error) ([]T, error) {
	if p.null() {
		return nil, nil
	}
	if !p.eat('[') {
		return nil, errNotCanonical
	}
	if p.eat(']') {
		return []T{}, nil
	}
	m := p.mark()
	var first T
	if err := item(&first); err != nil {
		return nil, err
	}
	out := make([]T, 1, 1+p.extrapolate(m))
	out[0] = first
	for {
		more, err := p.more(']')
		if err != nil {
			return nil, err
		}
		if !more {
			return out, nil
		}
		var zero T
		out = append(out, zero)
		if err := item(&out[len(out)-1]); err != nil {
			return nil, err
		}
	}
}

// integer parses -?(0|[1-9][0-9]*) that is not the head of a fraction
// or an exponent, as sign and magnitude.
func (p *parser) integer() (neg bool, mag uint64, err error) {
	if p.null() {
		return false, 0, nil
	}
	s, i := p.src, p.i
	if i < len(s) && s[i] == '-' {
		neg = true
		i++
	}
	if i >= len(s) || s[i]-'0' > 9 {
		return false, 0, errNotCanonical
	}
	if s[i] == '0' {
		i++
	} else {
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			d := uint64(s[i] - '0')
			if mag > (math.MaxUint64-d)/10 {
				return false, 0, errNotCanonical
			}
			mag = mag*10 + d
		}
	}
	if i < len(s) && (s[i] == '.' || s[i] == 'e' || s[i] == 'E' || s[i]-'0' <= 9) {
		return false, 0, errNotCanonical
	}
	p.i = i
	return neg, mag, nil
}

func (p *parser) int64() (int64, error) {
	neg, mag, err := p.integer()
	switch {
	case err != nil:
		return 0, err
	case neg && mag <= 1<<63:
		return -int64(mag), nil
	case !neg && mag <= math.MaxInt64:
		return int64(mag), nil
	}
	return 0, errNotCanonical
}

func (p *parser) int() (int, error) {
	x, err := p.int64()
	return int(x), err
}

func (p *parser) uint64() (uint64, error) {
	neg, mag, err := p.integer()
	if neg {
		return 0, errNotCanonical
	}
	return mag, err
}

// int64p parses an optional integer into a slab-backed pointer.
func (p *parser) int64p() (*int64, error) {
	if p.null() {
		return nil, nil
	}
	x, err := p.int64()
	if err != nil {
		return nil, err
	}
	ptr := p.ints.one(p.left())
	*ptr = x
	return ptr, nil
}

func (p *parser) int64s() ([]int64, error) {
	if p.null() {
		return nil, nil
	}
	if !p.eat('[') {
		return nil, errNotCanonical
	}
	if p.eat(']') {
		return []int64{}, nil
	}
	start := len(p.ints.buf)
	for {
		x, err := p.int64()
		if err != nil {
			return nil, err
		}
		start = p.ints.grow(start, p.left())
		p.ints.buf[len(p.ints.buf)-1] = x
		if more, err := p.more(']'); !more {
			return p.ints.buf[start:len(p.ints.buf):len(p.ints.buf)], err
		}
	}
}

func (p *parser) digits(i int) (int, bool) {
	start := i
	for i < len(p.src) && p.src[i]-'0' <= 9 {
		i++
	}
	return i, i > start
}

// float64 scans the JSON number grammar (strconv accepts more) and
// converts it; a number float64 cannot hold is encoding/json's to refuse.
func (p *parser) float64() (float64, error) {
	if p.null() {
		return 0, nil
	}
	s, i := p.src, p.i
	if i < len(s) && s[i] == '-' {
		i++
	}
	ok := false
	if i < len(s) && s[i] == '0' {
		i, ok = i+1, true
	} else {
		i, ok = p.digits(i)
	}
	if ok && i < len(s) && s[i] == '.' {
		i, ok = p.digits(i + 1)
	}
	if ok && i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		i, ok = p.digits(i)
	}
	if !ok || (i < len(s) && s[i]-'0' <= 9) {
		return 0, errNotCanonical
	}
	f, err := strconv.ParseFloat(string(s[p.i:i]), 64)
	if err != nil {
		return 0, errNotCanonical
	}
	p.i = i
	return f, nil
}

func (p *parser) bool() (bool, error) {
	p.ws()
	switch {
	case p.left() >= 4 && string(p.src[p.i:p.i+4]) == "true":
		p.i += 4
		return true, nil
	case p.left() >= 5 && string(p.src[p.i:p.i+5]) == "false":
		p.i += 5
		return false, nil
	case p.null():
		return false, nil
	}
	return false, errNotCanonical
}

// str parses a string into the arena. Printable ASCII up to the closing
// quote is the fast case; an escape or a byte from 0x80 up takes unquote.
func (p *parser) str() (string, error) {
	if p.null() {
		return "", nil
	}
	if !p.eat('"') {
		return "", errNotCanonical
	}
	s := p.src
	for i := p.i; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			raw := s[p.i:i]
			p.i = i + 1
			return p.strs.add(raw, p.left()), nil
		case c == '\\' || c >= utf8.RuneSelf:
			return p.unquote(i)
		case c < ' ':
			return "", errNotCanonical
		}
	}
	return "", errNotCanonical
}

// words are the strings a response repeats per value or per item — the
// value kinds and the batch statuses — returned as constants.
var words = [...]string{"string", "int", "null", "float", "bool", "time", "stored", "deduped", "rejected"}

func (p *parser) word() (string, error) {
	p.ws()
	if s := p.src[p.i:]; len(s) > 0 && s[0] == '"' {
		for _, w := range words {
			if end := len(w) + 1; len(s) > end && s[end] == '"' && string(s[1:end]) == w {
				p.i += end + 1
				return w, nil
			}
		}
	}
	return p.str()
}

// hex4 reads \uXXXX at s[0:6], or -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unquote finishes a string whose plain prefix src[p.i:i] str has
// scanned, with encoding/json's rules: the eight two-character escapes,
// \uXXXX with surrogate pairs joined and a lone surrogate replaced by
// U+FFFD, and invalid UTF-8 coerced to U+FFFD byte by byte.
func (p *parser) unquote(i int) (string, error) {
	s := p.src
	b := append(p.scratch[:0], s[p.i:i]...)
	for i < len(s) {
		switch c := s[i]; {
		case c == '"':
			p.i, p.scratch = i+1, b
			return p.strs.add(b, p.left()), nil
		case c == '\\':
			if i+1 >= len(s) {
				return "", errNotCanonical
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
				r := hex4(s[i:])
				if r < 0 {
					return "", errNotCanonical
				}
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
				return "", errNotCanonical
			}
			i += 2
		case c < ' ':
			return "", errNotCanonical
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	return "", errNotCanonical
}

func (p *parser) strings() ([]string, error) {
	return array(p, func(s *string) (err error) {
		*s, err = p.str()
		return err
	})
}

var valueKeys = []string{"kind", "str", "int", "float", "bool", "time"}

func (p *parser) value(v *Value) error {
	return p.object(valueKeys, func(key string) (err error) {
		switch key {
		case "kind":
			v.Kind, err = p.word()
		case "str":
			v.Str, err = p.str()
		case "int":
			v.Int, err = p.int64()
		case "float":
			v.Float, err = p.float64()
		case "bool":
			v.Bool, err = p.bool()
		case "time":
			v.Time, err = p.int64()
		}
		return err
	})
}

// values parses an attribute list or a row as one run of the value slab.
func (p *parser) values() ([]Value, error) {
	if p.null() {
		return nil, nil
	}
	if !p.eat('[') {
		return nil, errNotCanonical
	}
	if p.eat(']') {
		return []Value{}, nil
	}
	start := len(p.vals.buf)
	for {
		start = p.vals.grow(start, p.left())
		if err := p.value(&p.vals.buf[len(p.vals.buf)-1]); err != nil {
			return nil, err
		}
		if more, err := p.more(']'); !more {
			return p.vals.buf[start:len(p.vals.buf):len(p.vals.buf)], err
		}
	}
}

var timestampKeys = []string{"event", "start", "end"}

func (p *parser) timestamp(t *Timestamp) error {
	return p.object(timestampKeys, func(key string) (err error) {
		switch key {
		case "event":
			t.Event, err = p.int64p()
		case "start":
			t.Start, err = p.int64p()
		case "end":
			t.End, err = p.int64p()
		}
		return err
	})
}

var elementKeys = []string{"es", "os", "tt_start", "tt_end", "current", "vt", "invariant", "varying", "user_times"}

func (p *parser) element(e *Element) error {
	return p.object(elementKeys, func(key string) (err error) {
		switch key {
		case "es":
			e.ES, err = p.uint64()
		case "os":
			e.OS, err = p.uint64()
		case "tt_start":
			e.TTStart, err = p.int64()
		case "tt_end":
			e.TTEnd, err = p.int64()
		case "current":
			e.Current, err = p.bool()
		case "vt":
			err = p.timestamp(&e.VT)
		case "invariant":
			e.Invariant, err = p.values()
		case "varying":
			e.Varying, err = p.values()
		case "user_times":
			e.UserTimes, err = p.int64s()
		}
		return err
	})
}

var planNodeKeys = []string{"kind", "org", "win_lo", "win_hi", "note", "count", "est", "input"}

// maxPlanDepth bounds the one recursive shape. Real plans nest a few
// decorators; past this the input is encoding/json's, which has its own
// limit and an error for it.
const maxPlanDepth = 64

func (p *parser) planNode() (*PlanNode, error) {
	if p.null() {
		return nil, nil
	}
	if p.depth >= maxPlanDepth {
		return nil, errNotCanonical
	}
	var n *PlanNode
	if p.plans < len(p.plans0) {
		n = &p.plans0[p.plans]
		p.plans++
	} else {
		n = new(PlanNode)
	}
	p.depth++
	err := p.object(planNodeKeys, func(key string) (err error) {
		switch key {
		case "kind":
			n.Kind, err = p.str()
		case "org":
			n.Org, err = p.str()
		case "win_lo":
			n.WinLo, err = p.int64p()
		case "win_hi":
			n.WinHi, err = p.int64p()
		case "note":
			n.Note, err = p.str()
		case "count":
			n.Count, err = p.int()
		case "est":
			n.Est, err = p.int()
		case "input":
			n.Input, err = p.planNode()
		}
		return err
	})
	p.depth--
	return n, err
}

var queryResponseKeys = []string{"elements", "plan", "plan_node", "touched", "epoch"}

func (p *parser) queryResponse(r *QueryResponse) error {
	return p.object(queryResponseKeys, func(key string) (err error) {
		switch key {
		case "elements":
			r.Elements, err = array(p, p.element)
		case "plan":
			r.Plan, err = p.str()
		case "plan_node":
			r.PlanNode, err = p.planNode()
		case "touched":
			r.Touched, err = p.int()
		case "epoch":
			r.Epoch, err = p.uint64()
		}
		return err
	})
}

var elementResponseKeys = []string{"element"}

func (p *parser) elementResponse(r *ElementResponse) error {
	return p.object(elementResponseKeys, func(string) error { return p.element(&r.Element) })
}

var batchItemKeys = []string{"status", "error", "element"}

func (p *parser) batchItem(it *BatchItem) error {
	return p.object(batchItemKeys, func(key string) (err error) {
		switch key {
		case "status":
			it.Status, err = p.word()
		case "error":
			it.Error, err = p.str()
		case "element":
			if !p.null() {
				it.Element = p.elems.one(p.left())
				err = p.element(it.Element)
			}
		}
		return err
	})
}

var batchResponseKeys = []string{"items", "stored", "deduped", "rejected", "epoch"}

func (p *parser) batchResponse(r *BatchInsertResponse) error {
	return p.object(batchResponseKeys, func(key string) (err error) {
		switch key {
		case "items":
			r.Items, err = array(p, p.batchItem)
		case "stored":
			r.Stored, err = p.int()
		case "deduped":
			r.Deduped, err = p.int()
		case "rejected":
			r.Rejected, err = p.int()
		case "epoch":
			r.Epoch, err = p.uint64()
		}
		return err
	})
}

var selectResponseKeys = []string{"columns", "rows", "plan", "touched", "engine"}

func (p *parser) selectResponse(r *SelectResponse) error {
	return p.object(selectResponseKeys, func(key string) (err error) {
		switch key {
		case "columns":
			r.Columns, err = p.strings()
		case "rows":
			r.Rows, err = array(p, func(row *[]Value) (err error) {
				*row, err = p.values()
				return err
			})
		case "plan":
			r.Plan, err = p.planNode()
		case "touched":
			r.Touched, err = p.int()
		case "engine":
			r.Engine, err = p.str()
		}
		return err
	})
}

var insertRequestKeys = []string{"object", "vt", "invariant", "varying", "user_times"}

func (p *parser) insertRequest(r *InsertRequest) error {
	return p.object(insertRequestKeys, func(key string) (err error) {
		switch key {
		case "object":
			r.Object, err = p.uint64()
		case "vt":
			err = p.timestamp(&r.VT)
		case "invariant":
			r.Invariant, err = p.values()
		case "varying":
			r.Varying, err = p.values()
		case "user_times":
			r.UserTimes, err = p.int64s()
		}
		return err
	})
}

var batchRequestKeys = []string{"elements", "keys", "atomic"}

func (p *parser) batchRequest(r *BatchInsertRequest) error {
	return p.object(batchRequestKeys, func(key string) (err error) {
		switch key {
		case "elements":
			r.Elements, err = array(p, p.insertRequest)
		case "keys":
			r.Keys, err = p.strings()
		case "atomic":
			r.Atomic, err = p.bool()
		}
		return err
	})
}

// parseTop runs one type's parser over the whole of src, in place, and
// puts *r back as it was unless every byte was canonical.
func parseTop[T any](r *T, src []byte, parse func(*parser, *T) error) error {
	p := newParser(src)
	old := *r
	*r = *new(T)
	err := parse(p, r)
	if p.ws(); err != nil || p.i != len(src) {
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

func (r *InsertRequest) ParseJSON(src []byte) error {
	return parseTop(r, src, (*parser).insertRequest)
}

func (r *BatchInsertRequest) ParseJSON(src []byte) error {
	return parseTop(r, src, (*parser).batchRequest)
}
