package wire

// The general half of a request parse: the six request bodies — insert,
// query, select, delete, modify and elements:batch — read as the server's
// strict json.Decoder reads them, spelling for spelling. Whitespace
// anywhere, members in any order, names matched exactly or as
// bytes.EqualFold folds them, null leaving a scalar or an object as it was,
// a member named twice read twice over the same field, anything after the
// first value ignored. What the decoder refuses is refused in its words,
// in its order: the first syntax error — wherever it lies, or the end of
// the input inside the value — then the first unknown member or value of
// the wrong type, in body order.
//
// The insert and batch bodies are offered to the canonical parse first
// (parse.go), which reads the encoder's spelling straight-line; where it
// stops short the body is read again from its start here. The small bodies
// are read here alone: at each member the name the encoder would write
// next is tried first, as one literal.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
)

// BatchError is a batch body that is JSON of the right shape and still no
// batch: no elements, keys that do not parallel them, or an element that
// does not convert (InsertRequest.ToInsertion), in that order.
type BatchError string

func (e BatchError) Error() string { return string(e) }

// maxNest is encoding/json's limit on arrays and objects open at once.
const maxNest = 10000

// A shape is a request struct as encoding/json sees it.
type shape struct {
	name, typ string   // as its errors spell the struct: Value, wire.Value
	keys      []string // each JSON name as the encoder writes it after a comma, in its order
}

var (
	valueShape     = shape{"Value", "wire.Value", []string{`,"kind":`, `,"str":`, `,"int":`, `,"float":`, `,"bool":`, `,"time":`}}
	timestampShape = shape{"Timestamp", "wire.Timestamp", []string{`,"event":`, `,"start":`, `,"end":`}}
	insertShape    = shape{"InsertRequest", "wire.InsertRequest", []string{`,"object":`, `,"vt":`, `,"invariant":`, `,"varying":`, `,"user_times":`}}
	batchShape     = shape{"BatchInsertRequest", "wire.BatchInsertRequest", []string{`,"elements":`, `,"keys":`, `,"atomic":`, `,"brief":`}}
	queryShape     = shape{"QueryRequest", "wire.QueryRequest", []string{`,"kind":`, `,"vt":`, `,"tt":`}}
	selectShape    = shape{"SelectRequest", "wire.SelectRequest", []string{`,"query":`}}
	deleteShape    = shape{"DeleteRequest", "wire.DeleteRequest", []string{`,"es":`}}
	modifyShape    = shape{"ModifyRequest", "wire.ModifyRequest", []string{`,"es":`, `,"vt":`, `,"varying":`}}
)

// member is one struct field being read, for the path a type error names.
type member struct {
	sh *shape
	k  int
}

// request parses a request body into *r, which is first zeroed: by fast,
// the canonical parse, when there is one and it takes every byte, and
// otherwise by general from the body's start. On an error *r is left as it
// was.
func request[T any](r *T, src []byte, fast, general func(*parser, *T)) error {
	old := *r
	p := newParser(src)
	if *r = *new(T); fast != nil {
		fast(p, r)
		p.lit("\n")
	}
	if fast == nil || p.bad || p.i != len(src) {
		if *r = *new(T); p.reset() == len(src) {
			p.err = io.EOF
		} else {
			general(p, r)
		}
	}
	var err error
	switch {
	case p.err != nil:
		err = p.err
	case p.saved != "":
		err = errors.New(p.saved)
	case p.refusal != "":
		err = BatchError(p.refusal)
	default:
		return nil
	}
	*r = old
	return err
}

// reset readies the parser to read its input again from the start, and
// returns where the first value begins.
func (p *parser) reset() int {
	p.i, p.bad, p.err, p.refusal = 0, false, nil, ""
	p.ws()
	return p.i
}

// ws skips whitespace and returns the byte after it, 0 at the input's end.
func (p *parser) ws() byte {
	for ; p.i < len(p.src); p.i++ {
		switch c := p.src[p.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// fail stops the reading at p.i with the error encoding/json's scanner
// gives the byte there, in context; past the input's end, with
// io.ErrUnexpectedEOF.
func (p *parser) fail(context string) {
	if p.bad {
		return
	}
	p.bad = true
	if p.i >= len(p.src) {
		p.err = io.ErrUnexpectedEOF
		return
	}
	var buf [96]byte
	msg := append(buf[:0], "invalid character '"...)
	switch c := p.src[p.i]; c {
	case '\'':
		msg = append(msg, `\'`...)
	case '"':
		msg = append(msg, '"')
	default:
		n := len(msg)
		msg = strconv.AppendQuote(msg, string(rune(c)))
		msg = append(msg[:n], msg[n+1:len(msg)-1]...)
	}
	p.err = errors.New(string(append(append(msg, "' "...), context...)))
}

// mistype keeps encoding/json's error for a value of the wrong kind for
// its target, of Go type typ, unless an earlier one is kept: what names
// the value, as "string" or "number 1.5".
func (p *parser) mistype(what, typ string) {
	if p.saved != "" {
		return
	}
	if p.nctx == 0 {
		p.saved = "json: cannot unmarshal " + what + " into Go value of type " + typ
		return
	}
	var path strings.Builder
	for _, m := range p.ctx[:p.nctx] {
		key := m.sh.keys[m.k]
		path.WriteString("." + key[2:len(key)-2])
	}
	p.saved = "json: cannot unmarshal " + what + " into Go struct field " + p.ctx[p.nctx-1].sh.name + path.String() + " of type " + typ
}

// begin skips whitespace and returns the first byte of the value after
// it; where no value begins, it fails and returns 0.
func (p *parser) begin() byte {
	switch c := p.ws(); c {
	case '{', '[', '"', '-', 't', 'f', 'n', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return c
	}
	p.fail("looking for beginning of value")
	return 0
}

// literal reads true, false or null, whose first byte is at p.i.
func (p *parser) literal(w string) {
	for j := range len(w) {
		if p.i == len(p.src) || p.src[p.i] != w[j] {
			p.fail("in literal " + w + " (expecting '" + w[j:j+1] + "')")
			return
		}
		p.i++
	}
}

// number reads a number by JSON's grammar into p.tok; its first byte, a
// sign or a digit, is at p.i.
func (p *parser) number() {
	s, i := p.src, p.i
	if s[i] == '-' {
		i++
	}
	ok := i < len(s) && s[i] == '0'
	if ok {
		i++
	} else if i, ok = p.digits(i); !ok {
		p.i = i
		p.fail("in numeric literal")
		return
	}
	if i < len(s) && s[i] == '.' {
		if i, ok = p.digits(i + 1); !ok {
			p.i = i
			p.fail("after decimal point in numeric literal")
			return
		}
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i, ok = p.digits(i); !ok {
			p.i = i
			p.fail("in exponent of numeric literal")
			return
		}
	}
	p.tok, p.i = s[p.i:i], i
}

// scalar reads the string, number or literal that begins with c at p.i.
func (p *parser) scalar(c byte) {
	switch c {
	case '"':
		p.tok = p.text()
	case 't':
		p.literal("true")
	case 'f':
		p.literal("false")
	case 'n':
		p.literal("null")
	default:
		p.number()
	}
}

// name reads an object member's name and the ':' after it, p.i being
// where the name should begin.
func (p *parser) name() []byte {
	if p.ws() != '"' {
		p.fail("looking for beginning of object key string")
		return nil
	}
	key := p.text()
	if !p.bad && p.ws() != ':' {
		p.fail("after object key")
	}
	p.i++
	return key
}

// skip reads past the value after p.i, every byte of it checked as
// encoding/json's scanner checks it. It does not recurse: open holds, for
// every array or object the value has open, whether it is an object.
func (p *parser) skip() {
	var stack [64]bool
	open := stack[:0]
value:
	for !p.bad {
		switch c := p.begin(); c {
		case 0:
			return
		case '{', '[':
			if p.nest == maxNest {
				p.fail("exceeded max depth")
				return
			}
			p.nest++
			p.i++
			open = append(open, c == '{')
			if d := p.ws(); c == '{' && d != '}' {
				p.name()
				continue
			} else if c == '[' && d != ']' {
				continue
			}
			p.i++
			p.nest--
			open = open[:len(open)-1]
		default:
			p.scalar(c)
		}
		// Past a value: close what it ends, or go on to the next.
		for len(open) > 0 && !p.bad {
			obj := open[len(open)-1]
			switch c := p.ws(); {
			case c == ',':
				p.i++
				if obj {
					p.name()
				}
				continue value
			case obj && c == '}', !obj && c == ']':
				p.i++
				p.nest--
				open = open[:len(open)-1]
			case obj:
				p.fail("after object key:value pair")
			default:
				p.fail("after array element")
			}
		}
		return
	}
}

// next reads the value after p.i for a target of Go type typ that takes
// want: '{' an object, '[' an array, '"' a string, '0' a number, 't' a
// boolean. It returns want past the bracket that opens an array or an
// object, or past a scalar, whose bytes p.tok holds; 'n' past null; and 0
// past a value of another kind — kept as a type error — or where the
// reading stopped.
func (p *parser) next(want byte, typ string) byte {
	c := p.begin()
	start := p.i
	switch c {
	case 0:
		return 0
	case want, 'n':
		if c == '{' || c == '[' {
			p.nest++
			p.i++
			return c
		}
	case '{', '[':
		p.mistype(kindNames[c], typ)
		p.skip()
		return 0
	}
	p.scalar(c)
	if p.bad {
		return 0
	}
	switch c {
	case 'n':
		return 'n'
	case 't', 'f':
		p.tok, c = p.src[start:p.i], 't'
	case '"':
	default:
		c = '0'
	}
	if c != want {
		p.mistype(kindNames[c], typ)
		return 0
	}
	return c
}

// kindNames are how encoding/json's type errors name a value by its kind.
var kindNames = [...]string{'{': "object", '[': "array", '"': "string", '0': "number", 't': "bool"}

const done = -2

// member reads up to the value of an object's next member, n being the
// members before it and at where among sh's names the last was found, and
// returns the index of its name: at once for the name the encoder would
// write next, spelled as it writes it, and otherwise the name encoding/json
// matches exactly or folded. A name none matches is an unknown field, kept
// as an error, and its value is read past (-1). At the object's '}' member
// returns done.
func (p *parser) member(n int, at *int, sh *shape) int {
	if n > 0 {
		p.nctx--
	}
	if p.bad {
		return done
	}
	switch c := p.ws(); {
	case c == '}':
		p.i++
		p.nest--
		return done
	case n > 0 && c != ',':
		p.fail("after object key:value pair")
		return done
	case n > 0:
		p.i++
	}
	if p.ws() == '"' {
		for k := *at; k < len(sh.keys); k++ {
			if p.lit(sh.keys[k][1:]) {
				*at = k + 1
				return p.enter(sh, k)
			}
		}
	}
	name := p.name()
	if p.bad {
		return done
	}
	for k, key := range sh.keys {
		if bytes.EqualFold(name, []byte(key[2:len(key)-2])) {
			return p.enter(sh, k)
		}
	}
	if p.saved == "" {
		const unknown = "json: unknown field "
		p.saved = string(strconv.AppendQuote(append(make([]byte, 0, len(unknown)+len(name)+2), unknown...), string(name)))
	}
	p.enter(sh, -1)
	p.skip()
	return -1
}

// enter notes that the member read next is sh's field k.
func (p *parser) enter(sh *shape, k int) int {
	p.ctx[p.nctx] = member{sh, k}
	p.nctx++
	return k
}

// object reads the value after p.i into a struct of shape sh: null leaves
// it as it was; field reads each member's value given its index.
func (p *parser) object(sh *shape, field func(k int)) {
	if p.next('{', sh.typ) != '{' {
		return
	}
	for n, at := 0, 0; ; n++ {
		switch k := p.member(n, &at, sh); k {
		case done:
			return
		case -1:
		default:
			field(k)
		}
	}
}

// item reads up to an array's next item, past the ',' before it unless it
// is the first (n = 0), and reports whether there is one: false past the
// array's ']', or where the reading stopped.
func (p *parser) item(n int) bool {
	if p.bad {
		return false
	}
	switch c := p.ws(); {
	case c == ']':
		p.i++
		p.nest--
		return false
	case n == 0:
		return true
	case c == ',':
		p.i++
		return true
	}
	p.fail("after array element")
	return false
}

// items counts the items of the array whose '[' is just before from that
// can be read into a list item, without reading them: a size for the slice
// they are read into, which the reading does not trust. It counts, outside
// strings and nested brackets, each item that begins with a byte of into —
// the first bytes of the values that decode into the item's type — up to
// the first place where no value follows.
func (p *parser) items(from int, into string) int {
	s, n, depth, item := p.src, 0, 0, true
	for i := from; i < len(s); i++ {
		k := itemBytes[s[i]]
		if k == ' ' {
			continue
		}
		if item && depth == 0 {
			if !strings.ContainsRune("{[\"-0123456789tfn", rune(s[i])) {
				return n
			}
			if strings.IndexByte(into, s[i]) >= 0 {
				n++
			}
			item = false
		}
		switch k {
		case '"':
			for i++; i < len(s) && s[i] != '"'; i++ {
				if s[i] == '\\' {
					i++
				}
			}
		case '[':
			depth++
		case ']':
			if depth--; depth < 0 {
				return n
			}
		case ',':
			item = depth == 0
		}
	}
	return n
}

// itemBytes sorts the bytes items looks at: an opening bracket as '[', a
// closing one as ']', whitespace as ' ', any other byte but '"' and ','
// as 0.
var itemBytes = [256]byte{'"': '"', ',': ',', '[': '[', '{': '[', ']': ']', '}': ']', ' ': ' ', '\t': ' ', '\n': ' ', '\r': ' '}

// list reads the value after p.i over *s as encoding/json reads an array
// into a slice: null makes it nil, [] empty, and item i is read over the
// item i its backing array holds — left by the lists read into it before,
// since it was last emptied — or over a zero item past that. The items that
// can decode are counted first, and a new list is taken from sl, when there
// is one; an item of the wrong kind is a type error, which refuses the
// body, so it is read past and not kept.
func list[T any](p *parser, s *[]T, typ string, sl *slab[T]) {
	switch p.next('[', typ) {
	case 'n':
		*s = nil
	case '[':
		into := itemStarts(*new(T))
		v, n := *s, p.items(p.i, into)
		switch {
		case cap(v) == 0 && sl != nil && n > 0:
			v = sl.take(n, p.left())
		case n > cap(v):
			v = append(make([]T, 0, n), v[:cap(v)]...)
		}
		v = v[:0]
		for i := 0; p.item(i); i++ {
			if strings.IndexByte(into, p.ws()) < 0 {
				var t T
				listItem(p, &t)
				continue
			}
			if len(v) < cap(v) {
				v = v[:len(v)+1]
			} else {
				v = append(v, *new(T))
			}
			listItem(p, &v[len(v)-1])
		}
		if len(v) == 0 {
			v = []T{}
		}
		*s = v
	}
}

// itemStarts is the first bytes of the values that decode into a list item
// of t's type: null, and an object, a number or a string.
func itemStarts(t any) string {
	switch t.(type) {
	case Value:
		return "n{"
	case int64:
		return "n-0123456789"
	}
	return `n"`
}

// listItem reads a list's item.
func listItem[T any](p *parser, v *T) {
	switch x := any(v).(type) {
	case *Value:
		p.anyValue(x)
	case *int64:
		p.anyInt(x)
	case *string:
		p.anyString(x)
	}
}

// anyString reads a string into the arena, or as one of ws when it is.
func (p *parser) anyString(s *string, ws ...string) {
	if p.next('"', "string") != '"' {
		return
	}
	for _, w := range ws {
		if string(p.tok) == w {
			*s = w
			return
		}
	}
	*s = p.strs.add(p.tok, p.left())
}

func (p *parser) anyBool(b *bool) {
	if p.next('t', "bool") == 't' {
		*b = p.tok[0] == 't'
	}
}

// int64Of converts the number p.tok holds as encoding/json converts it
// into an int64, keeping its type error for one that is not an integer or
// does not fit.
func (p *parser) int64Of() (int64, bool) {
	v, err := strconv.ParseInt(string(p.tok), 10, 64)
	if err != nil {
		p.mistype("number "+string(p.tok), "int64")
	}
	return v, err == nil
}

func (p *parser) anyInt(n *int64) {
	if p.next('0', "int64") == '0' {
		if v, ok := p.int64Of(); ok {
			*n = v
		}
	}
}

func (p *parser) anyUint(n *uint64) {
	if p.next('0', "uint64") == '0' {
		v, err := strconv.ParseUint(string(p.tok), 10, 64)
		if err != nil {
			p.mistype("number "+string(p.tok), "uint64")
			return
		}
		*n = v
	}
}

func (p *parser) anyFloat(f *float64) {
	if p.next('0', "float64") == '0' {
		v, err := strconv.ParseFloat(string(p.tok), 64)
		if err != nil {
			p.mistype("number "+string(p.tok), "float64")
			return
		}
		*f = v
	}
}

// anyPtr reads an integer through a pointer: null makes it nil, and a
// number is written where it points, to a new slab item if nowhere.
func (p *parser) anyPtr(n **int64) {
	switch p.next('0', "int64") {
	case 'n':
		*n = nil
	case '0':
		v, ok := p.int64Of()
		if !ok {
			return
		}
		if *n == nil {
			*n = p.ints.one(p.left())
		}
		**n = v
	}
}

func (p *parser) anyValue(v *Value) {
	p.object(&valueShape, func(k int) {
		switch k {
		case 0:
			p.anyString(&v.Kind, words[:]...)
		case 1:
			p.anyString(&v.Str)
		case 2:
			p.anyInt(&v.Int)
		case 3:
			p.anyFloat(&v.Float)
		case 4:
			p.anyBool(&v.Bool)
		case 5:
			p.anyInt(&v.Time)
		}
	})
}

func (p *parser) anyTimestamp(t *Timestamp) {
	p.object(&timestampShape, func(k int) { p.anyPtr([...]**int64{&t.Event, &t.Start, &t.End}[k]) })
}

func (p *parser) anyInsert(r *InsertRequest) {
	p.object(&insertShape, func(k int) {
		switch k {
		case 0:
			p.anyUint(&r.Object)
		case 1:
			p.anyTimestamp(&r.VT)
		case 2:
			list(p, &r.Invariant, "[]wire.Value", &p.vals)
		case 3:
			list(p, &r.Varying, "[]wire.Value", &p.vals)
		case 4:
			list(p, &r.UserTimes, "[]int64", &p.ints)
		}
	})
}

func (p *parser) anyQuery(r *QueryRequest) {
	p.object(&queryShape, func(k int) {
		switch k {
		case 0:
			p.anyString(&r.Kind, queryKinds[:]...)
		case 1:
			p.anyInt(&r.VT)
		case 2:
			p.anyInt(&r.TT)
		}
	})
}

func (p *parser) anySelect(r *SelectRequest) {
	p.object(&selectShape, func(int) { p.anyString(&r.Query) })
}

func (p *parser) anyDelete(r *DeleteRequest) {
	p.object(&deleteShape, func(int) { p.anyUint(&r.ES) })
}

func (p *parser) anyModify(r *ModifyRequest) {
	p.object(&modifyShape, func(k int) {
		switch k {
		case 0:
			p.anyUint(&r.ES)
		case 1:
			p.anyTimestamp(&r.VT)
		case 2:
			list(p, &r.Varying, "[]wire.Value", &p.vals)
		}
	})
}

// A batch body's elements are read one wire request at a time and each is
// converted as soon as it is read (convert); the vals and ints slabs then
// hold only the request just converted and are handed back (recycle). A
// list of elements is read over the lists before it since one emptied the
// field, as encoding/json reads it into a slice: lists holds where each of
// them begins, and when it is more than one its elements are converted
// once the body is read, element i from element i of each in turn
// (overlay). Past a type error or an element that does not convert, the
// elements are only read.

func (p *parser) anyBatch(r *BatchInsertions) {
	p.object(&batchShape, func(k int) {
		switch k {
		case 0:
			p.anyElements(r)
		case 1:
			list(p, &r.Keys, "[]string", nil)
		case 2:
			p.anyBool(&r.Atomic)
		case 3:
			p.anyBool(&r.Brief)
		}
	})
	switch {
	case p.bad || p.saved != "" || p.refuseBatch(r):
	case len(p.lists) > 1:
		p.overlay(r)
	case p.failed > 0:
		var w InsertRequest
		p.i = p.failed
		p.anyInsert(&w)
		p.unconverted(p.failedAt, &w)
	}
}

// refuseBatch refuses a batch of no elements, or whose keys do not
// parallel them.
func (p *parser) refuseBatch(r *BatchInsertions) bool {
	switch {
	case p.count == 0:
		p.refusal = "empty batch"
	case len(r.Keys) != 0 && len(r.Keys) != p.count:
		p.refusal = fmt.Sprintf("batch carries %d keys for %d elements", len(r.Keys), p.count)
	default:
		return false
	}
	return true
}

func (p *parser) anyElements(r *BatchInsertions) {
	switch p.next('[', "[]wire.InsertRequest") {
	case 'n':
		p.lists, p.count = p.lists[:0], 0
	case '[':
		first, start, n := len(p.lists) == 0, p.i, 0
		if first {
			r.Elements, p.failed = nil, 0
		}
		for ; p.item(n); n++ {
			var w InsertRequest
			at := p.i
			p.anyInsert(&w)
			if first && p.saved == "" && p.failed == 0 {
				if ins, ok := p.convert(&w); !ok {
					p.failed, p.failedAt = at, n
				} else {
					if len(r.Elements) == cap(r.Elements) { // twice the room: the items are not counted before they are read
						r.Elements = append(make([]relation.Insertion, 0, max(2*len(r.Elements), 16)), r.Elements...)
					}
					r.Elements = append(r.Elements, ins)
				}
			}
			p.recycle()
		}
		if p.count = n; n == 0 {
			p.lists = p.lists[:0]
		} else {
			p.lists = append(p.lists, start)
		}
	}
}

// overlay converts the elements of a run of lists as decoding the whole
// body builds them: element i is read from element i of every list that
// has one, in turn, over one request.
func (p *parser) overlay(r *BatchInsertions) {
	r.Elements = make([]relation.Insertion, 0, p.count)
	for i := range p.count {
		var w InsertRequest
		for j, at := range p.lists {
			if p.i = at; p.ws() != ']' {
				p.anyInsert(&w)
				if p.ws() == ',' {
					p.i++
				}
				p.lists[j] = p.i
			}
		}
		ins, ok := p.convert(&w)
		if !ok {
			p.unconverted(i, &w)
			return
		}
		r.Elements = append(r.Elements, ins)
		p.recycle()
	}
}

// convert is InsertRequest.ToInsertion into the parser's slabs, without
// its error: ok is false where ToInsertion refuses.
func (p *parser) convert(w *InsertRequest) (ins relation.Insertion, ok bool) {
	ins.Object = surrogate.Surrogate(w.Object)
	if ins.VT, ok = w.VT.engine(); !ok {
		return ins, false
	}
	if ins.Invariant, ok = p.engine(w.Invariant); !ok {
		return ins, false
	}
	if ins.Varying, ok = p.engine(w.Varying); !ok {
		return ins, false
	}
	if len(w.UserTimes) > 0 {
		ins.UserTimes = p.times.take(len(w.UserTimes), p.left())
		for i, u := range w.UserTimes {
			ins.UserTimes[i] = chronon.Chronon(u)
		}
	}
	return ins, true
}

// engine is ToValues into the parser's slab, without its error.
func (p *parser) engine(vs []Value) ([]element.Value, bool) {
	if len(vs) == 0 {
		return nil, true
	}
	out := p.evals.take(len(vs), p.left())
	for i, v := range vs {
		var ok bool
		if out[i], ok = v.engine(); !ok {
			return nil, false
		}
	}
	return out, true
}

// unconverted words the refusal of element i, w: ToInsertion's.
func (p *parser) unconverted(i int, w *InsertRequest) {
	_, err := w.ToInsertion()
	p.refusal = fmt.Sprintf("element %d: %s", i, err)
}

// recycle hands back the vals and ints slabs' current chunks, zeroed.
func (p *parser) recycle() {
	clear(p.vals.buf)
	p.vals.buf = p.vals.buf[:0]
	clear(p.ints.buf)
	p.ints.buf = p.ints.buf[:0]
}
