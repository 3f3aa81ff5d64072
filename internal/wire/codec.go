package wire

// The hand-written half of the protocol (DESIGN §15). The shapes that
// carry elements or rows — a query result, a stored element, a batch
// report, a SELECT table, and the insert requests that feed them — and
// the small requests of every read and single-element write (query,
// select, delete, modify) are encoded and parsed here without reflection;
// everything cold (metrics, health, explain, schema, declarations,
// errors) stays on encoding/json. There is one
// protocol: every byte appended here is the byte encoding/json would
// have written for the struct of the same name, and the struct tags
// stay, so either side may use either codec. The differential tests and
// FuzzWireCodec hold the two to each other.

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/storage"
)

// Appender is a body that writes its own JSON: the encoding encoding/json
// would produce for it, without the trailing newline, appended to dst.
// The error is the one encoding/json would return (a non-finite float is
// the only way to earn it).
type Appender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// Parser is a body that reads its own JSON. A response's ParseJSON
// accepts the image of the encoders in this file and nothing else: the
// keys an Appender writes, in the order it writes them, a key it would
// have omitted either absent or present with a value, null only where
// encoding/json writes one for a nil slice (elements, items, columns,
// rows, a row), integers without fraction or exponent, and at most the one
// newline json.Encoder ends a document with. Everything else is refused —
// not only what encoding/json refuses too (an unknown, other-case or
// duplicated key, trailing data) but also spellings it accepts: keys in
// another order (`"tt_end"` before `"tt_start"`), a space after a colon or
// a comma, a pretty-printed body, null for a scalar, `1.0` or `1e3` for an
// integer. A refusal returns an error, having left the receiver
// untouched; the caller then hands the same bytes to encoding/json, which
// stays the authority on what is accepted, what is rejected, and with
// which message. A request's ParseJSON is that authority itself: it reads
// every spelling the server's strict json.Decoder reads, to the same
// value, and refuses the rest in its words (request.go). On success the
// receiver is replaced, which for the zero receivers every caller passes
// is what json.Unmarshal would have produced.
type Parser interface {
	ParseJSON(src []byte) error
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json's HTML-escaping encoder
// copies through unchanged: everything from space up except the quote,
// the backslash, and the three characters it escapes for <script>
// embedding.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString quotes s exactly as json.Encoder does with its default
// HTML escaping: two-character escapes for quote, backslash and \b \f
// \n \r \t, \u00XX for the other control bytes and for < > &, U+2028
// and U+2029 escaped, and each byte of invalid UTF-8 replaced by the six
// characters \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat writes f in encoding/json's ES6 form: shortest digits,
// exponent notation below 1e-6 and from 1e21, exponents unpadded.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendJSON writes the tagged union with Value's omitempty rules: kind
// always, every other field only when non-zero — whatever the kind says.
func (v Value) AppendJSON(dst []byte) ([]byte, error) {
	dst = appendString(append(dst, `{"kind":`...), v.Kind)
	if v.Str != "" {
		dst = appendString(append(dst, `,"str":`...), v.Str)
	}
	if v.Int != 0 {
		dst = strconv.AppendInt(append(dst, `,"int":`...), v.Int, 10)
	}
	if v.Float != 0 {
		var err error
		if dst, err = appendFloat(append(dst, `,"float":`...), v.Float); err != nil {
			return dst, err
		}
	}
	if v.Bool {
		dst = append(dst, `,"bool":true`...)
	}
	if v.Time != 0 {
		dst = strconv.AppendInt(append(dst, `,"time":`...), v.Time, 10)
	}
	return append(dst, '}'), nil
}

func appendValues(dst []byte, vs []Value) ([]byte, error) {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = v.AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendEngineValues is appendValues over engine values: what
// Value.AppendJSON writes for FromValue(v), without building it — an
// engine value has one payload, named by its kind.
func appendEngineValues(dst []byte, vs []element.Value) ([]byte, error) {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch v.Kind() {
		case element.KindString:
			dst = append(dst, `{"kind":"string"`...)
			if s, _ := v.Str(); s != "" {
				dst = appendString(append(dst, `,"str":`...), s)
			}
		case element.KindInt:
			dst = append(dst, `{"kind":"int"`...)
			if x, _ := v.IntVal(); x != 0 {
				dst = strconv.AppendInt(append(dst, `,"int":`...), x, 10)
			}
		case element.KindFloat:
			dst = append(dst, `{"kind":"float"`...)
			if f, _ := v.FloatVal(); f != 0 {
				var err error
				if dst, err = appendFloat(append(dst, `,"float":`...), f); err != nil {
					return dst, err
				}
			}
		case element.KindBool:
			dst = append(dst, `{"kind":"bool"`...)
			if b, _ := v.BoolVal(); b {
				dst = append(dst, `,"bool":true`...)
			}
		case element.KindTime:
			dst = append(dst, `{"kind":"time"`...)
			if c, _ := v.TimeVal(); c != 0 {
				dst = strconv.AppendInt(append(dst, `,"time":`...), int64(c), 10)
			}
		default:
			dst = append(dst, `{"kind":"null"`...)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

func appendInt64s[T ~int64](dst []byte, xs []T) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// AppendJSON writes whichever of event, start and end are set. Every
// field goes out with a leading comma; the first one becomes the brace.
func (t Timestamp) AppendJSON(dst []byte) ([]byte, error) {
	n := len(dst)
	if t.Event != nil {
		dst = strconv.AppendInt(append(dst, `,"event":`...), *t.Event, 10)
	}
	if t.Start != nil {
		dst = strconv.AppendInt(append(dst, `,"start":`...), *t.Start, 10)
	}
	if t.End != nil {
		dst = strconv.AppendInt(append(dst, `,"end":`...), *t.End, 10)
	}
	if len(dst) == n {
		return append(dst, "{}"...), nil
	}
	dst[n] = '{'
	return append(dst, '}'), nil
}

// currentElement is the tt_end and current of every element that has not
// been closed — most of most results — with the 19-digit sentinel
// already formatted.
var currentElement = `,"tt_end":` + strconv.FormatInt(int64(chronon.Forever), 10) + `,"current":true`

// AppendElement is the element encoder: the bytes encoding/json writes
// for FromElement(e), produced straight from the engine's element — no
// intermediate wire struct, no pointer per time-stamp.
func AppendElement(dst []byte, e *element.Element) ([]byte, error) {
	dst = strconv.AppendUint(append(dst, `{"es":`...), uint64(e.ES), 10)
	dst = strconv.AppendUint(append(dst, `,"os":`...), uint64(e.OS), 10)
	dst = strconv.AppendInt(append(dst, `,"tt_start":`...), int64(e.TTStart), 10)
	if e.Current() {
		dst = append(dst, currentElement...)
	} else {
		dst = strconv.AppendInt(append(dst, `,"tt_end":`...), int64(e.TTEnd), 10)
		dst = append(dst, `,"current":false`...)
	}
	if c, ok := e.VT.Event(); ok {
		dst = strconv.AppendInt(append(dst, `,"vt":{"event":`...), int64(c), 10)
	} else {
		iv, _ := e.VT.Interval()
		dst = strconv.AppendInt(append(dst, `,"vt":{"start":`...), int64(iv.Start), 10)
		dst = strconv.AppendInt(append(dst, `,"end":`...), int64(iv.End), 10)
	}
	dst = append(dst, '}')
	var err error
	if len(e.Invariant) > 0 {
		if dst, err = appendEngineValues(append(dst, `,"invariant":`...), e.Invariant); err != nil {
			return dst, err
		}
	}
	if len(e.Varying) > 0 {
		if dst, err = appendEngineValues(append(dst, `,"varying":`...), e.Varying); err != nil {
			return dst, err
		}
	}
	if len(e.UserTimes) > 0 {
		dst = appendInt64s(append(dst, `,"user_times":`...), e.UserTimes)
	}
	return append(dst, '}'), nil
}

// appendPlanNode writes the plan tree, innermost node last.
func appendPlanNode(dst []byte, n *PlanNode) []byte {
	dst = appendString(append(dst, `{"kind":`...), n.Kind)
	if n.Org != "" {
		dst = appendString(append(dst, `,"org":`...), n.Org)
	}
	if n.WinLo != nil {
		dst = strconv.AppendInt(append(dst, `,"win_lo":`...), *n.WinLo, 10)
	}
	if n.WinHi != nil {
		dst = strconv.AppendInt(append(dst, `,"win_hi":`...), *n.WinHi, 10)
	}
	if n.Note != "" {
		dst = appendString(append(dst, `,"note":`...), n.Note)
	}
	if n.Count != 0 {
		dst = strconv.AppendInt(append(dst, `,"count":`...), int64(n.Count), 10)
	}
	dst = strconv.AppendInt(append(dst, `,"est":`...), int64(n.Est), 10)
	if n.Input != nil {
		dst = appendPlanNode(append(dst, `,"input":`...), n.Input)
	}
	return append(dst, '}')
}

// The serving-side bodies. Each is the response struct of the matching
// name with engine values where that struct has wire copies, so a
// handler hands its result over as it got it from the catalog and the
// encoder reads it in place. They append; the client parses into the
// *Response structs.

// QueryBody encodes as QueryResponse. Its elements are Answer's, read where
// the store holds them (storage.ElementAnswer wraps a slice). Images,
// in Span order, names the sealed spans of Answer whose chunk's bytes some
// earlier answer already made (image.go): the slots they hold are copied,
// and every other version is encoded — a sealed slot through one reused
// scratch version. The body is the same bytes with or without them, and with
// the answer or its materialized elements.
type QueryBody struct {
	Answer   storage.Answer
	Images   []ImageSpan
	Plan     string
	PlanNode *PlanNode
	Touched  int
	Epoch    uint64
}

// sink is where a QueryBody's bytes go, so that the body is walked by one
// piece of code whatever becomes of them. With w nil they gather in buf,
// which grows to hold the whole body (AppendJSON). With w set buf is emptied
// into w whenever the next piece may not fit, so a body of any size passes
// through the buffer at hand (StreamJSON). With count set nothing is kept or
// written: buf is scratch for one element at a time and n ends up the body's
// length (Render, measuring a body it may stream).
type sink struct {
	buf   []byte
	w     io.Writer
	count bool
	n     int              // bytes that have left buf: written, or counted
	err   error            // w's first error; nothing is written after it
	lead  bool             // no element has gone out yet: the next one drops its comma
	slot  *storage.Version // where a sealed slot is loaded to be encoded, taken when first needed
}

// versions keeps the versions sinks load sealed slots into: a Version's lists
// point into it, so it lives on the heap, and is reused — from a list, so
// that an encode allocates the same whatever the collector or the race
// detector did to a pool. A third concurrent encode makes its own.
var versions freeList[storage.Version]

// version is the sink's version, taken when first needed.
func (s *sink) version() *storage.Version {
	if s.slot == nil {
		if s.slot = versions.get(); s.slot == nil {
			s.slot = new(storage.Version)
		}
	}
	return s.slot
}

// release gives the sink's version back.
func (s *sink) release() {
	if s.slot != nil {
		versions.put(s.slot)
		s.slot = nil
	}
}

// elementRoom is the free space a streaming sink wants before it encodes an
// element into its buffer; a larger element grows the buffer instead.
const elementRoom = 4 << 10

// drain empties buf into w, or into the count.
func (s *sink) drain() {
	if s.w != nil && s.err == nil && len(s.buf) > 0 {
		_, s.err = s.w.Write(s.buf)
	}
	s.n += len(s.buf)
	s.buf = s.buf[:0]
}

// piece takes bytes that exist already — slots of an image, so p begins with
// an element's comma. One larger than the whole buffer is written through.
func (s *sink) piece(p []byte) {
	if s.lead && len(p) > 0 {
		p, s.lead = p[1:], false
	}
	switch {
	case s.count:
		s.n += len(p)
	case s.w == nil:
		s.buf = append(s.buf, p...)
	default:
		if len(p) > cap(s.buf)-len(s.buf) {
			s.drain()
		}
		if len(p) > cap(s.buf) {
			if s.err == nil {
				_, s.err = s.w.Write(p)
			}
			s.n += len(p)
			return
		}
		s.buf = append(s.buf, p...)
	}
}

// element encodes e behind its comma, streaming or counting first draining
// when it may not fit (counting: always).
func (s *sink) element(e *element.Element) (err error) {
	if s.count || s.w != nil && cap(s.buf)-len(s.buf) < elementRoom {
		s.drain()
	}
	if s.lead {
		s.lead = false
	} else {
		s.buf = append(s.buf, ',')
	}
	s.buf, err = AppendElement(s.buf, e)
	return err
}

// elements encodes els, each behind its comma. Gathering, it is the tight
// loop the encoder always was, on a local; streaming or counting, it is
// element's.
func (s *sink) elements(els []*element.Element) (err error) {
	if len(els) == 0 {
		return nil
	}
	if s.w == nil && !s.count {
		buf := s.buf
		if s.lead {
			s.lead = false
			buf, err = AppendElement(buf, els[0])
			els = els[1:]
		}
		for i := 0; i < len(els) && err == nil; i++ {
			buf, err = AppendElement(append(buf, ','), els[i])
		}
		s.buf = buf
		return err
	}
	for _, e := range els {
		if err := s.element(e); err != nil {
			return err
		}
	}
	return nil
}

// answer encodes a's spans in order, copying from images what they hold.
func (s *sink) answer(a *storage.Answer, images []ImageSpan) error {
	spans := a.Spans()
	for i := range spans {
		sp := &spans[i]
		if !sp.Sealed() {
			if err := s.elements(sp.Elements()); err != nil {
				return err
			}
			continue
		}
		var img *ChunkImage
		if len(images) > 0 && images[0].Span == i {
			img, images = images[0].Image, images[1:]
		}
		if err := s.sealed(sp, img); err != nil {
			return err
		}
	}
	return nil
}

// sealed encodes the slots of a sealed span, stretch of adjacent slots by
// stretch: what img, when not nil, holds of a stretch is copied, and every
// other slot is loaded into the sink's version and encoded. The slot set is
// read a word at a time (Slots.Stretches), once.
func (s *sink) sealed(sp *storage.Span, img *ChunkImage) error {
	if img == nil {
		return s.slots(sp)
	}
	it := sp.Slots().Stretches()
	for a, b := it.Next(); a < storage.ChunkSize; a, b = it.Next() {
		for a < b {
			if h := img.held(sp, a, b); h > a {
				s.piece(img.slab[img.off[a]:img.off[h]])
				a = h
				continue
			}
			if err := s.element(sp.Load(a, s.version())); err != nil {
				return err
			}
			a++
		}
	}
	return nil
}

// slots encodes every slot of a sealed span, each behind its comma, each
// loaded in place into the sink's version, over the set bits of its slot
// set a word at a time. Gathering, it is the tight loop elements is, on a
// local; streaming or counting, it is element's.
func (s *sink) slots(sp *storage.Span) (err error) {
	v := s.version()
	gather := s.w == nil && !s.count
	buf := s.buf
	for w, word := range sp.Slots() {
		for ; word != 0 && err == nil; word &= word - 1 {
			e := sp.Load(w*64+bits.TrailingZeros64(word), v)
			switch {
			case !gather:
				s.buf = buf
				err = s.element(e)
				buf = s.buf
			case s.lead:
				s.lead = false
				buf, err = AppendElement(buf, e)
			default:
				buf, err = AppendElement(append(buf, ','), e)
			}
		}
	}
	s.buf = buf
	return err
}

// encode walks the body into s: the one place its shape is written down.
func (b *QueryBody) encode(s *sink) error {
	s.buf = append(s.buf, `{"elements":[`...)
	s.lead = true
	if err := s.answer(&b.Answer, b.Images); err != nil {
		return err
	}
	s.buf = append(s.buf, ']')
	if b.Plan != "" {
		s.buf = appendString(append(s.buf, `,"plan":`...), b.Plan)
	}
	if b.PlanNode != nil {
		s.buf = appendPlanNode(append(s.buf, `,"plan_node":`...), b.PlanNode)
	}
	s.buf = strconv.AppendInt(append(s.buf, `,"touched":`...), int64(b.Touched), 10)
	if b.Epoch != 0 {
		s.buf = strconv.AppendUint(append(s.buf, `,"epoch":`...), b.Epoch, 10)
	}
	s.buf = append(s.buf, '}')
	return nil
}

// directBytes is what an element is taken to encode to when there are too
// few of them to be worth measuring: two attributes come to about 200.
const directBytes = 224

// covered reports how many of the answer's versions the images hold, and
// their bytes: what the body splices.
func (b *QueryBody) covered() (n, bytes int) {
	spans := b.Answer.Spans()
	for _, im := range b.Images {
		sp := &spans[im.Span]
		n += sp.Len()
		it := sp.Slots().Stretches()
		for a, e := it.Next(); a < storage.ChunkSize; a, e = it.Next() {
			for a < e {
				if h := im.Image.held(sp, a, e); h > a {
					bytes += int(im.Image.off[h] - im.Image.off[a])
					a = h
				} else {
					n--
					a++
				}
			}
		}
	}
	return n, bytes
}

// edge is the body's first element, or its last: an element span's as
// stored, a sealed one's loaded into s's version.
func (b *QueryBody) edge(last bool, s *sink) *element.Element {
	spans := b.Answer.Spans()
	sp := &spans[0]
	if last {
		sp = &spans[len(spans)-1]
	}
	if !sp.Sealed() {
		els := sp.Elements()
		if last {
			return els[len(els)-1]
		}
		return els[0]
	}
	it := sp.Slots().Stretches()
	a, end := it.Next()
	j := a
	for last && a < storage.ChunkSize {
		j = end - 1
		a, end = it.Next()
	}
	return sp.Load(j, s.version())
}

// reserve grows dst once for the whole body, covered and spliced being what
// covered reports: the spliced stretches to the byte, and for the elements
// still to be encoded a figure measured on the answer's first and last
// element — a result set is homogeneous but for its integers' digits, and
// those grow in arrival order (the parser's extrapolate makes the same bet).
// A short guess costs a later growth, a long one slack; neither changes a
// byte.
func (b *QueryBody) reserve(s *sink, dst []byte, covered, spliced int) {
	direct := b.Answer.Len() - covered
	per := directBytes
	if direct >= 16 {
		var scratch [512]byte
		first, _ := AppendElement(scratch[:0], b.edge(false, s))
		last, _ := AppendElement(scratch[:0], b.edge(true, s))
		per = max(len(first), len(last))
		per += per/32 + 2
	}
	s.buf = slices.Grow(dst, 256+2*len(b.Plan)+spliced+direct*per)
}

func (b QueryBody) AppendJSON(dst []byte) ([]byte, error) {
	covered, spliced := b.covered()
	return b.gather(dst, covered, spliced)
}

// gather appends the body to dst, grown once from what covered reported.
func (b *QueryBody) gather(dst []byte, covered, spliced int) ([]byte, error) {
	var s sink
	defer s.release()
	b.reserve(&s, dst, covered, spliced)
	err := b.encode(&s)
	return s.buf, err
}

// Render is AppendJSON for a server, which may stream the body instead
// (StreamJSON): it appends the body to dst and returns stream 0, or, for a
// body to stream, leaves dst as it is and returns stream, the exact length
// StreamJSON writes, newline included. A body is one to stream when it is
// larger than a pooled buffer may be and at least seven eighths of its
// elements come out of images, so that measuring it encodes few. The images
// are matched against the answer once (covered), for both the decision and
// the reservation, and only a body whose spliced bytes say it may pass the
// line — its encoded elements taken at twice the size of its spliced ones,
// and 4 KiB for the rest — is measured to the byte. The error is
// AppendJSON's, and a body Render called one to stream cannot fail later.
func (b QueryBody) Render(dst []byte) (out []byte, stream int, err error) {
	covered, spliced := b.covered()
	total := b.Answer.Len()
	if covered > 0 && covered*8 >= total*7 && spliced+2*(total-covered)*(spliced/covered)+4<<10 >= maxPooledBuffer {
		n, err := b.measure(dst[len(dst):])
		if err != nil {
			return dst, 0, err
		}
		if n >= maxPooledBuffer {
			return dst, n + 1, nil
		}
	}
	out, err = b.gather(dst, covered, spliced)
	return out, 0, err
}

// measure is the body's length: spliced stretches by their offsets, and
// every other element encoded once, into scratch, for its length and its
// error.
func (b *QueryBody) measure(scratch []byte) (int, error) {
	s := sink{buf: scratch, count: true}
	defer s.release()
	err := b.encode(&s)
	s.drain()
	return s.n, err
}

// StreamJSON writes the body and the newline that ends a document to w in
// pieces no larger than buf, and reports the bytes written: what AppendJSON
// would have appended, without the buffer to hold it. For a body Render
// called one to stream the error can only be w's.
func (b QueryBody) StreamJSON(w io.Writer, buf []byte) (int, error) {
	s := sink{buf: buf[:0], w: w}
	err := b.encode(&s)
	s.release()
	s.buf = append(s.buf, '\n')
	s.drain()
	if err == nil {
		err = s.err
	}
	return s.n, err
}

// ElementBody encodes as ElementResponse.
type ElementBody struct {
	Element *element.Element
}

func (b ElementBody) AppendJSON(dst []byte) ([]byte, error) {
	dst, err := AppendElement(append(dst, `{"element":`...), b.Element)
	return append(dst, '}'), err
}

// BatchItems is what a batch report is encoded from: the outcomes a batch
// insert returned, read where they are.
type BatchItems interface {
	Len() int
	// Item is item i's status ("stored", "deduped" or "rejected"), the
	// rejection's cause, the element stored or remembered (nil for a
	// rejection), and whether the item goes out brief: el's surrogates and
	// tt⊢ alone (BatchItem.Assigned), the rest being its request's.
	Item(i int) (status, cause string, el *element.Element, brief bool)
}

// BatchBody encodes as BatchInsertResponse.
type BatchBody[I BatchItems] struct {
	Items    I
	Stored   int
	Deduped  int
	Rejected int
	Epoch    uint64
}

func (b BatchBody[I]) AppendJSON(dst []byte) ([]byte, error) {
	n := b.Items.Len()
	dst = append(dst, `{"items":[`...)
	at := len(dst)
	var err error
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		status, cause, el, brief := b.Items.Item(i)
		dst = appendString(append(dst, `{"status":`...), status)
		if cause != "" {
			dst = appendString(append(dst, `,"error":`...), cause)
		}
		switch {
		case el == nil:
		case brief:
			dst = strconv.AppendUint(append(dst, `,"assigned":{"es":`...), uint64(el.ES), 10)
			dst = strconv.AppendUint(append(dst, `,"os":`...), uint64(el.OS), 10)
			dst = strconv.AppendInt(append(dst, `,"tt_start":`...), int64(el.TTStart), 10)
			dst = append(dst, '}')
		default:
			if dst, err = AppendElement(append(dst, `,"element":`...), el); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
		if i == 0 {
			// Size the report once, from its first item: a batch's elements
			// share a schema, so its items are about as long.
			unit := len(dst) - at + 1
			dst = slices.Grow(dst, (n-1)*(unit+unit/4)+128)
		}
	}
	dst = strconv.AppendInt(append(dst, `],"stored":`...), int64(b.Stored), 10)
	dst = strconv.AppendInt(append(dst, `,"deduped":`...), int64(b.Deduped), 10)
	dst = strconv.AppendInt(append(dst, `,"rejected":`...), int64(b.Rejected), 10)
	if b.Epoch != 0 {
		dst = strconv.AppendUint(append(dst, `,"epoch":`...), b.Epoch, 10)
	}
	return append(dst, '}'), nil
}

// SelectBody encodes as SelectResponse. A row without columns is nil on
// the wire struct (FromValues) and therefore null here.
type SelectBody struct {
	Columns []string
	Rows    [][]element.Value
	Plan    *PlanNode
	Touched int
	Engine  string
}

func (b SelectBody) AppendJSON(dst []byte) ([]byte, error) {
	dst = appendStrings(append(dst, `{"columns":`...), b.Columns)
	dst = append(dst, `,"rows":[`...)
	var err error
	for i, row := range b.Rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		if len(row) == 0 {
			dst = append(dst, "null"...)
			continue
		}
		if dst, err = appendEngineValues(dst, row); err != nil {
			return dst, err
		}
	}
	dst = append(dst, ']')
	if b.Plan != nil {
		dst = appendPlanNode(append(dst, `,"plan":`...), b.Plan)
	}
	dst = strconv.AppendInt(append(dst, `,"touched":`...), int64(b.Touched), 10)
	if b.Engine != "" {
		dst = appendString(append(dst, `,"engine":`...), b.Engine)
	}
	return append(dst, '}'), nil
}

// AppendJSON writes the insert request the client sends.
func (r InsertRequest) AppendJSON(dst []byte) ([]byte, error) {
	n := len(dst) // the first field's comma, which becomes the brace
	if r.Object != 0 {
		dst = strconv.AppendUint(append(dst, `,"object":`...), r.Object, 10)
	}
	dst, err := r.VT.AppendJSON(append(dst, `,"vt":`...))
	dst[n] = '{'
	if len(r.Invariant) > 0 {
		if dst, err = appendValues(append(dst, `,"invariant":`...), r.Invariant); err != nil {
			return dst, err
		}
	}
	if len(r.Varying) > 0 {
		if dst, err = appendValues(append(dst, `,"varying":`...), r.Varying); err != nil {
			return dst, err
		}
	}
	if len(r.UserTimes) > 0 {
		dst = appendInt64s(append(dst, `,"user_times":`...), r.UserTimes)
	}
	return append(dst, '}'), nil
}

// AppendJSON writes the batch request the client sends, into dst grown
// once: the keys to the byte, and every element at the length of the first
// — a batch shares one schema — with a margin for the fields and digits a
// first element's zero values leave out.
func (r BatchInsertRequest) AppendJSON(dst []byte) ([]byte, error) {
	size := 64 + 3*len(r.Keys)
	for _, k := range r.Keys {
		size += len(k)
	}
	if len(r.Elements) > 0 {
		var scratch [256]byte
		first, _ := r.Elements[0].AppendJSON(scratch[:0])
		size += len(r.Elements) * (len(first) + 1 + len(first)/4)
	}
	dst = slices.Grow(dst, size)
	if r.Elements == nil {
		dst = append(dst, `{"elements":null`...)
	} else {
		dst = append(dst, `{"elements":[`...)
		for i, e := range r.Elements {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = e.AppendJSON(dst); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if len(r.Keys) > 0 {
		dst = appendStrings(append(dst, `,"keys":`...), r.Keys)
	}
	if r.Atomic {
		dst = append(dst, `,"atomic":true`...)
	}
	if r.Brief {
		dst = append(dst, `,"brief":true`...)
	}
	return append(dst, '}'), nil
}

// The small requests every read and single-element write sends. Each is a
// few dozen bytes, but one rides on every query, select, delete and modify,
// so its codec is a request's fixed cost.

// AppendJSON writes the query request the client sends.
func (r QueryRequest) AppendJSON(dst []byte) ([]byte, error) {
	dst = appendString(append(dst, `{"kind":`...), r.Kind)
	if r.VT != 0 {
		dst = strconv.AppendInt(append(dst, `,"vt":`...), r.VT, 10)
	}
	if r.TT != 0 {
		dst = strconv.AppendInt(append(dst, `,"tt":`...), r.TT, 10)
	}
	return append(dst, '}'), nil
}

// AppendJSON writes the select request the client sends.
func (r SelectRequest) AppendJSON(dst []byte) ([]byte, error) {
	return append(appendString(append(dst, `{"query":`...), r.Query), '}'), nil
}

// AppendJSON writes the delete request the client sends.
func (r DeleteRequest) AppendJSON(dst []byte) ([]byte, error) {
	return append(strconv.AppendUint(append(dst, `{"es":`...), r.ES, 10), '}'), nil
}

// AppendJSON writes the modify request the client sends.
func (r ModifyRequest) AppendJSON(dst []byte) ([]byte, error) {
	dst = strconv.AppendUint(append(dst, `{"es":`...), r.ES, 10)
	dst, err := r.VT.AppendJSON(append(dst, `,"vt":`...))
	if len(r.Varying) > 0 {
		if dst, err = appendValues(append(dst, `,"varying":`...), r.Varying); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), err
}
