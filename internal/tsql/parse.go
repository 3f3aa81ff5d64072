package tsql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/chronon"
	"repro/internal/interval"
	"repro/internal/vec"
)

// Query is a parsed temporal query.
type Query struct {
	// Explain marks an EXPLAIN SELECT: compile and render the plan
	// instead of executing it.
	Explain bool

	Columns []string // empty means *
	Rel     string

	// Aggs and Group carry the temporal-aggregation form: aggregate
	// calls in place of the select list, grouped by fixed valid-time
	// windows. A USING ROW | COLUMNAR hint is accepted after them and
	// changes nothing: there is one fold kernel.
	Aggs  []AggCall
	Group *GroupWindow

	HasAsOf bool
	AsOf    chronon.Chronon

	When *WhenClause

	Where []Pred

	OrderBy   string // column name; empty for no ordering
	OrderDesc bool
	HasLimit  bool
	Limit     int
}

// AggCall is one aggregate call in the select list: count/sum/min/max
// over a column, or count over *.
type AggCall struct {
	Func string // count, sum, min, max (lower-cased)
	Col  string // empty for COUNT(*)
}

// GroupWindow is the GROUP BY WINDOW clause: fixed valid-time windows of
// Width chronons in one of the vec window modes; K is the rolling extent
// in windows.
type GroupWindow struct {
	Width int64
	Kind  vec.WindowKind
	K     int64
}

// WhenKind discriminates valid-time clauses.
type WhenKind uint8

const (
	// WhenValidAt restricts to facts valid at an instant.
	WhenValidAt WhenKind = iota
	// WhenValidDuring restricts to facts valid sometime in a window.
	WhenValidDuring
	// WhenAllen restricts interval facts whose valid interval relates to
	// the window by a specific Allen relation.
	WhenAllen
)

// WhenClause is the valid-time restriction of a query.
type WhenClause struct {
	Kind   WhenKind
	At     chronon.Chronon   // WhenValidAt
	Window interval.Interval // WhenValidDuring, WhenAllen
	Rel    interval.Relation // WhenAllen
}

// Pred is one WHERE conjunct: column op literal.
type Pred struct {
	Col string
	Op  string // ==, !=, <, <=, >, >=
	Lit Literal
}

// LiteralKind discriminates WHERE literals.
type LiteralKind uint8

const (
	// LitNumber is an integer or float literal.
	LitNumber LiteralKind = iota
	// LitString is a quoted string (or date-time, resolved at evaluation).
	LitString
	// LitBool is true or false.
	LitBool
)

// Literal is a WHERE comparison value.
type Literal struct {
	Kind   LiteralKind
	Number float64
	Int    int64
	IsInt  bool
	Str    string
	Bool   bool
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) take() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("tsql: at offset %d: %s", t.pos, fmt.Sprintf(format, args...))
}

// keyword consumes an identifier token matching word (case-insensitive).
func (p *parser) keyword(word string) error {
	t := p.take()
	if t.kind != tokIdent || !strings.EqualFold(t.text, word) {
		return p.errf(t, "expected %q, got %q", word, t.text)
	}
	return nil
}

func (p *parser) peekKeyword(word string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, word)
}

// Parse parses a query string.
func Parse(src string) (*Query, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q := &Query{}
	using := "" // the USING hint's kernel name
	if p.peekKeyword("explain") {
		p.take()
		q.Explain = true
	}
	if err := p.keyword("select"); err != nil {
		return nil, err
	}
	if p.peek().kind == tokStar {
		p.take()
	} else {
		for {
			t := p.take()
			if t.kind != tokIdent {
				return nil, p.errf(t, "expected column name, got %q", t.text)
			}
			if p.peek().kind == tokLParen {
				call, err := p.parseAggCall(t)
				if err != nil {
					return nil, err
				}
				q.Aggs = append(q.Aggs, call)
			} else {
				q.Columns = append(q.Columns, t.text)
			}
			if p.peek().kind != tokComma {
				break
			}
			p.take()
		}
	}
	if err := p.keyword("from"); err != nil {
		return nil, err
	}
	t := p.take()
	if t.kind != tokIdent {
		return nil, p.errf(t, "expected relation name, got %q", t.text)
	}
	q.Rel = t.text

	for {
		switch {
		case p.peekKeyword("as"):
			p.take()
			if err := p.keyword("of"); err != nil {
				return nil, err
			}
			c, err := p.parseTime()
			if err != nil {
				return nil, err
			}
			if q.HasAsOf {
				return nil, p.errf(p.peek(), "duplicate AS OF")
			}
			q.HasAsOf = true
			q.AsOf = c
		case p.peekKeyword("when"):
			p.take()
			if q.When != nil {
				return nil, p.errf(p.peek(), "duplicate WHEN")
			}
			w, err := p.parseWhen()
			if err != nil {
				return nil, err
			}
			q.When = w
		case p.peekKeyword("where"):
			p.take()
			for {
				pred, err := p.parsePred()
				if err != nil {
					return nil, err
				}
				q.Where = append(q.Where, pred)
				if !p.peekKeyword("and") {
					break
				}
				p.take()
			}
		case p.peekKeyword("order"):
			p.take()
			if err := p.keyword("by"); err != nil {
				return nil, err
			}
			col := p.take()
			if col.kind != tokIdent {
				return nil, p.errf(col, "expected column name, got %q", col.text)
			}
			if q.OrderBy != "" {
				return nil, p.errf(col, "duplicate ORDER BY")
			}
			q.OrderBy = col.text
			switch {
			case p.peekKeyword("desc"):
				p.take()
				q.OrderDesc = true
			case p.peekKeyword("asc"):
				p.take()
			}
		case p.peekKeyword("group"):
			p.take()
			if err := p.keyword("by"); err != nil {
				return nil, err
			}
			if err := p.keyword("window"); err != nil {
				return nil, err
			}
			if q.Group != nil {
				return nil, p.errf(p.peek(), "duplicate GROUP BY")
			}
			g, err := p.parseGroupWindow()
			if err != nil {
				return nil, err
			}
			q.Group = g
		case p.peekKeyword("using"):
			p.take()
			t := p.take()
			if using != "" {
				return nil, p.errf(t, "duplicate USING")
			}
			if w := strings.ToLower(t.text); t.kind == tokIdent && (w == "row" || w == "columnar") {
				using = w
			} else {
				return nil, p.errf(t, "expected ROW or COLUMNAR, got %q", t.text)
			}
		case p.peekKeyword("limit"):
			p.take()
			t := p.take()
			if t.kind != tokNumber {
				return nil, p.errf(t, "expected row count, got %q", t.text)
			}
			n, err := strconv.ParseInt(t.text, 10, 32)
			if err != nil || n < 0 {
				return nil, p.errf(t, "bad limit %q", t.text)
			}
			if q.HasLimit {
				return nil, p.errf(t, "duplicate LIMIT")
			}
			q.HasLimit = true
			q.Limit = int(n)
		default:
			t := p.take()
			if t.kind != tokEOF {
				return nil, p.errf(t, "unexpected %q", t.text)
			}
			if err := q.checkAggregateShape(using); err != nil {
				return nil, err
			}
			return q, nil
		}
	}
}

// checkAggregateShape enforces the aggregate grammar's co-occurrence
// rules once the whole statement is in hand; using is the USING hint's
// kernel name, empty without one.
func (q *Query) checkAggregateShape(using string) error {
	if q.Group == nil {
		if len(q.Aggs) > 0 {
			return fmt.Errorf("tsql: aggregates require GROUP BY WINDOW(...)")
		}
		if using != "" {
			return fmt.Errorf("tsql: USING %s requires GROUP BY WINDOW(...)", using)
		}
		return nil
	}
	if len(q.Aggs) == 0 {
		return fmt.Errorf("tsql: GROUP BY WINDOW requires an aggregate select list")
	}
	if len(q.Columns) > 0 {
		return fmt.Errorf("tsql: cannot mix plain columns with aggregates")
	}
	if q.OrderBy != "" {
		return fmt.Errorf("tsql: ORDER BY is not supported with GROUP BY WINDOW (windows are emitted in order)")
	}
	for _, a := range q.Aggs {
		if a.Col == "" && a.Func != "count" {
			return fmt.Errorf("tsql: %s requires a column", a.Func)
		}
	}
	return nil
}

// parseAggCall parses the remainder of "fn(col)" / "count(*)"; fn is the
// already-consumed function identifier.
func (p *parser) parseAggCall(fn token) (AggCall, error) {
	name := strings.ToLower(fn.text)
	switch name {
	case "count", "sum", "min", "max":
	default:
		return AggCall{}, p.errf(fn, "unknown aggregate %q", fn.text)
	}
	p.take() // '('
	call := AggCall{Func: name}
	t := p.take()
	switch {
	case t.kind == tokStar:
		if name != "count" {
			return AggCall{}, p.errf(t, "%s(*) is not defined; aggregate a column", name)
		}
	case t.kind == tokIdent:
		call.Col = t.text
	default:
		return AggCall{}, p.errf(t, "expected column or '*', got %q", t.text)
	}
	if t := p.take(); t.kind != tokRParen {
		return AggCall{}, p.errf(t, "expected ')', got %q", t.text)
	}
	return call, nil
}

// parseGroupWindow parses "(width[, TUMBLING | ROLLING n | CUMULATIVE])".
func (p *parser) parseGroupWindow() (*GroupWindow, error) {
	if t := p.take(); t.kind != tokLParen {
		return nil, p.errf(t, "expected '(', got %q", t.text)
	}
	t := p.take()
	if t.kind != tokNumber {
		return nil, p.errf(t, "expected window width, got %q", t.text)
	}
	w, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil || w < 1 || w > vec.MaxWidth {
		return nil, p.errf(t, "bad window width %q (want 1..%d)", t.text, vec.MaxWidth)
	}
	g := &GroupWindow{Width: w, Kind: vec.Tumbling}
	if p.peek().kind == tokComma {
		p.take()
		m := p.take()
		if m.kind != tokIdent {
			return nil, p.errf(m, "expected TUMBLING, ROLLING or CUMULATIVE, got %q", m.text)
		}
		switch strings.ToLower(m.text) {
		case "tumbling":
		case "cumulative":
			g.Kind = vec.Cumulative
		case "rolling":
			g.Kind = vec.Rolling
			kt := p.take()
			if kt.kind != tokNumber {
				return nil, p.errf(kt, "expected rolling extent, got %q", kt.text)
			}
			k, err := strconv.ParseInt(kt.text, 10, 64)
			if err != nil || k < 1 || k > vec.MaxRolling {
				return nil, p.errf(kt, "bad rolling extent %q (want 1..%d)", kt.text, vec.MaxRolling)
			}
			g.K = k
		default:
			return nil, p.errf(m, "expected TUMBLING, ROLLING or CUMULATIVE, got %q", m.text)
		}
	}
	if t := p.take(); t.kind != tokRParen {
		return nil, p.errf(t, "expected ')', got %q", t.text)
	}
	return g, nil
}

func (p *parser) parseWhen() (*WhenClause, error) {
	switch {
	case p.peekKeyword("valid"):
		p.take()
		switch {
		case p.peekKeyword("at"):
			p.take()
			c, err := p.parseTime()
			if err != nil {
				return nil, err
			}
			return &WhenClause{Kind: WhenValidAt, At: c}, nil
		case p.peekKeyword("during"):
			p.take()
			iv, err := p.parseWindow()
			if err != nil {
				return nil, err
			}
			return &WhenClause{Kind: WhenValidDuring, Window: iv}, nil
		}
		return nil, p.errf(p.peek(), "expected AT or DURING after VALID")
	default:
		t := p.take()
		if t.kind != tokIdent {
			return nil, p.errf(t, "expected VALID or an Allen relation, got %q", t.text)
		}
		rel, err := interval.ParseRelation(strings.ToLower(t.text))
		if err != nil {
			return nil, p.errf(t, "unknown Allen relation %q", t.text)
		}
		iv, err := p.parseWindow()
		if err != nil {
			return nil, err
		}
		return &WhenClause{Kind: WhenAllen, Rel: rel, Window: iv}, nil
	}
}

// parseWindow parses "[a, b)".
func (p *parser) parseWindow() (interval.Interval, error) {
	if t := p.take(); t.kind != tokLBracket {
		return interval.Interval{}, p.errf(t, "expected '[', got %q", t.text)
	}
	lo, err := p.parseTime()
	if err != nil {
		return interval.Interval{}, err
	}
	if t := p.take(); t.kind != tokComma {
		return interval.Interval{}, p.errf(t, "expected ',', got %q", t.text)
	}
	hi, err := p.parseTime()
	if err != nil {
		return interval.Interval{}, err
	}
	if t := p.take(); t.kind != tokRParen {
		return interval.Interval{}, p.errf(t, "expected ')', got %q", t.text)
	}
	if hi <= lo {
		return interval.Interval{}, fmt.Errorf("tsql: empty window [%v, %v)", lo, hi)
	}
	return interval.Make(lo, hi), nil
}

// parseTime accepts an integer chronon or a quoted civil date-time.
func (p *parser) parseTime() (chronon.Chronon, error) {
	t := p.take()
	switch t.kind {
	case tokNumber:
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return 0, p.errf(t, "bad chronon %q", t.text)
		}
		return chronon.Chronon(n), nil
	case tokString:
		cv, err := chronon.ParseCivil(t.text)
		if err != nil {
			return 0, p.errf(t, "%v", err)
		}
		return cv.Chronon(), nil
	}
	return 0, p.errf(t, "expected a time, got %q", t.text)
}

func (p *parser) parsePred() (Pred, error) {
	col := p.take()
	if col.kind != tokIdent {
		return Pred{}, p.errf(col, "expected column name, got %q", col.text)
	}
	op := p.take()
	if op.kind != tokOp {
		return Pred{}, p.errf(op, "expected comparison operator, got %q", op.text)
	}
	opText := op.text
	if opText == "=" {
		opText = "=="
	}
	lit := p.take()
	var l Literal
	switch lit.kind {
	case tokNumber:
		if n, err := strconv.ParseInt(lit.text, 10, 64); err == nil {
			l = Literal{Kind: LitNumber, Int: n, IsInt: true, Number: float64(n)}
		} else if f, err := strconv.ParseFloat(lit.text, 64); err == nil {
			l = Literal{Kind: LitNumber, Number: f}
		} else {
			return Pred{}, p.errf(lit, "bad number %q", lit.text)
		}
	case tokString:
		l = Literal{Kind: LitString, Str: lit.text}
	case tokIdent:
		switch strings.ToLower(lit.text) {
		case "true":
			l = Literal{Kind: LitBool, Bool: true}
		case "false":
			l = Literal{Kind: LitBool, Bool: false}
		default:
			return Pred{}, p.errf(lit, "expected literal, got %q", lit.text)
		}
	default:
		return Pred{}, p.errf(lit, "expected literal, got %q", lit.text)
	}
	return Pred{Col: col.text, Op: opText, Lit: l}, nil
}
