// Package tsql implements a small temporal query language over temporal
// relations, in the spirit of the temporal query languages the paper cites
// (TQuel [Sno87], LEGOL 2.0 [JMS79]). A query addresses all three of the
// paper's query kinds in one form:
//
//	SELECT *|col[, col...] FROM rel
//	    [AS OF tt]                      -- rollback: the state stored at tt
//	    [WHEN VALID AT vt               -- historical: facts true at vt
//	     | WHEN VALID DURING [a, b)     -- facts true sometime in [a, b)
//	     | WHEN <allen-relation> [a, b)]-- valid interval relates to window
//	    [WHERE col op literal [AND ...]]
//	    [ORDER BY col [ASC|DESC]] [LIMIT n]
//
// Omitting AS OF queries the current state; omitting WHEN places no
// valid-time restriction — so a bare SELECT is the paper's "current
// query", WHEN alone is a historical query, AS OF alone is a rollback
// query, and their combination is the bitemporal query.
//
// Temporal aggregation replaces the select list with aggregate calls and
// groups by fixed valid-time windows:
//
//	SELECT COUNT(*)|COUNT(col)|SUM(col)|MIN(col)|MAX(col)[, ...] FROM rel
//	    [AS OF tt] [WHEN ...] [WHERE ...]
//	    GROUP BY WINDOW(width[, TUMBLING | ROLLING n | CUMULATIVE])
//	    [USING ROW|COLUMNAR] [LIMIT n]
//
// Each output row is one window [win_start, win_end) with one value per
// aggregate. USING ROW and USING COLUMNAR are accepted and change nothing:
// every chunk no memoized partial answers is folded row at a time.
//
// Times are integer chronons or 'YYYY-MM-DD[ HH:MM:SS]' strings; the
// pseudo-columns es, os, tt_start, tt_end, vt_start, vt_end expose the
// system time-stamps.
package tsql

import (
	"fmt"
	"strings"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokComma
	tokStar
	tokLBracket
	tokLParen
	tokRParen
	tokOp // comparison operator
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer tokenizes a query string.
type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...any) error {
	return fmt.Errorf("tsql: at offset %d: %s", pos, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && (l.src[l.pos] == ' ' || l.src[l.pos] == '\t' || l.src[l.pos] == '\n') {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == ',':
		l.pos++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case c == '*':
		l.pos++
		return token{kind: tokStar, text: "*", pos: start}, nil
	case c == '[':
		l.pos++
		return token{kind: tokLBracket, text: "[", pos: start}, nil
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == '=' || c == '!' || c == '<' || c == '>':
		op := string(c)
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			op += "="
			l.pos++
		}
		switch op {
		case "=", "==", "!=", "<", "<=", ">", ">=":
			return token{kind: tokOp, text: op, pos: start}, nil
		}
		return token{}, l.errf(start, "bad operator %q", op)
	case c == '\'':
		l.pos++
		end := strings.IndexByte(l.src[l.pos:], '\'')
		if end < 0 {
			return token{}, l.errf(start, "unterminated string")
		}
		text := l.src[l.pos : l.pos+end]
		l.pos += end + 1
		return token{kind: tokString, text: text, pos: start}, nil
	case c == '-' || (c >= '0' && c <= '9'):
		l.pos++
		for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
	case isIdentByte(c):
		for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	}
	return token{}, l.errf(start, "unexpected character %q", string(c))
}

func isIdentByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-'
}

// lexAll tokenizes the whole input into one slice, sized for a token per
// two bytes — an aggregate's "count(*), " is four tokens in ten — so a
// statement seldom grows it.
func lexAll(src string) ([]token, error) {
	l := &lexer{src: src}
	out := make([]token, 0, len(src)/2+2)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
