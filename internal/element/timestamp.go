package element

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/interval"
)

// TimestampKind discriminates valid time-stamps: an element of an event
// relation carries a single valid time value; an element of an interval
// relation carries an interval of two valid time values (§2).
type TimestampKind uint8

const (
	// EventStamp marks a single-instant valid time-stamp.
	EventStamp TimestampKind = iota
	// IntervalStamp marks an interval valid time-stamp [vt⊢, vt⊣).
	IntervalStamp
)

// String names the kind.
func (k TimestampKind) String() string {
	switch k {
	case EventStamp:
		return "event"
	case IntervalStamp:
		return "interval"
	}
	return fmt.Sprintf("TimestampKind(%d)", uint8(k))
}

// Timestamp is a valid time-stamp: either an event (a single chronon vt) or
// an interval ([vt⊢, vt⊣)).
type Timestamp struct {
	kind TimestampKind
	span interval.Interval // events use span.Start only
}

// EventAt builds an event time-stamp at the given chronon.
func EventAt(c chronon.Chronon) Timestamp {
	return Timestamp{kind: EventStamp, span: interval.Interval{Start: c, End: c}}
}

// Span builds an interval time-stamp from a non-empty interval. It panics
// on an empty or malformed interval: the paper's interval elements denote
// facts true "for a duration of time".
func Span(iv interval.Interval) Timestamp {
	if iv.Empty() {
		panic(fmt.Sprintf("element: empty valid-time interval %v", iv))
	}
	return Timestamp{kind: IntervalStamp, span: iv}
}

// SpanOf builds an interval time-stamp from endpoints.
func SpanOf(start, end chronon.Chronon) Timestamp {
	return Span(interval.Make(start, end))
}

// Stamp rebuilds a time-stamp from its kind and the chronons Start and End
// reported for it, unchecked: the stamp was built checked once already.
func Stamp(k TimestampKind, start, end chronon.Chronon) Timestamp {
	return Timestamp{kind: k, span: interval.Interval{Start: start, End: end}}
}

// Kind reports whether the stamp is an event or an interval.
func (ts Timestamp) Kind() TimestampKind { return ts.kind }

// IsEvent reports whether the stamp is an event.
func (ts Timestamp) IsEvent() bool { return ts.kind == EventStamp }

// Event returns the event chronon; ok is false for interval stamps.
func (ts Timestamp) Event() (chronon.Chronon, bool) {
	return ts.span.Start, ts.kind == EventStamp
}

// Interval returns the interval; ok is false for event stamps.
func (ts Timestamp) Interval() (interval.Interval, bool) {
	return ts.span, ts.kind == IntervalStamp
}

// Start returns vt for an event stamp and vt⊢ for an interval stamp. The
// isolated-interval taxonomy (§3.3) applies event characterizations to
// either endpoint, so both are always accessible.
func (ts Timestamp) Start() chronon.Chronon { return ts.span.Start }

// End returns vt for an event stamp and vt⊣ for an interval stamp.
func (ts Timestamp) End() chronon.Chronon {
	if ts.kind == EventStamp {
		return ts.span.Start
	}
	return ts.span.End
}

// Covers reports whether the valid time-stamp includes chronon c: equality
// for events, half-open membership for intervals.
func (ts Timestamp) Covers(c chronon.Chronon) bool {
	if ts.kind == EventStamp {
		return ts.span.Start == c
	}
	return ts.span.Contains(c)
}

// String renders the stamp.
func (ts Timestamp) String() string {
	if ts.kind == EventStamp {
		return ts.span.Start.String()
	}
	return ts.span.String()
}
