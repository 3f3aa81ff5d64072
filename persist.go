package temporalspec

import (
	"io"

	"repro/internal/backlog"
	"repro/internal/constraint"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tsql"
)

// ErrCorruptBacklog reports a failed checksum, bad framing, or truncation
// in a persisted backlog.
var ErrCorruptBacklog = backlog.ErrCorrupt

// WriteBacklog serializes the relation's schema and backlog to w in the
// checksummed binary format (the [JMRS90] backlog representation §2
// cites).
func WriteBacklog(w io.Writer, r *Relation) error { return backlog.Write(w, backlog.Of(r)) }

// ReadBacklog deserializes a schema and backlog from rd.
func ReadBacklog(rd io.Reader) (Schema, []LogRecord, error) {
	s, err := backlog.Read(rd)
	return s.Schema, s.Records, err
}

// SaveBacklog writes the relation to a file atomically.
func SaveBacklog(path string, r *Relation) error { return backlog.Save(path, backlog.Of(r)) }

// LoadBacklog reads a file written by SaveBacklog and replays it into a
// fresh relation using the given clock.
func LoadBacklog(path string, clock Clock) (*Relation, error) {
	r, _, err := backlog.Load(path, clock)
	return r, err
}

// ConstraintDescriptor is a serializable description of one declared
// specialization — the catalog entry that lets declarations survive
// persistence.
type ConstraintDescriptor = constraint.Descriptor

// DescribeConstraint converts a declared constraint into its descriptor;
// ok is false for constraints that carry arbitrary functions (Determined).
func DescribeConstraint(c Constraint, scope Scope) (ConstraintDescriptor, bool) {
	return constraint.Describe(c, scope)
}

// DescribeEnforcer converts an enforcer's declarations into descriptors,
// reporting how many were not serializable.
func DescribeEnforcer(en *Enforcer) ([]ConstraintDescriptor, int) {
	return constraint.DescribeEnforcer(en)
}

// SaveBacklogWithDeclarations persists the relation together with its
// constraint catalog.
func SaveBacklogWithDeclarations(path string, r *Relation, decls []ConstraintDescriptor) error {
	s := backlog.Of(r)
	s.Declarations = decls
	return backlog.Save(path, s)
}

// LoadBacklogWithDeclarations loads a relation and re-attaches its
// persisted constraint catalog, warming the incremental checkers with the
// replayed history.
func LoadBacklogWithDeclarations(path string, clock Clock) (*Relation, []ConstraintDescriptor, error) {
	r, s, err := backlog.Load(path, clock)
	return r, s.Declarations, err
}

// Replay reconstructs a relation from a backlog. Guards are not consulted;
// attach enforcers after replaying.
func Replay(schema Schema, clock Clock, records []LogRecord) (*Relation, error) {
	return relation.Replay(schema, clock, records)
}

// NewIndexedEventStore returns a heap store for event relations augmented
// with a B-tree valid-time index — the physical design a general relation
// needs for fast historical queries, priced against the order-sharing the
// specialized designs get for free.
func NewIndexedEventStore() Store { return storage.NewIndexedEvent() }

// TemporalQuery is a parsed temporal query (SELECT ... FROM ... [AS OF tt]
// [WHEN ...] [WHERE ...]).
type TemporalQuery = tsql.Query

// TemporalResult is an evaluated query result.
type TemporalResult = tsql.Result

// ParseQuery parses a temporal query string.
func ParseQuery(src string) (*TemporalQuery, error) { return tsql.Parse(src) }

// EvalQuery runs a parsed query against a relation.
func EvalQuery(q *TemporalQuery, r *Relation) (*TemporalResult, error) { return tsql.Eval(q, r) }

// RunQuery parses and evaluates a query, resolving the relation by name.
func RunQuery(src string, lookup func(name string) (*Relation, bool)) (*TemporalResult, error) {
	return tsql.Run(src, lookup)
}
