// Package wire defines the JSON vocabulary of the tsdbd network protocol:
// the request and response shapes exchanged between the server
// (internal/server) and the typed Go client (client). Every type here is a
// plain serializable struct with converters to and from the engine's
// internal representations, so the HTTP layer stays free of translation
// logic and the client package never imports engine internals beyond this
// package.
//
// Conventions:
//
//   - Chronons travel as int64 seconds (the engine's discrete time line).
//   - Attribute values are tagged unions discriminated by "kind".
//   - Specialization descriptors use the same numeric class/basis/endpoint
//     codes the binary catalog persists (internal/backlog), so a wire
//     descriptor and a persisted one never disagree; human-readable names
//     are attached by the server for display only.
//   - Errors are {"error":{"code":..., "message":...}} with an HTTP status.
package wire

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/surrogate"
)

// Value is one attribute value as a tagged union. Kind selects which of
// the payload fields is meaningful; the others are ignored.
type Value struct {
	Kind  string  `json:"kind"` // "null", "string", "int", "float", "bool", "time"
	Str   string  `json:"str,omitempty"`
	Int   int64   `json:"int,omitempty"`
	Float float64 `json:"float,omitempty"`
	Bool  bool    `json:"bool,omitempty"`
	Time  int64   `json:"time,omitempty"`
}

// Value constructors for client code.
func Null() Value           { return Value{Kind: "null"} }
func String(s string) Value { return Value{Kind: "string", Str: s} }
func Int(i int64) Value     { return Value{Kind: "int", Int: i} }
func Float(f float64) Value { return Value{Kind: "float", Float: f} }
func Bool(b bool) Value     { return Value{Kind: "bool", Bool: b} }
func Time(c int64) Value    { return Value{Kind: "time", Time: c} }

// ToValue converts a wire value into an engine value.
func (v Value) ToValue() (element.Value, error) {
	if ev, ok := v.engine(); ok {
		return ev, nil
	}
	return element.Value{}, fmt.Errorf("wire: unknown value kind %q", v.Kind)
}

// engine is ToValue without the error: ok is false for an unknown kind.
func (v Value) engine() (element.Value, bool) {
	switch v.Kind {
	case "null", "":
		return element.Null(), true
	case "string":
		return element.String_(v.Str), true
	case "int":
		return element.Int(v.Int), true
	case "float":
		return element.Float(v.Float), true
	case "bool":
		return element.Bool(v.Bool), true
	case "time":
		return element.Time(chronon.Chronon(v.Time)), true
	}
	return element.Value{}, false
}

// FromValue converts an engine value into its wire form.
func FromValue(v element.Value) Value {
	switch v.Kind() {
	case element.KindString:
		s, _ := v.Str()
		return String(s)
	case element.KindInt:
		i, _ := v.IntVal()
		return Int(i)
	case element.KindFloat:
		f, _ := v.FloatVal()
		return Float(f)
	case element.KindBool:
		b, _ := v.BoolVal()
		return Bool(b)
	case element.KindTime:
		c, _ := v.TimeVal()
		return Time(int64(c))
	}
	return Null()
}

// ToValues converts a slice of wire values.
func ToValues(vs []Value) ([]element.Value, error) {
	if len(vs) == 0 {
		return nil, nil
	}
	out := make([]element.Value, len(vs))
	for i, v := range vs {
		ev, err := v.ToValue()
		if err != nil {
			return nil, err
		}
		out[i] = ev
	}
	return out, nil
}

// FromValues converts a slice of engine values.
func FromValues(vs []element.Value) []Value {
	if len(vs) == 0 {
		return nil
	}
	out := make([]Value, len(vs))
	for i, v := range vs {
		out[i] = FromValue(v)
	}
	return out
}

// Timestamp is a valid time-stamp: exactly one of Event (an event chronon)
// or Start/End (a half-open interval) is set.
type Timestamp struct {
	Event *int64 `json:"event,omitempty"`
	Start *int64 `json:"start,omitempty"`
	End   *int64 `json:"end,omitempty"`
}

// EventAt builds an event wire time-stamp.
func EventAt(c int64) Timestamp { return Timestamp{Event: &c} }

// SpanOf builds an interval wire time-stamp [start, end).
func SpanOf(start, end int64) Timestamp { return Timestamp{Start: &start, End: &end} }

// ToTimestamp converts a wire time-stamp into an engine time-stamp.
func (t Timestamp) ToTimestamp() (element.Timestamp, error) {
	if ts, ok := t.engine(); ok {
		return ts, nil
	}
	if t.Event == nil && t.Start != nil && t.End != nil {
		return element.Timestamp{}, fmt.Errorf("wire: empty or inverted interval [%d,%d)", *t.Start, *t.End)
	}
	return element.Timestamp{}, fmt.Errorf("wire: timestamp needs either event or start+end")
}

// engine is ToTimestamp without the error: ok is false where it refuses.
func (t Timestamp) engine() (element.Timestamp, bool) {
	switch {
	case t.Event != nil && t.Start == nil && t.End == nil:
		return element.EventAt(chronon.Chronon(*t.Event)), true
	case t.Event == nil && t.Start != nil && t.End != nil && *t.End > *t.Start:
		return element.SpanOf(chronon.Chronon(*t.Start), chronon.Chronon(*t.End)), true
	}
	return element.Timestamp{}, false
}

// FromTimestamp converts an engine time-stamp into its wire form.
func FromTimestamp(ts element.Timestamp) Timestamp {
	if c, ok := ts.Event(); ok {
		return EventAt(int64(c))
	}
	iv, _ := ts.Interval()
	return SpanOf(int64(iv.Start), int64(iv.End))
}

// Element is one stored element version.
type Element struct {
	ES        uint64    `json:"es"`
	OS        uint64    `json:"os"`
	TTStart   int64     `json:"tt_start"`
	TTEnd     int64     `json:"tt_end"` // chronon.Forever while current
	Current   bool      `json:"current"`
	VT        Timestamp `json:"vt"`
	Invariant []Value   `json:"invariant,omitempty"`
	Varying   []Value   `json:"varying,omitempty"`
	UserTimes []int64   `json:"user_times,omitempty"`
}

// FromElement converts an engine element into its wire form.
func FromElement(e *element.Element) Element {
	var uts []int64
	if len(e.UserTimes) > 0 {
		uts = make([]int64, len(e.UserTimes))
		for i, c := range e.UserTimes {
			uts[i] = int64(c)
		}
	}
	return Element{
		ES:        uint64(e.ES),
		OS:        uint64(e.OS),
		TTStart:   int64(e.TTStart),
		TTEnd:     int64(e.TTEnd),
		Current:   e.Current(),
		VT:        FromTimestamp(e.VT),
		Invariant: FromValues(e.Invariant),
		Varying:   FromValues(e.Varying),
		UserTimes: uts,
	}
}

// FromElements converts a result set.
func FromElements(es []*element.Element) []Element {
	out := make([]Element, len(es))
	for i, e := range es {
		out[i] = FromElement(e)
	}
	return out
}

// Column describes one schema attribute.
type Column struct {
	Name string `json:"name"`
	Type string `json:"type"` // element.ValueKind name: "string", "int", ...
}

// Schema describes a relation.
type Schema struct {
	Name        string   `json:"name"`
	ValidTime   string   `json:"valid_time"`  // "event" or "interval"
	Granularity int64    `json:"granularity"` // tick length in seconds
	Invariant   []Column `json:"invariant,omitempty"`
	Varying     []Column `json:"varying,omitempty"`
	UserTimes   []string `json:"user_times,omitempty"`
}

func parseKind(s string) (element.ValueKind, error) {
	for _, k := range []element.ValueKind{
		element.KindNull, element.KindString, element.KindInt,
		element.KindFloat, element.KindBool, element.KindTime,
	} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("wire: unknown column type %q", s)
}

func toColumns(cols []Column) ([]relation.Column, error) {
	if len(cols) == 0 {
		return nil, nil
	}
	out := make([]relation.Column, len(cols))
	for i, c := range cols {
		k, err := parseKind(c.Type)
		if err != nil {
			return nil, err
		}
		out[i] = relation.Column{Name: c.Name, Type: k}
	}
	return out, nil
}

func fromColumns(cols []relation.Column) []Column {
	if len(cols) == 0 {
		return nil
	}
	out := make([]Column, len(cols))
	for i, c := range cols {
		out[i] = Column{Name: c.Name, Type: c.Type.String()}
	}
	return out
}

// ToSchema converts a wire schema into an engine schema and validates it.
func (s Schema) ToSchema() (relation.Schema, error) {
	var kind element.TimestampKind
	switch s.ValidTime {
	case "event":
		kind = element.EventStamp
	case "interval":
		kind = element.IntervalStamp
	default:
		return relation.Schema{}, fmt.Errorf("wire: unknown valid_time %q (want \"event\" or \"interval\")", s.ValidTime)
	}
	g := chronon.Granularity(s.Granularity)
	if !g.Valid() {
		return relation.Schema{}, fmt.Errorf("wire: invalid granularity %d", s.Granularity)
	}
	inv, err := toColumns(s.Invariant)
	if err != nil {
		return relation.Schema{}, err
	}
	vary, err := toColumns(s.Varying)
	if err != nil {
		return relation.Schema{}, err
	}
	schema := relation.Schema{
		Name:        s.Name,
		ValidTime:   kind,
		Granularity: g,
		Invariant:   inv,
		Varying:     vary,
		UserTimes:   s.UserTimes,
	}
	if err := schema.Validate(); err != nil {
		return relation.Schema{}, err
	}
	return schema, nil
}

// FromSchema converts an engine schema into its wire form.
func FromSchema(s relation.Schema) Schema {
	vt := "event"
	if s.ValidTime == element.IntervalStamp {
		vt = "interval"
	}
	return Schema{
		Name:        s.Name,
		ValidTime:   vt,
		Granularity: int64(s.Granularity),
		Invariant:   fromColumns(s.Invariant),
		Varying:     fromColumns(s.Varying),
		UserTimes:   s.UserTimes,
	}
}

// Duration is a specialization bound: a fixed number of seconds plus a
// calendric number of months.
type Duration struct {
	Seconds int64 `json:"seconds,omitempty"`
	Months  int64 `json:"months,omitempty"`
}

// Descriptor is one declared specialization in wire form. Kind, Class,
// Scope, Basis, and Endpoint carry the same numeric codes the binary
// catalog persists; Name is filled by the server on responses for display.
type Descriptor struct {
	Kind        uint8      `json:"kind"`
	Class       uint8      `json:"class"`
	Scope       uint8      `json:"scope"` // 0 per-relation, 1 per-partition
	Basis       uint8      `json:"basis,omitempty"`
	Endpoint    uint8      `json:"endpoint,omitempty"`
	Bounds      []Duration `json:"bounds,omitempty"`
	Granularity int64      `json:"granularity,omitempty"` // degenerate class only
	Name        string     `json:"name,omitempty"`        // display only, server-filled
}

// ToDescriptor converts a wire descriptor into a constraint descriptor and
// verifies it reconstructs, so malformed declarations fail at the protocol
// boundary rather than at the first transaction.
func (d Descriptor) ToDescriptor() (constraint.Descriptor, error) {
	out := constraint.Descriptor{
		Kind:        constraint.DescriptorKind(d.Kind),
		Class:       core.Class(d.Class),
		Scope:       constraint.Scope(d.Scope),
		Basis:       core.TTBasis(d.Basis),
		Endpoint:    core.VTEndpoint(d.Endpoint),
		Granularity: chronon.Granularity(d.Granularity),
	}
	if d.Scope > uint8(constraint.PerPartition) {
		return constraint.Descriptor{}, fmt.Errorf("wire: unknown scope %d", d.Scope)
	}
	for _, b := range d.Bounds {
		out.Bounds = append(out.Bounds, chronon.Duration{Seconds: b.Seconds, Months: b.Months})
	}
	if _, err := out.Build(); err != nil {
		return constraint.Descriptor{}, err
	}
	return out, nil
}

// FromDescriptor converts a constraint descriptor into its wire form,
// naming it for display.
func FromDescriptor(d constraint.Descriptor) Descriptor {
	out := Descriptor{
		Kind:        uint8(d.Kind),
		Class:       uint8(d.Class),
		Scope:       uint8(d.Scope),
		Basis:       uint8(d.Basis),
		Endpoint:    uint8(d.Endpoint),
		Granularity: int64(d.Granularity),
		Name:        d.String(),
	}
	for _, b := range d.Bounds {
		out.Bounds = append(out.Bounds, Duration{Seconds: b.Seconds, Months: b.Months})
	}
	return out
}

// FromDescriptors converts a declaration catalog.
func FromDescriptors(ds []constraint.Descriptor) []Descriptor {
	if len(ds) == 0 {
		return nil
	}
	out := make([]Descriptor, len(ds))
	for i, d := range ds {
		out[i] = FromDescriptor(d)
	}
	return out
}

// ToDescriptors converts and validates a wire declaration list.
func ToDescriptors(ds []Descriptor) ([]constraint.Descriptor, error) {
	out := make([]constraint.Descriptor, 0, len(ds))
	for i, d := range ds {
		cd, err := d.ToDescriptor()
		if err != nil {
			return nil, fmt.Errorf("constraint %d: %w", i, err)
		}
		out = append(out, cd)
	}
	return out, nil
}

// CreateRequest asks the server to create a relation.
type CreateRequest struct {
	Schema Schema `json:"schema"`
}

// DeclareRequest attaches specializations to a relation. All descriptors
// must share one scope per request (the engine enforces one enforcer per
// scope); mixed scopes are split by the server.
type DeclareRequest struct {
	Constraints []Descriptor `json:"constraints"`
}

// DeclareResponse reports the relation's full declaration catalog after
// the new constraints were attached.
type DeclareResponse struct {
	Declared     int          `json:"declared"`
	Declarations []Descriptor `json:"declarations"`
}

// InsertRequest stores one new element.
type InsertRequest struct {
	Object    uint64    `json:"object,omitempty"` // 0 allocates a new object surrogate
	VT        Timestamp `json:"vt"`
	Invariant []Value   `json:"invariant,omitempty"`
	Varying   []Value   `json:"varying,omitempty"`
	UserTimes []int64   `json:"user_times,omitempty"`
}

// ToInsertion converts the request into the insertion the engine takes.
// It refuses an unknown value kind and a time-stamp that is neither an
// event nor a non-empty interval.
func (r InsertRequest) ToInsertion() (relation.Insertion, error) {
	vt, err := r.VT.ToTimestamp()
	if err != nil {
		return relation.Insertion{}, err
	}
	inv, err := ToValues(r.Invariant)
	if err != nil {
		return relation.Insertion{}, err
	}
	vary, err := ToValues(r.Varying)
	if err != nil {
		return relation.Insertion{}, err
	}
	var uts []chronon.Chronon
	for _, u := range r.UserTimes {
		uts = append(uts, chronon.Chronon(u))
	}
	return relation.Insertion{
		Object:    surrogate.Surrogate(r.Object),
		VT:        vt,
		Invariant: inv,
		Varying:   vary,
		UserTimes: uts,
	}, nil
}

// BatchInsertRequest stores many elements as one journaled unit: one
// WAL frame, one group-commit entry, one published epoch. A batch's
// idempotency key is the request's Idempotency-Key header, and a replay
// must send the same body bytes. Keys is the compatibility path: when
// present it parallels Elements — one idempotency key per element, so a
// replayed batch dedups element by element like replayed single inserts —
// and the header key goes unused. The typed client does not send it. Atomic makes the batch all-or-nothing: any rejection aborts
// it before anything is journaled. Brief asks for a brief report: a stored
// item whose element is what its request would rebuild carries only what
// the server assigned (BatchItem.Assigned), and the sender, which holds
// the request, completes it (BatchInsertResponse.Complete).
type BatchInsertRequest struct {
	Elements []InsertRequest `json:"elements"`
	Keys     []string        `json:"keys,omitempty"`
	Atomic   bool            `json:"atomic,omitempty"`
	Brief    bool            `json:"brief,omitempty"`
}

// ToInsertions converts every element of the request (ToInsertion); the
// error names the first element that does not convert.
func (r BatchInsertRequest) ToInsertions() (BatchInsertions, error) {
	out := BatchInsertions{Keys: r.Keys, Atomic: r.Atomic, Brief: r.Brief}
	if r.Elements != nil {
		out.Elements = make([]relation.Insertion, len(r.Elements))
	}
	for i, er := range r.Elements {
		var err error
		if out.Elements[i], err = er.ToInsertion(); err != nil {
			return BatchInsertions{}, fmt.Errorf("element %d: %s", i, err.Error())
		}
	}
	return out, nil
}

// BatchItem is one element's outcome inside a batch response. A stored or
// deduped item carries its element whole — or, in a brief report, a stored
// item whose element is what its request would rebuild carries Assigned
// instead.
type BatchItem struct {
	Status   string    `json:"status"` // "stored", "deduped", "rejected"
	Error    string    `json:"error,omitempty"`
	Element  *Element  `json:"element,omitempty"`
	Assigned *Assigned `json:"assigned,omitempty"`
}

// Assigned is what the server chose for a stored element: its two
// surrogates and its transaction time. The valid time-stamp and the
// attribute values are the request's, and a stored element is current.
type Assigned struct {
	ES      uint64 `json:"es"`
	OS      uint64 `json:"os"`
	TTStart int64  `json:"tt_start"`
}

// BatchInsertResponse reports a batch per-index plus the tallies and the
// epoch the single publish produced.
type BatchInsertResponse struct {
	Items    []BatchItem `json:"items"`
	Stored   int         `json:"stored"`
	Deduped  int         `json:"deduped"`
	Rejected int         `json:"rejected"`
	Epoch    uint64      `json:"epoch,omitempty"`
}

// IngestResponse is POST /v1/ingest/csv: how many data lines streamed
// in, what was stored or rejected, and how many batches carried them.
// Errors holds the first line-numbered failures (decode errors and
// per-element rejections); ErrorCount is the total, which may exceed
// len(Errors).
type IngestResponse struct {
	Relation   string   `json:"relation"`
	Lines      int      `json:"lines"`
	Stored     int      `json:"stored"`
	Rejected   int      `json:"rejected"`
	Batches    int      `json:"batches"`
	Errors     []string `json:"errors,omitempty"`
	ErrorCount int      `json:"error_count,omitempty"`
}

// DeleteRequest logically deletes one element.
type DeleteRequest struct {
	ES uint64 `json:"es"`
}

// ModifyRequest replaces an element's valid time and varying values.
type ModifyRequest struct {
	ES      uint64    `json:"es"`
	VT      Timestamp `json:"vt"`
	Varying []Value   `json:"varying,omitempty"`
}

// ElementResponse returns the element a transaction stored.
type ElementResponse struct {
	Element Element `json:"element"`
}

// Query kinds accepted by QueryRequest.
const (
	QueryCurrent   = "current"
	QueryTimeslice = "timeslice"
	QueryRollback  = "rollback"
	QueryAsOf      = "asof" // bitemporal: valid at VT as stored at TT
)

// QueryRequest runs one of the engine's query kinds.
type QueryRequest struct {
	Kind string `json:"kind"`
	VT   int64  `json:"vt,omitempty"`
	TT   int64  `json:"tt,omitempty"`
}

// QueryResponse carries the result set with the access-path accounting the
// storage advisor's organization produced. Plan is the legacy one-line
// rendering; PlanNode is the structured tree it renders.
type QueryResponse struct {
	Elements []Element `json:"elements"`
	Plan     string    `json:"plan,omitempty"`
	PlanNode *PlanNode `json:"plan_node,omitempty"`
	Touched  int       `json:"touched"`
	// Epoch is the relation's mutation epoch the result was computed at —
	// the epoch the validator of a GET query names. A body kept across a
	// revalidated 304 keeps the epoch it was computed at.
	Epoch uint64 `json:"epoch,omitempty"`
}

// PlanNode is the structured form of a typed query plan: one access-path
// leaf under zero or more decorators, innermost via Input.
type PlanNode struct {
	Kind string `json:"kind"` // plan.NodeKind slug, e.g. "vt-binary-search"
	// Org is the organization an access-path leaf reads ("heap",
	// "tt-ordered log", "vt-ordered log", or "bitemporal" for the
	// two-dimension scan).
	Org string `json:"org,omitempty"`
	// WinLo, WinHi carry a tt-window pushdown's inclusive window.
	WinLo *int64 `json:"win_lo,omitempty"`
	WinHi *int64 `json:"win_hi,omitempty"`
	// Note annotates filter decorators; Count is a limit's row cap.
	Note  string `json:"note,omitempty"`
	Count int    `json:"count,omitempty"`
	// Est is the planner's estimated touched count.
	Est   int       `json:"est"`
	Input *PlanNode `json:"input,omitempty"`
}

// FromPlanNode converts a typed plan tree for the wire.
func FromPlanNode(n *plan.Node) *PlanNode {
	if n == nil {
		return nil
	}
	out := &PlanNode{
		Kind:  n.Kind.String(),
		Note:  n.Note,
		Count: n.Count,
		Est:   n.Est,
		Input: FromPlanNode(n.Input),
	}
	if n.Input == nil { // access-path leaf
		if n.Bitemporal {
			out.Org = "bitemporal"
		} else {
			out.Org = n.Org.String()
		}
	}
	if n.Kind == plan.TTWindowPushdown {
		lo, hi := n.WinLo, n.WinHi
		out.WinLo, out.WinHi = &lo, &hi
	}
	return out
}

// Leaf walks to the access-path leaf.
func (n *PlanNode) Leaf() *PlanNode {
	for n.Input != nil {
		n = n.Input
	}
	return n
}

// ExplainResponse is a structured plan for a statement or query kind,
// returned without executing it.
type ExplainResponse struct {
	Relation string `json:"relation"`
	// Query echoes the statement (or synthesized kind) that was planned.
	Query string `json:"query"`
	// Store is the advisor-chosen physical organization the plan targets;
	// StoreSource is its provenance — "declared" when a constraint
	// licensed it, "inferred" when the observed extension did, "default"
	// otherwise.
	Store       string    `json:"store"`
	StoreSource string    `json:"store_source,omitempty"`
	Plan        *PlanNode `json:"plan"`
	// Rendered is the human-readable tree (one line per node).
	Rendered string `json:"rendered"`
}

// SelectRequest runs a raw tsql SELECT statement.
type SelectRequest struct {
	Query string `json:"query"`
}

// SelectResponse is a tabular query result with the executed plan.
type SelectResponse struct {
	Columns []string  `json:"columns"`
	Rows    [][]Value `json:"rows"`
	Plan    *PlanNode `json:"plan,omitempty"`
	Touched int       `json:"touched"`
	// Engine names the kernel that folded an aggregate query's chunks:
	// always "row" (one element at a time, where it lies). Empty for
	// non-aggregate statements.
	Engine string `json:"engine,omitempty"`
}

// RelationSummary is one row of the relation listing.
type RelationSummary struct {
	Name         string `json:"name"`
	ValidTime    string `json:"valid_time"`
	Versions     int    `json:"versions"`
	Declarations int    `json:"declarations"`
}

// ListResponse lists the catalog.
type ListResponse struct {
	Relations []RelationSummary `json:"relations"`
}

// Advice is the storage advisor's recommendation.
type Advice struct {
	Store   string   `json:"store"`
	Reasons []string `json:"reasons,omitempty"`
	// Source is the advice's provenance: "declared" (a constraint
	// licensed it), "inferred" (the observed extension licensed it —
	// revocable), or "default".
	Source string `json:"source,omitempty"`
}

// MigrationInfo is one physical-design change of a relation.
type MigrationInfo struct {
	Epoch   uint64   `json:"epoch"`
	From    string   `json:"from"`
	To      string   `json:"to"`
	Source  string   `json:"source,omitempty"`
	Reasons []string `json:"reasons,omitempty"`
}

// TrackerInfo reports the extension tracker's observed statistics: what
// the inference machinery has seen and how the history has (or has not)
// violated the monotone class properties.
type TrackerInfo struct {
	Elements     int    `json:"elements"`
	TTViolations uint64 `json:"tt_violations,omitempty"`
	VTViolations uint64 `json:"vt_violations,omitempty"`
	Overlaps     uint64 `json:"overlaps,omitempty"`
	OffsetLo     int64  `json:"offset_lo,omitempty"`
	OffsetHi     int64  `json:"offset_hi,omitempty"`
	VTUnit       int64  `json:"vt_unit,omitempty"`
}

// PhysicalInfo describes a relation's live physical design: the
// organization with its provenance, the declared / inferred / adopted
// specialization classes, the migration history, and the compaction and
// footprint gauges.
type PhysicalInfo struct {
	Org        string          `json:"org"`
	Source     string          `json:"source"` // "declared", "inferred", or "default"
	Reasons    []string        `json:"reasons,omitempty"`
	Declared   []string        `json:"declared,omitempty"`
	Inferred   []string        `json:"inferred,omitempty"`
	Adopted    []string        `json:"adopted,omitempty"`
	Migrations uint64          `json:"migrations,omitempty"`
	History    []MigrationInfo `json:"history,omitempty"`
	StoreBytes int64           `json:"store_bytes"`
	// SealedRuns/SealedElements/PackedBytes report class-scheduled
	// compaction: how much of the store is sealed into runs and the
	// delta-encoded size of their timestamp columns, measured at seal.
	SealedRuns     int          `json:"sealed_runs,omitempty"`
	SealedElements int          `json:"sealed_elements,omitempty"`
	PackedBytes    int64        `json:"packed_bytes,omitempty"`
	Tracker        *TrackerInfo `json:"tracker,omitempty"`
	// MerkleSize/MerkleRoot/Quarantined are the integrity provenance:
	// how many committed WAL frames the relation's Merkle tree covers,
	// its current root, and the quarantine cause when a scrub detection
	// degraded the relation to read-only.
	MerkleSize  uint64 `json:"merkle_size,omitempty"`
	MerkleRoot  []byte `json:"merkle_root,omitempty"`
	Quarantined string `json:"quarantined,omitempty"`
}

// RelationInfo describes one relation in full.
type RelationInfo struct {
	Schema       Schema                 `json:"schema"`
	Versions     int                    `json:"versions"`
	Declarations []Descriptor           `json:"declarations,omitempty"`
	Advice       Advice                 `json:"advice"`
	Plans        map[string]PlanMetrics `json:"plans,omitempty"`
	Physical     *PhysicalInfo          `json:"physical,omitempty"`
}

// ClassifyResponse reports the inferred specializations of an extension.
type ClassifyResponse struct {
	Findings     []string `json:"findings"`
	MostSpecific []string `json:"most_specific"`
}

// SnapshotResponse reports a catalog flush.
type SnapshotResponse struct {
	Saved int `json:"saved"`
}

// HealthResponse is the liveness probe body. Status is "ok" while the
// server is fully serving, "degraded" when the WAL has poisoned (reads
// serve, mutations return read_only), and "draining" during graceful
// shutdown. The extra fields are omitted when healthy, so pre-existing
// consumers of the original shape keep working.
type HealthResponse struct {
	Status        string `json:"status"`
	Relations     int    `json:"relations"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	// WAL carries the poison cause when the log has failed.
	WAL string `json:"wal,omitempty"`
	// Draining reports graceful shutdown in progress.
	Draining bool `json:"draining,omitempty"`
	// ReadOnly reports that mutations are being refused.
	ReadOnly bool `json:"read_only,omitempty"`
	// Role is "primary" or "follower" when replication is configured;
	// empty for a standalone server.
	Role string `json:"role,omitempty"`
}

// ReadyResponse is the readiness probe body (GET /readyz). Unlike
// /healthz (liveness), readiness turns false when the server should stop
// receiving new traffic: WAL poisoned, draining, or an admission queue
// saturated.
type ReadyResponse struct {
	Ready   bool     `json:"ready"`
	Status  string   `json:"status"` // "ok", "degraded", "draining", "saturated"
	Reasons []string `json:"reasons,omitempty"`
}

// ErrorBody is the uniform error envelope.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries a machine-readable code and a human message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes used by the server.
const (
	CodeBadRequest = "bad_request"
	CodeNotFound   = "not_found"
	CodeConflict   = "conflict"
	CodeRejected   = "rejected" // transaction rejected by a declared specialization
	CodeTooLarge   = "too_large"
	CodeInternal   = "internal"
	// CodeOverloaded: the request's admission queue is full (429). The
	// request was never admitted; retrying after Retry-After is safe.
	CodeOverloaded = "overloaded"
	// CodeUnavailable: the request could not be served in its deadline
	// budget, or the server is draining (503). The request may or may not
	// have executed; only idempotent requests should be retried blindly.
	CodeUnavailable = "unavailable"
	// CodeReadOnly: the catalog is serving in read-only mode and refuses
	// mutations (503) — either the WAL has poisoned (restart recovers) or
	// the process is a follower replica (mutations go to the primary).
	CodeReadOnly = "read_only"
	// CodeTruncated: a replication read asked for an LSN the primary's
	// log no longer retains (410). The follower must be reseeded from a
	// snapshot of the primary's data directory.
	CodeTruncated = "truncated"
)

// Resilience headers shared by client and server.
const (
	// HeaderDeadline carries the client's remaining deadline budget in
	// milliseconds; the server shrinks the request context to it.
	HeaderDeadline = "X-Tsdbd-Deadline-Ms"
	// HeaderIdempotencyKey carries a mutation's idempotency key. A retry
	// bearing the same key returns the originally stored element instead
	// of appending a second one.
	HeaderIdempotencyKey = "Idempotency-Key"
	// HeaderRetryAfter is the standard backoff hint set on 429/503 sheds.
	HeaderRetryAfter = "Retry-After"
	// HeaderETag / HeaderIfNoneMatch implement conditional GET queries:
	// the server's validator names the relation, the mutation epoch the
	// answer was computed at and the server's boot ("emp-5.<token>"), and a
	// 304 means "nothing your query can see changed since your copy" —
	// epochs may have passed — and costs no query execution. Its ETag is
	// the current validator, to send next time.
	HeaderETag        = "ETag"
	HeaderIfNoneMatch = "If-None-Match"
	// HeaderValidation, on the answer to a conditional GET, says what
	// revalidating its validator found: "same" (304, no epoch passed),
	// "revalidated" (304, epochs passed but no change met the query),
	// "changed" (200, a change met it) or "unknown" (200: the validator is
	// older than the server remembers, or from another boot or node).
	HeaderValidation = "X-Tsdbd-Validation"
	// HeaderStaleness, set by follower replicas on every response, bounds
	// how far the node's applied state may trail the primary, in
	// milliseconds. It is computed from the last moment the follower
	// observed itself caught up to the primary's durable LSN, so a value
	// of S means "every mutation durable on the primary more than S ms
	// ago is visible here". Absent on primaries and on followers that
	// have never completed an initial sync.
	HeaderStaleness = "X-Tsdbd-Staleness-Ms"
)

// ReplSegment describes one live WAL segment on the primary.
type ReplSegment struct {
	Name   string `json:"name"`
	Base   uint64 `json:"base"` // LSN of the first record
	Last   uint64 `json:"last"` // LSN of the last record; base-1 while empty
	Sealed bool   `json:"sealed"`
}

// ReplSegmentsResponse enumerates the primary's retained WAL segments,
// oldest first, with the LSN bounds a follower needs to plan a catch-up:
// anything below OldestLSN is gone (reseed from a snapshot), anything up
// to DurableLSN is fetchable.
type ReplSegmentsResponse struct {
	Segments   []ReplSegment `json:"segments"`
	OldestLSN  uint64        `json:"oldest_lsn"`
	DurableLSN uint64        `json:"durable_lsn"`
}

// ReplFrame is one WAL record in wire form. Payload is the raw record
// payload the catalog framed (base64 over JSON); the follower replays it
// through the same decoder the primary's boot-time recovery uses.
type ReplFrame struct {
	LSN     uint64 `json:"lsn"`
	Kind    uint8  `json:"kind"`
	Rel     string `json:"rel"`
	Payload []byte `json:"payload,omitempty"`
	// Leaf is the frame's integrity leaf hash — SHA-256(0x00 ‖ frame
	// body) — shipped so the follower can recompute it from the frame it
	// received and refuse a batch that was corrupted in flight or on the
	// primary's disk, re-fetching instead of applying damage. Absent when
	// the primary runs with integrity disabled.
	Leaf []byte `json:"leaf,omitempty"`
}

// ReplTailResponse is one batch of the tailing feed: frames in LSN order
// starting at the requested from_lsn, never past the primary's
// durability watermark (the follower-safety invariant — a replica never
// applies state the primary could lose in a crash). DurableLSN is the
// watermark the batch was bounded by; a follower whose applied LSN
// reaches it is caught up as of this response.
type ReplTailResponse struct {
	Frames     []ReplFrame `json:"frames,omitempty"`
	DurableLSN uint64      `json:"durable_lsn"`
	OldestLSN  uint64      `json:"oldest_lsn"`
}

// ReplicationMetrics is the /metrics replication section. Role selects
// which gauges are meaningful: a primary reports the shipping side
// (tail requests served, frames shipped), a follower the applying side
// (applied LSN vs the primary's durable LSN, staleness, reconnects).
type ReplicationMetrics struct {
	Role              string `json:"role"` // "primary" or "follower"
	TailRequests      uint64 `json:"tail_requests,omitempty"`
	FramesShipped     uint64 `json:"frames_shipped,omitempty"`
	Primary           string `json:"primary,omitempty"`
	AppliedLSN        uint64 `json:"applied_lsn,omitempty"`
	PrimaryDurableLSN uint64 `json:"primary_durable_lsn,omitempty"`
	Synced            bool   `json:"synced,omitempty"`
	StalenessMs       int64  `json:"staleness_ms,omitempty"`
	FramesApplied     uint64 `json:"frames_applied,omitempty"`
	Reconnects        uint64 `json:"reconnects,omitempty"`
	// LeafFailures counts shipped frames whose integrity leaf hash did
	// not match the frame body; each one dropped its batch for re-fetch.
	LeafFailures uint64 `json:"leaf_failures,omitempty"`
	LastError    string `json:"last_error,omitempty"`
}

// EndpointMetrics aggregates one endpoint's request accounting.
type EndpointMetrics struct {
	Requests  uint64 `json:"requests"`
	Errors    uint64 `json:"errors"`
	LatencyUS int64  `json:"latency_total_us"`
	MinUS     int64  `json:"latency_min_us"`
	MaxUS     int64  `json:"latency_max_us"`
	MeanUS    int64  `json:"latency_mean_us"`
	Touched   uint64 `json:"elements_touched"`
	// RespBytes and EncodeUS total the response bodies written and the
	// time spent encoding them (socket writes excluded), so encode_total_us
	// over latency_total_us is the share of the endpoint that is encoding.
	RespBytes uint64 `json:"response_bytes,omitempty"`
	EncodeUS  int64  `json:"encode_total_us,omitempty"`
	// Timeouts counts requests the server's deadline answered with the 503
	// timeout envelope while their handler was still running; each is also
	// a request (and an error) once its handler returns.
	Timeouts uint64 `json:"request_timeouts,omitempty"`
	// Conditional counts the endpoint's conditional GETs by outcome;
	// omitted until one arrives.
	Conditional *ConditionalMetrics `json:"conditional,omitempty"`
}

// ConditionalMetrics counts conditional GETs (If-None-Match) by what
// revalidating the validator found — the HeaderValidation values: why a
// conditional read recomputed, or why it did not.
type ConditionalMetrics struct {
	// Same and Revalidated answered 304: at the validator's epoch, or
	// across epochs none of whose changes the query can see.
	Same        uint64 `json:"not_modified_same_epoch"`
	Revalidated uint64 `json:"not_modified_revalidated"`
	// Changed and Unknown answered 200: a change since the validator met the
	// query, or the validator is past the server's change log or from
	// another boot or node.
	Changed uint64 `json:"changed"`
	Unknown uint64 `json:"unknown"`
}

// PlanMetrics aggregates one plan kind's query accounting.
type PlanMetrics struct {
	Requests uint64 `json:"requests"`
	Touched  uint64 `json:"elements_touched"`
}

// WALMetrics reports the write-ahead log's lifetime counters: append and
// fsync volume (whose ratio is the group-commit batching factor), boot-time
// replay accounting, and the current segment/LSN watermarks.
type WALMetrics struct {
	AppendedRecords   uint64  `json:"appended_records"`
	Fsyncs            uint64  `json:"fsyncs"`
	MeanBatch         float64 `json:"mean_batch"`
	MaxBatch          uint64  `json:"max_batch"`
	ReplayedRecords   uint64  `json:"replayed_records"`
	LastReplayUS      int64   `json:"last_replay_us"`
	Segments          int     `json:"segments"`
	LastLSN           uint64  `json:"last_lsn"`
	DurableLSN        uint64  `json:"durable_lsn"`
	TruncatedSegments uint64  `json:"truncated_segments"`
	// VerifyFailures counts segment verifications that found damage
	// (scrub re-reads, not live appends).
	VerifyFailures uint64 `json:"verify_failures,omitempty"`
}

// ClassAdmissionMetrics reports one admission class's gate: its
// configured limit, current occupancy and queue depth, lifetime admit
// and shed counters (split by cause), and queue-wait quantiles.
type ClassAdmissionMetrics struct {
	Limit         int    `json:"limit"`
	Inflight      int    `json:"inflight"`
	Admitted      uint64 `json:"admitted"`
	ShedOverload  uint64 `json:"shed_overload"` // queue full on arrival
	ShedTimeout   uint64 `json:"shed_timeout"`  // max queue wait expired
	ShedCanceled  uint64 `json:"shed_canceled"` // caller deadline/cancel while queued
	QueueDepth    int    `json:"queue_depth"`
	MaxQueueDepth int    `json:"max_queue_depth"`
	WaitP50US     int64  `json:"wait_p50_us"`
	WaitP95US     int64  `json:"wait_p95_us"`
	WaitP99US     int64  `json:"wait_p99_us"`
}

// QueryCacheMetrics reports the catalog's plan-keyed result cache: hit
// and miss counters — answers given and not given without executing —
// the hits served across one or more epochs (revalidated: no change since
// the answer's epoch met the query), LRU evictions, and resident size
// against capacity.
type QueryCacheMetrics struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Revalidated uint64 `json:"revalidated"`
	Evictions   uint64 `json:"evictions"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	Capacity    int64  `json:"capacity"`
}

// BatchMetrics reports the window aggregates' counters summed over the
// catalog: rows folded, how many full 256-element chunks an aggregate answered by
// merging a memoized partial against folded (groups_merged: how many of those merges
// were one partial standing in for an aligned group of 16 chunks, whose
// chunks runs_merged still counts), and how many chunks it passed over
// unread (pruned on a zone map, or outside the bounds the store's order
// gave the access path), and how many answers were rebuilt from the cells
// an earlier epoch's kept (rebuilt), folding again only the windows a
// change since reached (windows_refolded) and copying the rest
// (windows_reused). What the memo holds is ChunkMetrics'.
type BatchMetrics struct {
	Rows            int64 `json:"rows"`
	RunsMerged      int64 `json:"runs_merged"`
	GroupsMerged    int64 `json:"groups_merged,omitempty"`
	RunsFolded      int64 `json:"runs_folded"`
	ChunksPruned    int64 `json:"chunks_pruned,omitempty"`
	Rebuilt         int64 `json:"rebuilt,omitempty"`
	WindowsRefolded int64 `json:"windows_refolded,omitempty"`
	WindowsReused   int64 `json:"windows_reused,omitempty"`
}

// ImageMetrics reports, summed over the catalog, how the queries that
// return elements used the chunk images: dense stretches of an answer
// copied from an image (spans_spliced) against encoded element by element
// for want of one (spans_encoded). A slow read that spliced nothing encoded
// its whole answer.
type ImageMetrics struct {
	SpansSpliced int64 `json:"spans_spliced"`
	SpansEncoded int64 `json:"spans_encoded"`
}

// ChunkMetrics reports the chunk memo summed over the catalog — values
// derived from one full 256-element chunk, each its own query-cache entry:
// aggregate partials of a chunk (partials), of an aligned group of 16
// chunks (groups), and encoded images of a chunk (images), each with the
// lookups that found the entry at the chunk's close count (hit) and the
// values built (built); and the bytes of chunk entries the cache holds now.
// The lookups are not part of query_cache's hits and misses, which count
// whole results only.
type ChunkMetrics struct {
	Partials ChunkKindMetrics `json:"partials"`
	Groups   ChunkKindMetrics `json:"groups"`
	Images   ChunkKindMetrics `json:"images"`
	Bytes    int64            `json:"bytes"`
}

// ChunkKindMetrics is one kind of ChunkMetrics.
type ChunkKindMetrics struct {
	Hit   int64 `json:"hit"`
	Built int64 `json:"built"`
}

// IngestMetrics reports the batched-ingest counters summed over the
// catalog — batches journaled, elements they carried, mean batch size —
// plus the CSV streaming endpoint's flush-reason split: how many batches
// flushed on the size cap, the time cap, or end of stream.
type IngestMetrics struct {
	Batches         int64   `json:"batches"`
	BatchedElements int64   `json:"batched_elements"`
	MeanBatch       float64 `json:"mean_batch"`
	FlushSize       uint64  `json:"flush_size,omitempty"`
	FlushTime       uint64  `json:"flush_time,omitempty"`
	FlushEOF        uint64  `json:"flush_eof,omitempty"`
}

// DegradedMetrics reports the catalog's degraded-mode gauge.
type DegradedMetrics struct {
	ReadOnly bool   `json:"read_only"`
	Cause    string `json:"cause,omitempty"`
}

// RuntimeMetrics is the /metrics runtime block, read from runtime/metrics
// when the body is built: the garbage collector's CPU time since the
// process started over the CPU time GOMAXPROCS made available in it, the
// heap the last cycle marked live, the heap a cycle scans, and the cycles
// completed.
type RuntimeMetrics struct {
	GCCPUShare    float64 `json:"gc_cpu_share"`
	HeapLiveBytes uint64  `json:"heap_live_bytes"`
	HeapScanBytes uint64  `json:"heap_scan_bytes"`
	GCCycles      uint64  `json:"gc_cycles"`
}

// MetricsResponse is the /metrics body: per-endpoint request counts,
// latency summaries, elements-touched counters, the per-plan-kind
// breakdown of query work (keyed by plan.NodeKind slugs), the
// write-ahead log gauges when durability is enabled, per-class admission
// accounting, the degraded-mode gauge when the catalog is read-only, and
// the Go runtime's collector.
type MetricsResponse struct {
	UptimeSeconds int64                            `json:"uptime_seconds"`
	Requests      uint64                           `json:"requests"`
	Errors        uint64                           `json:"errors"`
	Endpoints     map[string]EndpointMetrics       `json:"endpoints"`
	Plans         map[string]PlanMetrics           `json:"plans,omitempty"`
	WAL           *WALMetrics                      `json:"wal,omitempty"`
	Admission     map[string]ClassAdmissionMetrics `json:"admission,omitempty"`
	Degraded      *DegradedMetrics                 `json:"degraded,omitempty"`
	QueryCache    *QueryCacheMetrics               `json:"query_cache,omitempty"`
	Batch         *BatchMetrics                    `json:"batch,omitempty"`
	Images        *ImageMetrics                    `json:"images,omitempty"`
	Chunks        *ChunkMetrics                    `json:"chunks,omitempty"`
	Ingest        *IngestMetrics                   `json:"ingest,omitempty"`
	Replication   *ReplicationMetrics              `json:"replication,omitempty"`
	Runtime       *RuntimeMetrics                  `json:"runtime,omitempty"`
	// Physical reports each relation's live physical design: its
	// organization, the advice provenance, migration count, and the
	// inferred classes the extension tracker currently holds.
	Physical map[string]PhysicalInfo `json:"physical,omitempty"`
	// Integrity reports the corruption-detection subsystem: Merkle
	// accounting coverage, scrubber progress, and detection/repair
	// counters.
	Integrity *IntegrityMetrics `json:"integrity,omitempty"`
}

// SignedRootInfo is a relation's Merkle root in wire form: the tree
// size it covers, the root hash, and — on primaries — an Ed25519
// signature over the domain-separated (rel, size, root) statement with
// the signing public key. Followers serve unsigned roots; clients
// verify those by consistency against an anchor signed by the primary.
type SignedRootInfo struct {
	Rel  string `json:"rel"`
	Size uint64 `json:"size"`
	Root []byte `json:"root"`
	Sig  []byte `json:"sig,omitempty"`
	Key  []byte `json:"key,omitempty"`
}

// IntegrityResponse is GET /v1/relations/{rel}/integrity: the
// relation's current tree size and root, signed over exactly that
// state, plus the quarantine cause when the relation is degraded.
type IntegrityResponse struct {
	Rel         string          `json:"rel"`
	Tracked     bool            `json:"tracked"`
	Size        uint64          `json:"size"`
	Root        []byte          `json:"root,omitempty"`
	Signed      *SignedRootInfo `json:"signed,omitempty"`
	Quarantined string          `json:"quarantined,omitempty"`
}

// ProofResponse is GET /v1/relations/{rel}/integrity/proof?index=I: an
// inclusion proof that the I-th committed frame is under the signed
// root. Proof is the TSPF binary encoding (integrity.EncodeProof); the
// client decodes and verifies it locally without trusting the server.
type ProofResponse struct {
	Rel    string         `json:"rel"`
	Index  uint64         `json:"index"`
	Leaf   []byte         `json:"leaf"`
	Proof  []byte         `json:"proof"`
	Signed SignedRootInfo `json:"signed"`
}

// ConsistencyResponse is GET
// /v1/relations/{rel}/integrity/consistency?from=M: a proof that the
// current tree extends the size-M prefix — history was appended to,
// never rewritten. OldRoot is the server's root at M (informational);
// verifiers check against their own anchored root.
type ConsistencyResponse struct {
	Rel     string         `json:"rel"`
	From    uint64         `json:"from"`
	OldRoot []byte         `json:"old_root"`
	Proof   []byte         `json:"proof"`
	Signed  SignedRootInfo `json:"signed"`
}

// VerifyResponse is POST /v1/relations/{rel}/verify: a synchronous
// scrub of every artifact covering the relation, with the damage found
// and how much of it was repaired in place.
type VerifyResponse struct {
	Rel       string   `json:"rel"`
	Artifacts int      `json:"artifacts"`
	Failures  []string `json:"failures,omitempty"`
	Repaired  int      `json:"repaired"`
}

// IntegrityEventInfo is one journaled integrity action in wire form.
type IntegrityEventInfo struct {
	Unix         int64  `json:"unix"`
	Kind         string `json:"kind"` // detect | quarantine | repair | repair-failed
	ArtifactKind string `json:"artifact_kind"`
	Artifact     string `json:"artifact"`
	Rel          string `json:"rel,omitempty"`
	Detail       string `json:"detail"`
}

// IntegrityMetrics is the /metrics integrity section: Merkle coverage,
// lifetime detection/repair counters, current quarantines, scrubber
// progress, and this node's recent events (a primary's are also rows of
// _sys_events; EventsUnrecorded counts those it could not write). Signatures counts the Ed25519
// root signatures made since boot: one per served root whose tree had
// grown, one per relation per snapshot, none per write.
type IntegrityMetrics struct {
	Enabled          bool                 `json:"enabled"`
	TrackedRelations int                  `json:"tracked_relations"`
	Leaves           uint64               `json:"leaves"`
	Detected         uint64               `json:"detected"`
	Repaired         uint64               `json:"repaired"`
	Quarantines      uint64               `json:"quarantines"`
	Quarantined      []string             `json:"quarantined,omitempty"`
	Signatures       uint64               `json:"signatures"`
	EventsUnrecorded uint64               `json:"events_unrecorded,omitempty"`
	ScrubPasses      uint64               `json:"scrub_passes"`
	ScrubArtifacts   uint64               `json:"scrub_artifacts"`
	ScrubBytes       uint64               `json:"scrub_bytes"`
	ScrubFailures    uint64               `json:"scrub_failures"`
	LastScrubUnix    int64                `json:"last_scrub_unix,omitempty"`
	Events           []IntegrityEventInfo `json:"events,omitempty"`
}
