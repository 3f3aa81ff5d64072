package relation

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
	"repro/internal/tx"
)

// Common errors returned by relation operations.
var (
	// ErrNoSuchElement reports an operation on an element surrogate that
	// was never stored in the relation.
	ErrNoSuchElement = errors.New("relation: no such element")
	// ErrAlreadyDeleted reports a deletion or modification of an element
	// that has already been logically deleted.
	ErrAlreadyDeleted = errors.New("relation: element already deleted")
	// ErrWrongStampKind reports a valid time-stamp whose kind (event vs
	// interval) does not match the relation schema.
	ErrWrongStampKind = errors.New("relation: valid time-stamp kind does not match schema")
)

// Guard validates transactions before they are applied. The constraint
// layer registers guards to enforce declared temporal specializations;
// a guard error rejects the transaction, leaving the relation unchanged.
type Guard interface {
	// CheckInsert is called with the fully built element (including its
	// assigned transaction time) before it is stored.
	CheckInsert(r *Relation, e *element.Element) error
	// CheckDelete is called before element e is logically deleted at
	// transaction time tt.
	CheckDelete(r *Relation, e *element.Element, tt chronon.Chronon) error
	// Applied is called after a transaction commits so that incremental
	// guards can update their state. op is OpInsert or OpDelete.
	Applied(r *Relation, op Op, e *element.Element, tt chronon.Chronon)
}

// Op identifies a backlog operation.
type Op uint8

// Backlog operation kinds. Per §2, a modification is represented as a
// logical deletion followed by an insertion with a fresh element surrogate.
const (
	OpInsert Op = iota
	OpDelete
)

// String names the operation.
func (o Op) String() string {
	if o == OpInsert {
		return "insert"
	}
	return "delete"
}

// LogRecord is one entry of the backlog: the relation's append-only journal
// of insertions and logical deletions, each stamped with its transaction
// time. The backlog representation is one of the physical designs §2 cites
// ([JMRS90]); here it doubles as the authoritative history from which any
// historical state can be reconstructed.
type LogRecord struct {
	Op   Op
	TT   chronon.Chronon
	Elem *element.Element
}

// Relation is an in-memory bitemporal relation.
type Relation struct {
	schema Schema
	clock  tx.Clock
	esGen  *surrogate.Generator
	osGen  *surrogate.Generator

	log      []LogRecord                                // backlog, tt order
	versions []*element.Element                         // all elements, tt⊢ order
	byES     map[surrogate.Surrogate]*element.Element   // every stored element
	byOS     map[surrogate.Surrogate][]*element.Element // life-lines, tt⊢ order
	osOrder  []surrogate.Surrogate                      // object surrogates in first-seen order
	guards   []Guard

	vacuumedTo chronon.Chronon // see Vacuum; MinChronon when never vacuumed
}

// New creates an empty relation with the given schema and transaction-time
// source. It panics on an invalid schema, since a schema is a programming
// artifact, not runtime input.
func New(schema Schema, clock tx.Clock) *Relation {
	if err := schema.Validate(); err != nil {
		panic(err)
	}
	if clock == nil {
		panic("relation: nil clock")
	}
	return &Relation{
		schema:     schema,
		clock:      clock,
		esGen:      surrogate.NewGenerator(),
		osGen:      surrogate.NewGenerator(),
		byES:       make(map[surrogate.Surrogate]*element.Element),
		byOS:       make(map[surrogate.Surrogate][]*element.Element),
		vacuumedTo: chronon.MinChronon,
	}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() Schema { return r.schema }

// Clock returns the relation's transaction-time source.
func (r *Relation) Clock() tx.Clock { return r.clock }

// AddGuard registers a transaction guard, e.g. a specialization enforcer.
func (r *Relation) AddGuard(g Guard) { r.guards = append(r.guards, g) }

// NewObject issues a fresh object surrogate for a new real-world object.
func (r *Relation) NewObject() surrogate.Surrogate { return r.osGen.Next() }

// Insertion describes the user-supplied portion of an insert.
type Insertion struct {
	Object    surrogate.Surrogate // object surrogate; None allocates a new one
	VT        element.Timestamp   // valid time-stamp
	Invariant []element.Value
	Varying   []element.Value
	UserTimes []chronon.Chronon
}

// Insert stores a new element as a single transaction. The valid time-stamp
// is quantized to the schema granularity. On a guard rejection the relation
// is unchanged and the error wraps the guard's.
func (r *Relation) Insert(ins Insertion) (*element.Element, error) {
	e, err := r.StageInsert(ins)
	if err != nil {
		return nil, err
	}
	r.CommitInsert(e)
	return e, nil
}

// Delete logically removes the element with the given element surrogate as
// a single transaction, setting its tt⊣ to the transaction time.
func (r *Relation) Delete(es surrogate.Surrogate) error {
	e, tt, err := r.StageDelete(es)
	if err != nil {
		return err
	}
	r.CommitDelete(e, tt)
	return nil
}

// Modify performs the paper's modification: the current element is
// logically deleted and a new element with a fresh element surrogate is
// stored, both indexed by the same transaction time. The new element keeps
// the old object surrogate and time-invariant values; the valid time-stamp
// and time-varying values are replaced.
func (r *Relation) Modify(es surrogate.Surrogate, vt element.Timestamp, varying []element.Value) (*element.Element, error) {
	old, repl, tt, err := r.StageModify(es, vt, varying)
	if err != nil {
		return nil, err
	}
	r.CommitDelete(old, tt)
	r.CommitInsert(repl)
	return repl, nil
}

func (r *Relation) buildElement(ins Insertion) (*element.Element, error) {
	if ins.VT.Kind() != r.schema.ValidTime {
		return nil, fmt.Errorf("relation %s: %w: got %v, schema is %v",
			r.schema.Name, ErrWrongStampKind, ins.VT.Kind(), r.schema.ValidTime)
	}
	if err := checkValues(r.schema.Name, "time-invariant", r.schema.Invariant, ins.Invariant); err != nil {
		return nil, err
	}
	if err := checkValues(r.schema.Name, "time-varying", r.schema.Varying, ins.Varying); err != nil {
		return nil, err
	}
	if len(ins.UserTimes) != len(r.schema.UserTimes) {
		return nil, fmt.Errorf("relation %s: %d user-defined times for %d columns",
			r.schema.Name, len(ins.UserTimes), len(r.schema.UserTimes))
	}
	os := ins.Object
	if os.IsNone() {
		os = r.osGen.Next()
	}
	vt := r.quantize(ins.VT)
	return &element.Element{
		ES:        r.esGen.Next(),
		OS:        os,
		VT:        vt,
		Invariant: append([]element.Value(nil), ins.Invariant...),
		Varying:   append([]element.Value(nil), ins.Varying...),
		UserTimes: append([]chronon.Chronon(nil), ins.UserTimes...),
	}, nil
}

// quantize truncates the valid time-stamp to the schema granularity.
func (r *Relation) quantize(ts element.Timestamp) element.Timestamp {
	g := r.schema.Granularity
	if g == chronon.Second {
		return ts
	}
	if c, ok := ts.Event(); ok {
		return element.EventAt(g.Truncate(c))
	}
	iv, _ := ts.Interval()
	s, e := g.Truncate(iv.Start), g.Truncate(iv.End)
	if e == s {
		e = s.Add(int64(g)) // keep the interval non-empty after quantization
	}
	return element.SpanOf(s, e)
}

func (r *Relation) applyInsert(e *element.Element) {
	r.log = append(r.log, LogRecord{Op: OpInsert, TT: e.TTStart, Elem: e})
	r.versions = append(r.versions, e)
	r.byES[e.ES] = e
	if _, seen := r.byOS[e.OS]; !seen {
		r.osOrder = append(r.osOrder, e.OS)
	}
	r.byOS[e.OS] = append(r.byOS[e.OS], e)
	for _, g := range r.guards {
		g.Applied(r, OpInsert, e, e.TTStart)
	}
}

// applyDelete closes the element's existence interval by copy-on-close:
// the element itself is never mutated. A clone with TTEnd finalized is
// swapped into every live structure and returned; the open original stays
// exactly as any previously published read snapshot saw it, which is what
// lets the catalog serve lock-free epoch-stamped reads.
func (r *Relation) applyDelete(e *element.Element, tt chronon.Chronon) *element.Element {
	closed := e.Clone()
	closed.TTEnd = tt
	r.swapVersion(e, closed)
	r.log = append(r.log, LogRecord{Op: OpDelete, TT: tt, Elem: closed})
	for _, g := range r.guards {
		g.Applied(r, OpDelete, closed, tt)
	}
	return closed
}

// swapVersion rewires every live structure that references old to repl.
// versions, the object's life-line and log are all appended in tt⊢ order, so
// each lookup binary-searches to the stretch sharing old's TTStart and walks
// it for pointer identity: a close costs the same on a one-object relation
// with a long life-line as on any other. The backlog insert record must be
// repointed too: Vacuum decides liveness from rec.Elem.TTEnd, and Declare's
// warm replay must observe the close.
func (r *Relation) swapVersion(old, repl *element.Element) {
	r.byES[old.ES] = repl
	swapByTT(r.byOS[old.OS], old, repl)
	swapByTT(r.versions, old, repl)
	j := sort.Search(len(r.log), func(k int) bool { return r.log[k].TT >= old.TTStart })
	for ; j < len(r.log) && r.log[j].TT == old.TTStart; j++ {
		if rec := &r.log[j]; rec.Op == OpInsert && rec.Elem == old {
			rec.Elem = repl
			break
		}
	}
}

// swapByTT replaces old with repl in a slice appended in tt⊢ order: binary
// search to the elements sharing old's TTStart, then pointer identity. A
// clock that restarted behind its own stamps can break the order; the scan
// is the fallback, as in the store's Replace. It reports whether the order
// found old — false when it took the scan to, or old is not there.
func swapByTT(line []*element.Element, old, repl *element.Element) bool {
	i := sort.Search(len(line), func(j int) bool { return line[j].TTStart >= old.TTStart })
	for ; i < len(line) && line[i].TTStart == old.TTStart; i++ {
		if line[i] == old {
			line[i] = repl
			return true
		}
	}
	for i, e := range line {
		if e == old {
			line[i] = repl
			break
		}
	}
	return false
}

// Len reports the number of stored element versions (including logically
// deleted ones).
func (r *Relation) Len() int { return len(r.versions) }

// Backlog returns the append-only transaction log. The returned slice must
// not be modified.
func (r *Relation) Backlog() []LogRecord { return r.log }

// Versions returns every element ever stored, in insertion (tt⊢) order.
// The returned slice must not be modified.
func (r *Relation) Versions() []*element.Element { return r.versions }

// ByES looks up an element by its element surrogate.
func (r *Relation) ByES(es surrogate.Surrogate) (*element.Element, bool) {
	e, ok := r.byES[es]
	return e, ok
}

// Current returns the current historical state: all elements that have not
// been logically deleted, in insertion order. This is the paper's "current
// query" — the only query a conventional database system supports.
func (r *Relation) Current() []*element.Element {
	var out []*element.Element
	for _, e := range r.versions {
		if e.Current() {
			out = append(out, e)
		}
	}
	return out
}

// Rollback reconstructs the historical state at transaction time tt: the
// elements whose existence interval contains tt. This is the rollback
// operator of [BZ82, Sch77] cited in §2. The backlog is in tt order, so the
// reconstruction scans only the prefix of insertions with tt⊢ <= tt.
func (r *Relation) Rollback(tt chronon.Chronon) []*element.Element {
	// versions is sorted by TTStart; binary search for the prefix end.
	n := sort.Search(len(r.versions), func(i int) bool {
		return r.versions[i].TTStart > tt
	})
	var out []*element.Element
	for _, e := range r.versions[:n] {
		if e.PresentAt(tt) {
			out = append(out, e)
		}
	}
	return out
}

// Timeslice answers the paper's "historical query": the elements of the
// current state whose facts are valid at vt (the time-slice operator of
// [BZ82, JMS79]).
func (r *Relation) Timeslice(vt chronon.Chronon) []*element.Element {
	var out []*element.Element
	for _, e := range r.versions {
		if e.Current() && e.ValidAt(vt) {
			out = append(out, e)
		}
	}
	return out
}

// TimesliceAsOf is the combined bitemporal query: the elements of the
// historical state as stored at transaction time tt whose facts are valid
// at vt.
func (r *Relation) TimesliceAsOf(vt, tt chronon.Chronon) []*element.Element {
	out, _ := r.TimesliceAsOfCtx(context.Background(), vt, tt)
	return out
}

// cancelCheckEvery is how many elements a cooperative scan examines
// between context checks — frequent enough that a cancelled caller stops
// burning CPU promptly, rare enough to cost nothing per element.
const cancelCheckEvery = 1024

// TimesliceAsOfCtx is TimesliceAsOf with cooperative cancellation: the
// scan re-checks ctx every cancelCheckEvery elements and returns ctx's
// error mid-scan when the caller has given up. It is the two-dimension
// full scan no physical organization indexes, hence the catalog's most
// expensive read and the one worth interrupting.
func (r *Relation) TimesliceAsOfCtx(ctx context.Context, vt, tt chronon.Chronon) ([]*element.Element, error) {
	var out []*element.Element
	for i, e := range r.versions {
		if i%cancelCheckEvery == cancelCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if e.PresentAt(tt) && e.ValidAt(vt) {
			out = append(out, e)
		}
	}
	return out, nil
}

// History returns the life-line of an object: every element version with
// the given object surrogate, in insertion order (c.f. the "time sequence"
// of [SK86] cited in §2).
func (r *Relation) History(os surrogate.Surrogate) []*element.Element {
	return r.byOS[os]
}

// Objects returns the object surrogates present in the relation, in
// first-seen order.
func (r *Relation) Objects() []surrogate.Surrogate {
	return r.osOrder
}

// Partitions returns the per-surrogate partitioning of the relation (§2):
// a map from object surrogate to that object's elements. Elements of
// distinct partitions have distinct object surrogates.
func (r *Relation) Partitions() map[surrogate.Surrogate][]*element.Element {
	out := make(map[surrogate.Surrogate][]*element.Element, len(r.byOS))
	for os, es := range r.byOS {
		out[os] = es
	}
	return out
}
