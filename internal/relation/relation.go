package relation

import (
	"errors"
	"fmt"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/refmodel"
	"repro/internal/storage"
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
	// ErrVersionTooLarge reports a version whose string values hold more
	// bytes than one write-ahead-log frame may (storage.MaxStringBytes).
	ErrVersionTooLarge = errors.New("relation: version too large")
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
// historical state can be reconstructed. A relation does not store it:
// versions holds every insert record in order, and a delete record is
// where it falls among them (see closeRecord).
type LogRecord struct {
	Op   Op
	TT   chronon.Chronon
	Elem *element.Element
}

// closeRecord is a backlog delete record: the surrogate of the version it
// closed, its transaction time — the version's tt⊣ — and how many insert
// records precede it. It names the version rather than holding it, so no
// record keeps a version alive beside the store's own copy (a sealed
// chunk's columns hold none).
type closeRecord struct {
	inserts int
	es      surrogate.Surrogate
	tt      chronon.Chronon
}

// Relation is an in-memory bitemporal relation.
type Relation struct {
	schema Schema
	clock  tx.Clock
	esGen  *surrogate.Generator
	osGen  *surrogate.Generator

	versions *storage.RunStore // all elements, tt⊢ order: the insert records, and the one store (Store)
	closes   []closeRecord     // the backlog's delete records, tt order
	guards   []Guard

	// Element surrogates are system-generated (§2), so versions ascends in
	// ES as well: stage and commit share one exclusive lock, replay and
	// follower apply run in log order, Vacuum keeps the order. That order is
	// the relation's only index — an element is found by binary search, and
	// life-lines are read off versions on demand. byES is the degrade for a
	// broken promise (a hand-built Replay input): nil until the first
	// surrogate that does not exceed its predecessor, then each surrogate's
	// position in versions, carried from there on.
	byES map[surrogate.Surrogate]int

	vacuumedTo chronon.Chronon // see Vacuum; MinChronon when never vacuumed
	stamped    chronon.Chronon // the newest transaction time stamp issued; MinChronon before the first

	// closing is the sealed version the last delete or modify staged, with
	// room for the copy its commit closes (staged); nil once committed.
	closing *closing
}

// closing is a version staged for a close, in one allocation: the open
// version staging hands out, materialized with its lists, and the closed
// copy the commit returns, which shares them.
type closing struct {
	open   storage.Version
	closed element.Element
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
		versions:   storage.NewHeap(),
		vacuumedTo: chronon.MinChronon,
		stamped:    chronon.MinChronon,
	}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() Schema { return r.schema }

// Store returns the relation's versions: the store a catalog queries,
// snapshots, seals and re-labels. Its contents are the relation's to change —
// a caller must neither insert into it nor replace in it.
func (r *Relation) Store() *storage.RunStore { return r.versions }

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
	// PackValues and the append leave an empty list nil: the store keeps a
	// list's length, not whether it was nil (normalize).
	inv, vary := element.PackValues(ins.Invariant, ins.Varying)
	e := &element.Element{
		OS:        os,
		VT:        r.quantize(ins.VT),
		Invariant: inv,
		Varying:   vary,
		UserTimes: append([]chronon.Chronon(nil), ins.UserTimes...),
	}
	if err := r.checkSize(e); err != nil {
		return nil, err
	}
	e.ES = r.esGen.Next()
	return e, nil
}

// checkSize refuses a version whose string values hold more bytes than one
// write-ahead-log frame may: what bounds every journaled mutation, and what
// keeps a chunk's string arena inside its offsets (storage.MaxStringBytes).
func (r *Relation) checkSize(e *element.Element) error {
	if n := storage.StringBytes(e); n > storage.MaxStringBytes {
		return fmt.Errorf("relation %s: %w: %d bytes of strings, at most %d", r.schema.Name, ErrVersionTooLarge, n, storage.MaxStringBytes)
	}
	return nil
}

// normalize leaves each empty list of e nil. The store keeps a list's
// length and nothing else, as the wire and the disk do (an encoder writes a
// list only when it has an entry; a log record stores counts), so a version
// reads back with nil where it had an empty list, and one normalized before
// it is stored is read back as it was.
func normalize(e *element.Element) {
	if len(e.Invariant) == 0 {
		e.Invariant = nil
	}
	if len(e.Varying) == 0 {
		e.Varying = nil
	}
	if len(e.UserTimes) == 0 {
		e.UserTimes = nil
	}
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

// position finds the element with surrogate es in versions. A surrogate
// past the last stored one — every insert that keeps the order — is known
// absent without a search.
func (r *Relation) position(es surrogate.Surrogate) (int, bool) {
	if r.byES != nil {
		i, ok := r.byES[es]
		return i, ok
	}
	n := r.versions.Len()
	if n == 0 || es > r.versions.ESAt(n-1) {
		return n, false
	}
	i := r.versions.SearchES(es)
	return i, r.versions.ESAt(i) == es
}

// reindex rebuilds the degraded index from versions.
func (r *Relation) reindex() {
	r.byES = make(map[surrogate.Surrogate]int, r.versions.Len())
	for i := range r.versions.Len() {
		r.byES[r.versions.ESAt(i)] = i
	}
}

// applyInsert stores e: the store copies it into its columns, and the
// relation never mutates it. A committed element is never refused: when it
// breaks the promise of the store's label, the label drops one promise at a
// time until the store admits it — the heap admits anything.
func (r *Relation) applyInsert(e *element.Element) {
	n := r.versions.Len()
	if r.byES == nil && n > 0 && e.ES <= r.versions.ESAt(n-1) {
		r.reindex() // the order is broken: degrade, once
	}
	if r.byES != nil {
		r.byES[e.ES] = n
	}
	for r.versions.Insert(e) != nil {
		_ = r.versions.Retype(r.versions.Kind() - 1) // dropping a promise cannot fail
	}
	for _, g := range r.guards {
		g.Applied(r, OpInsert, e, e.TTStart)
	}
}

// staged returns the version at position i for a close to stage,
// materialized into a closing the relation keeps until the commit.
func (r *Relation) staged(i int) *element.Element {
	c := new(closing)
	r.closing = c
	return storage.LoadAt(r.versions, i, &c.open)
}

// applyDelete closes the existence interval of the version at position i,
// which e holds, by copy-on-close: the element itself is never mutated. A
// copy with TTEnd finalized takes its place (ReplaceAt: its tt⊣ in a copied
// column) and is returned; the open original stays exactly as any
// previously published read snapshot saw it, which is what lets the catalog
// serve lock-free epoch-stamped reads. The copy is shallow — the two share
// their values — and it is the closing's when e is the version staging
// handed out. The closed version is the backlog's insert record from here
// on as well as its delete record, so Declare's warm replay observes the
// close.
func (r *Relation) applyDelete(i int, e *element.Element, tt chronon.Chronon) *element.Element {
	var closed *element.Element
	if c := r.closing; c != nil && e == c.open.Element() {
		closed = &c.closed
	} else {
		closed = new(element.Element)
	}
	*closed = *e
	r.closing = nil
	closed.TTEnd = tt
	r.versions.ReplaceAt(i, closed)
	r.closes = append(r.closes, closeRecord{inserts: r.versions.Len(), es: closed.ES, tt: tt})
	for _, g := range r.guards {
		g.Applied(r, OpDelete, closed, tt)
	}
	return closed
}

// Len reports the number of stored element versions (including logically
// deleted ones).
func (r *Relation) Len() int { return r.versions.Len() }

// Backlog returns the append-only transaction log in transaction-time
// order: the insert records, which are versions, with each delete record
// merged in after the inserts that preceded it. The slice is built on each
// call and is the caller's; the elements it points at must not be modified.
func (r *Relation) Backlog() []LogRecord {
	all := storage.Elements(r.versions)
	out := make([]LogRecord, 0, len(all)+len(r.closes))
	closed := func(c closeRecord) LogRecord {
		i, _ := r.position(c.es)
		return LogRecord{Op: OpDelete, TT: c.tt, Elem: all[i]}
	}
	cl := r.closes // delete records still to go
	for i, e := range all {
		for len(cl) > 0 && cl[0].inserts == i {
			out = append(out, closed(cl[0]))
			cl = cl[1:]
		}
		out = append(out, LogRecord{Op: OpInsert, TT: e.TTStart, Elem: e})
	}
	for _, c := range cl {
		out = append(out, closed(c))
	}
	return out
}

// newest is the transaction time of the backlog's last record: the later of
// the two lists' last ones. ok is false when the backlog is empty.
func (r *Relation) newest() (tt chronon.Chronon, ok bool) {
	if n := r.versions.Len(); n > 0 {
		tt, ok = r.versions.TTStartAt(n-1), true
	}
	if n := len(r.closes); n > 0 && (!ok || r.closes[n-1].tt > tt) {
		tt, ok = r.closes[n-1].tt, true
	}
	return tt, ok
}

// Versions returns every element ever stored, in insertion (tt⊢) order, in a
// fresh slice that is the caller's; the elements must not be modified.
func (r *Relation) Versions() []*element.Element { return storage.Elements(r.versions) }

// ByES looks up an element by its element surrogate.
func (r *Relation) ByES(es surrogate.Surrogate) (*element.Element, bool) {
	i, ok := r.position(es)
	if !ok {
		return nil, false
	}
	return r.versions.At(i), true
}

// TTEndOf returns the tt⊣ of the version es, reading that one timestamp;
// ok is false when es is not stored.
func (r *Relation) TTEndOf(es surrogate.Surrogate) (chronon.Chronon, bool) {
	i, ok := r.position(es)
	if !ok {
		return 0, false
	}
	return r.versions.TTEndAt(i), true
}

// Inserted returns, for each surrogate of es, its element as it was
// inserted — the stored version, with the tt⊣ of a close since reopened —
// nil for one not stored (a vacuum removed it). The versions a sealed
// chunk holds are materialized into one slab; the slice is the caller's,
// the elements must not be modified.
func (r *Relation) Inserted(es []surrogate.Surrogate) []*element.Element {
	pos, at := make([]int, 0, len(es)), make([]int, 0, len(es))
	for k, s := range es {
		if i, ok := r.position(s); ok {
			pos, at = append(pos, i), append(at, k)
		}
	}
	out := make([]*element.Element, len(es))
	for j, e := range storage.Gather(r.versions, pos) {
		if !e.Current() {
			open := *e
			open.TTEnd = chronon.Forever
			e = &open
		}
		out[at[j]] = e
	}
	return out
}

// Current returns the current historical state: all elements that have not
// been logically deleted, in insertion order. This is the paper's "current
// query" — the only query a conventional database system supports.
func (r *Relation) Current() []*element.Element { return refmodel.Current(r.Versions()) }

// Rollback reconstructs the historical state at transaction time tt: the
// elements whose existence interval contains tt. This is the rollback
// operator of [BZ82, Sch77] cited in §2.
func (r *Relation) Rollback(tt chronon.Chronon) []*element.Element {
	return refmodel.Rollback(r.Versions(), tt)
}

// Timeslice answers the paper's "historical query": the elements of the
// current state whose facts are valid at vt (the time-slice operator of
// [BZ82, JMS79]).
func (r *Relation) Timeslice(vt chronon.Chronon) []*element.Element {
	return refmodel.Timeslice(r.Versions(), vt)
}

// TimesliceAsOf is the combined bitemporal query: the elements of the
// historical state as stored at transaction time tt whose facts are valid
// at vt.
func (r *Relation) TimesliceAsOf(vt, tt chronon.Chronon) []*element.Element {
	return refmodel.AsOf(r.Versions(), vt, tt)
}

// History returns the life-line of an object: every element version with
// the given object surrogate, in insertion order (c.f. the "time sequence"
// of [SK86] cited in §2). It is read off the versions on demand:
// O(versions), and the slice is the caller's.
func (r *Relation) History(os surrogate.Surrogate) []*element.Element {
	return refmodel.History(r.Versions(), os)
}

// Objects returns the object surrogates present in the relation, in
// first-seen order, derived from the versions on demand: O(versions).
// After a Vacuum an object is first seen at its first surviving version,
// which is also where a reload of the vacuumed backlog finds it.
func (r *Relation) Objects() []surrogate.Surrogate {
	var out []surrogate.Surrogate
	seen := make(map[surrogate.Surrogate]bool)
	r.versions.Scan(func(e *element.Element) bool {
		if !seen[e.OS] {
			seen[e.OS] = true
			out = append(out, e.OS)
		}
		return true
	})
	return out
}

// Partitions returns the per-surrogate partitioning of the relation (§2):
// a map from object surrogate to that object's elements in insertion
// order. Elements of distinct partitions have distinct object surrogates.
// It is derived from the versions on demand: O(versions).
func (r *Relation) Partitions() map[surrogate.Surrogate][]*element.Element {
	out := make(map[surrogate.Surrogate][]*element.Element)
	r.versions.Scan(func(e *element.Element) bool {
		out[e.OS] = append(out[e.OS], e)
		return true
	})
	return out
}
