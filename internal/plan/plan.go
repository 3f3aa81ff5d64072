// Package plan is the typed query-plan vocabulary shared by every layer
// that reasons about temporal access paths: the query engine builds and
// executes plan trees, the storage advisor consults the same cost model it
// advises for, tsql compiles statements to plans (and renders them for
// EXPLAIN), the catalog counts queries per plan kind, and the wire carries
// the structured tree to clients. A plan is a small decorator tree — one
// access-path leaf (full scan, binary search, tt-window pushdown, index
// seek) under zero or more filter/limit decorators — so the paper's claim
// that declared specializations license better "query processing
// strategies" is a first-class, observable value instead of a free-form
// string.
//
// The package sits below storage in the import order (it knows only the
// organization vocabulary, not the stores), which is what lets the advisor
// and the engine share one estimator without a cycle.
package plan

import (
	"fmt"
	"math/bits"
	"strings"
)

// Org identifies a physical organization. The names mirror storage.Kind
// exactly so rendered plans stay byte-identical across the two packages.
type Org uint8

// Physical organizations.
const (
	// OrgHeap is arrival order with no exploitable ordering.
	OrgHeap Org = iota
	// OrgTTLog is the transaction-time-ordered arrival log.
	OrgTTLog
	// OrgVTLog is the log whose arrival order is simultaneously valid-time
	// order (licensed by a non-decreasing declaration).
	OrgVTLog
)

func (o Org) String() string {
	switch o {
	case OrgTTLog:
		return "tt-ordered log"
	case OrgVTLog:
		return "vt-ordered log"
	}
	return "heap"
}

// Access describes the physical capabilities of a store as the planner
// sees them: its organization, size, and any declared bounds or secondary
// indexes that unlock extra access paths.
type Access struct {
	Org Org
	// N is the number of stored element versions (the full-scan cost).
	N int
	// VTIndex reports a secondary B-tree valid-time index over a heap
	// (storage.IndexedEventStore).
	VTIndex bool
	// HasOffsetBounds reports a declared two-sided fixed bound
	// OffsetLo ≤ vt − tt ≤ OffsetHi, which converts valid-time predicates
	// into transaction-time windows over a tt-ordered log.
	HasOffsetBounds    bool
	OffsetLo, OffsetHi int64
}

// QueryKind discriminates the temporal query shapes the planner knows.
type QueryKind uint8

// Query kinds.
const (
	// QCurrent is the conventional query: the current state.
	QCurrent QueryKind = iota
	// QTimeslice is the historical query at one valid-time instant.
	QTimeslice
	// QVTRange is the historical query over a valid-time window [lo, hi).
	QVTRange
	// QRollback is the rollback query at one transaction-time instant.
	QRollback
	// QAsOf is the bitemporal query: valid at vt as stored at tt. No
	// single-dimension organization serves it; it always scans.
	QAsOf
)

func (k QueryKind) String() string {
	switch k {
	case QCurrent:
		return "current"
	case QTimeslice:
		return "timeslice"
	case QVTRange:
		return "vt-range"
	case QRollback:
		return "rollback"
	case QAsOf:
		return "asof"
	}
	return "unknown"
}

// Query is the logical query the planner chooses an access path for.
// Valid-time predicates are the half-open chronon window [VTLo, VTHi);
// QTimeslice at instant t is the window [t, t+1).
type Query struct {
	Kind       QueryKind
	VTLo, VTHi int64
	TT         int64 // QRollback and QAsOf
}

// Meets reports whether a change can alter the query's answer, the query
// read as its footprint: the change stamped nothing below minTT and every
// element it inserted or closed has its valid time inside [vtLo, vtLast]
// (inclusive, as a chunk's zone map). By snapshot reducibility a time-slice
// or vt-range answer holds only elements valid in its window, so a change
// outside the window cannot reach it; transaction time is append-only, so a
// rollback or as-of at tt cannot see a change stamped after tt. The current
// state sees every change. A time-slice reads its instant VTLo alone, so an
// instant at the end of the line needs no VTHi past it. The change of
// everything — stamped from math.MinInt64 over [math.MinInt64,
// math.MaxInt64] — meets every query whose answer is not empty by its shape.
func (q Query) Meets(minTT, vtLo, vtLast int64) bool {
	switch q.Kind {
	case QRollback, QAsOf:
		return minTT <= q.TT
	case QTimeslice:
		return vtLo <= q.VTLo && q.VTLo <= vtLast
	case QVTRange:
		return vtLo < q.VTHi && q.VTLo <= vtLast
	}
	return true
}

// NodeKind discriminates plan nodes. The first five are access-path
// leaves; the rest are decorators.
type NodeKind uint8

// Plan node kinds.
const (
	// FullScan reads every stored version.
	FullScan NodeKind = iota
	// TTBinarySearch binary-searches the transaction-time order for the
	// prefix present at tt (rollback on either log organization).
	TTBinarySearch
	// VTBinarySearch binary-searches the valid-time order of a vt-ordered
	// log for the window [VTLo, VTHi).
	VTBinarySearch
	// TTWindowPushdown converts a valid-time predicate through declared
	// offset bounds into a transaction-time window binary-searched on the
	// tt-ordered log (the bounded-specialization strategy of §3.1).
	TTWindowPushdown
	// BTreeIndexSeek descends a secondary B-tree valid-time index.
	BTreeIndexSeek
	// CurrentState restricts to undeleted (tt⊣ = now) versions.
	CurrentState
	// Filter applies residual predicates (WHEN/WHERE clauses).
	Filter
	// Limit truncates the result to the first Count rows.
	Limit
	// ColumnarScan is the batch leaf's name. Nothing in the module
	// builds it; the benchmark module's mirror of the aggregate path
	// still branches on it.
	ColumnarScan
	// WindowAggregate folds its input into temporal windows (GROUP BY
	// WINDOW): tumbling, rolling, or cumulative over valid time.
	WindowAggregate
)

// String returns the kind's stable slug, used as the per-plan-kind metrics
// key and the wire encoding.
func (k NodeKind) String() string {
	switch k {
	case FullScan:
		return "full-scan"
	case TTBinarySearch:
		return "tt-binary-search"
	case VTBinarySearch:
		return "vt-binary-search"
	case TTWindowPushdown:
		return "tt-window-pushdown"
	case BTreeIndexSeek:
		return "btree-index-seek"
	case CurrentState:
		return "current-state"
	case Filter:
		return "filter"
	case Limit:
		return "limit"
	case ColumnarScan:
		return "columnar-scan"
	case WindowAggregate:
		return "window-aggregate"
	}
	return "unknown"
}

// nKinds bounds NodeKind for dense per-kind counters.
const nKinds = int(WindowAggregate) + 1

// Node is one plan-tree node. Leaves (access paths) have a nil Input;
// decorators wrap exactly one Input.
type Node struct {
	Kind NodeKind
	// Org is the organization an access-path leaf reads.
	Org Org
	// Bitemporal marks the FullScan that selects on both time dimensions
	// at once (AS OF queries), which no single organization serves.
	Bitemporal bool
	// WinLo, WinHi are the inclusive tt⊢ window of a TTWindowPushdown.
	WinLo, WinHi int64
	// Note annotates Filter decorators (which predicates remain).
	Note string
	// Count is a Limit decorator's row cap.
	Count int
	// Est is the estimated touched count (for decorators, the input's).
	Est int

	Input *Node
}

// Leaf walks the decorator chain to the access-path leaf.
func (n *Node) Leaf() *Node {
	for n.Input != nil {
		n = n.Input
	}
	return n
}

// String renders the access path as the engine's legacy one-line plan
// name. The formats are golden-pinned by tests across the repo; keep them
// byte-identical.
func (n *Node) String() string {
	leaf := n.Leaf()
	switch leaf.Kind {
	case TTWindowPushdown:
		return "tt-window binary search (bounded specialization)"
	case TTBinarySearch, VTBinarySearch:
		return searchNames[leaf.Org]
	case BTreeIndexSeek:
		return "b-tree index seek (vt index)"
	}
	if leaf.Bitemporal {
		return "full scan (bitemporal)"
	}
	return scanNames[leaf.Org]
}

// searchNames and scanNames are the plan names of a binary search and of a
// full scan on each organization, rendered once so that naming a plan
// allocates nothing.
var searchNames, scanNames = orgNames("binary search (%v)"), orgNames("full scan (%v)")

func orgNames(format string) (names [OrgVTLog + 1]string) {
	for o := range names {
		names[o] = fmt.Sprintf(format, Org(o))
	}
	return names
}

// Render returns the EXPLAIN form: one line per node, children indented
// under their decorators, access-path leaves carrying the cost estimate.
func (n *Node) Render() string {
	var b strings.Builder
	for depth := 0; n != nil; n, depth = n.Input, depth+1 {
		if depth > 0 {
			b.WriteByte('\n')
			b.WriteString(strings.Repeat("  ", depth))
			b.WriteString("-> ")
		}
		b.WriteString(n.line())
	}
	return b.String()
}

func (n *Node) line() string {
	switch n.Kind {
	case Limit:
		return fmt.Sprintf("limit %d", n.Count)
	case Filter:
		return fmt.Sprintf("filter (%s)", n.Note)
	case CurrentState:
		return "current-state"
	case TTWindowPushdown:
		return fmt.Sprintf("tt-window-pushdown tt in [%d, %d] (est. touched %d)", n.WinLo, n.WinHi, n.Est)
	case BTreeIndexSeek:
		return fmt.Sprintf("btree-index-seek on vt index (est. touched %d)", n.Est)
	case WindowAggregate:
		return fmt.Sprintf("window-aggregate %s (est. touched %d)", n.Note, n.Est)
	}
	target := n.Org.String()
	if n.Bitemporal {
		target = "bitemporal"
	}
	return fmt.Sprintf("%s on %s (est. touched %d)", n.Kind, target, n.Est)
}

// bsearchCost estimates a binary-search access: the probe plus the answer
// neighborhood, never worse than a scan.
func bsearchCost(n int) int {
	if n <= 1 {
		return n
	}
	c := bits.Len(uint(n)) + 1
	if c > n {
		return n
	}
	return c
}

// pushdownCost estimates a tt-window access: the window span plus the
// probe, never worse than a scan.
func pushdownCost(n int, lo, hi int64) int {
	if hi < lo {
		return 0
	}
	span := hi - lo + 1
	if span >= int64(n) {
		return n
	}
	return int(span) + 1
}

// NewCurrentState wraps a node in the current-state restriction.
func NewCurrentState(in *Node) *Node {
	return &Node{Kind: CurrentState, Est: in.Est, Input: in}
}

// NewFilter wraps a node in a residual-predicate decorator.
func NewFilter(in *Node, note string) *Node {
	return &Node{Kind: Filter, Note: note, Est: in.Est, Input: in}
}

// NewLimit wraps a node in a row cap.
func NewLimit(in *Node, count int) *Node {
	return &Node{Kind: Limit, Count: count, Est: in.Est, Input: in}
}

// Build is the planner: it enumerates the access paths the store's
// capabilities make sound for the query, costs each with the shared
// estimator, and keeps the cheapest. Specialized candidates are generated
// first and replaced only on strictly lower cost, so a specialization that
// ties a scan (tiny or empty stores) still wins — the declared ordering is
// what licenses the strategy, and ties must not erase it.
func Build(a Access, q Query) *Node {
	var best *Node
	consider := func(c *Node) {
		if best == nil || c.Est < best.Est {
			best = c
		}
	}
	switch q.Kind {
	case QRollback:
		if a.Org == OrgTTLog || a.Org == OrgVTLog {
			consider(&Node{Kind: TTBinarySearch, Org: a.Org, Est: bsearchCost(a.N)})
		}
		consider(&Node{Kind: FullScan, Org: a.Org, Est: a.N})
		return best
	case QAsOf:
		return &Node{Kind: FullScan, Bitemporal: true, Est: a.N}
	case QTimeslice, QVTRange:
		if a.Org == OrgTTLog && a.HasOffsetBounds {
			lo, hi := q.VTLo-a.OffsetHi, q.VTHi-1-a.OffsetLo
			consider(&Node{
				Kind: TTWindowPushdown, Org: a.Org,
				WinLo: lo, WinHi: hi,
				Est: pushdownCost(a.N, lo, hi),
			})
		}
		if a.Org == OrgVTLog {
			consider(&Node{Kind: VTBinarySearch, Org: a.Org, Est: bsearchCost(a.N)})
		}
		if a.VTIndex {
			consider(&Node{Kind: BTreeIndexSeek, Org: a.Org, Est: bsearchCost(a.N)})
		}
		consider(&Node{Kind: FullScan, Org: a.Org, Est: a.N})
		return NewCurrentState(best)
	default: // QCurrent
		return NewCurrentState(&Node{Kind: FullScan, Org: a.Org, Est: a.N})
	}
}
