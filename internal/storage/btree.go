package storage

import (
	"math"
	"sort"

	"repro/internal/chronon"
	"repro/internal/element"
)

// btree is an in-memory B-tree over (valid time, element surrogate) keys —
// the secondary valid-time index a *general* temporal relation must
// maintain to answer historical queries in logarithmic time. Specialized
// relations get the same access path for free from their arrival order
// (see RunStore); the B-tree exists to price the alternative honestly:
// every insert pays tree maintenance, every query pays tree descent.
type btree struct {
	root *bnode
	size int
}

// degree is the minimum number of children of an internal node (except the
// root); nodes hold between degree-1 and 2*degree-1 keys.
const degree = 16

type bkey struct {
	vt chronon.Chronon
	es uint64 // tiebreaker: surrogates are unique
}

func (a bkey) less(b bkey) bool {
	if a.vt != b.vt {
		return a.vt < b.vt
	}
	return a.es < b.es
}

type bnode struct {
	keys     []bkey
	vals     []*element.Element
	children []*bnode // nil for leaves
}

func (n *bnode) leaf() bool { return n.children == nil }

func newBtree() *btree { return &btree{root: &bnode{}} }

// Len reports the number of stored entries.
func (t *btree) Len() int { return t.size }

// insert adds an entry. Keys are unique by construction (the surrogate
// tiebreaker), so duplicates cannot arise.
func (t *btree) insert(vt chronon.Chronon, e *element.Element) {
	k := bkey{vt: vt, es: uint64(e.ES)}
	if len(t.root.keys) == 2*degree-1 {
		old := t.root
		t.root = &bnode{children: []*bnode{old}}
		t.root.splitChild(0)
	}
	t.root.insertNonFull(k, e)
	t.size++
}

// splitChild splits the full child at index i, lifting its median into n.
func (n *bnode) splitChild(i int) {
	child := n.children[i]
	mid := degree - 1
	right := &bnode{
		keys: append([]bkey(nil), child.keys[mid+1:]...),
		vals: append([]*element.Element(nil), child.vals[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*bnode(nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	upKey, upVal := child.keys[mid], child.vals[mid]
	child.keys = child.keys[:mid]
	child.vals = child.vals[:mid]

	n.keys = append(n.keys, bkey{})
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = upKey
	n.vals = append(n.vals, nil)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = upVal
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *bnode) insertNonFull(k bkey, e *element.Element) {
	i := len(n.keys)
	for i > 0 && k.less(n.keys[i-1]) {
		i--
	}
	if n.leaf() {
		n.keys = append(n.keys, bkey{})
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = k
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = e
		return
	}
	if len(n.children[i].keys) == 2*degree-1 {
		n.splitChild(i)
		if n.keys[i].less(k) {
			i++
		}
	}
	n.children[i].insertNonFull(k, e)
}

// replace swaps the value stored under k for e. Keys are unique (surrogate
// tiebreaker) so at most one slot changes; a missing key is a no-op.
func (t *btree) replace(k bkey, e *element.Element) {
	for n := t.root; n != nil; {
		i := sort.Search(len(n.keys), func(j int) bool { return !n.keys[j].less(k) })
		if i < len(n.keys) && n.keys[i] == k {
			n.vals[i] = e
			return
		}
		if n.leaf() {
			return
		}
		n = n.children[i]
	}
}

// scanRange visits entries with lo ≤ vt ≤ last in key order, calling visit
// for each; it returns the number of keys examined (the query's cost). The
// visit function returns false to stop early.
func (t *btree) scanRange(lo, last chronon.Chronon, visit func(*element.Element) bool) int {
	touched := 0
	var walk func(n *bnode) bool
	walk = func(n *bnode) bool {
		// Find the first key that might be ≥ lo.
		i := 0
		for i < len(n.keys) && n.keys[i].vt < lo {
			i++
			touched++
		}
		for ; i <= len(n.keys); i++ {
			if !n.leaf() {
				if !walk(n.children[i]) {
					return false
				}
			}
			if i == len(n.keys) {
				break
			}
			touched++
			if n.keys[i].vt > last {
				return false
			}
			if !visit(n.vals[i]) {
				return false
			}
		}
		return true
	}
	walk(t.root)
	return touched
}

// IndexedEventStore is a heap for *event* relations augmented with a B-tree
// valid-time index — the physical design a general relation needs to make
// historical queries fast. It answers time-slice and range queries in
// O(log n + answer) like the vt-ordered log, but pays index maintenance on
// every insert and stores the index alongside the data. Everything the index
// does not answer is the embedded store's, labelled Heap: logically the data
// sits in a heap, and a rollback filters all of it (arrival order is tt order,
// so the log's prefix trick would apply; the heap keeps this baseline honest).
type IndexedEventStore struct {
	RunStore
	index *btree
}

// NewIndexedEvent returns an empty indexed store.
func NewIndexedEvent() *IndexedEventStore {
	return &IndexedEventStore{index: newBtree()}
}

// Insert appends the element and maintains the index. Interval-stamped
// elements are rejected: a start-keyed index cannot answer interval
// stabbing queries (that would need an augmented structure), and the
// advisor never pairs this store with interval relations.
func (s *IndexedEventStore) Insert(e *element.Element) error {
	vt, ok := e.VT.Event()
	if !ok {
		return errIntervalIndexed
	}
	if err := s.RunStore.Insert(e); err != nil {
		return err
	}
	s.index.insert(vt, e)
	return nil
}

var errIntervalIndexed = errInterval{}

type errInterval struct{}

func (errInterval) Error() string {
	return "storage: indexed event store cannot hold interval-stamped elements"
}

// Timeslice answers via the index (ValidAnswer), by its instant alone as
// RunStore.Timeslice does.
func (s *IndexedEventStore) Timeslice(vt chronon.Chronon) ([]*element.Element, int) {
	a, touched := ValidAnswer(s, vt, vt)
	return a.Elements(), touched
}

// VTRange answers via the index (ValidAnswer).
func (s *IndexedEventStore) VTRange(lo, hi chronon.Chronon) ([]*element.Element, int) {
	if hi == math.MinInt64 { // no chronon lies before it, and hi−1 would wrap
		return nil, 0
	}
	a, touched := ValidAnswer(s, lo, hi-1)
	return a.Elements(), touched
}

// Snapshot shares the heap's chunks O(1) and rebuilds a private B-tree
// over them. The rebuild is O(n log n), acceptable because the advisor
// never selects this organization (it exists to price the
// general-relation alternative); only explicit engine overrides pay it.
func (s *IndexedEventStore) Snapshot() Store {
	cp := &IndexedEventStore{RunStore: RunStore{seq: s.snapshot()}, index: newBtree()}
	cp.Scan(func(e *element.Element) bool {
		if vt, ok := e.VT.Event(); ok {
			cp.index.insert(vt, e)
		}
		return true
	})
	return cp
}

// Replace swaps repl for old in the heap and repoints the index slot in
// place. Snapshots carry private B-trees, so the in-place index edit is
// invisible to any pinned view.
func (s *IndexedEventStore) Replace(old, repl *element.Element) {
	s.RunStore.Replace(old, repl)
	if vt, ok := old.VT.Event(); ok {
		s.index.replace(bkey{vt: vt, es: uint64(old.ES)}, repl)
	}
}
