// Package vec is the columnar layer of the execution engine. A fold reads
// a store a chunk at a time: a sealed chunk as Cols, a view of the store's
// own column arrays, and any other chunk as its elements where they lie.
// A Batch is the older struct-of-arrays form, gathered from either, that
// only the benchmark module's per-layer mirror still builds. BatchSize
// equals the store's chunk size, so one chunk is one unit of either form.
//
// The package deliberately depends only on element, chronon and surrogate:
// storage produces views and rows, and query folds them, so vec sits below
// all of them in the import graph.
package vec

import (
	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
)

// BatchSize is the row capacity of one batch. It matches the storage
// run size (256) so sealed runs map 1:1 onto batches.
const BatchSize = 256

// Batch is a struct-of-arrays slice of a relation's extension. VTEnd is
// always the EXCLUSIVE valid end: event-stamped rows contribute
// VTStart+1, interval rows their interval end, so every operator sees
// valid time uniformly as the half-open [VTStart, VTEnd).
type Batch struct {
	N       int
	TTStart [BatchSize]int64
	TTEnd   [BatchSize]int64
	VTStart [BatchSize]int64
	VTEnd   [BatchSize]int64
	// Elems are the row origins: Elems[i] is the element behind column
	// row i, for value columns and residual predicates.
	Elems []*element.Element
}

// Cols is one sealed chunk viewed where the store keeps it: the store's own
// column arrays, sliced and not copied, for a fold that reads the chunk
// without materializing a row (ColAgg.ConsumeCols). Slot j of every column
// is the chunk's j-th version in arrival order; a ColRef names the column a
// call reads.
type Cols struct {
	N     int
	Event bool // event stamps: a slot's valid extent is [VTStart, VTStart+1)
	ES    []surrogate.Surrogate
	OS    []surrogate.Surrogate

	TTStart, TTEnd []chronon.Chronon
	VTStart        []chronon.Chronon // Timestamp.Start
	VTEnd          []chronon.Chronon // Timestamp.End; nil for events, whose end is their start

	// The values, slot-major: slot j's NInv invariant values, then its NVar
	// varying ones, each a kind and a word (ArenaValue); strings are read
	// out of Strs, shared.
	NInv, NVar int
	Kinds      []element.ValueKind
	Words      []int64
	Strs       string
	// The user-defined times, slot-major, NUser a slot.
	NUser int
	Users []chronon.Chronon

	// Load materializes slot j into scratch memory that the next call
	// reuses: the element a residual predicate reads.
	Load func(j int) *element.Element
}

// value is slot j's value of the column r names.
func (c *Cols) value(j int, r ColRef) element.Value {
	switch r.Src {
	case ColInvariant, ColVarying:
		t := j*(c.NInv+c.NVar) + r.Slot
		if r.Src == ColVarying {
			t += c.NInv
		}
		return ArenaValue(c.Kinds[t], c.Words[t], c.Strs)
	case ColUser:
		return element.Time(c.Users[j*c.NUser+r.Slot])
	case ColES:
		return element.Int(int64(c.ES[j]))
	case ColOS:
		return element.Int(int64(c.OS[j]))
	case ColTTStart:
		return element.Time(c.TTStart[j])
	case ColTTEnd:
		return element.Time(c.TTEnd[j])
	case ColVTStart:
		return element.Time(c.VTStart[j])
	case ColVTEnd:
		if c.Event {
			return element.Time(c.VTStart[j])
		}
		return element.Time(c.VTEnd[j])
	}
	return element.Null()
}

// ArenaWord is the word a column keeps for a string value: where its bytes
// begin in the chunk's arena, and how many there are.
func ArenaWord(off, n int) int64 { return int64(off)<<32 | int64(n) }

// ArenaValue rebuilds the value a column keeps as kind k and word w
// (element.Value.Word; ArenaWord for a string, whose content is arena's
// bytes there, shared).
func ArenaValue(k element.ValueKind, w int64, arena string) element.Value {
	if k == element.KindString {
		off := int(uint64(w) >> 32)
		return element.String_(arena[off : off+int(uint32(w))])
	}
	return element.WordValue(k, w)
}

// Filter is the vectorizable part of a query's selection: the
// transaction-time visibility rule and an optional valid-time clamp.
// Everything else (Allen predicates, WHERE on value columns) stays a
// residual row predicate.
type Filter struct {
	// AsOf selects rows present at transaction time TT; when false the
	// filter keeps current rows (TTEnd still open).
	AsOf bool
	TT   int64
	// HasVT clamps contributions to valid times in [VTLo, VTHi); rows
	// whose valid extent misses the clamp are dropped.
	HasVT bool
	VTLo  int64
	VTHi  int64
}

// Apply appends the indexes of b's rows that pass the filter to sel and
// returns it. Columns only — no element is touched.
func (f Filter) Apply(b *Batch, sel []int32) []int32 {
	forever := int64(chronon.Forever)
	for i := 0; i < b.N; i++ {
		if f.AsOf {
			// Same inequality as Element.PresentAt: an open element's
			// tt⊣ is Forever, which any realistic tt is below.
			if b.TTStart[i] > f.TT || f.TT >= b.TTEnd[i] {
				continue
			}
		} else if b.TTEnd[i] != forever {
			continue
		}
		if f.HasVT && (b.VTStart[i] >= f.VTHi || b.VTEnd[i] <= f.VTLo) {
			continue
		}
		sel = append(sel, int32(i))
	}
	return sel
}

// ExecStats counts what a batch execution did, for the per-operator
// observability counters.
type ExecStats struct {
	Batches int64 // batches consumed
	Rows    int64 // rows visited, in batches or row at a time
	// Of the full chunks the zone maps let through: how many were answered
	// by merging a memoized partial, and how many were folded.
	RunsMerged int64
	RunsFolded int64
	// GroupsMerged counts the memoized partials that each stood in for an
	// aligned group of chunks; its chunks are counted in RunsMerged too.
	GroupsMerged int64
	// ChunksPruned counts the chunks passed over unread: those a zone map
	// pruned, and those the access path's bounds never reached.
	ChunksPruned int64
	// Of an answer rebuilt from an earlier view's cells: the windows folded
	// again, populated or not, and the populated windows whose cells were
	// copied.
	WindowsRefolded int64
	WindowsReused   int64
}
