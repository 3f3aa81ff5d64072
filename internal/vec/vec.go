// Package vec is the columnar batch layer of the execution engine. A
// Batch is a struct-of-arrays view over up to BatchSize stored elements:
// the four timestamp bounds live in flat int64 columns so temporal
// predicates run as tight loops over contiguous memory, while the
// originating elements stay reachable for value-column access and
// residual row predicates. BatchSize equals the storage compactor's run
// size, so one sealed delta-encoded run decodes into exactly one batch
// without re-chunking.
//
// The package deliberately depends only on element and chronon: storage
// produces batches and rows, and query folds them, so vec sits below all of
// them in the import graph.
package vec

import (
	"repro/internal/chronon"
	"repro/internal/element"
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
