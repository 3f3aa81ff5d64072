package storage

import (
	"encoding/binary"
	"hash/crc32"
	"sort"

	"repro/internal/chronon"
	"repro/internal/element"
)

// runCastagnoli checksums sealed-run images (same polynomial as the WAL).
var runCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Class-scheduled compaction: the log organizations can seal their stable
// prefix into fixed-size runs. A sealed run carries
//
//   - min/max envelope metadata (tt⊢, tt⊣, valid time, liveness), which the
//     query paths use as a zone map — a run provably disjoint from the
//     query's window, or wholly dead at the rollback instant, costs one
//     metadata probe instead of runSize element visits; and
//
//   - a delta-encoded columnar image of the run's timestamps (packed), the
//     representation a disk-resident layout would store. Its byte size is
//     what StoreBytes reports for sealed history, making the space side of
//     the paper's append-only claim measurable: an ordered, slowly-varying
//     timestamp column delta-encodes to a small fraction of its flat width.
//
// Sealing never rewrites elements, so queries over a compacted store return
// pointer-identical results; only the touched accounting changes. Envelope
// staleness is one-directional by construction: after sealing, an element
// can only move from open to closed (the copy-on-close Replace), which makes
// a recorded maxTTEnd of Forever or a seal-time open count above zero
// conservative — a stale run is scanned, never wrongly skipped. Valid times
// and tt⊢ are immutable, so those bounds stay exact. Each run also counts the
// closes that landed in it since sealing, which is what lets the batch reader
// tell a stale envelope from a fresh one (colbatch.go) and lets the aggregate
// path reuse a run's contribution across writes that did not touch it.
//
// Compaction is scheduled by class: the catalog's advisor loop seals runs
// only on relations whose live organization is the vt-ordered log — the
// append-only designs of §3.1/§3.2, where the prefix is stable by promise.
// General relations keep today's behavior (no runs unless a caller opts in).

// runSize is how many elements a sealed run covers. Large enough that the
// per-run metadata is amortized, small enough that a zone-map miss wastes
// little work.
const runSize = 256

// runMeta is one sealed run: elements [start, start+n) of the backing log.
type runMeta struct {
	start, n int
	ttLo     chronon.Chronon // min tt⊢ (first element; logs are tt-ordered)
	ttHi     chronon.Chronon // max tt⊢ (last element)
	maxTTEnd chronon.Chronon // max tt⊣ at seal time (Forever while any open)
	vtLo     chronon.Chronon // min valid-time start
	vtHi     chronon.Chronon // max exclusive valid-time end
	open     int             // elements still current at seal time
	// closed counts the elements closed since sealing (noteClose). Closes
	// are monotone — open to closed, never back — and arrive in one
	// sequence, so within one sealing of the run, closed alone identifies
	// which of its elements are current: two views that agree on it see
	// the same current-state content.
	closed int
	packed []byte // delta-encoded timestamp columns
	sum    uint32 // CRC32C of packed, fixed at seal time
}

// live reports whether any element of the run can still be current.
func (r *runMeta) live() bool { return r.closed < r.open }

// noteClose books the close of elems[i] (old replaced by its closed
// clone) against the sealed run covering it, if any. compactLog seals
// back to back from index 0 in runSize steps, so run i/runSize covers i.
// The caller has already unshared runs from any snapshot.
func noteClose(runs []runMeta, i int, old, repl *element.Element) {
	if i >= 0 && i < covered(runs) && old.Current() && !repl.Current() {
		runs[i/runSize].closed++
	}
}

// snapRuns full-caps the sealed-run slice for a snapshot, so a later Compact
// on the live store appends outside the snapshot's view.
func snapRuns(runs []runMeta) []runMeta {
	n := len(runs)
	return runs[:n:n]
}

// covered reports how many leading elements the sealed runs account for.
func covered(runs []runMeta) int {
	if len(runs) == 0 {
		return 0
	}
	last := runs[len(runs)-1]
	return last.start + last.n
}

// sealRun builds the metadata and packed image for elems[start : start+n].
func sealRun(elems []*element.Element, start, n int) runMeta {
	r := runMeta{
		start: start, n: n,
		ttLo:     elems[start].TTStart,
		ttHi:     elems[start+n-1].TTStart,
		maxTTEnd: chronon.MinChronon,
		vtLo:     chronon.MaxChronon,
		vtHi:     chronon.MinChronon,
	}
	for _, e := range elems[start : start+n] {
		r.maxTTEnd = chronon.Max(r.maxTTEnd, e.TTEnd)
		r.vtLo = chronon.Min(r.vtLo, e.VT.Start())
		r.vtHi = chronon.Max(r.vtHi, exclusiveEnd(e))
		if e.Current() {
			r.open++
		}
	}
	r.packed = packColumns(elems[start : start+n])
	r.sum = crc32.Checksum(r.packed, runCastagnoli)
	return r
}

// packColumns delta-encodes the (tt⊢, tt⊣, vt⊢, vt⊣) columns of a run:
// per column, the first value is absolute and the rest are zigzag-varint
// deltas from their predecessor. Columnar order keeps each delta stream
// homogeneous — the tt column of a log is sorted, so its deltas are small
// and positive.
func packColumns(run []*element.Element) []byte {
	cols := [4]func(*element.Element) int64{
		func(e *element.Element) int64 { return int64(e.TTStart) },
		func(e *element.Element) int64 { return int64(e.TTEnd) },
		func(e *element.Element) int64 { return int64(e.VT.Start()) },
		func(e *element.Element) int64 { return int64(e.VT.End()) },
	}
	buf := make([]byte, 0, len(run)*6)
	var tmp [binary.MaxVarintLen64]byte
	for _, col := range cols {
		prev := int64(0)
		for i, e := range run {
			v := col(e)
			d := v - prev
			if i == 0 {
				d = v
			}
			buf = append(buf, tmp[:binary.PutVarint(tmp[:], d)]...)
			prev = v
		}
	}
	return buf
}

// unpackColumns inverts packColumns; n is the run length. It exists to prove
// the packed image is lossless (and to size a future disk format), not to
// serve queries — those read the elements directly.
func unpackColumns(packed []byte, n int) ([][4]int64, error) {
	tts, tte := make([]int64, n), make([]int64, n)
	vts, vte := make([]int64, n), make([]int64, n)
	if err := DecodeRunColumns(packed, n, tts, tte, vts, vte); err != nil {
		return nil, err
	}
	out := make([][4]int64, n)
	for i := range out {
		out[i] = [4]int64{tts[i], tte[i], vts[i], vte[i]}
	}
	return out, nil
}

// compactLog seals as many full runs as the uncovered prefix allows,
// returning how many elements were newly sealed. The tail shorter than
// runSize stays unsealed — it is still growing.
func compactLog(elems []*element.Element, runs *[]runMeta) int {
	sealed := 0
	for start := covered(*runs); len(elems)-start >= runSize; start += runSize {
		*runs = append(*runs, sealRun(elems, start, runSize))
		sealed += runSize
	}
	return sealed
}

// Compact seals full runs over the stable prefix. Frozen snapshots refuse:
// they inherit the live store's runs instead.
func (s *TTLogStore) Compact() int {
	if s.frozen {
		return 0
	}
	return compactLog(s.elems, &s.runs)
}

// Compact seals full runs over the stable prefix.
func (s *VTLogStore) Compact() int {
	if s.frozen {
		return 0
	}
	return compactLog(s.elems, &s.runs)
}

// rollbackWithRuns is the run-aware shared rollback path: n is the length of
// the tt⊢ ≤ tt prefix (found by the caller's binary search). A sealed run
// whose recorded maximum tt⊣ is ≤ tt held only elements already closed by
// tt — nothing in it is present — so it is skipped for one probe.
func rollbackWithRuns(elems []*element.Element, runs []runMeta, tt chronon.Chronon, n int) ([]*element.Element, int) {
	var out []*element.Element
	touched := 0
	for _, r := range runs {
		if r.start >= n {
			return out, touched
		}
		if r.maxTTEnd <= tt {
			touched++
			continue
		}
		end := r.start + r.n
		if end > n {
			end = n
		}
		for _, e := range elems[r.start:end] {
			touched++
			if e.PresentAt(tt) {
				out = append(out, e)
			}
		}
	}
	if tail := covered(runs); tail < n {
		for _, e := range elems[tail:n] {
			touched++
			if e.PresentAt(tt) {
				out = append(out, e)
			}
		}
	}
	return out, touched
}

// vtRangeZoneMap is the run-aware valid-time scan for stores with no useful
// vt order (the tt log): runs whose valid-time envelope misses [lo, hi), or
// that held no open element when sealed, are skipped; everything else is
// scanned exactly as the flat path would.
func vtRangeZoneMap(elems []*element.Element, runs []runMeta, lo, hi chronon.Chronon) ([]*element.Element, int) {
	var out []*element.Element
	touched := 0
	for _, r := range runs {
		if r.open == 0 || r.vtLo >= hi || r.vtHi <= lo {
			touched++
			continue
		}
		for _, e := range elems[r.start : r.start+r.n] {
			touched++
			if e.Current() && validAtRange(e, lo, hi) {
				out = append(out, e)
			}
		}
	}
	for _, e := range elems[covered(runs):] {
		touched++
		if e.Current() && validAtRange(e, lo, hi) {
			out = append(out, e)
		}
	}
	return out, touched
}

// vtRangeOrderedRuns is the run-aware valid-time search for the vt-ordered
// log. It binary-searches the elements for the start position exactly like
// the flat path (so the probe cost is unchanged), then during the forward
// walk skips any sealed run that held no open element when sealed, and
// stops early when a run's minimum start already passes hi.
func vtRangeOrderedRuns(elems []*element.Element, runs []runMeta, lo, hi chronon.Chronon) ([]*element.Element, int) {
	n := len(elems)
	start := sort.Search(n, func(i int) bool { return exclusiveEnd(elems[i]) > lo })
	var out []*element.Element
	touched := 1 // the binary-search probe
	cov := covered(runs)
	ri := sort.Search(len(runs), func(i int) bool { return runs[i].start+runs[i].n > start })
	i := start
	for i < n {
		if i < cov {
			r := runs[ri]
			ri++
			if r.vtLo >= hi {
				return out, touched
			}
			if r.open == 0 {
				touched++
				i = r.start + r.n
				continue
			}
			for end := r.start + r.n; i < end; i++ {
				e := elems[i]
				touched++
				if e.VT.Start() >= hi {
					return out, touched
				}
				if e.Current() && validAtRange(e, lo, hi) {
					out = append(out, e)
				}
			}
			continue
		}
		e := elems[i]
		touched++
		if e.VT.Start() >= hi {
			break
		}
		if e.Current() && validAtRange(e, lo, hi) {
			out = append(out, e)
		}
		i++
	}
	return out, touched
}

// Compacter is implemented by stores that can seal frozen runs.
type Compacter interface {
	// Compact seals full runs over the stable prefix and returns how many
	// elements were newly sealed.
	Compact() int
}

// CompactionStats reports a store's sealing state.
type CompactionStats struct {
	Runs        int   // sealed runs
	Sealed      int   // elements inside sealed runs
	PackedBytes int64 // delta-encoded size of the sealed timestamp columns
}

// Compaction reports the sealing state of st (zero for organizations that
// do not seal).
func Compaction(st Store) CompactionStats {
	var runs []runMeta
	switch s := st.(type) {
	case *TTLogStore:
		runs = s.runs
	case *VTLogStore:
		runs = s.runs
	default:
		return CompactionStats{}
	}
	cs := CompactionStats{Runs: len(runs), Sealed: covered(runs)}
	for _, r := range runs {
		cs.PackedBytes += int64(len(r.packed))
	}
	return cs
}

// flatStampBytes is the uncompacted width of one element's four timestamps.
const flatStampBytes = 4 * 8

// StoreBytes reports the store's timestamp-column footprint in bytes: sealed
// runs cost their delta-encoded size, unsealed elements their flat width.
// This is the byte measure the S6 experiment records per class — it is the
// portion of the layout that physical design actually changes (tuple data is
// organization-independent).
func StoreBytes(st Store) int64 {
	cs := Compaction(st)
	return cs.PackedBytes + int64(st.Len()-cs.Sealed)*flatStampBytes
}
