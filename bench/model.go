package main

import (
	"fmt"
	"math"
	"sort"
)

// The reference model executes the paper's definitions by brute force over
// a plain slice of versions: current state, time-slice, rollback, as-of and
// the window aggregates. It is snapshot-reducible by construction — every
// answer is a filter over the full history — and it is what the generator
// holds the server's responses to.
//
// Transaction times are minted by the server's clock, so the model orders
// transactions by sequence number (one per clock tick: every inserted
// element, every delete, every modify) and remembers the transaction time
// of a sequence number only where a response revealed it. Rollback and
// as-of queries always target a revealed time, and presence is decided by
// sequence order, which is the same order.

const openSeq = math.MaxInt

// version is one element version.
type version struct {
	es         uint64
	vtLo, vtHi int64 // valid extent [vtLo, vtHi); an event is one chronon
	val        int64
	startSeq   int
	endSeq     int // openSeq while current
}

func (v *version) current() bool              { return v.endSeq == openSeq }
func (v *version) presentAt(seq int) bool     { return v.startSeq <= seq && seq < v.endSeq }
func (v *version) validAt(vt int64) bool      { return v.vtLo <= vt && vt < v.vtHi }
func (v *version) overlaps(lo, hi int64) bool { return v.vtLo < hi && lo < v.vtHi }

// model is the naive bitemporal relation.
type model struct {
	vers []version
	live []int // ordinals of current versions, in a deterministic order
	pos  []int // pos[ord] is the index of ord in live, or -1
	seq  int   // last issued transaction sequence number
	// ttOf[seq] is the transaction time of that tick when a response
	// revealed it (insert and modify responses carry tt_start), else 0.
	ttOf []int64
	// known lists the sequence numbers with a revealed time, ascending.
	known []int
}

func newModel() *model { return &model{ttOf: []int64{0}} }

func (m *model) tick(tt int64) int {
	m.seq++
	m.ttOf = append(m.ttOf, tt)
	if tt != 0 {
		m.known = append(m.known, m.seq)
	}
	return m.seq
}

// insert records a new current version; es and tt are 0 in the generator's
// own simulation, which only needs the abstract state.
func (m *model) insert(es uint64, vtLo, vtHi, val, tt int64) int {
	ord := len(m.vers)
	m.vers = append(m.vers, version{es: es, vtLo: vtLo, vtHi: vtHi, val: val,
		startSeq: m.tick(tt), endSeq: openSeq})
	m.pos = append(m.pos, len(m.live))
	m.live = append(m.live, ord)
	return ord
}

func (m *model) closeAt(ord, seq int) {
	m.vers[ord].endSeq = seq
	i := m.pos[ord]
	last := m.live[len(m.live)-1]
	m.live[i] = last
	m.pos[last] = i
	m.live = m.live[:len(m.live)-1]
	m.pos[ord] = -1
}

// remove is a logical delete. Its transaction time is never revealed.
func (m *model) remove(ord int) { m.closeAt(ord, m.tick(0)) }

// modify closes ord and opens its replacement at one transaction time.
func (m *model) modify(ord int, es uint64, vtLo, vtHi, val, tt int64) int {
	seq := m.tick(tt)
	m.closeAt(ord, seq)
	n := len(m.vers)
	m.vers = append(m.vers, version{es: es, vtLo: vtLo, vtHi: vtHi, val: val,
		startSeq: seq, endSeq: openSeq})
	m.pos = append(m.pos, len(m.live))
	m.live = append(m.live, n)
	return n
}

// row is the comparable projection of one answer element.
type row struct {
	es         uint64
	vtLo, vtHi int64
	val        int64
}

func sortRows(rs []row) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].es < rs[j].es })
}

func (m *model) selectRows(keep func(*version) bool) []row {
	var out []row
	for i := range m.vers {
		if v := &m.vers[i]; keep(v) {
			out = append(out, row{v.es, v.vtLo, v.vtHi, v.val})
		}
	}
	sortRows(out)
	return out
}

func (m *model) current() []row { return m.selectRows((*version).current) }

func (m *model) timeslice(vt int64) []row {
	return m.selectRows(func(v *version) bool { return v.current() && v.validAt(vt) })
}

func (m *model) rollback(seq int) []row {
	return m.selectRows(func(v *version) bool { return v.presentAt(seq) })
}

func (m *model) asOf(vt int64, seq int) []row {
	return m.selectRows(func(v *version) bool { return v.presentAt(seq) && v.validAt(vt) })
}

// aggSpec is a window aggregate in the generator's vocabulary; sql renders
// it for the server and model.aggregate evaluates it by definition.
type aggSpec struct {
	fn       string // count, sum, max
	star     bool   // COUNT(*)
	width    int64
	mode     string // tumbling, rolling, cumulative
	k        int64  // rolling extent
	clamp    bool
	lo, hi   int64 // WHEN VALID DURING [lo, hi)
	usingRow bool
}

func (a aggSpec) sql(rel string) string {
	arg := "value"
	if a.star {
		arg = "*"
	}
	s := fmt.Sprintf("SELECT %s(%s) FROM %s", a.fn, arg, rel)
	if a.clamp {
		s += fmt.Sprintf(" WHEN VALID DURING [%d, %d)", a.lo, a.hi)
	}
	switch a.mode {
	case "rolling":
		s += fmt.Sprintf(" GROUP BY WINDOW(%d, ROLLING %d)", a.width, a.k)
	case "cumulative":
		s += fmt.Sprintf(" GROUP BY WINDOW(%d, CUMULATIVE)", a.width)
	default:
		s += fmt.Sprintf(" GROUP BY WINDOW(%d)", a.width)
	}
	if a.usingRow {
		s += " USING ROW"
	}
	return s
}

// aggRow is one emitted window: its bounds and the aggregate, null when no
// element contributed (a rolling or cumulative gap).
type aggRow struct {
	start, end int64
	val        int64
	null       bool
}

type aggCell struct {
	n, sum, max int64
	has         bool
}

func (c *aggCell) add(v int64) {
	c.n++
	c.sum += v
	if !c.has || v > c.max {
		c.max = v
	}
	c.has = true
}

func (c *aggCell) merge(o aggCell) {
	if !o.has {
		return
	}
	c.n += o.n
	c.sum += o.sum
	if !c.has || o.max > c.max {
		c.max = o.max
	}
	c.has = true
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// aggregate evaluates a window aggregate over the current state: every
// element contributes to each window its (clamped) valid extent overlaps.
func (m *model) aggregate(a aggSpec) []aggRow {
	cells := map[int64]*aggCell{}
	for i := range m.vers {
		v := &m.vers[i]
		if !v.current() {
			continue
		}
		lo, hi := v.vtLo, v.vtHi
		if a.clamp {
			if !v.overlaps(a.lo, a.hi) {
				continue
			}
			lo, hi = max(lo, a.lo), min(hi, a.hi)
		}
		for wi := floorDiv(lo, a.width); wi <= floorDiv(hi-1, a.width); wi++ {
			c := cells[wi]
			if c == nil {
				c = &aggCell{}
				cells[wi] = c
			}
			c.add(v.val)
		}
	}
	if len(cells) == 0 {
		return nil
	}
	idx := make([]int64, 0, len(cells))
	for wi := range cells {
		idx = append(idx, wi)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	first, last := idx[0], idx[len(idx)-1]
	final := func(c aggCell) (int64, bool) {
		switch a.fn {
		case "count":
			return c.n, false
		case "sum":
			return c.sum, !c.has
		default:
			return c.max, !c.has
		}
	}
	var out []aggRow
	emit := func(start, end int64, c aggCell) {
		v, null := final(c)
		out = append(out, aggRow{start, end, v, null})
	}
	switch a.mode {
	case "rolling":
		for wi := first; wi <= last; wi++ {
			var acc aggCell
			for k := wi - a.k + 1; k <= wi; k++ {
				if c := cells[k]; c != nil {
					acc.merge(*c)
				}
			}
			emit((wi-a.k+1)*a.width, (wi+1)*a.width, acc)
		}
	case "cumulative":
		var acc aggCell
		for wi := first; wi <= last; wi++ {
			if c := cells[wi]; c != nil {
				acc.merge(*c)
			}
			emit(first*a.width, (wi+1)*a.width, acc)
		}
	default:
		for _, wi := range idx {
			emit(wi*a.width, (wi+1)*a.width, *cells[wi])
		}
	}
	return out
}
