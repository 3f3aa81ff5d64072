package vec

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/chronon"
	"repro/internal/element"
)

// AggKind enumerates the supported aggregate functions.
type AggKind uint8

const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
)

func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return fmt.Sprintf("AggKind(%d)", uint8(k))
}

// AggCall is one aggregate in a query's select list: its function, the
// column's name as the statement spells it (for messages), and where the
// column lies (Ref; the zero ColRef is COUNT(*)'s no column).
type AggCall struct {
	Kind AggKind
	Col  string
	Ref  ColRef
}

// ColSource says what kind of column a ColRef names.
type ColSource uint8

const (
	ColNone      ColSource = iota // no column: COUNT(*)
	ColInvariant                  // the Slot-th time-invariant value
	ColVarying                    // the Slot-th time-varying value
	ColUser                       // the Slot-th user-defined time, as a time value
	ColES                         // the element surrogate, as an int
	ColOS                         // the object surrogate, as an int
	ColTTStart                    // tt⊢, as a time value
	ColTTEnd                      // tt⊣
	ColVTStart                    // the valid time-stamp's start
	ColVTEnd                      // its end: an event's is its start
)

// ColRef names one column of a relation by where it lies, so that a fold
// reads it the same way from an element (Of) and from a sealed chunk's
// columns (Cols.value): there is one way to name a column, whichever form
// holds the row.
type ColRef struct {
	Src  ColSource
	Slot int
}

// Of reads the column from e. ColNone reads null. A varying value, the
// column an aggregate reads most, is read inline.
func (r ColRef) Of(e *element.Element) element.Value {
	if r.Src == ColVarying {
		return e.Varying[r.Slot]
	}
	return r.other(e)
}

// other is Of for every column but a varying value.
func (r ColRef) other(e *element.Element) element.Value {
	switch r.Src {
	case ColInvariant:
		return e.Invariant[r.Slot]
	case ColUser:
		return element.Time(e.UserTimes[r.Slot])
	case ColES:
		return element.Int(int64(e.ES))
	case ColOS:
		return element.Int(int64(e.OS))
	case ColTTStart:
		return element.Time(e.TTStart)
	case ColTTEnd:
		return element.Time(e.TTEnd)
	case ColVTStart:
		return element.Time(e.VT.Start())
	case ColVTEnd:
		return element.Time(e.VT.End())
	}
	return element.Null()
}

// WindowKind enumerates the GROUP BY WINDOW modes.
type WindowKind uint8

const (
	// Tumbling emits one row per non-empty fixed window.
	Tumbling WindowKind = iota
	// Rolling emits, for each base window in the populated span, the
	// aggregate over the K windows ending there.
	Rolling
	// Cumulative emits running state: each window's row aggregates
	// everything from the first populated window up to it.
	Cumulative
)

func (k WindowKind) String() string {
	switch k {
	case Tumbling:
		return "tumbling"
	case Rolling:
		return "rolling"
	case Cumulative:
		return "cumulative"
	}
	return fmt.Sprintf("WindowKind(%d)", uint8(k))
}

// MaxWindows bounds both a single element's window span and the emitted
// window range. Valid-time intervals may extend to Forever; without the
// bound a single open interval would fan out into 2^56 windows. Both
// engines enforce the identical bound so a guard trip is itself a
// deterministic, differential-testable answer. A span of windows lo..hi is
// counted unsigned, uint64(hi−lo)+1: between windows near the two ends of
// the int64 line hi−lo+1 wraps to a negative number.
const MaxWindows = 1 << 16

// MaxWidth bounds window widths; MaxRolling bounds the rolling extent.
const (
	MaxWidth   = int64(1) << 32
	MaxRolling = int64(1) << 16
)

// Spec is a fully-compiled window aggregation: the vectorizable filter,
// an optional residual row predicate (Allen clauses, WHERE), the window
// geometry, and the aggregate list. Both engines execute the same Spec,
// which is what makes their answers comparable bit for bit.
type Spec struct {
	Width  int64
	WKind  WindowKind
	K      int64 // rolling extent in windows; ignored otherwise
	Aggs   []AggCall
	Filter Filter
	// Residual is the row-at-a-time remainder of the selection; nil
	// when the Filter captures the whole predicate.
	Residual func(*element.Element) (bool, error)
}

// Validate checks the spec's geometry.
func (s *Spec) Validate() error {
	if s.Width < 1 || s.Width > MaxWidth {
		return fmt.Errorf("vec: window width %d out of range [1, %d]", s.Width, MaxWidth)
	}
	if s.WKind == Rolling && (s.K < 1 || s.K > MaxRolling) {
		return fmt.Errorf("vec: rolling extent %d out of range [1, %d]", s.K, MaxRolling)
	}
	if len(s.Aggs) == 0 {
		return fmt.Errorf("vec: no aggregate calls")
	}
	return nil
}

// AggResult is the computed windows in ascending window order, one row a
// window: [win_start, win_end, v…] — the valid time [win_start, win_end)
// the window covers, as two time values, then one value per AggCall. The
// rows are cut from one slab and are the answer's table as it goes out
// (tsql.AggToResult hands them on without a copy).
type AggResult struct {
	Rows [][]element.Value
}

const (
	sumNone uint8 = iota
	sumInt
	sumFloat
)

// cell is one (window, aggregate call) accumulator. Sum keeps separate
// int and float lanes so integer sums stay exact; min/max keep the
// current extreme in ext.
type cell struct {
	n    int64
	si   int64
	sf   float64
	mode uint8
	ext  element.Value
	has  bool
}

// updateCells folds one element into a window's accumulator row.
func updateCells(cells []cell, aggs []AggCall, e *element.Element) error {
	for ai := range aggs {
		a, c := &aggs[ai], &cells[ai]
		if a.Ref.Src == ColNone { // COUNT(*)
			c.n++
			continue
		}
		v := a.Ref.Of(e)
		if foldWord(c, a, v.Kind(), v.Word()) {
			continue
		}
		if err := updateCell(c, a, v); err != nil {
			return err
		}
	}
	return nil
}

// foldWord folds a value of kind k and word w (element.Value.Word) into
// call a's cell c, when the kind and the word are all that takes — a null,
// a count, an integer sum into a sum that is not a float one — and reports
// whether it did. It is updateCell's arithmetic for those values, small
// enough to inline into the folds' loops; a that names no column is
// updateCell's alone.
func foldWord(c *cell, a *AggCall, k element.ValueKind, w int64) bool {
	switch {
	case k == element.KindNull:
		return true
	case a.Kind == AggCount:
		c.n++
		return true
	case a.Kind == AggSum && k == element.KindInt && c.mode != sumFloat:
		c.mode, c.si = sumInt, c.si+w
		return true
	}
	return false
}

// updateCell folds v, a row's value of call a's column, into the call's
// cell c of a window.
func updateCell(c *cell, a *AggCall, v element.Value) error {
	if a.Ref.Src == ColNone { // COUNT(*)
		c.n++
		return nil
	}
	if foldWord(c, a, v.Kind(), v.Word()) {
		return nil
	}
	switch a.Kind {
	case AggSum:
		switch v.Kind() {
		case element.KindInt: // into a float sum: foldWord took every other
			return fmt.Errorf("vec: sum(%s) over mixed int and float values", a.Col)
		case element.KindFloat:
			if c.mode == sumInt {
				return fmt.Errorf("vec: sum(%s) over mixed int and float values", a.Col)
			}
			c.mode = sumFloat
			f, _ := v.FloatVal()
			c.sf += f
		default:
			return fmt.Errorf("vec: sum(%s) over %v values", a.Col, v.Kind())
		}
	case AggMin, AggMax:
		if !c.has {
			c.ext, c.has = v, true
			return nil
		}
		if v.Kind() != c.ext.Kind() {
			return fmt.Errorf("vec: %s(%s) over mixed %v and %v values",
				a.Kind, a.Col, c.ext.Kind(), v.Kind())
		}
		if d := v.Compare(c.ext); (a.Kind == AggMin && d < 0) || (a.Kind == AggMax && d > 0) {
			c.ext = v
		}
	}
	return nil
}

// laneConflict reports what keeps src from merging into dst: sums of
// different modes (sum), extremes of different kinds (ext).
func laneConflict(d, s *cell) (sum, ext bool) {
	sum = s.mode != sumNone && d.mode != sumNone && d.mode != s.mode
	ext = s.has && d.has && s.ext.Kind() != d.ext.Kind()
	return sum, ext
}

// mergeCells folds src into dst (same AggCall layout); used by the
// rolling and cumulative emitters and by ColAgg.Merge.
func mergeCells(dst, src []cell, aggs []AggCall) error {
	for ai := range aggs {
		a := &aggs[ai]
		d, s := &dst[ai], &src[ai]
		sumMixed, extMixed := laneConflict(d, s)
		d.n += s.n
		if sumMixed {
			return fmt.Errorf("vec: sum(%s) over mixed int and float values", a.Col)
		}
		if s.mode != sumNone {
			d.mode = s.mode
			d.si += s.si
			d.sf += s.sf
		}
		if extMixed {
			return fmt.Errorf("vec: %s(%s) over mixed %v and %v values",
				a.Kind, a.Col, d.ext.Kind(), s.ext.Kind())
		}
		if s.has {
			if !d.has {
				d.ext, d.has = s.ext, true
			} else if c := s.ext.Compare(d.ext); (a.Kind == AggMin && c < 0) || (a.Kind == AggMax && c > 0) {
				d.ext = s.ext
			}
		}
	}
	return nil
}

// mergeable reports whether mergeCells(dst, src) would succeed.
func mergeable(dst, src []cell) bool {
	for ai := range src {
		if sum, ext := laneConflict(&dst[ai], &src[ai]); sum || ext {
			return false
		}
	}
	return true
}

// finalize converts an accumulator row into output values, one per
// aggregate call in out. Empty sums and unseeded extremes are SQL-style
// NULL; counts are 0.
func finalize(out []element.Value, cells []cell, aggs []AggCall) {
	for ai := range aggs {
		c := &cells[ai]
		switch aggs[ai].Kind {
		case AggCount:
			out[ai] = element.Int(c.n)
		case AggSum:
			switch c.mode {
			case sumInt:
				out[ai] = element.Int(c.si)
			case sumFloat:
				out[ai] = element.Float(c.sf)
			default:
				out[ai] = element.Null()
			}
		case AggMin, AggMax:
			if c.has {
				out[ai] = c.ext
			} else {
				out[ai] = element.Null()
			}
		}
	}
}

// Window is the index of the window of the given width that holds valid
// time t.
func Window(t, width int64) int64 { return floorDiv(t, width) }

// floorDiv divides flooring toward minus infinity, so negative valid
// times land in the window that actually covers them.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// accum is the shared accumulation state: one cell row per populated
// window index. ColAgg's folds (ConsumeCols, ConsumeRows, Consume)
// additionally memoize the last window row — vt-ordered input lands runs of
// consecutive rows in the same window, turning most map lookups into a
// pointer compare; the reference engine does not.
type accum struct {
	spec  *Spec
	cells map[int64][]cell
	// Rows are carved from block, a slab at least as large as every row
	// populated before it, so a row costs no allocation of its own; free
	// is block's unused rest.
	block, free []cell

	lastIdx  int64
	lastRow  []cell
	haveLast bool

	// slide picks the sliding rolling emit (slideRolling); the reference
	// engine keeps the per-row merge that defines it.
	slide bool
}

// newRow returns a zeroed cell row for a window about to be populated.
func (ac *accum) newRow() []cell {
	na := len(ac.spec.Aggs)
	if len(ac.free) < na {
		ac.block = make([]cell, na*max(64, len(ac.cells)))
		ac.free = ac.block
	}
	r := ac.free[:na:na]
	ac.free = ac.free[na:]
	clear(r)
	return r
}

func newAccum(spec *Spec) *accum {
	return &accum{spec: spec, cells: make(map[int64][]cell)}
}

func (ac *accum) row(wi int64) []cell {
	if ac.haveLast && wi == ac.lastIdx {
		return ac.lastRow
	}
	r, ok := ac.cells[wi]
	if !ok {
		r = ac.newRow()
		ac.cells[wi] = r
	}
	ac.lastIdx, ac.lastRow, ac.haveLast = wi, r, true
	return r
}

// add folds one element's valid extent [vtStart, vtEnd) into every
// window it overlaps, clamped to the filter window if one is set.
func (ac *accum) add(vtStart, vtEnd int64, e *element.Element) error {
	s, en := vtStart, vtEnd
	if ac.spec.Filter.HasVT {
		if s < ac.spec.Filter.VTLo {
			s = ac.spec.Filter.VTLo
		}
		if en > ac.spec.Filter.VTHi {
			en = ac.spec.Filter.VTHi
		}
	}
	if s >= en {
		return nil
	}
	w := ac.spec.Width
	wLo := floorDiv(s, w)
	wHi := floorDiv(en-1, w)
	if uint64(wHi-wLo) >= MaxWindows {
		return fmt.Errorf("vec: element spans %d windows (max %d); narrow the window or add a WHEN clamp",
			uint64(wHi-wLo)+1, MaxWindows)
	}
	for wi := wLo; wi <= wHi; wi++ {
		if err := updateCells(ac.row(wi), ac.spec.Aggs, e); err != nil {
			return err
		}
	}
	return nil
}

// checkEvery is how many rows emit produces, or elements RowAggregate
// folds, between two polls of the context: a rolling or cumulative result
// may span MaxWindows rows.
const checkEvery = 1024

// emit materializes the populated windows into the result, applying the
// window mode (emitRows).
func (ac *accum) emit(ctx context.Context) (*AggResult, error) {
	if len(ac.cells) == 0 {
		return &AggResult{}, nil
	}
	idxs := make([]int64, 0, len(ac.cells))
	for wi := range ac.cells {
		idxs = append(idxs, wi)
	}
	slices.Sort(idxs)
	rows := make([][]cell, len(idxs)) // the populated rows in window order
	for i, wi := range idxs {
		rows[i] = ac.cells[wi]
	}
	return emitRows(ctx, ac.spec, idxs, rows, ac.slide)
}

// emitRows materializes populated windows — idxs ascending, rows[i] the
// cells of window idxs[i] — into the result, applying the window mode. Every
// fold shares it, so engine equality reduces to per-window cell equality;
// slide picks the rolling emit (slideRolling for the engine, the per-row
// merge that defines it for the reference). Its allocations do not grow with
// the number of windows: each window is finalized straight into its output
// row — bounds, then values — of one slab, and rolling and cumulative rows
// are merged into one scratch row. It polls ctx every checkEvery rows.
func emitRows(ctx context.Context, spec *Spec, idxs []int64, rows [][]cell, slide bool) (*AggResult, error) {
	res := &AggResult{}
	if len(idxs) == 0 {
		return res, nil
	}
	first, last := idxs[0], idxs[len(idxs)-1]
	if uint64(last-first) >= MaxWindows {
		return nil, fmt.Errorf("vec: result spans %d windows (max %d); narrow the window or add a WHEN clamp",
			uint64(last-first)+1, MaxWindows)
	}
	n := len(idxs)
	if spec.WKind != Tumbling {
		n = int(last - first + 1)
	}
	w := spec.Width
	aggs := spec.Aggs
	na := len(aggs)
	width := 2 + na
	slab := make([]element.Value, n*width)
	res.Rows = make([][]element.Value, 0, n)
	push := func(start, end int64, cells []cell) error {
		i := len(res.Rows)
		if i%checkEvery == checkEvery-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		row := slab[i*width : (i+1)*width : (i+1)*width]
		row[0], row[1] = element.Time(chronon.Chronon(start)), element.Time(chronon.Chronon(end))
		finalize(row[2:], cells, aggs)
		res.Rows = append(res.Rows, row)
		return nil
	}
	switch spec.WKind {
	case Tumbling:
		for i, wi := range idxs {
			if err := push(wi*w, (wi+1)*w, rows[i]); err != nil {
				return nil, err
			}
		}
	case Rolling:
		if slide {
			if ok, err := slideRolling(spec, idxs, rows, push); ok || err != nil {
				if err != nil {
					return nil, err
				}
				return res, nil
			}
		}
		// One row per base window in [first, last]; each aggregates the
		// populated windows among the K ending there, rows[lo:hi], merged
		// in ascending order; the row's span is the extent.
		k := spec.K
		merged := make([]cell, na)
		lo, hi := 0, 0
		for wi := first; wi <= last; wi++ {
			for hi < len(idxs) && idxs[hi] <= wi {
				hi++
			}
			for idxs[lo] <= wi-k {
				lo++
			}
			clear(merged)
			for _, row := range rows[lo:hi] {
				if err := mergeCells(merged, row, aggs); err != nil {
					return nil, err
				}
			}
			if err := push((wi-k+1)*w, (wi+1)*w, merged); err != nil {
				return nil, err
			}
		}
	case Cumulative:
		running := make([]cell, na)
		next := 0
		for wi := first; wi <= last; wi++ {
			if idxs[next] == wi {
				if err := mergeCells(running, rows[next], aggs); err != nil {
					return nil, err
				}
				next++
			}
			if err := push(first*w, (wi+1)*w, running); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("vec: unknown window kind %v", spec.WKind)
	}
	return res, nil
}

// How slideRolling carries one aggregate call's lane from row to row.
const (
	slideCount uint8 = iota // add the entering count, subtract the leaving
	slideSum                // the same for an integer sum, and count the windows that have one
	slideExt                // a monotone deque of the windows that can still be the extreme
	slideMerge              // merge the row's windows, as the definition does
)

// slideRolling emits the rolling rows in time linear in the span: each row's
// cells are the previous row's with the window that entered added and the
// one that left taken out — counts and integer sums by addition and
// subtraction (wrapping, as the merge does), extremes by a monotone deque
// that keeps the earlier of equals, which is the value merging the row's
// windows in ascending order keeps. A float sum (float addition does not
// subtract back exactly) and an extreme that met a NaN (which no order
// ranks) merge their row's windows, lane by lane, as the per-row emit does.
// It reports false, having pushed nothing, when two windows' cells conflict
// (sums of both modes, extremes of two kinds): the per-row merge then fails
// where it meets them, or never if no row holds both.
func slideRolling(spec *Spec, idxs []int64, rows [][]cell, push func(start, end int64, cells []cell) error) (bool, error) {
	aggs := spec.Aggs
	na := len(aggs)
	how := make([]uint8, na)
	exts := 0
	for ai := range aggs {
		var mode uint8
		var kind element.ValueKind
		has, nan := false, false
		for _, row := range rows {
			c := &row[ai]
			if c.mode != sumNone {
				if mode != sumNone && mode != c.mode {
					return false, nil
				}
				mode = c.mode
			}
			if c.has {
				if has && c.ext.Kind() != kind {
					return false, nil
				}
				has, kind = true, c.ext.Kind()
				if f, ok := c.ext.FloatVal(); ok && math.IsNaN(f) {
					nan = true
				}
			}
		}
		switch aggs[ai].Kind {
		case AggSum:
			how[ai] = slideSum
			if mode == sumFloat {
				how[ai] = slideMerge
			}
		case AggMin, AggMax:
			how[ai] = slideExt
			if nan {
				how[ai] = slideMerge
			} else {
				exts++
			}
		}
	}
	// Per lane: the running count and integer sum, the windows in the row
	// with a sum lane, and the extreme's deque — indices into rows, ascending
	// and strictly worsening from head to back, carved from one slab.
	type lane struct {
		n, si, summed int64
		dq            []int32
		head          int
	}
	lanes := make([]lane, na)
	slab := make([]int32, exts*len(rows))
	for ai := range lanes {
		if how[ai] == slideExt {
			lanes[ai].dq, slab = slab[:0:len(rows)], slab[len(rows):]
		}
	}
	// worse reports whether an extreme x loses to y, a later window's.
	worse := func(ai int, x, y element.Value) bool {
		d := x.Compare(y)
		if aggs[ai].Kind == AggMin {
			return d > 0
		}
		return d < 0
	}
	k, w := spec.K, spec.Width
	first, last := idxs[0], idxs[len(idxs)-1]
	merged := make([]cell, na)
	lo, hi := 0, 0
	for wi := first; wi <= last; wi++ {
		for ; hi < len(idxs) && idxs[hi] <= wi; hi++ {
			for ai := range lanes {
				l, c := &lanes[ai], &rows[hi][ai]
				switch how[ai] {
				case slideCount:
					l.n += c.n
				case slideSum:
					l.si += c.si
					if c.mode != sumNone {
						l.summed++
					}
				case slideExt:
					if c.has {
						for len(l.dq) > l.head && worse(ai, rows[l.dq[len(l.dq)-1]][ai].ext, c.ext) {
							l.dq = l.dq[:len(l.dq)-1]
						}
						l.dq = append(l.dq, int32(hi))
					}
				}
			}
		}
		for ; idxs[lo] <= wi-k; lo++ {
			for ai := range lanes {
				l, c := &lanes[ai], &rows[lo][ai]
				switch how[ai] {
				case slideCount:
					l.n -= c.n
				case slideSum:
					l.si -= c.si
					if c.mode != sumNone {
						l.summed--
					}
				case slideExt:
					if len(l.dq) > l.head && int(l.dq[l.head]) == lo {
						l.head++
					}
				}
			}
		}
		for ai := range lanes {
			l := &lanes[ai]
			switch how[ai] {
			case slideCount:
				merged[ai] = cell{n: l.n}
			case slideSum:
				merged[ai] = cell{si: l.si}
				if l.summed > 0 {
					merged[ai].mode = sumInt
				}
			case slideExt:
				merged[ai] = cell{}
				if len(l.dq) > l.head {
					merged[ai] = cell{ext: rows[l.dq[l.head]][ai].ext, has: true}
				}
			case slideMerge:
				merged[ai] = cell{}
				for _, row := range rows[lo:hi] {
					// Cannot fail: no two windows' lanes conflict.
					_ = mergeCells(merged[ai:ai+1], row[ai:ai+1], aggs[ai:ai+1])
				}
			}
		}
		if err := push((wi-k+1)*w, (wi+1)*w, merged); err != nil {
			return true, err
		}
	}
	return true, nil
}

// RowAggregate is the definition of a window aggregate: row at a time over
// elements in arrival order, using the elements' own predicate methods; it
// polls for cancellation once every checkEvery elements. The
// differential harness holds the query engine's fold (ColAgg.ConsumeCols)
// to its answers.
func RowAggregate(ctx context.Context, spec *Spec, elems []*element.Element) (*AggResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ac := newAccum(spec)
	for len(elems) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := min(len(elems), checkEvery)
		if err := ac.addRows(elems[:n], false); err != nil {
			return nil, err
		}
		elems = elems[n:]
	}
	return ac.emit(ctx)
}

// addRows filters one run of elements and folds the survivors in, through
// the hot-window memo (add) when memo is set and without it (addUnmemoized)
// otherwise; both update the same cells in the same order.
func (ac *accum) addRows(run []*element.Element, memo bool) error {
	spec, f := ac.spec, ac.spec.Filter
	for _, e := range run {
		if f.AsOf {
			if !e.PresentAt(chronon.Chronon(f.TT)) {
				continue
			}
		} else if !e.Current() {
			continue
		}
		vts, vte := validSpan(e)
		if f.HasVT && (vts >= f.VTHi || vte <= f.VTLo) {
			continue
		}
		if spec.Residual != nil {
			ok, err := spec.Residual(e)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		var err error
		if memo {
			err = ac.add(vts, vte, e)
		} else {
			err = ac.addUnmemoized(vts, vte, e)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// addUnmemoized is add without the hot-window memo: the reference engine's
// fold, kept plain so it stays the definition the folds are checked
// against.
func (ac *accum) addUnmemoized(vtStart, vtEnd int64, e *element.Element) error {
	s, en := vtStart, vtEnd
	if ac.spec.Filter.HasVT {
		if s < ac.spec.Filter.VTLo {
			s = ac.spec.Filter.VTLo
		}
		if en > ac.spec.Filter.VTHi {
			en = ac.spec.Filter.VTHi
		}
	}
	if s >= en {
		return nil
	}
	w := ac.spec.Width
	wLo := floorDiv(s, w)
	wHi := floorDiv(en-1, w)
	if uint64(wHi-wLo) >= MaxWindows {
		return fmt.Errorf("vec: element spans %d windows (max %d); narrow the window or add a WHEN clamp",
			uint64(wHi-wLo)+1, MaxWindows)
	}
	for wi := wLo; wi <= wHi; wi++ {
		row, ok := ac.cells[wi]
		if !ok {
			row = ac.newRow()
			ac.cells[wi] = row
		}
		if err := updateCells(row, ac.spec.Aggs, e); err != nil {
			return err
		}
	}
	return nil
}

// ColAgg is the batch consumer: feed it batches, then Result.
type ColAgg struct {
	spec *Spec
	ac   *accum
	sel  []int32
	dst  [][]cell // Merge's rows of the state, one per row of the partial
	// starOnly marks a COUNT(*)-only aggregate list: the fold reads
	// nothing but the batch's timestamp columns, so sealed runs aggregate
	// without dereferencing a single element.
	starOnly bool
}

// NewColAgg builds the batch-at-a-time aggregation operator.
func NewColAgg(spec *Spec) (*ColAgg, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	starOnly := true
	for i := range spec.Aggs {
		if spec.Aggs[i].Ref.Src != ColNone {
			starOnly = false
			break
		}
	}
	ac := newAccum(spec)
	ac.slide = true
	return &ColAgg{spec: spec, ac: ac, sel: make([]int32, 0, BatchSize), starOnly: starOnly}, nil
}

// Consume folds one batch into the aggregation state. The query engine
// folds columns (ConsumeCols); Consume stays for the benchmark module's
// per-layer mirror of the batch kernel.
func (a *ColAgg) Consume(b *Batch, stats *ExecStats) error {
	stats.Batches++
	stats.Rows += int64(b.N)
	a.sel = a.spec.Filter.Apply(b, a.sel[:0])
	res := a.spec.Residual
	if a.starOnly && res == nil {
		return a.consumeCounts(b)
	}
	for _, i := range a.sel {
		e := b.Elems[i]
		if res != nil {
			ok, err := res(e)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		if err := a.ac.add(b.VTStart[i], b.VTEnd[i], e); err != nil {
			return err
		}
	}
	return nil
}

// ConsumeRows folds one chunk's elements into the same state row at a time,
// where they lie, with RowAggregate's filter and the hot-window memo
// Consume uses: the row fold ConsumeCols is held to (the fold tests). The
// cells are bit-identical to the reference engine's.
func (a *ColAgg) ConsumeRows(rows []*element.Element, stats *ExecStats) error {
	stats.Rows += int64(len(rows))
	return a.ac.addRows(rows, true)
}

// ConsumeCols folds one chunk into the state from its columns, slot
// by slot in arrival order, with ConsumeRows' filter, window split, span
// guard and cell arithmetic: the cells, and the first error, are those
// ConsumeRows computes over the chunk materialized. A residual predicate is
// evaluated on the slot c.Load materializes, and only for the slots the
// filter keeps. A slot that lies inside the window the slot before it went
// to — on the vt-ordered log, nearly every slot — is folded into that
// window's cells with two compares, no division and no lookup: a COUNT(*)
// reads nothing but the tt and valid-time columns, and a value column's
// nulls, counts and integer sums are read off its kinds and words
// (foldWord); every other value goes through updateCell. A slot that spans
// several windows, or trips the span guard, goes through the shared add
// over the slot c.Load materializes.
//
// The loop is out of line and calls neither a closure nor an interface per
// slot (c.Load and the residual only where a residual is set or a slot
// spans several windows), so that it compiles to one tight loop over the
// chunk.
//
//go:noinline
func (a *ColAgg) ConsumeCols(c *Cols, stats *ExecStats) error {
	stats.Rows += int64(c.N)
	ac, f, aggs := a.ac, a.spec.Filter, a.spec.Aggs
	res := a.spec.Residual
	tt, w := chronon.Chronon(f.TT), a.spec.Width
	// The window the last slot went to: its cells, and its [winLo, winHi).
	var win []cell
	var winLo, winHi int64
	for j := 0; j < c.N; j++ {
		if f.AsOf {
			if c.TTStart[j] > tt || tt >= c.TTEnd[j] {
				continue
			}
		} else if c.TTEnd[j] != chronon.Forever {
			continue
		}
		s := int64(c.VTStart[j])
		en := s + 1
		if !c.Event {
			en = int64(c.VTEnd[j])
		}
		if f.HasVT && (s >= f.VTHi || en <= f.VTLo) {
			continue
		}
		var e *element.Element // the slot materialized, once it is
		if res != nil {
			e = c.Load(j)
			ok, err := res(e)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		cs, ce := s, en
		if f.HasVT {
			cs, ce = max(cs, f.VTLo), min(ce, f.VTHi)
			if cs >= ce {
				continue
			}
		}
		if win == nil || cs < winLo || ce > winHi {
			wi := floorDiv(cs, w)
			if floorDiv(ce-1, w) != wi {
				// Several windows, or the span guard: the shared add,
				// over the slot materialized unless only counted.
				if e == nil && !a.starOnly {
					e = c.Load(j)
				}
				if err := ac.add(s, en, e); err != nil {
					return err
				}
				continue
			}
			win, winLo, winHi = ac.row(wi), wi*w, wi*w+w
		}
		if a.starOnly {
			for ci := range win {
				win[ci].n++
			}
			continue
		}
		nv := c.NInv + c.NVar
		for ai := range aggs {
			cl, ag := &win[ai], &aggs[ai]
			switch src := ag.Ref.Src; src {
			case ColNone: // COUNT(*)
				cl.n++
				continue
			case ColVarying, ColInvariant:
				t := j*nv + ag.Ref.Slot
				if src == ColVarying {
					t += c.NInv
				}
				if foldWord(cl, ag, c.Kinds[t], c.Words[t]) {
					continue
				}
			}
			if err := updateCell(cl, ag, c.value(j, ag.Ref)); err != nil {
				return err
			}
		}
	}
	return nil
}

// consumeCounts is the vectorized COUNT(*) path: window indices come
// straight from the batch's valid-time columns. Semantics are exactly the
// generic path's — updateCells with a nil Get only increments each cell's
// count — but the per-row cost is two floor divisions and an increment,
// with no element access. Rows that span several windows (or trip the
// span guard) fall back to the shared add, so guard errors stay identical
// to the row engine's.
func (a *ColAgg) consumeCounts(b *Batch) error {
	w := a.spec.Width
	f := a.spec.Filter
	for _, i := range a.sel {
		s, en := b.VTStart[i], b.VTEnd[i]
		if f.HasVT {
			if s < f.VTLo {
				s = f.VTLo
			}
			if en > f.VTHi {
				en = f.VTHi
			}
			if s >= en {
				continue
			}
		}
		wi := floorDiv(s, w)
		if floorDiv(en-1, w) != wi {
			if err := a.ac.add(b.VTStart[i], b.VTEnd[i], nil); err != nil {
				return err
			}
			continue
		}
		row := a.ac.row(wi)
		for ci := range row {
			row[ci].n++
		}
	}
	return nil
}

// Result emits the aggregated windows.
func (a *ColAgg) Result() (*AggResult, error) { return a.ac.emit(context.Background()) }

// ResultCtx is Result giving up with ctx's error when ctx is done first.
func (a *ColAgg) ResultCtx(ctx context.Context) (*AggResult, error) { return a.ac.emit(ctx) }

// Partial is what a stretch of the input contributed to a fold: the
// accumulator cells of every window it populated, in window order, before
// any window mode is applied — so tumbling, rolling and cumulative queries
// over the same width, aggregates and predicate share it. It is immutable
// once copied out (Cells) and may be merged into any number of later folds.
type Partial struct {
	idx   []int64 // populated window indices
	cells []cell  // len(idx) rows of len(Aggs) cells, row-major
}

// partialCellBytes is the resident size of one exported cell.
const partialCellBytes = 80

// Bytes approximates the partial's resident size, for cache budgeting.
func (p *Partial) Bytes() int64 {
	return 64 + 8*int64(len(p.idx)) + partialCellBytes*int64(len(p.cells))
}

// Reset empties the accumulation state, keeping the spec and the newest
// block of cell rows.
func (a *ColAgg) Reset() {
	clear(a.ac.cells)
	a.ac.free = a.ac.block
	a.ac.haveLast = false
}

// Merge folds p into the state exactly as consuming the rows behind it at
// this point would have, when those rows lie inside the spec's valid-time
// clamp (MergeWhole is the merge for rows it may cut). It reports false,
// having changed nothing, when some lane of p cannot combine with what is
// accumulated (an integer sum meeting a float one, extremes of different
// kinds): the caller then consumes those rows itself, which fails on the
// same row with the same text as the row engine.
func (a *ColAgg) Merge(p *Partial) bool { return a.mergeWindows(p, math.MinInt64, math.MaxInt64) }

// MergeWhole is Merge for rows the spec's valid-time clamp may cut: it
// merges p's cells in the windows that lie wholly inside the clamp — what
// the rows put there under it, since the clamp only takes away windows —
// and drops those of windows outside it. It reports false, having changed
// nothing, when p populates a window the clamp cuts, where what a row puts
// depends on where it falls, or when a lane conflicts.
func (a *ColAgg) MergeWhole(p *Partial) bool {
	if !a.spec.Filter.HasVT {
		return a.Merge(p)
	}
	first, last, lo, hi, ok := a.spec.clampWindows()
	if !ok {
		return true // the fold keeps no row
	}
	for _, wi := range p.idx {
		if wi >= first && wi <= last && (wi < lo || wi > hi) {
			return false
		}
	}
	return a.mergeWindows(p, lo, hi)
}

// clampWindows reports the windows the valid-time clamp meets, first
// through last, and the whole ones among them, lo through hi; ok is false
// when the clamp is empty.
func (s *Spec) clampWindows() (first, last, lo, hi int64, ok bool) {
	f, w := s.Filter, s.Width
	if f.VTLo >= f.VTHi {
		return 0, 0, 0, 0, false
	}
	first, last = floorDiv(f.VTLo, w), floorDiv(f.VTHi-1, w)
	lo, hi = first, last
	if first*w != f.VTLo {
		lo++
	}
	if floorDiv(f.VTHi, w) == last {
		hi--
	}
	return first, last, lo, hi, true
}

// Cuts reports whether valid times lo through last, inclusive, meet a
// window the valid-time clamp cuts: one it covers only in part, where what
// an element adds depends on where it falls. Rows that lie inside lo
// through last and meet no such window are merged exactly from their
// partial (MergeWhole).
func (s *Spec) Cuts(lo, last int64) bool {
	if !s.Filter.HasVT {
		return false
	}
	first, final, wlo, whi, ok := s.clampWindows()
	if !ok {
		return false
	}
	a, b := max(floorDiv(lo, s.Width), first), min(floorDiv(last, s.Width), final)
	return a <= b && (a < wlo || b > whi)
}

// mergeWindows merges p's cells in windows [lo, hi] all or nothing, as Merge.
func (a *ColAgg) mergeWindows(p *Partial, lo, hi int64) bool {
	na := len(a.spec.Aggs)
	dst := a.dst[:0]
	for i, wi := range p.idx {
		var row []cell
		if wi >= lo && wi <= hi {
			if row = a.ac.cells[wi]; row != nil && !mergeable(row, p.cells[i*na:(i+1)*na]) {
				clear(dst)
				return false
			}
		}
		dst = append(dst, row)
	}
	a.dst = dst
	for i, wi := range p.idx {
		if wi < lo || wi > hi {
			continue
		}
		row := dst[i]
		if row == nil {
			row = a.ac.newRow()
			a.ac.cells[wi] = row
		}
		// Cannot fail: mergeable just held for every row.
		_ = mergeCells(row, p.cells[i*na:(i+1)*na], a.spec.Aggs)
	}
	clear(dst) // hold no rows past the call
	return true
}

// exactRow reports whether a row's cells merge exactly (see Cells).
func exactRow(row []cell) bool {
	for ci := range row {
		c := &row[ci]
		if c.mode == sumFloat {
			return false
		}
		if f, ok := c.ext.FloatVal(); ok && math.IsNaN(f) {
			return false
		}
	}
	return true
}

// WindowRun is the windows Lo through Hi, inclusive, by index: window i
// covers valid time [i·Width, (i+1)·Width).
type WindowRun struct{ Lo, Hi int64 }

// Cells copies the accumulated cells out as a Partial in window order: what
// the fold computed, before the window mode — the cells a later fold may
// merge (Merge), a later execution may start from (Splice) and emit
// (Partial.Emit). It reports false, and copies nothing, when merging them
// later could differ from folding the same rows in arrival order, the order
// both engines fix: a float sum lane (float addition is not associative) or
// a NaN extreme (NaN compares equal to everything, so which value survives
// depends on what it met first). Integer sums, counts and strictly compared
// extremes merge exactly.
func (a *ColAgg) Cells() (*Partial, bool) {
	na := len(a.spec.Aggs)
	p := &Partial{idx: make([]int64, 0, len(a.ac.cells))}
	for wi, row := range a.ac.cells {
		if !exactRow(row) {
			return nil, false
		}
		p.idx = append(p.idx, wi)
	}
	slices.Sort(p.idx)
	p.cells = make([]cell, 0, len(p.idx)*na)
	for _, wi := range p.idx {
		p.cells = append(p.cells, a.ac.cells[wi]...)
	}
	return p, true
}

// Splice returns, in window order, the cells of base — cells in window order
// — with every window of runs (ascending, disjoint) replaced by what the
// state holds there, which must be all it holds: the cells of a fold whose
// runs were folded again. exact reports whether those it took from the
// state are exact (Cells); the result holds them either way.
func (a *ColAgg) Splice(base *Partial, runs []WindowRun) (cells *Partial, exact bool) {
	na := len(a.spec.Aggs)
	fresh := make([]int64, 0, len(a.ac.cells))
	for wi := range a.ac.cells {
		fresh = append(fresh, wi)
	}
	slices.Sort(fresh)
	n := len(base.idx) + len(fresh)
	out := &Partial{idx: make([]int64, 0, n), cells: make([]cell, 0, n*na)}
	exact = true
	take := func(wi int64) {
		row := a.ac.cells[wi]
		exact = exact && exactRow(row)
		out.idx = append(out.idx, wi)
		out.cells = append(out.cells, row...)
	}
	j, r := 0, 0
	for i, wi := range base.idx {
		for r < len(runs) && runs[r].Hi < wi {
			r++
		}
		if r < len(runs) && runs[r].Lo <= wi {
			continue // folded again
		}
		for ; j < len(fresh) && fresh[j] < wi; j++ {
			take(fresh[j])
		}
		out.idx = append(out.idx, wi)
		out.cells = append(out.cells, base.cells[i*na:(i+1)*na]...)
	}
	for ; j < len(fresh); j++ {
		take(fresh[j])
	}
	return out, exact
}

// Windows reports how many windows the state populates.
func (a *ColAgg) Windows() int { return len(a.ac.cells) }

// Windows reports how many windows the partial populates.
func (p *Partial) Windows() int { return len(p.idx) }

// Emit materializes cells in window order (Cells, Splice) under spec's
// window mode, as ColAgg.ResultCtx does the state they were taken from.
func (p *Partial) Emit(ctx context.Context, spec *Spec) (*AggResult, error) {
	na := len(spec.Aggs)
	rows := make([][]cell, len(p.idx))
	for i := range rows {
		rows[i] = p.cells[i*na : (i+1)*na : (i+1)*na]
	}
	return emitRows(ctx, spec, p.idx, rows, true)
}

// validSpan is the element's half-open valid extent: events are the
// single chronon [vt, vt+1), intervals their own [start, end).
func validSpan(e *element.Element) (int64, int64) {
	if c, ok := e.VT.Event(); ok {
		return int64(c), int64(c) + 1
	}
	return int64(e.VT.Start()), int64(e.VT.End())
}
