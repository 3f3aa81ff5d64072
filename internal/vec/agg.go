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

// AggCall is one aggregate in a query's select list. Get extracts the
// aggregated column from an element; nil means COUNT(*).
type AggCall struct {
	Kind AggKind
	Col  string
	Get  func(*element.Element) element.Value
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
// deterministic, differential-testable answer.
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

// AggResult is the computed windows in ascending window order. Window i
// covers valid time [Start[i], End[i]) and Vals[i] holds one value per
// AggCall.
type AggResult struct {
	Start []int64
	End   []int64
	Vals  [][]element.Value
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
		a := &aggs[ai]
		c := &cells[ai]
		if a.Get == nil { // COUNT(*)
			c.n++
			continue
		}
		v := a.Get(e)
		if v.IsNull() {
			continue
		}
		switch a.Kind {
		case AggCount:
			c.n++
		case AggSum:
			switch v.Kind() {
			case element.KindInt:
				if c.mode == sumFloat {
					return fmt.Errorf("vec: sum(%s) over mixed int and float values", a.Col)
				}
				c.mode = sumInt
				i, _ := v.IntVal()
				c.si += i
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
				continue
			}
			if v.Kind() != c.ext.Kind() {
				return fmt.Errorf("vec: %s(%s) over mixed %v and %v values",
					a.Kind, a.Col, c.ext.Kind(), v.Kind())
			}
			if d := v.Compare(c.ext); (a.Kind == AggMin && d < 0) || (a.Kind == AggMax && d > 0) {
				c.ext = v
			}
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
// window index. ColAgg's folds (ConsumeRows, Consume) additionally memoize
// the last window row — vt-ordered input lands runs of consecutive rows in the same
// window, turning most map lookups into a pointer compare; the reference
// engine does not.
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
	if wHi-wLo+1 > MaxWindows {
		return fmt.Errorf("vec: element spans %d windows (max %d); narrow the window or add a WHEN clamp",
			wHi-wLo+1, MaxWindows)
	}
	for wi := wLo; wi <= wHi; wi++ {
		if err := updateCells(ac.row(wi), ac.spec.Aggs, e); err != nil {
			return err
		}
	}
	return nil
}

// emitCheckEvery is how many rows emit produces between cancellation
// checks: a rolling or cumulative result may span MaxWindows rows.
const emitCheckEvery = 1024

// emit materializes the populated windows into the result, applying the
// window mode. Both engines share it, so engine equality reduces to
// per-window cell equality. Its allocations do not grow with the number of
// windows: the values are finalized into one slab, and rolling and
// cumulative rows are merged into one scratch row. It polls ctx every
// emitCheckEvery rows.
func (ac *accum) emit(ctx context.Context) (*AggResult, error) {
	res := &AggResult{}
	if len(ac.cells) == 0 {
		return res, nil
	}
	idxs := make([]int64, 0, len(ac.cells))
	for wi := range ac.cells {
		idxs = append(idxs, wi)
	}
	slices.Sort(idxs)
	first, last := idxs[0], idxs[len(idxs)-1]
	if last-first+1 > MaxWindows {
		return nil, fmt.Errorf("vec: result spans %d windows (max %d); narrow the window or add a WHEN clamp",
			last-first+1, MaxWindows)
	}
	rows := make([][]cell, len(idxs)) // the populated rows in window order
	for i, wi := range idxs {
		rows[i] = ac.cells[wi]
	}
	n := len(idxs)
	if ac.spec.WKind != Tumbling {
		n = int(last - first + 1)
	}
	w := ac.spec.Width
	aggs := ac.spec.Aggs
	na := len(aggs)
	vals := make([]element.Value, n*na)
	res.Start, res.End, res.Vals = make([]int64, 0, n), make([]int64, 0, n), make([][]element.Value, 0, n)
	push := func(start, end int64, cells []cell) error {
		i := len(res.Start)
		if i%emitCheckEvery == emitCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		out := vals[i*na : (i+1)*na : (i+1)*na]
		finalize(out, cells, aggs)
		res.Start = append(res.Start, start)
		res.End = append(res.End, end)
		res.Vals = append(res.Vals, out)
		return nil
	}
	switch ac.spec.WKind {
	case Tumbling:
		for i, wi := range idxs {
			if err := push(wi*w, (wi+1)*w, rows[i]); err != nil {
				return nil, err
			}
		}
	case Rolling:
		// One row per base window in [first, last]; each aggregates the
		// populated windows among the K ending there, rows[lo:hi], merged
		// in ascending order; the row's span is the extent.
		k := ac.spec.K
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
		return nil, fmt.Errorf("vec: unknown window kind %v", ac.spec.WKind)
	}
	return res, nil
}

// RowAggregate is the reference engine over one materialized slice of
// elements in arrival order; see RowAggregateRuns.
func RowAggregate(ctx context.Context, spec *Spec, elems []*element.Element) (*AggResult, error) {
	return RowAggregateRuns(ctx, spec, element.Slice(elems))
}

// RowAggregateRuns is the reference engine: row-at-a-time over elements in
// arrival order, taken a run at a time so a store is folded where it lies,
// using the elements' own predicate methods; it polls for cancellation
// between runs. The differential harness holds the query engine's fold
// (ColAgg.ConsumeRows) to its answers.
func RowAggregateRuns(ctx context.Context, spec *Spec, runs element.Runs) (*AggResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ac := newAccum(spec)
	if err := runs.Do(ctx, func(run []*element.Element) error { return ac.addRows(run, false) }); err != nil {
		return nil, err
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
	if wHi-wLo+1 > MaxWindows {
		return fmt.Errorf("vec: element spans %d windows (max %d); narrow the window or add a WHEN clamp",
			wHi-wLo+1, MaxWindows)
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
		if spec.Aggs[i].Get != nil {
			starOnly = false
			break
		}
	}
	return &ColAgg{spec: spec, ac: newAccum(spec), sel: make([]int32, 0, BatchSize), starOnly: starOnly}, nil
}

// Consume folds one batch into the aggregation state. The query engine
// folds rows (ConsumeRows); Consume stays for the benchmark module's
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
// where they lie, with RowAggregateRuns' filter and the hot-window memo
// Consume uses: the fold of a chunk the caller has no partial for.
// The cells are bit-identical to the reference engine's.
func (a *ColAgg) ConsumeRows(rows []*element.Element, stats *ExecStats) error {
	stats.Rows += int64(len(rows))
	return a.ac.addRows(rows, true)
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
// accumulator cells of every window it populated, before any window mode
// is applied — so tumbling, rolling and cumulative queries over the same
// width, aggregates and predicate share it. It is immutable once exported
// and may be merged into any number of later folds.
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

// Export copies the accumulated cells out as a Partial. It reports false
// when merging them later could differ from folding the same rows in
// arrival order, the order both engines fix: a float sum lane (float
// addition is not associative) or a NaN extreme (NaN compares equal to
// everything, so which value survives depends on what it met first).
// Integer sums, counts and strictly compared extremes merge exactly.
func (a *ColAgg) Export() (*Partial, bool) {
	na := len(a.spec.Aggs)
	p := &Partial{
		idx:   make([]int64, 0, len(a.ac.cells)),
		cells: make([]cell, 0, len(a.ac.cells)*na),
	}
	for wi, row := range a.ac.cells {
		for ci := range row {
			c := &row[ci]
			if c.mode == sumFloat {
				return nil, false
			}
			if f, ok := c.ext.FloatVal(); ok && math.IsNaN(f) {
				return nil, false
			}
		}
		p.idx = append(p.idx, wi)
		p.cells = append(p.cells, row...)
	}
	return p, true
}

// Merge folds p into the state exactly as consuming the rows behind it at
// this point would have. It reports false, having changed nothing, when
// some lane of p cannot combine with what is accumulated (an integer sum
// meeting a float one, extremes of different kinds): the caller then
// consumes those rows itself, which fails on the same row with the same
// text as the row engine.
func (a *ColAgg) Merge(p *Partial) bool {
	na := len(a.spec.Aggs)
	dst := a.dst[:0]
	for i, wi := range p.idx {
		row := a.ac.cells[wi]
		if row != nil && !mergeable(row, p.cells[i*na:(i+1)*na]) {
			return false
		}
		dst = append(dst, row)
	}
	a.dst = dst
	for i, wi := range p.idx {
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

// validSpan is the element's half-open valid extent: events are the
// single chronon [vt, vt+1), intervals their own [start, end).
func validSpan(e *element.Element) (int64, int64) {
	if c, ok := e.VT.Event(); ok {
		return int64(c), int64(c) + 1
	}
	return int64(e.VT.Start()), int64(e.VT.End())
}
