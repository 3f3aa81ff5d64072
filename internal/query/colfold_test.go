package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/surrogate"
	"repro/internal/vec"
)

// colFoldCase is one random history on the vt-ordered log and one statement
// over it, for the column fold's oracle: full chunks and a partial tail,
// all of them columns, some versions closed; event or interval stamps;
// invariant, varying and user-time columns of one kind each — int, float
// (NaN and −0 among them), string (a few distinct ones, so the arena shares
// them), bool or time — with nulls and, in some histories, values of a
// second kind, so that sums meet floats and extremes meet other kinds.
type colFoldCase struct {
	st    *storage.RunStore
	event bool
	spec  *vec.Spec
}

func newColFoldCase(rng *rand.Rand) colFoldCase {
	event := rng.Intn(2) == 0
	nInv, nVar, nUser := rng.Intn(3), 1+rng.Intn(2), rng.Intn(2)
	kinds := []element.ValueKind{element.KindInt, element.KindFloat, element.KindString, element.KindBool, element.KindTime}
	colKind := make([]element.ValueKind, nInv+nVar)
	for t := range colKind {
		colKind[t] = kinds[rng.Intn(len(kinds))]
		if rng.Intn(2) == 0 {
			colKind[t] = kinds[rng.Intn(2)] // numbers, twice as often
		}
	}
	mixed := 0.0
	if rng.Intn(3) == 0 {
		mixed = 0.02
	}
	strs := []string{"", "a", "bb", "sensor-1", "zz"}
	value := func(k element.ValueKind) element.Value {
		if rng.Float64() < 0.1 {
			return element.Null()
		}
		if rng.Float64() < mixed {
			// Mostly the other number kind, so that sums meet it.
			switch {
			case rng.Intn(3) == 0:
				k = kinds[rng.Intn(len(kinds))]
			case k == element.KindInt:
				k = element.KindFloat
			case k == element.KindFloat:
				k = element.KindInt
			}
		}
		switch k {
		case element.KindInt:
			return element.Int(int64(rng.Intn(2001) - 1000))
		case element.KindFloat:
			switch rng.Intn(50) {
			case 0:
				return element.Float(math.NaN())
			case 1:
				return element.Float(math.Copysign(0, -1))
			}
			return element.Float(rng.NormFloat64() * 100)
		case element.KindString:
			return element.String_(strs[rng.Intn(len(strs))])
		case element.KindBool:
			return element.Bool(rng.Intn(2) == 0)
		}
		return element.Time(chronon.Chronon(rng.Intn(10000)))
	}
	long := int64(50)
	if rng.Intn(4) == 0 {
		long = 1 << 20 // spans enough windows of a narrow width to trip the guard
	}
	st := storage.NewVTLog()
	n := (1+rng.Intn(4))*vec.BatchSize + rng.Intn(40)
	vt, end := int64(rng.Intn(100)-50), chronon.Chronon(math.MinInt64)
	for i := 0; i < n; i++ {
		vt += int64(rng.Intn(4))
		e := &element.Element{
			ES: surrogate.Surrogate(i + 1), OS: surrogate.Surrogate(1 + rng.Intn(5)),
			TTStart: chronon.Chronon(i + 1), TTEnd: chronon.Forever,
			VT: element.EventAt(chronon.Chronon(vt)),
		}
		if !event {
			// Ends never decrease either: the log's order promises both.
			end = max(end, chronon.Chronon(vt+1+rng.Int63n(long)))
			if rng.Intn(200) == 0 {
				end = chronon.Forever
			}
			e.VT = element.SpanOf(chronon.Chronon(vt), end)
		}
		if nInv > 0 {
			e.Invariant = make([]element.Value, nInv)
			for t := range e.Invariant {
				e.Invariant[t] = value(colKind[t])
			}
		}
		e.Varying = make([]element.Value, nVar)
		for t := range e.Varying {
			e.Varying[t] = value(colKind[nInv+t])
		}
		if nUser > 0 {
			e.UserTimes = []chronon.Chronon{chronon.Chronon(rng.Intn(1000))}
		}
		if err := st.Insert(e); err != nil {
			panic(err)
		}
	}
	closes := []int64{0}
	for range rng.Intn(n / 4) {
		i := rng.Intn(n)
		if e := st.At(i); e.Current() {
			closed := *e
			closed.TTEnd = e.TTStart + 1 + chronon.Chronon(rng.Intn(n))
			st.ReplaceAt(i, &closed)
			closes = append(closes, int64(closed.TTEnd))
		}
	}
	// An AS OF time is as often as not one a version closed at, where
	// presence ends.
	asOf := func() int64 {
		if rng.Intn(2) == 0 {
			return closes[rng.Intn(len(closes))]
		}
		return int64(rng.Intn(2 * n))
	}

	// Two columns in three are values; the rest are pseudo-columns and
	// user times.
	var values, others []vec.ColRef
	for t := range nInv {
		values = append(values, vec.ColRef{Src: vec.ColInvariant, Slot: t})
	}
	for t := range nVar {
		values = append(values, vec.ColRef{Src: vec.ColVarying, Slot: t})
	}
	for src := vec.ColES; src <= vec.ColVTEnd; src++ {
		others = append(others, vec.ColRef{Src: src})
	}
	if nUser > 0 {
		others = append(others, vec.ColRef{Src: vec.ColUser})
	}
	ref := func() vec.ColRef {
		if rng.Intn(3) == 0 {
			return others[rng.Intn(len(others))]
		}
		return values[rng.Intn(len(values))]
	}
	spec := &vec.Spec{Width: []int64{1, 1 + rng.Int63n(50), 100 + rng.Int63n(5000), 1 << 20}[rng.Intn(4)]}
	switch rng.Intn(3) {
	case 1:
		spec.WKind, spec.K = vec.Rolling, 1+rng.Int63n(5)
	case 2:
		spec.WKind = vec.Cumulative
	}
	if spec.WKind != vec.Tumbling && spec.Width < 10 {
		spec.Width = 10 // keep most emitted ranges under the guard
	}
	if long == 1<<20 && rng.Intn(2) == 0 {
		spec.Width = 1 // an element spans more than MaxWindows windows
	}
	for range 1 + rng.Intn(4) {
		call := vec.AggCall{Kind: vec.AggKind(rng.Intn(4))}
		if call.Kind != vec.AggCount || rng.Intn(2) == 0 {
			call.Ref = ref()
			call.Col = fmt.Sprint("c", call.Ref.Src, call.Ref.Slot)
		}
		spec.Aggs = append(spec.Aggs, call)
	}
	switch rng.Intn(5) {
	case 1:
		spec.Filter.AsOf, spec.Filter.TT = true, asOf()
	case 2, 3:
		lo := vt - rng.Int63n(vt+100) // anywhere from before the first vt on
		spec.Filter.HasVT, spec.Filter.VTLo, spec.Filter.VTHi = true, lo, lo+rng.Int63n(2000)
	case 4:
		spec.Filter.AsOf, spec.Filter.TT = true, asOf()
		spec.Filter.HasVT, spec.Filter.VTLo, spec.Filter.VTHi = true, 20, 21-rng.Int63n(3) // one chronon, empty or inverted
	}
	switch rng.Intn(4) {
	case 1: // a value predicate through a column reference
		ref, kind := ref(), rng.Intn(3)
		spec.Residual = func(e *element.Element) (bool, error) {
			v := ref.Of(e)
			switch kind {
			case 0:
				return !v.IsNull(), nil
			case 1:
				return v.Word()%3 != 0, nil
			}
			return len(v.String())%2 == 0, nil
		}
	case 2: // a predicate that fails at one version
		bad := surrogate.Surrogate(1 + rng.Intn(n))
		spec.Residual = func(e *element.Element) (bool, error) {
			if e.ES == bad {
				return false, fmt.Errorf("residual fails at %v", e.ES)
			}
			return e.ES%2 == 0, nil
		}
	}
	return colFoldCase{st: st, event: event, spec: spec}
}

// checkColumnFold folds c's store chunk by chunk twice — every chunk, the
// partial tail included, from its columns (ConsumeCols), and from its
// elements materialized (ConsumeRows) — and requires the same error text,
// the same rows visited and the same cells bit for bit after every chunk;
// then the engine's fold, with no memo and with a cold and a warm one, to
// equal the definition. It reports how many full chunks it folded, and the
// error both folds stopped at.
func checkColumnFold(t testing.TB, c colFoldCase) (sealed int, stop error) {
	t.Helper()
	spec := c.spec
	// Each fold's state is compared through the statement's own window mode
	// and through tumbling windows, which emit every window's cells as they
	// are: a rolling or cumulative emit can fail on two states alike.
	tumbling := *spec
	tumbling.WKind, tumbling.K = vec.Tumbling, 0
	type pair struct {
		cols, rows *vec.ColAgg
		cs, rs     vec.ExecStats
	}
	var pairs [2]pair
	for i, sp := range []*vec.Spec{spec, &tumbling} {
		cols, err := vec.NewColAgg(sp)
		if err != nil {
			t.Fatal(err)
		}
		rows, _ := vec.NewColAgg(sp)
		pairs[i] = pair{cols: cols, rows: rows}
	}
	r := storage.NewBatchReader(c.st, c.event)
	for stop == nil {
		u, ok := r.Advance()
		if !ok {
			break
		}
		if u.Run >= 0 {
			sealed++
		}
		for i := range pairs {
			p := &pairs[i]
			cerr := p.cols.ConsumeCols(r.Cols(), &p.cs)
			rerr := p.rows.ConsumeRows(r.Rows(), &p.rs)
			if fmt.Sprint(cerr) != fmt.Sprint(rerr) {
				t.Fatalf("column fold's error %v, row fold's %v", cerr, rerr)
			}
			if p.cs.Rows != p.rs.Rows {
				t.Fatalf("column fold visited %d rows, row fold %d", p.cs.Rows, p.rs.Rows)
			}
			// The states agree after every chunk, and where an error
			// stopped both: the same slots were folded before it.
			cp, cExact := p.cols.Cells()
			rp, rExact := p.rows.Cells()
			if cExact != rExact || !reflect.DeepEqual(cp, rp) {
				t.Fatalf("cells differ: column fold's %+v (exact %v), row fold's %+v (exact %v)", cp, cExact, rp, rExact)
			}
			cres, cemit := p.cols.Result()
			rres, remit := p.rows.Result()
			if fmt.Sprint(cemit) != fmt.Sprint(remit) || !reflect.DeepEqual(cres, rres) {
				t.Fatalf("answers differ: column fold's %+v (%v), row fold's %+v (%v)", cres, cemit, rres, remit)
			}
			stop = rerr
		}
	}

	ctx := context.Background()
	want, wantErr := vec.RowAggregate(ctx, spec, storage.Elements(c.st))
	en := New(c.st, nil)
	node := plan.Build(en.Access(), plan.Query{Kind: plan.QCurrent})
	mc := newMemo(bigCache)
	for _, memo := range []*PartialMemo{nil, mc.exec(), mc.exec()} {
		got, _, err := en.AggregateCtx(ctx, node, spec, c.event, memo)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("engine (memo %v): %+v, %v; definition: %+v, %v", memo != nil, got, err, want, wantErr)
		}
	}
	return sealed, stop
}

// TestColumnFoldIsTheRowFold holds the fold of a sealed chunk from its
// columns to the fold of the same chunk materialized, cells and errors, on
// random histories and statements: every aggregate and window mode; current,
// AS OF and clamped filters, a clamp that cuts windows and an empty one;
// residuals, pseudo-columns and user times; mixed-kind sums and extremes and
// the MaxWindows guard.
func TestColumnFoldIsTheRowFold(t *testing.T) {
	sealed, stops := 0, map[string]int{}
	for seed := range 150 {
		n, err := checkColumnFold(t, newColFoldCase(rand.New(rand.NewSource(int64(seed)))))
		sealed += n
		for _, what := range []string{"mixed int and float", "mixed", "windows", "residual"} {
			if err != nil && strings.Contains(err.Error(), what) {
				stops[what]++
			}
		}
	}
	t.Logf("%d full chunks folded; stopped at errors %v", sealed, stops)
	// The histories reach what they are for: full chunks, and each kind of
	// error the folds must agree on.
	if sealed < 150 || stops["mixed"] == 0 || stops["mixed int and float"] == 0 || stops["windows"] == 0 || stops["residual"] == 0 {
		t.Fatalf("%d full chunks folded; stopped at errors %v", sealed, stops)
	}
}

// FuzzColumnFold is TestColumnFoldIsTheRowFold's oracle over the histories
// and statements the fuzzer's seeds generate.
func FuzzColumnFold(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkColumnFold(t, newColFoldCase(rand.New(rand.NewSource(seed))))
	})
}
