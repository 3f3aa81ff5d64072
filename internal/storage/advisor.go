package storage

import (
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/plan"
)

// Advice is the advisor's physical-design recommendation for a relation
// with the given specializations. Source records what licensed the choice:
// "declared" (a declaration promises the ordering, the store may enforce
// it), "inferred" (only the observed extension exhibits it — sound for the
// data already stored, revocable by a future insert), or "default" (no
// specialization helped; the general organization won on cost alone).
type Advice struct {
	Store   Kind
	Reasons []string
	Source  string
}

// Advice sources.
const (
	SourceDeclared = "declared"
	SourceInferred = "inferred"
	SourceDefault  = "default"
)

// New instantiates the advised store.
func (a Advice) New() Store {
	switch a.Store {
	case TTOrdered, VTOrdered:
		return &RunStore{seq{kind: a.Store}}
	}
	return NewHeap()
}

// PlanOrg maps the storage kind onto the planner's organization
// vocabulary.
func (k Kind) PlanOrg() plan.Org {
	switch k {
	case TTOrdered:
		return plan.OrgTTLog
	case VTOrdered:
		return plan.OrgVTLog
	}
	return plan.OrgHeap
}

// adviseN is the representative relation size the advisor costs candidate
// organizations at. Any size large enough to separate logarithmic from
// linear access paths yields the same ranking.
const adviseN = 1 << 17

// nominalBoundSpan stands in for the (unknown at advise time) width of a
// declared offset bound's tt window: narrow enough that the pushdown beats
// a scan, wide enough that it never beats a true valid-time order.
const nominalBoundSpan = 1 << 10

// candidate is one physical organization the declarations license, with
// the paper's reasons for it.
type candidate struct {
	store    Kind
	reasons  []string
	bounded  bool // tt-window pushdown available (declared two-sided bound)
	inferred bool // licensed only by the observed extension, not a declaration
}

// mixCost prices the advisor's representative query mix — one historical
// time-slice plus one rollback — on the candidate via the shared planner,
// so the advice is derived from the very cost model the engine executes
// against and the two can never drift.
func (c candidate) mixCost() int {
	a := plan.Access{Org: c.store.PlanOrg(), N: adviseN}
	if c.bounded {
		a.HasOffsetBounds, a.OffsetLo, a.OffsetHi = true, 0, nominalBoundSpan
	}
	ts := plan.Build(a, plan.Query{Kind: plan.QTimeslice, VTLo: 0, VTHi: 1})
	rb := plan.Build(a, plan.Query{Kind: plan.QRollback})
	return ts.Leaf().Est + rb.Leaf().Est
}

// Advise maps declared specialization classes to a physical organization,
// following the paper's optimization remarks:
//
//   - A degenerate relation is append-only in a single shared order
//     (vt = tt), so one vt-ordered log serves every query kind (§3.1).
//   - A globally sequential or non-decreasing relation is entered in valid
//     time-stamp order, so the arrival log is simultaneously vt-ordered and
//     historical queries can binary-search it (§3.2). Interval relations
//     need sequentiality (non-overlap); mere non-decrease only orders the
//     starts, which suffices for events.
//   - Any other relation still benefits from the tt-ordered arrival log
//     for rollback queries, but valid-time queries must scan (or maintain
//     a separate index, whose cost the general design pays and the
//     specialized ones avoid).
//
// The declarations determine which organizations are sound; the choice
// among the sound ones is made by pricing a representative query mix with
// the planner's cost estimator (internal/plan), ties keeping the earlier,
// more specialized candidate. stampKind says whether the relation is
// event- or interval-stamped.
func Advise(classes []core.Class, stampKind element.TimestampKind) Advice {
	return AdviseAuto(classes, nil, stampKind)
}

// closure expands a class list into the set it implies: each class plus
// every generalization of it in the lattice.
func closure(classes []core.Class) map[core.Class]bool {
	has := make(map[core.Class]bool, len(classes))
	for _, c := range classes {
		has[c] = true
		for _, a := range core.Ancestors(c) {
			has[a] = true
		}
	}
	return has
}

// AdviseAuto is Advise with a second evidence channel: observed classes the
// extension tracker has verified hold for every element actually stored,
// without having been declared. Observed evidence licenses the same ordered
// organizations a declaration would — the data on hand provably satisfies
// the order — but it is weaker in two ways the result records: the advice is
// marked SourceInferred (a future insert may break the property, at which
// point the catalog re-advises and migrates back), and observed offset
// bounds never enable the tt-window pushdown, because a pushdown driven by
// a non-promise would silently miss out-of-bound elements.
func AdviseAuto(declared, observed []core.Class, stampKind element.TimestampKind) Advice {
	decl := closure(declared)
	has := closure(append(append([]core.Class{}, declared...), observed...))
	// spec builds the specialized candidate for the first rule that fires,
	// marking it inferred when no declaration licenses that rule's class.
	spec := func(c core.Class, reasons ...string) candidate {
		cand := candidate{store: VTOrdered, reasons: reasons, inferred: !decl[c]}
		if cand.inferred {
			cand.reasons = append(cand.reasons,
				"licensed by the observed extension, not a declaration (revocable)")
		}
		return cand
	}
	var cands []candidate
	// At most one rule licenses the vt-ordered log; the rule that fires
	// carries its own reasons.
	switch {
	case has[core.Degenerate]:
		cands = append(cands, spec(core.Degenerate,
			"degenerate: vt = tt, so the relation is append-only in a single shared order",
			"treat as a rollback relation; the tt log doubles as a vt index",
		))
	case stampKind == element.EventStamp && has[core.GloballySequentialEvents]:
		cands = append(cands, spec(core.GloballySequentialEvents,
			"globally sequential: valid time approximates transaction time",
			"append-only log supports historical as well as rollback queries",
		))
	case stampKind == element.EventStamp && has[core.GloballyNonDecreasingEvents]:
		cands = append(cands, spec(core.GloballyNonDecreasingEvents,
			"globally non-decreasing: elements arrive in valid time-stamp order",
		))
	case stampKind == element.IntervalStamp && has[core.GloballySequentialIntervals]:
		cands = append(cands, spec(core.GloballySequentialIntervals,
			"globally sequential intervals: non-overlapping and entered in order",
			"interval starts and ends are both non-decreasing; binary search is sound",
		))
	}
	// The general organizations are always sound: the tt-ordered arrival
	// log (with the pushdown when a two-sided bound is declared) and the
	// heap.
	general := candidate{store: TTOrdered, reasons: []string{
		"no valid-time ordering declared: valid-time queries must scan",
		"tt-ordered arrival log still accelerates rollback",
	}}
	if stampKind == element.EventStamp && decl[core.StronglyBounded] {
		general.bounded = true
		general.reasons = append(general.reasons,
			"two-sided bound declared: enable tt-window pushdown for valid-time queries (EnableBoundedPushdown)")
	}
	cands = append(cands, general, candidate{store: Heap})

	best := cands[0]
	bestCost := best.mixCost()
	for _, c := range cands[1:] {
		if cost := c.mixCost(); cost < bestCost {
			best, bestCost = c, cost
		}
	}
	source := SourceDefault
	switch {
	case best.inferred:
		source = SourceInferred
	case len(best.reasons) > 0 && best.store == VTOrdered, best.bounded:
		source = SourceDeclared
	}
	return Advice{Store: best.store, Reasons: best.reasons, Source: source}
}
