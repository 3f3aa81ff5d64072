package catalog

// Conditional reads (DESIGN §8). A validator names an epoch of one relation
// in one boot of one catalog. Whether an answer computed at that epoch still
// answers the same query now is not a question about the epoch but about
// what changed since: each publish records a summary of its change in a
// fixed ring on the entry, and Revalidate walks the summaries between the
// validator's epoch and the pinned view's against the query's footprint
// (plan.Query.Meets).

import (
	"cmp"
	"crypto/rand"
	"encoding/hex"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/vec"
)

// changeLogSize is how many publishes a relation's change log remembers: a
// validator at most this many epochs behind is revalidated by walking what
// changed since, an older one is answered afresh.
const changeLogSize = 256

// change summarizes one publish: the smallest transaction stamp its records
// carry and the valid-time hull [vtLo, vtLast] — inclusive, as a chunk's
// zone map — of every element they inserted or closed. noted is false until
// a record was summarized; a publish nobody summarized changed everything.
type change struct {
	minTT, vtLo, vtLast int64
	noted               bool
}

// everything is the change of a publish that is not a set of records — a
// declaration, a respecialize, a compaction, a vacuum, a repair, a boot: it
// meets every footprint.
var everything = change{minTT: math.MinInt64, vtLo: math.MinInt64, vtLast: math.MaxInt64, noted: true}

// note widens the summary by one record: its transaction stamp and the valid
// time of the element it inserted or closed.
func (c *change) note(tt chronon.Chronon, vt element.Timestamp) {
	lo, last := int64(vt.Start()), int64(vt.End()) // an event's End is the event
	if !vt.IsEvent() {
		last--
	}
	if !c.noted {
		*c = change{minTT: int64(tt), vtLo: lo, vtLast: last, noted: true}
		return
	}
	c.minTT, c.vtLo, c.vtLast = min(c.minTT, int64(tt)), min(c.vtLo, lo), max(c.vtLast, last)
}

// changeSlot is one summary in the log, tagged with the epoch it produced.
// The one writer (the exclusive lock's holder) clears the tag, writes the
// fields and sets the tag; a lock-free reader trusts the fields only when it
// finds its epoch's tag before and after reading them.
type changeSlot struct {
	epoch               atomic.Uint64
	minTT, vtLo, vtLast atomic.Int64
}

// changeLog is the ring of the last changeLogSize publishes' summaries,
// epoch ep in slot ep % changeLogSize. It lives in the entry and is written
// in place, so a publish allocates nothing for it.
type changeLog [changeLogSize]changeSlot

// record stores the change that produced epoch ep. Caller holds the
// exclusive lock and publishes the view of ep after it.
func (l *changeLog) record(ep uint64, c change) {
	s := &l[ep%changeLogSize]
	s.epoch.Store(0)
	s.minTT.Store(c.minTT)
	s.vtLo.Store(c.vtLo)
	s.vtLast.Store(c.vtLast)
	s.epoch.Store(ep)
}

// at reads the change that produced epoch ep; false when its slot has been
// taken by a later publish.
func (l *changeLog) at(ep uint64) (change, bool) {
	s := &l[ep%changeLogSize]
	if s.epoch.Load() != ep {
		return change{}, false
	}
	c := change{minTT: s.minTT.Load(), vtLo: s.vtLo.Load(), vtLast: s.vtLast.Load(), noted: true}
	return c, s.epoch.Load() == ep
}

// Validation is what revalidating an epoch against a footprint found.
type Validation uint8

// Validation outcomes. Same and Revalidated answer 304; Changed and Unknown
// compute the answer.
const (
	// ValidationUnknown: the validator is older than the change log, or not
	// this relation's in this boot of this catalog, so nothing is known.
	ValidationUnknown Validation = iota
	// ValidationSame: the validator names the current epoch.
	ValidationSame
	// ValidationRevalidated: epochs passed, and no change since the
	// validator's meets the footprint.
	ValidationRevalidated
	// ValidationChanged: a change since the validator's epoch meets the
	// footprint.
	ValidationChanged
)

func (v Validation) String() string {
	switch v {
	case ValidationSame:
		return "same"
	case ValidationRevalidated:
		return "revalidated"
	case ValidationChanged:
		return "changed"
	}
	return "unknown"
}

// NotModified reports whether the outcome lets the validator's answer stand.
func (v Validation) NotModified() bool { return v == ValidationSame || v == ValidationRevalidated }

// Revalidate reports whether an answer computed at epoch answers the query
// whose footprint is fp at the current epoch, which it returns: the
// validator a 304 hands back, so that the next revalidation walks from
// there. Lock-free: it pins the published view and reads the change log up
// to the view's epoch.
func (e *Entry) Revalidate(epoch uint64, fp plan.Query) (uint64, Validation) {
	v := e.view.Load()
	return v.epoch, e.revalidate(v, epoch, fp)
}

// revalidate walks the changes that produced the epochs after epoch up to
// the pinned view's.
func (e *Entry) revalidate(v *readView, epoch uint64, fp plan.Query) Validation {
	switch {
	case epoch == v.epoch:
		return ValidationSame
	case epoch > v.epoch || v.epoch-epoch > changeLogSize:
		return ValidationUnknown
	}
	for ep := epoch + 1; ep <= v.epoch; ep++ {
		c, ok := e.changes.at(ep)
		if !ok {
			return ValidationUnknown
		}
		if fp.Meets(c.minTT, c.vtLo, c.vtLast) {
			return ValidationChanged
		}
	}
	return ValidationRevalidated
}

// changedWindows returns the runs of width-w windows that the changes
// producing the epochs after epoch, up to the pinned view's, can have moved
// under f's valid-time clamp: each change's valid-time hull, clamped and
// rounded out to whole windows, the runs coalesced in ascending order into
// runs[:0]. Every window outside them holds at the view what it held at
// epoch. It reports false when that is not known, or not worth knowing: a
// change that is not a bounded set of records (everything), one the log no
// longer holds, or runs that cover more than half of the n windows an
// answer holds — a fold of everything then costs about as much.
func (e *Entry) changedWindows(v *readView, epoch uint64, f vec.Filter, w int64, n int, runs []vec.WindowRun) ([]vec.WindowRun, bool) {
	if epoch > v.epoch || v.epoch-epoch > changeLogSize {
		return nil, false
	}
	runs = runs[:0]
	for ep := epoch + 1; ep <= v.epoch; ep++ {
		c, ok := e.changes.at(ep)
		if !ok || c.vtLo == math.MinInt64 || c.vtLast == math.MaxInt64 {
			return nil, false
		}
		lo, last := c.vtLo, c.vtLast
		if f.HasVT {
			lo, last = max(lo, f.VTLo), min(last, f.VTHi-1)
		}
		if lo <= last {
			runs = append(runs, vec.WindowRun{Lo: vec.Window(lo, w), Hi: vec.Window(last, w)})
		}
	}
	slices.SortFunc(runs, func(a, b vec.WindowRun) int { return cmp.Compare(a.Lo, b.Lo) })
	out, changed := runs[:0], int64(0)
	for _, r := range runs {
		if k := len(out) - 1; k >= 0 && r.Lo <= out[k].Hi+1 {
			out[k].Hi = max(out[k].Hi, r.Hi)
		} else {
			out = append(out, r)
		}
	}
	for _, r := range out {
		if changed += r.Hi - r.Lo + 1; r.Hi-r.Lo >= int64(n) || 2*changed > int64(n) {
			return nil, false
		}
	}
	return out, true
}

// cached is the result cache's answer to the query fp, whose footprint is
// pq, on the pinned view v: the answer recorded at v's epoch, or one
// recorded at an earlier epoch that no change since meets. On a miss over
// an answer a change since meets, that answer comes back beside false.
func (e *Entry) cached(v *readView, fp string, pq plan.Query) (any, bool) {
	return e.cache.Answer(e.name, fp, v.epoch, func(at uint64) bool { return e.revalidate(v, at, pq).NotModified() })
}

// newLineage draws the token that tells this catalog's epochs from those of
// every other boot and node: epochs restart at each boot, so an epoch alone
// would let a validator from before a crash match a different state after it.
func newLineage() string {
	var b [8]byte
	_, _ = rand.Read(b[:]) // crypto/rand does not fail on the platforms Go supports
	return hex.EncodeToString(b[:])
}

// Lineage is this catalog's token for the validators it issues; a validator
// naming another lineage validates nothing here.
func (c *Catalog) Lineage() string { return c.lineage }
