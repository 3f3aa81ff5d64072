package catalog

// Idempotency dedup window. Transaction time is system-assigned and
// append-only, so a blind retry of an acknowledged mutation would mint a
// second event and silently break declared specializations (globally
// sequential ordering, for one). Mutations therefore may carry an
// idempotency key; the key is framed into the mutation's WAL record, and
// each relation remembers a bounded window of recently applied keys with
// the surrogate of the element the original transaction produced. A retry
// bearing a known key returns that element — the relation's version of it,
// as it was inserted — without logging or applying anything, after waiting
// for the original frame to be durable. The window holds no element: a
// stored version lives in the store alone, which may seal it into columns
// (storage/columns.go), and the window must not keep the old elements alive
// beside them.
//
// A batch carries one key for all its elements: item i's identity is
// (key, i). Its window entry is the batch's — its unit count and body
// digest, which a replay must match, and the units it stored with their
// elements' surrogates — so a replayed batch is answered from one entry, and the
// window reaches 256 times further in batches of 256 than it did when
// every element brought a key of its own. A request that still carries a
// key per element (the compatibility path, kind-10 frames) files one
// entry per key, as it always did.
//
// The window is rebuilt from the WAL on boot (keyed records repopulate it
// during replay), so retries survive a crash between the original ack and
// the retry. Its lifetime is bounded twice over: a generation closes at
// dedupWindowCap entries or when its batch entries hold dedupWindowElems
// elements, whichever comes first, and no entry is forgotten before a
// whole generation of newer ones (at most two generations are held); and
// implicitly by WAL truncation — a snapshot that truncates the log also
// ends the window's crash recoverability for the truncated prefix.
// Clients whose retry horizon is seconds sit comfortably inside both
// bounds.

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
)

// dedupWindowCap is the generation size in entries: how many keys a
// relation always remembers.
const dedupWindowCap = 4096

// dedupWindowElems is the generation size in elements: how many stored
// elements its batch entries may name before it closes. It bounds the
// window's memory by what it holds, not by its entries alone — a body at
// the server's default 1 MiB cap carries at most ≈ 55,000 elements — and
// reaches 256 batches of 256. A batch larger than the budget (a raised
// body cap, or the catalog API; the WAL frame bounds it) fills a
// generation by itself.
const dedupWindowElems = 1 << 16

// dedupOp tags which operation a key was first used for; a key reused
// across operation kinds is a client bug and is rejected.
type dedupOp uint8

const (
	dedupInsert dedupOp = iota
	dedupDelete
	dedupModify
	dedupBatch // a batch under one key
)

func (o dedupOp) String() string {
	switch o {
	case dedupInsert:
		return "insert"
	case dedupDelete:
		return "delete"
	case dedupModify:
		return "modify"
	case dedupBatch:
		return "batch"
	}
	return "unknown"
}

// dedupHit is what the window remembers per key: the operation kind,
// the surrogate of the element the original transaction returned (None for
// deletes and batches), and the LSN of the frame that carried it — a retry
// waits on that LSN, so it never acknowledges ahead of the original's
// fsync. A batch key's entry is batch, an index into its generation's
// dedupBatches: it sits in what would be the op's padding, so a single
// operation's entry is no larger for it.
type dedupHit struct {
	op    dedupOp
	batch uint32
	es    surrogate.Surrogate
	lsn   uint64
}

// batchEntry is one batch key's entry: the unit count and body digest a
// replay must carry, and where the stored units sit in the generation's
// arenas — their surrogates from es, and, when the batch did not store
// every unit, their indexes from idx.
type batchEntry struct {
	n, digest uint32
	stored    uint32
	es, idx   uint32
}

// dedupBatches is one generation's batch entries, with the stored units'
// surrogates and indexes of all of them in two arenas that are emptied,
// not freed, when the generation is: a churning window allocates nothing.
// gone keeps, as inserted, the remembered elements a vacuum removed from
// the relation (keepVacuumed), for as long as the generation lasts.
type dedupBatches struct {
	entries []batchEntry
	es      []surrogate.Surrogate
	idx     []uint32
	gone    map[surrogate.Surrogate]*element.Element
}

func (b *dedupBatches) reset() {
	b.entries, b.es, b.idx, b.gone = b.entries[:0], b.es[:0], b.idx[:0], nil
}

// dedupWindow is a key → original-result map in two generations: keys go
// into cur, and when cur is full it becomes prev and the old prev,
// cleared, is the new cur. A key is forgotten only with a whole
// generation, so nothing is deleted key by key, a lookup probes two maps
// at most, and once both exist nothing is allocated again. Live apply
// and replay remember keys through the same calls in the same order, so
// they build the same two generations. It is accessed only under the
// owning relation's exclusive lock (mutations and WAL replay both hold
// it), so it needs no lock of its own.
type dedupWindow struct {
	cur, prev   map[string]dedupHit
	curB, prevB dedupBatches // the batch entries of cur and prev
}

func (w *dedupWindow) lookup(key string) (dedupHit, bool) {
	if h, ok := w.cur[key]; ok {
		return h, true
	}
	h, ok := w.prev[key]
	return h, ok
}

// open readies cur for one more entry that pins elems elements, closing
// it first when it is full by either measure.
func (w *dedupWindow) open(elems int) {
	switch {
	case w.cur == nil:
		w.cur = make(map[string]dedupHit, dedupWindowCap)
		return
	case len(w.cur) < dedupWindowCap && (len(w.curB.es) == 0 || len(w.curB.es)+elems <= dedupWindowElems):
		return
	}
	w.prev, w.cur = w.cur, w.prev
	w.prevB, w.curB = w.curB, w.prevB
	if w.cur == nil {
		w.cur = make(map[string]dedupHit, dedupWindowCap)
	} else {
		clear(w.cur)
	}
	w.curB.reset()
}

// remember files key in the current generation with the surrogate of the
// element it answers with (None for a delete). The caller has looked it up
// and missed, or is replaying a frame that did: there is nothing to probe
// for first.
func (w *dedupWindow) remember(key string, op dedupOp, es surrogate.Surrogate, lsn uint64) {
	w.open(0)
	w.cur[key] = dedupHit{op: op, es: es, lsn: lsn}
}

// rememberBatch files a batch mutation's one key: its count and digest,
// and the surrogates of the elements its records inserted, which are its
// stored units in unit order.
func (w *dedupWindow) rememberBatch(m *mutation, lsn uint64) {
	w.open(len(m.recs))
	b := &w.curB
	w.cur[m.key] = dedupHit{op: dedupBatch, batch: uint32(len(b.entries)), lsn: lsn}
	b.entries = append(b.entries, batchEntry{n: m.n, digest: m.digest, stored: uint32(len(m.recs)),
		es: uint32(len(b.es)), idx: uint32(len(b.idx))})
	for _, rec := range m.recs {
		b.es = append(b.es, rec.Elem.ES)
	}
	b.idx = append(b.idx, m.stored...)
}

// generation is the batch entries of the generation key is filed in.
func (w *dedupWindow) generation(key string) *dedupBatches {
	if _, ok := w.cur[key]; ok {
		return &w.curB
	}
	return &w.prevB
}

// batchOf is the entry a batch key's hit names, and the stored units'
// surrogates and indexes it points at (idx nil when every unit was stored).
func (w *dedupWindow) batchOf(key string, h dedupHit) (b batchEntry, es []surrogate.Surrogate, idx []uint32) {
	g := w.generation(key)
	b = g.entries[h.batch]
	es = g.es[b.es : b.es+b.stored]
	if b.stored < b.n {
		idx = g.idx[b.idx : b.idx+b.stored]
	}
	return b, es, idx
}

// inserted rebuilds the answer of key's original transaction from the
// surrogates it remembers: each element as it was inserted — the
// relation's version with its tt⊣ reopened, or the copy a vacuum left in
// the generation — byte for byte what the transaction returned.
func (w *dedupWindow) inserted(r *relation.Relation, key string, es []surrogate.Surrogate) []*element.Element {
	out := r.Inserted(es)
	for i, el := range out {
		if el == nil {
			out[i] = w.generation(key).gone[es[i]]
		}
	}
	return out
}

// elemOf is the element a single operation's hit answers with, nil for a
// delete.
func (w *dedupWindow) elemOf(r *relation.Relation, key string, h dedupHit) *element.Element {
	if h.es == surrogate.None {
		return nil
	}
	return w.inserted(r, key, []surrogate.Surrogate{h.es})[0]
}

// keepVacuumed copies, as inserted, every remembered element that a vacuum
// to horizon is about to remove from r — closed at or before it — into its
// generation's gone, so that a replay answers as before the vacuum. It
// runs before the vacuum, under the same lock: it reads one tt⊣ a
// remembered element, and materializes only the ones the vacuum removes.
func (w *dedupWindow) keepVacuumed(r *relation.Relation, horizon chronon.Chronon) {
	for _, gen := range []struct {
		hits map[string]dedupHit
		b    *dedupBatches
	}{{w.cur, &w.curB}, {w.prev, &w.prevB}} {
		var gone []surrogate.Surrogate
		keep := func(es surrogate.Surrogate) {
			if end, ok := r.TTEndOf(es); ok && end != chronon.Forever && end <= horizon {
				gone = append(gone, es)
			}
		}
		for _, h := range gen.hits {
			if h.es != surrogate.None {
				keep(h.es)
			}
		}
		for _, es := range gen.b.es {
			keep(es)
		}
		if len(gone) == 0 {
			continue
		}
		if gen.b.gone == nil {
			gen.b.gone = make(map[surrogate.Surrogate]*element.Element, len(gone))
		}
		for i, el := range r.Inserted(gone) {
			gen.b.gone[gone[i]] = el
		}
	}
}

// notStoredCause is what a replayed batch reports for a unit its original
// did not store. The original's cause is not kept: the frame carries only
// what was stored, and the answer must be the same after a reboot.
const notStoredCause = "catalog: not stored when this batch was first applied"

// answerBatch answers a replay of the batch one from the window entry hit
// and r: each unit the original stored comes back deduped with its
// original element, rebuilt (inserted), every other rejected with
// notStoredCause. A key first used for something else, or for a batch of
// another count or body, is refused with ErrIdemReuse and answers nothing.
func (w *dedupWindow) answerBatch(r *relation.Relation, one oneKey, hit dedupHit, items []BatchItemResult) error {
	if hit.op != dedupBatch {
		return fmt.Errorf("%w: %q first used for %s", ErrIdemReuse, one.key, hit.op)
	}
	b, es, idx := w.batchOf(one.key, hit)
	if b.n != one.n || b.digest != one.digest {
		return fmt.Errorf("%w: %q first used for a batch of %d elements (digest %08x), not for this one of %d (digest %08x)",
			ErrIdemReuse, one.key, b.n, b.digest, one.n, one.digest)
	}
	elems := w.inserted(r, one.key, es)
	if idx == nil {
		for i, el := range elems {
			items[i] = BatchItemResult{Status: BatchDeduped, Elem: el}
		}
		return nil
	}
	for i := range items {
		items[i] = BatchItemResult{Status: BatchRejected, Err: notStoredCause}
	}
	for j, i := range idx {
		items[i] = BatchItemResult{Status: BatchDeduped, Elem: elems[j]}
	}
	return nil
}

// maxIdemKeyLen bounds a key at the protocol level; longer keys are
// rejected before they reach the WAL frame.
const maxIdemKeyLen = 255
