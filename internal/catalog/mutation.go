package catalog

// The mutation pipeline (DESIGN §6). The paper models a relation as its
// backlog: transaction-stamped insert/delete records, a modification
// being a delete plus an insert at one transaction time. A mutation is
// exactly that, and the WAL frame is its encoding, so the live write
// path, boot recovery and follower apply are one codec and one apply:
//
//	live:   gate → dedup → stage → encode → journal → apply → publish → waitDurable   (commit)
//	replay: decode + leaf (a goroutine ahead) → watermark skip → apply, one publish per touched relation  (Catalog.replay)
//
// The frame on disk only ever carries records that were accepted, and the
// CRC admits a frame whole or drops it whole, so a batch can never replay
// as a prefix of itself.

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/backlog"
	"repro/internal/element"
	"repro/internal/integrity"
	"repro/internal/relation"
	"repro/internal/surrogate"
	"repro/internal/wal"
)

// mutation is one journaled change to a relation. kind is the frame
// kind the writer emits for it (walInsertKeyed, walDeleteKeyed,
// walModifyKeyed, walInsertBatchOneKey, or walInsertBatch for a batch
// whose request carries a key per element). The records form units of
// equal size — one record per unit, except a modify's delete+insert pair.
// In every kind but walInsertBatchOneKey there are len(keys) units and
// keys[j] is unit j's idempotency key ("" when unkeyed).
type mutation struct {
	kind wal.Kind
	keys []string
	// A walInsertBatchOneKey batch has one key for all its units, and
	// the indexes of the units it stored — nil when it stored all n; its
	// records are the stored units'.
	oneKey
	stored []uint32

	recs []relation.LogRecord
	// staged marks records produced by relation.Stage* under the lock
	// now held: already validated and stamped, their elements are the
	// relation's own. Decoded records came off disk or the wire and are
	// re-validated (relation.ApplyLog) as they apply; their elements were
	// allocated by the decode and pass to the relation with the apply.
	staged bool
}

// oneKey names a batch under one idempotency key ("" when unkeyed): the
// key, and the unit count and body digest a replay under it must match.
type oneKey struct {
	key       string
	n, digest uint32
}

// frameShapes describes each mutation kind: the operation its keys are
// remembered under, and the record ops of one keyed unit.
var frameShapes = [...]struct {
	op   dedupOp
	unit []relation.Op
}{
	walInsertKeyed: {dedupInsert, []relation.Op{relation.OpInsert}},
	walDeleteKeyed: {dedupDelete, []relation.Op{relation.OpDelete}},
	walModifyKeyed: {dedupModify, []relation.Op{relation.OpDelete, relation.OpInsert}},
	walInsertBatch: {dedupInsert, []relation.Op{relation.OpInsert}},
	// A one-key batch files its key whole (dedupWindow.rememberBatch),
	// under dedupBatch, not per unit.
	walInsertBatchOneKey: {dedupBatch, []relation.Op{relation.OpInsert}},
}

// frameUnitHint is the capacity a single-unit frame starts with: key span,
// length prefix and a record of a few attributes fit without growing.
const frameUnitHint = 128

// commitScratch is what commit keeps from one mutation to the next, so
// that a batch's bookkeeping allocates nothing: the set of keys seen in
// the mutation and the buffer its frame is encoded into.
type commitScratch struct {
	seen  map[string]struct{}
	frame []byte
}

// maxKeptKeys bounds the key set a relation keeps between commits, as
// wal.MaxKeptFrame bounds its frame buffer: a map never shrinks, so a
// mutation with more keys than this checks them in a set of its own.
const maxKeptKeys = 1024

// appendKey and appendRecord are the codec's two length-prefixed spans:
// u16 keyLen | key, and u32 recLen | backlog record.
func appendKey(out []byte, key string) []byte {
	out = binary.LittleEndian.AppendUint16(out, uint16(len(key)))
	return append(out, key...)
}

func appendRecord(out []byte, rec relation.LogRecord) []byte {
	at := len(out)
	out = backlog.AppendRecord(append(out, 0, 0, 0, 0), rec)
	binary.LittleEndian.PutUint32(out[at:], uint32(len(out)-at-4)) // back-patch the length
	return out
}

// encode frames the mutation for the WAL:
//
//	insert, delete   u16 keyLen | key | record
//	modify           u16 keyLen | key | u32 len | delete | u32 len | insert
//	batch (kind 10)  u32 count, then per element u16 keyLen | key | u32 len | record
//	batch (kind 11)  u16 keyLen | key | u32 n | u32 digest | u32 stored,
//	                 then u32 index per stored unit only when stored < n,
//	                 then per stored unit u32 len | record
//
// The key spans are what let replay rebuild the dedup window from the
// frames. The unkeyed kinds 3/4/5 (the same payloads without the key span)
// are decoded but never written: an unkeyed mutation is a keyed frame
// with an empty key, and an unkeyed batch a kind-11 frame with an empty
// key. Kind 10 is written only for a batch whose request carries a key
// per element.
func (m *mutation) encode(out []byte) ([]byte, error) {
	switch m.kind {
	case walInsertKeyed, walDeleteKeyed:
		out = backlog.AppendRecord(appendKey(slices.Grow(out, frameUnitHint), m.keys[0]), m.recs[0])
	case walModifyKeyed:
		out = appendRecord(appendRecord(appendKey(slices.Grow(out, 2*frameUnitHint), m.keys[0]), m.recs[0]), m.recs[1])
	case walInsertBatch, walInsertBatchOneKey:
		if m.kind == walInsertBatch {
			out = binary.LittleEndian.AppendUint32(out, uint32(len(m.recs)))
		} else {
			out = binary.LittleEndian.AppendUint32(appendKey(out, m.key), m.n)
			out = binary.LittleEndian.AppendUint32(out, m.digest)
			out = binary.LittleEndian.AppendUint32(out, uint32(len(m.recs)))
			for _, i := range m.stored {
				out = binary.LittleEndian.AppendUint32(out, i)
			}
		}
		head := len(out)
		for i, rec := range m.recs {
			if m.kind == walInsertBatch {
				out = appendKey(out, m.keys[i])
			}
			out = appendRecord(out, rec)
			if i == 0 {
				// Size the frame once, from its first unit: a batch's
				// elements share a schema, so its units are about as long,
				// and append absorbs whatever the margin does not.
				unit := len(out) - head
				out = slices.Grow(out, (len(m.recs)-1)*(unit+unit/4))
			}
		}
	default:
		return nil, fmt.Errorf("catalog: mutation kind %d has no frame", m.kind)
	}
	if len(out) > wal.MaxFrameBytes-64 {
		return nil, fmt.Errorf("catalog: mutation payload %d bytes exceeds the WAL frame bound; split the batch", len(out))
	}
	return out, nil
}

// takeKey and takeRecord split one span off the front of b. Frames come
// from disk or the wire, so no length is trusted ahead of the bytes
// backing it.
func takeKey(b []byte) (key string, rest []byte, err error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("truncated key length")
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if n > maxIdemKeyLen {
		return "", nil, fmt.Errorf("key length %d exceeds %d", n, maxIdemKeyLen)
	}
	if n > len(b) {
		return "", nil, fmt.Errorf("truncated key")
	}
	return string(b[:n]), b[n:], nil
}

func takeRecord(b []byte, slab *backlog.Slab) (rec relation.LogRecord, rest []byte, err error) {
	if len(b) < 4 {
		return rec, nil, fmt.Errorf("truncated record length")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n < 0 || n > len(b) {
		return rec, nil, fmt.Errorf("record length %d exceeds payload", n)
	}
	rec, err = slab.Decode(b[:n])
	return rec, b[n:], err
}

// decodeMutation parses any mutation frame, legacy unkeyed kinds
// included, into the form the writer would produce today. It rejects
// trailing bytes (a bit flip past the last record cannot hide) and
// records whose op contradicts the frame kind.
func decodeMutation(kind wal.Kind, b []byte) (mutation, error) {
	m := mutation{kind: kind, keys: []string{""}}
	var err error
	fail := func(err error) (mutation, error) {
		return mutation{}, fmt.Errorf("catalog: frame kind %d: %w", kind, err)
	}
	switch kind {
	case walInsert, walDelete, walModify:
		m.kind += walInsertKeyed - walInsert
	case walInsertKeyed, walDeleteKeyed, walModifyKeyed:
		if m.keys[0], b, err = takeKey(b); err != nil {
			return fail(err)
		}
	case walInsertBatch:
		if len(b) < 4 {
			return fail(fmt.Errorf("short batch payload"))
		}
		count := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		// Each element needs at least its two length prefixes; cap the
		// allocation by what the bytes can actually hold. The elements and
		// their values decode into one slab, sized by the bytes too.
		if count < 0 || count > len(b)/6+1 {
			return fail(fmt.Errorf("batch count %d exceeds payload", count))
		}
		m.keys = make([]string, count)
		m.recs = make([]relation.LogRecord, count)
		slab := backlog.NewSlab(count, len(b))
		for i := range m.recs {
			if m.keys[i], b, err = takeKey(b); err == nil {
				m.recs[i], b, err = takeRecord(b, slab)
			}
			if err != nil {
				return fail(fmt.Errorf("batch item %d: %w", i, err))
			}
		}
	case walInsertBatchOneKey:
		m.keys = nil
		if m.key, b, err = takeKey(b); err != nil {
			return fail(err)
		}
		if len(b) < 12 {
			return fail(fmt.Errorf("short batch header"))
		}
		m.n, m.digest = binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
		stored := int(binary.LittleEndian.Uint32(b[8:]))
		b = b[12:]
		// The writer journals only a batch that stored something. Each
		// stored unit needs at least its length prefix, so the bytes cap
		// what is allocated for them, the slab its records decode into
		// included.
		if stored == 0 || stored > int(m.n) || stored > len(b)/4 {
			return fail(fmt.Errorf("batch stores %d of %d units in %d bytes", stored, m.n, len(b)))
		}
		if stored < int(m.n) {
			if stored > len(b)/8 {
				return fail(fmt.Errorf("batch stores %d of %d units in %d bytes", stored, m.n, len(b)))
			}
			m.stored = make([]uint32, stored)
			for j := range m.stored {
				i := binary.LittleEndian.Uint32(b[4*j:])
				if i >= m.n || j > 0 && i <= m.stored[j-1] {
					return fail(fmt.Errorf("stored index %d out of order or past %d units", i, m.n))
				}
				m.stored[j] = i
			}
			b = b[4*stored:]
		}
		m.recs = make([]relation.LogRecord, stored)
		slab := backlog.NewSlab(stored, len(b))
		for i := range m.recs {
			if m.recs[i], b, err = takeRecord(b, slab); err != nil {
				return fail(fmt.Errorf("batch item %d: %w", i, err))
			}
		}
	default:
		return fail(fmt.Errorf("not a mutation"))
	}
	switch m.kind {
	case walInsertKeyed, walDeleteKeyed:
		m.recs = make([]relation.LogRecord, 1)
		m.recs[0], err = backlog.DecodeRecord(b)
		b = nil
	case walModifyKeyed:
		m.recs = make([]relation.LogRecord, 2)
		var own backlog.Slab
		if m.recs[0], b, err = takeRecord(b, &own); err == nil {
			m.recs[1], b, err = takeRecord(b, &own)
		}
	}
	if err != nil {
		return fail(err)
	}
	if len(b) != 0 {
		return fail(fmt.Errorf("trailing payload bytes"))
	}
	unit := frameShapes[m.kind].unit
	for i, rec := range m.recs {
		if rec.Op != unit[i%len(unit)] {
			return fail(fmt.Errorf("record %d carries op %d", i, rec.Op))
		}
	}
	return m, nil
}

// apply commits a mutation's records to the relation and everything
// derived from it — extension tracker, physical store, dedup window, the
// change summary the next publish records — under the exclusive lock. It is the only path by which a version
// enters or closes in memory. lsn is the frame's log position, kept with
// each remembered key so a retry can wait for the original's durability.
// apply never publishes: the live path publishes once per mutation,
// replay once per touched relation. A staged mutation cannot fail; a
// decoded one fails on the first record the relation refuses.
func (e *Entry) apply(r *relation.Relation, m *mutation, lsn uint64) error {
	shape := frameShapes[m.kind]
	per := len(shape.unit)
	for i, rec := range m.recs {
		var stored surrogate.Surrogate // the element the unit's key answers retries with
		el := rec.Elem                 // the element the record inserts or closes
		if rec.Op == relation.OpInsert {
			// A decoded element is adopted as the stored version (ApplyLog):
			// decodeMutation allocated it for this apply and nobody else
			// holds it. A staged one is the relation's own already. The
			// relation stores it in e.store whatever the label promised (an
			// order broken despite enforcement: a constraint declared on a
			// different endpoint, an intra-batch violation the pre-batch
			// guards could not see), so a broken promise is learned first.
			broken := e.store.Admits(el)
			if m.staged {
				r.CommitInsert(el)
			} else if _, _, err := r.ApplyLog(rec); err != nil {
				return err
			}
			e.tracker.Observe(el)
			if broken != nil {
				e.degrade(r, broken)
			}
			stored = el.ES
		} else if m.staged {
			// The close lands on a copy (copy-on-close) that the relation
			// swaps into e.store, so the live engine sees the finalized tt⊣
			// while pinned read views keep the open original — el, once a
			// decoded record has found it in the relation.
			r.CommitDelete(el, rec.TT)
		} else {
			var err error
			if el, _, err = r.ApplyLog(rec); err != nil {
				return err
			}
		}
		// A close is noted at the closed version's tt⊢, not at its own stamp:
		// it rewrites the tt⊣ that every rollback and as-of answer holding
		// the version prints, and the earliest of those is at its tt⊢.
		tt := rec.TT
		if rec.Op == relation.OpDelete {
			tt = min(tt, el.TTStart)
		}
		e.pending.note(tt, el.VT)
		if len(m.keys) > 0 && (i+1)%per == 0 {
			if key := m.keys[i/per]; key != "" {
				e.dedup.remember(key, shape.op, stored, lsn)
			}
		}
	}
	if m.key != "" {
		e.dedup.rememberBatch(m, lsn)
	}
	return nil
}

// journal is the only place a frame is written. The caller holds the
// lock that serializes the relation's writes (the shard lock for a
// create, the exclusive lock otherwise), so log order, watermark order
// and leaf order are all commit order. Without a WAL it is a no-op.
func (e *Entry) journal(kind wal.Kind, payload []byte) (uint64, error) {
	if e.cat.cfg.WAL == nil {
		return 0, nil
	}
	lsn, err := e.cat.cfg.WAL.Write(kind, e.name, payload)
	if err != nil {
		return 0, e.walErr(err)
	}
	var leaf integrity.Hash
	if e.tree != nil {
		leaf = integrity.FrameLeaf(lsn, kind, e.name, payload)
	}
	e.logged(lsn, leaf)
	return lsn, nil
}

// logged advances the relation's watermark past a frame and appends its
// Merkle leaf, which hashes the frame exactly as logged
// (integrity.FrameLeaf) — here at the write, off the lock ahead of the
// apply on replay — so the primary, boot replay and follower apply agree
// on every leaf.
func (e *Entry) logged(lsn uint64, leaf integrity.Hash) {
	e.walLSN.Store(lsn)
	e.appendLeaf(leaf)
}

// commit is the live write path of every mutation: one unit per key,
// staged by stage(r, i) — validated against the relation as of the
// mutation's start and transaction-stamped — then journaled as ONE frame,
// applied, and published as one epoch, all under a single exclusive-lock
// acquisition so the log's per-relation order is the commit order. No
// unit is stamped below the relation's last journaled transaction time,
// or below a unit staged before it (relation's stamp): the frame holds
// only what replay will redo. The acknowledgment waits, outside the lock,
// for the frame to be durable per the log's sync policy (concurrent
// committers share the group fsync); a failed wait surfaces as an error,
// and the log's fail-stop poisoning keeps the not-yet-durable tail out of
// every future snapshot.
//
// kind and keys name the mutation, and for a one-key batch one names its
// key, unit count and digest. Every key is looked up in the dedup window
// once, before anything is staged. A unit whose key the window remembers
// is answered with the original result, and a one-key batch the window
// remembers is answered whole from its entry (dedupWindow.answerBatch):
// no new record, no new event — but the same wait, on the original
// frame's LSN, because under group commit the original request may itself
// still be waiting for its fsync.
//
// A rejected unit (guard, validation, key reuse) is skipped and reported
// in its item; with atomic set the first rejection, in unit order, aborts
// the whole mutation before anything is journaled and is returned as the
// error. A single operation is an atomic batch of one. epoch is the
// relation's epoch after the call.
func (e *Entry) commit(ctx context.Context, kind wal.Kind, keys []string, one oneKey, atomic bool,
	stage func(r *relation.Relation, i int, recs []relation.LogRecord) ([]relation.LogRecord, error)) (items []BatchItemResult, epoch uint64, err error) {
	// Gate: refuse in read-only degraded mode, refuse oversized keys before
	// they reach the WAL frame, and stop before any work when the caller
	// has already given up.
	if err := e.writable(); err != nil {
		return nil, 0, err
	}
	units := len(keys)
	if kind == walInsertBatchOneKey {
		units = int(one.n)
	}
	for i, key := range keys {
		if len(key) > maxIdemKeyLen {
			return nil, 0, fmt.Errorf("catalog: idempotency key %d exceeds %d bytes", i, maxIdemKeyLen)
		}
	}
	if len(one.key) > maxIdemKeyLen {
		return nil, 0, fmt.Errorf("catalog: idempotency key exceeds %d bytes", maxIdemKeyLen)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	items = make([]BatchItemResult, units)
	var lsn uint64 // the newest frame this acknowledgment depends on
	err = e.locked.Exclusive(func(r *relation.Relation) error {
		// A one-key batch the window remembers is answered from its entry,
		// or refused whole.
		if one.key != "" {
			if hit, ok := e.dedup.lookup(one.key); ok {
				if err := e.dedup.answerBatch(r, one, hit, items); err != nil {
					return err
				}
				lsn, epoch = hit.lsn, e.Epoch()
				return nil
			}
		}
		// Dedup: one probe of the window per key. A unit the window answers
		// is done; a key first used for another operation, or repeated
		// within this mutation, rejects its unit — the window only learns
		// keys at apply time, so without the second check both occurrences
		// would stage and mint two events. firstKeyed is the first unit so
		// rejected, whose cause an atomic mutation returns if no unit before
		// it fails to stage.
		shape, toStage, firstKeyed := frameShapes[kind], units, -1
		var keyedCause error
		sc := &e.scratch
		seen := sc.seen
		switch {
		case len(keys) > maxKeptKeys:
			seen = make(map[string]struct{}, len(keys))
		case seen == nil && len(keys) > 1:
			seen = make(map[string]struct{}, len(keys))
			sc.seen = seen
		}
		for i, key := range keys {
			if key == "" {
				continue
			}
			var cause error
			hit, ok := e.dedup.lookup(key)
			switch {
			case ok && hit.op == shape.op:
				items[i] = BatchItemResult{Status: BatchDeduped, Elem: e.dedup.elemOf(r, key, hit)}
				lsn = max(lsn, hit.lsn)
				toStage--
				continue
			case ok:
				cause = fmt.Errorf("%w: %q first used for %s", ErrIdemReuse, key, hit.op)
			case len(keys) > 1:
				n := len(seen)
				if seen[key] = struct{}{}; len(seen) > n {
					continue
				}
				cause = fmt.Errorf("%w: %q repeated within the batch", ErrIdemReuse, key)
			default:
				continue
			}
			items[i] = BatchItemResult{Status: BatchRejected, Err: cause.Error()}
			if firstKeyed < 0 {
				firstKeyed, keyedCause = i, cause
			}
			toStage--
		}
		clear(sc.seen)

		// Stage what is left in unit order.
		m := mutation{kind: kind, staged: true, oneKey: one,
			recs: make([]relation.LogRecord, 0, toStage*len(shape.unit))}
		if keys != nil {
			m.keys = make([]string, 0, toStage)
		}
		for i := range items {
			switch items[i].Status {
			case BatchDeduped:
				continue
			case BatchRejected:
				if atomic && i == firstKeyed {
					return keyedCause
				}
				continue
			}
			recs, cause := stage(r, i, m.recs) // unit i's records are appended to m.recs
			if cause != nil {
				items[i] = BatchItemResult{Status: BatchRejected, Err: cause.Error()}
				if atomic {
					return cause
				}
				continue
			}
			if last := recs[len(recs)-1]; last.Op == relation.OpInsert {
				items[i].Elem = last.Elem // Status is BatchStored, the zero value
			}
			m.recs = recs
			if keys != nil {
				m.keys = append(m.keys, keys[i])
			}
		}
		if m.kind == walInsertBatchOneKey && len(m.recs) < units {
			m.stored = make([]uint32, 0, len(m.recs))
			for i, it := range items {
				if it.Status == BatchStored {
					m.stored = append(m.stored, uint32(i))
				}
			}
		}
		if len(m.recs) > 0 { // else nothing accepted: no frame, no epoch bump
			if e.cat.cfg.WAL != nil {
				payload, err := m.encode(sc.frame[:0])
				if err != nil {
					return err
				}
				if lsn, err = e.journal(m.kind, payload); err != nil {
					return err
				}
				if cap(payload) <= wal.MaxKeptFrame {
					sc.frame = payload
				}
			}
			if err := e.apply(r, &m, lsn); err != nil {
				return err
			}
			e.publish()
			e.dirty.Store(true)
		}
		epoch = e.Epoch()
		return nil
	})
	if err != nil {
		return items, 0, err
	}
	return items, epoch, e.waitDurable(lsn)
}

// InsertKeyed stores a new element as one transaction and feeds it to
// the physical store, atomically with respect to queries. The context
// aborts before any work when the caller has already given up, and a
// non-empty idempotency key makes the transaction retry-safe: a key the
// relation's dedup window remembers returns the originally stored
// element with no new WAL record and no new event.
func (e *Entry) InsertKeyed(ctx context.Context, ins relation.Insertion, key string) (*element.Element, error) {
	if err := e.ClientWritable(); err != nil {
		return nil, err
	}
	return e.insert(ctx, ins, key)
}

// insert is InsertKeyed on any relation, the catalog's own included.
func (e *Entry) insert(ctx context.Context, ins relation.Insertion, key string) (*element.Element, error) {
	items, _, err := e.commit(ctx, walInsertKeyed, []string{key}, oneKey{}, true, stageInserts([]relation.Insertion{ins}))
	if err != nil {
		return nil, err
	}
	return items[0].Elem, nil
}

// stageInserts is the stage function of an insert mutation, single or
// batched: unit i stages ins[i].
func stageInserts(ins []relation.Insertion) func(*relation.Relation, int, []relation.LogRecord) ([]relation.LogRecord, error) {
	return func(r *relation.Relation, i int, recs []relation.LogRecord) ([]relation.LogRecord, error) {
		el, err := r.StageInsert(ins[i])
		if err != nil {
			return nil, err
		}
		return append(recs, relation.LogRecord{Op: relation.OpInsert, TT: el.TTStart, Elem: el}), nil
	}
}

// DeleteKeyed logically removes an element. A remembered key means the
// logical delete already happened; the retry succeeds without a second
// tt⊣ update (which would fail as already-deleted and make retries look
// like conflicts).
func (e *Entry) DeleteKeyed(ctx context.Context, es surrogate.Surrogate, key string) error {
	if err := e.ClientWritable(); err != nil {
		return err
	}
	_, _, err := e.commit(ctx, walDeleteKeyed, []string{key}, oneKey{}, true, func(r *relation.Relation, _ int, recs []relation.LogRecord) ([]relation.LogRecord, error) {
		// The element still carries tt⊣ = forever here; replay only needs
		// its surrogate and the record's transaction time.
		el, tt, err := r.StageDelete(es)
		if err != nil {
			return nil, err
		}
		return append(recs, relation.LogRecord{Op: relation.OpDelete, TT: tt, Elem: el}), nil
	})
	return err
}

// ModifyKeyed replaces an element's valid time and varying values: a
// logical delete plus an insert at one transaction time, journaled as a
// single frame so recovery applies both or neither. A remembered key
// returns the replacement the original transaction produced instead of
// chaining a second delete+insert onto it.
func (e *Entry) ModifyKeyed(ctx context.Context, es surrogate.Surrogate, vt element.Timestamp, varying []element.Value, key string) (*element.Element, error) {
	if err := e.ClientWritable(); err != nil {
		return nil, err
	}
	items, _, err := e.commit(ctx, walModifyKeyed, []string{key}, oneKey{}, true, func(r *relation.Relation, _ int, recs []relation.LogRecord) ([]relation.LogRecord, error) {
		old, repl, tt, err := r.StageModify(es, vt, varying)
		if err != nil {
			return nil, err
		}
		return append(recs,
			relation.LogRecord{Op: relation.OpDelete, TT: tt, Elem: old},
			relation.LogRecord{Op: relation.OpInsert, TT: tt, Elem: repl}), nil
	})
	if err != nil {
		return nil, err
	}
	return items[0].Elem, nil
}
