package catalog

// Idempotency dedup window. Transaction time is system-assigned and
// append-only, so a blind retry of an acknowledged mutation would mint a
// second event and silently break declared specializations (globally
// sequential ordering, for one). Mutations therefore may carry an
// idempotency key; the key is framed into the mutation's WAL record, and
// each relation remembers a bounded window of recently applied keys with
// the element the original transaction produced. A retry bearing a known
// key returns that element without logging or applying anything, after
// waiting for the original frame to be durable.
//
// The window is rebuilt from the WAL on boot (keyed records repopulate it
// during replay), so retries survive a crash between the original ack and
// the retry. Its lifetime is bounded twice over: the newest dedupWindowCap
// keys per relation always dedup and no key is forgotten before
// dedupWindowCap newer ones (at most twice that are held), and implicitly
// by WAL truncation — a snapshot that truncates the log also ends the
// window's crash recoverability for the truncated prefix. Clients whose
// retry horizon is seconds sit comfortably inside both bounds.

import "repro/internal/element"

// dedupWindowCap is the generation size: how many keys a relation always
// remembers.
const dedupWindowCap = 4096

// dedupOp tags which operation a key was first used for; a key reused
// across operation kinds is a client bug and is rejected.
type dedupOp uint8

const (
	dedupInsert dedupOp = iota
	dedupDelete
	dedupModify
)

func (o dedupOp) String() string {
	switch o {
	case dedupInsert:
		return "insert"
	case dedupDelete:
		return "delete"
	case dedupModify:
		return "modify"
	}
	return "unknown"
}

// dedupHit is what the window remembers per key: the operation kind,
// the element the original transaction returned (nil for deletes), and
// the LSN of the frame that carried it — a retry waits on that LSN, so
// it never acknowledges ahead of the original's fsync.
type dedupHit struct {
	op   dedupOp
	elem *element.Element
	lsn  uint64
}

// dedupWindow is a key → original-result map in two generations: keys go
// into cur, and when cur holds dedupWindowCap of them it becomes prev and
// the old prev, cleared, is the new cur. A key is forgotten only with a
// whole generation, so nothing is deleted key by key, a lookup probes two
// maps at most, and once both exist nothing is allocated again. Live apply
// and replay remember keys through the same call in the same order, so
// they build the same two generations. It is accessed only under the
// owning relation's exclusive lock (mutations and WAL replay both hold
// it), so it needs no lock of its own.
type dedupWindow struct {
	cur, prev map[string]dedupHit
}

func (w *dedupWindow) lookup(key string) (dedupHit, bool) {
	if h, ok := w.cur[key]; ok {
		return h, true
	}
	h, ok := w.prev[key]
	return h, ok
}

// remember files key in the current generation. The caller has looked it
// up and missed, or is replaying a frame that did: there is nothing to
// probe for first.
func (w *dedupWindow) remember(key string, op dedupOp, el *element.Element, lsn uint64) {
	switch {
	case w.cur == nil:
		w.cur = make(map[string]dedupHit, dedupWindowCap)
	case len(w.cur) == dedupWindowCap:
		w.prev, w.cur = w.cur, w.prev
		if w.cur == nil {
			w.cur = make(map[string]dedupHit, dedupWindowCap)
		} else {
			clear(w.cur)
		}
	}
	w.cur[key] = dedupHit{op: op, elem: el, lsn: lsn}
}

// maxIdemKeyLen bounds a key at the protocol level; longer keys are
// rejected before they reach the WAL frame.
const maxIdemKeyLen = 255
