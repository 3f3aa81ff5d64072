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
// the retry. Its lifetime is bounded twice over: FIFO-capped at
// dedupWindowCap keys per relation, and implicitly by WAL truncation — a
// snapshot that truncates the log also ends the window's crash
// recoverability for the truncated prefix. Clients whose retry horizon is
// seconds sit comfortably inside both bounds.

import "repro/internal/element"

// dedupWindowCap bounds remembered keys per relation.
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

// dedupWindow is a FIFO-bounded key → original-result map. It is
// accessed only under the owning relation's exclusive lock (mutations
// and WAL replay both hold it), so it needs no lock of its own.
type dedupWindow struct {
	m map[string]dedupHit
	// ring holds the remembered keys in arrival order. It grows to
	// dedupWindowCap and stays: from then on oldest is the slot the next
	// key overwrites, so an evicted key is dropped at once and nothing
	// reallocates.
	ring   []string
	oldest int
}

func newDedupWindow() *dedupWindow {
	return &dedupWindow{m: make(map[string]dedupHit)}
}

func (w *dedupWindow) lookup(key string) (dedupHit, bool) {
	h, ok := w.m[key]
	return h, ok
}

func (w *dedupWindow) remember(key string, op dedupOp, el *element.Element, lsn uint64) {
	if _, dup := w.m[key]; !dup {
		if len(w.ring) < dedupWindowCap {
			w.ring = append(w.ring, key)
		} else {
			delete(w.m, w.ring[w.oldest])
			w.ring[w.oldest] = key
			w.oldest = (w.oldest + 1) % dedupWindowCap
		}
	}
	w.m[key] = dedupHit{op: op, elem: el, lsn: lsn}
}

// maxIdemKeyLen bounds a key at the protocol level; longer keys are
// rejected before they reach the WAL frame.
const maxIdemKeyLen = 255
