// Package catalog is the server's concurrent relation catalog: a sharded
// map of named relation.Locked instances, each carrying its declaration
// catalog and a query engine over the storage advisor's chosen physical
// organization. It is the layer that turns the single-user engine into a
// multi-relation, multi-client database: name resolution, per-relation
// locking, declaration-aware physical design, and durability.
//
// Durability follows the backlog model (§2's [JMRS90] representation): each
// relation persists as one checksummed backlog file with its declaration
// catalog (backlog.SaveWithDeclarations), written atomically via a
// temp-file rename. Snapshot saves every dirty relation; Open reloads the
// data directory on boot, replaying each backlog and re-attaching the
// persisted declarations as enforcers, so a restarted server validates new
// transactions exactly as the original did.
package catalog

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/backlog"
	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/integrity"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tsql"
	"repro/internal/tx"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Catalog errors.
var (
	// ErrNotFound reports a lookup of a relation the catalog does not hold.
	ErrNotFound = fmt.Errorf("catalog: no such relation")
	// ErrExists reports a create of a name already in use.
	ErrExists = fmt.Errorf("catalog: relation already exists")
	// ErrBadName reports a relation name unusable as a catalog key (and
	// data-dir file name).
	ErrBadName = fmt.Errorf("catalog: invalid relation name")
	// ErrReadOnly reports a mutation refused because this process cannot
	// accept writes: either the write-ahead log has poisoned (fail-stop,
	// reads keep serving in degraded mode) or the catalog is a follower
	// replica (mutations belong on the primary). The wrapping error
	// carries which.
	ErrReadOnly = fmt.Errorf("catalog: read-only")
	// ErrIdemReuse reports an idempotency key reused across different
	// operation kinds — a client bug, not a retry.
	ErrIdemReuse = fmt.Errorf("catalog: idempotency key reused for a different operation")
)

// nameRE constrains relation names so they are safe as file names in the
// data directory and unambiguous in URLs.
var nameRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_-]{0,63}$`)

// fileSuffix is the persisted-backlog file extension.
const fileSuffix = ".tsbl"

// shardCount is the number of independent locks the name map is split
// across. Lookups hash the name, so unrelated relations never contend.
const shardCount = 16

// Config parameterizes a catalog.
type Config struct {
	// Dir is the data directory for snapshots; empty disables persistence.
	Dir string
	// NewClock supplies the transaction-time source for each relation
	// (created or loaded). Nil defaults to tx.NewSystemClock.
	NewClock func() tx.Clock
	// WAL, when set, makes every mutation crash-safe: it is appended to
	// the log and made durable per the log's sync policy before the call
	// acknowledges. Open replays the log's recovered records over the
	// snapshots, and Snapshot truncates segments the sweep has covered.
	WAL *wal.Log
	// CacheBytes bounds the catalog-wide query-result cache; 0 disables
	// it. Results are kept under (relation, fingerprint) with the epoch they
	// were computed at, and one is served at a later epoch only when no
	// change since met the query's footprint (validator.go).
	CacheBytes int64
	// Follower marks the catalog as a read-only replica: the only writer
	// is ApplyReplicated (replaying WAL frames shipped from a primary),
	// and every client mutation fails typed with ErrReadOnly — the same
	// degraded gate a poisoned WAL trips, so clients need one code path
	// for "this process cannot accept writes". Reads serve normally.
	Follower bool
	// Signer signs the roots a primary serves and persists. Nil — the
	// follower posture — serves unsigned roots; clients verify those
	// against the primary's key via consistency with a signed anchor.
	Signer *integrity.Signer
}

// WAL record kinds. These values are replayed from disk, so they must
// stay stable across releases. Kinds 3/4/5 are read-only legacy: the
// writer frames every insert, delete and modify as the keyed kind (an
// empty key when the mutation carries none), and the decoder still reads
// logs written before that (mutation.go; DESIGN §6 has the frame table).
const (
	walCreate      wal.Kind = 1
	walDeclare     wal.Kind = 2
	walInsert      wal.Kind = 3 // legacy, decoded only
	walDelete      wal.Kind = 4 // legacy, decoded only
	walModify      wal.Kind = 5 // legacy, decoded only
	walInsertKeyed wal.Kind = 6
	walDeleteKeyed wal.Kind = 7
	walModifyKeyed wal.Kind = 8
	// walRespecialize journals a physical-design change: the adopted
	// observed classes and the organization they licensed. Replaying it
	// (boot recovery and follower apply alike) restores the adoption, so
	// the migrated organization survives a crash and ships to replicas.
	walRespecialize wal.Kind = 9
	// walInsertBatch journals N insertions as one frame: u32 count, then
	// per element a keyed record span. One group-commit entry and one
	// Merkle leaf per batch; replay is all-or-nothing per frame. Written
	// only for a batch whose request carries a key per element.
	walInsertBatch wal.Kind = 10
	// walInsertBatchOneKey journals a batch under one key (empty when
	// unkeyed): the key, the unit count and body digest a replay must
	// match, the stored units' indexes when not all were stored, and
	// their records.
	walInsertBatchOneKey wal.Kind = 11
)

type shard struct {
	mu      sync.RWMutex
	entries map[string]*Entry
}

// Catalog is a concurrent set of named relations.
type Catalog struct {
	cfg    Config
	shards [shardCount]shard
	cache  *qcache.Cache
	// storeGens numbers the physical stores the catalog's relations have
	// lived in (see Entry.gen); catalog-wide because the cache it keys is.
	storeGens atomic.Uint64
	// lineage tells this boot's epochs from every other's (validator.go).
	lineage string

	// Integrity journal: a bounded ring of recent detection/repair events
	// (node-local, events.go) plus lifetime counters, fed by the scrubber
	// and the verify endpoint, and the count of unwritten decision rows.
	igMu          sync.Mutex
	igRing        []wire.IntegrityEventInfo
	igDetected    atomic.Uint64
	igRepaired    atomic.Uint64
	igQuarantines atomic.Uint64
	unrecorded    atomic.Uint64
	// igRefetch is set when a follower dropped a corrupt snapshot shard
	// at boot: the relation's history exists only on the primary now, so
	// the tail must resume from the beginning of the feed.
	igRefetch atomic.Bool
}

// New creates an empty catalog. Call Open to load the data directory.
func New(cfg Config) *Catalog {
	c := &Catalog{cfg: cfg, cache: qcache.New(cfg.CacheBytes), lineage: newLineage()}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*Entry)
	}
	return c
}

// Cache exposes the catalog-wide query-result cache (nil when disabled),
// for the server's metrics endpoint.
func (c *Catalog) Cache() *qcache.Cache { return c.cache }

func (c *Catalog) newClock() tx.Clock {
	if c.cfg.NewClock != nil {
		return c.cfg.NewClock()
	}
	return tx.NewSystemClock()
}

func (c *Catalog) shardFor(name string) *shard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return &c.shards[h.Sum32()%shardCount]
}

// Open loads every persisted relation from the data directory, then
// replays the write-ahead log's recovered records over the snapshots.
// Missing directories are created; a corrupt backlog or log aborts the
// boot rather than serving partial state.
func (c *Catalog) Open() error {
	if c.cfg.Dir != "" {
		if err := os.MkdirAll(c.cfg.Dir, 0o755); err != nil {
			return fmt.Errorf("catalog: data dir: %w", err)
		}
		des, err := os.ReadDir(c.cfg.Dir)
		if err != nil {
			return fmt.Errorf("catalog: data dir: %w", err)
		}
		for _, de := range des {
			if de.IsDir() || !strings.HasSuffix(de.Name(), fileSuffix) {
				continue
			}
			name := strings.TrimSuffix(de.Name(), fileSuffix)
			path := filepath.Join(c.cfg.Dir, de.Name())
			r, snap, err := backlog.Load(path, c.newClock())
			if err != nil {
				if c.cfg.Follower {
					// A follower's shard is derived state the primary's feed
					// can rebuild. Keep the evidence, drop the shard, and boot
					// without the relation; igRefetch forces the tail to
					// resume from the start of the feed, re-shipping the
					// relation's whole history (other relations skip the
					// duplicates — replay is idempotent).
					c.preserveEvidence(de.Name(), func() ([]byte, error) { return os.ReadFile(path) })
					_ = os.Remove(path)
					c.igDetected.Add(1)
					a := integrity.Artifact{Kind: "snapshot", Name: de.Name(), Rel: name}
					c.journalIntegrity("detect", a, name, err.Error())
					c.journalIntegrity("repair", a, name, "corrupt shard dropped at boot; re-fetching history from the primary feed")
					c.igRepaired.Add(1)
					c.igRefetch.Store(true)
					continue
				}
				return fmt.Errorf("catalog: loading %s: %w", path, err)
			}
			if r.Schema().Name != name {
				return fmt.Errorf("catalog: %s holds relation %q, want %q", path, r.Schema().Name, name)
			}
			e := c.newEntry(name, relation.NewLocked(r), snap.Declarations, snap.Physical)
			e.walLSN.Store(snap.WALLSN)
			e.seedIntegrity(snap.Integrity)
			sh := c.shardFor(name)
			sh.mu.Lock()
			if _, dup := sh.entries[name]; dup {
				sh.mu.Unlock()
				return fmt.Errorf("catalog: duplicate relation %q in data dir", name)
			}
			sh.entries[name] = e
			sh.mu.Unlock()
		}
	}
	if w := c.cfg.WAL; w != nil {
		start := time.Now()
		if err := c.replay(w.TakeRecovered()); err != nil {
			return fmt.Errorf("catalog: wal replay, %w", err)
		}
		w.AddReplayDuration(time.Since(start))
	}
	return nil
}

// The decoder of Catalog.replay hands frames to the applier in groups: a
// group closes at replayGroupFrames frames or once its payloads reach
// replayGroupBytes, and at most replayLookahead groups wait beside the one
// being filled and the one being applied. A handoff wakes a goroutine,
// which costs more than decoding a small frame, so it is paid per group,
// not per frame; the byte bound keeps a group of large batch frames, and
// what waits, to a few hundred KB of decoded versions. Records that fit in
// one group are prepared inline: the applier would wait for the whole group
// anyway, so a second goroutine could overlap nothing.
const (
	replayGroupFrames = 64
	replayGroupBytes  = 64 << 10
	replayLookahead   = 2
)

// replay redoes journaled frames in LSN order — the one driver behind
// boot recovery (the log's recovered records over the snapshots) and
// follower apply (records shipped from the primary). Each frame goes
// through the apply the live path ran when it was written. Relations
// publish once per call, not per frame — including those touched before
// a failing frame: what was applied is what readers see — and the publish
// bumps the epoch past every view a reader may have cached against. The
// relation whose frame failed is the exception: the frame may have half
// applied (a modify's delete without its insert), so it is not published.
//
// What a frame's redo needs of its bytes alone — the decoded mutation and
// the Merkle leaf (prepare) — is made on a second goroutine, a bounded
// number of frames ahead, while this one applies in order (decodeAhead),
// unless the records fit in one group. The decoder stops when the applier
// fails, and replay returns only after it has: nothing runs past replay.
func (c *Catalog) replay(recs []wal.Record) error {
	touched := make(map[*Entry]bool)
	var failed error
	redo := func(f *frame) bool {
		e, err := c.redo(f)
		if err != nil {
			delete(touched, e)
			failed = fmt.Errorf("lsn %d: %w", f.rec.LSN, err)
			return false
		}
		if e != nil {
			touched[e] = true
		}
		return true
	}
	if groupEnd(recs, 0) == len(recs) {
		for _, rec := range recs {
			if f := c.prepare(rec, c.lookup(rec.Rel)); !redo(&f) {
				break
			}
		}
	} else {
		c.decodeAhead(recs, redo)
	}
	for e := range touched {
		_ = e.locked.Exclusive(func(*relation.Relation) error {
			e.publish()
			return nil
		})
		e.dirty.Store(true)
	}
	return failed
}

// groupEnd is where the group of frames starting at recs[i] ends.
func groupEnd(recs []wal.Record, i int) int {
	size := 0
	for j := i; j < len(recs); j++ {
		if size += len(recs[j].Payload); j-i+1 == replayGroupFrames || size >= replayGroupBytes {
			return j + 1
		}
	}
	return len(recs)
}

// decodeAhead prepares recs on a goroutine of its own, group by group, and
// hands each frame to redo in order until redo refuses one. It returns
// once the decoder has stopped.
func (c *Catalog) decodeAhead(recs []wal.Record, redo func(*frame) bool) {
	groups := make(chan []frame, replayLookahead)
	stop := make(chan struct{})
	go func() {
		defer close(groups)
		// The last frame's relation, once it exists: entries are never
		// replaced, and a shard lock taken per frame on this core and the
		// applier's would cost more than a small frame's decode.
		var e *Entry
		for i := 0; i < len(recs); {
			end := groupEnd(recs, i)
			g := make([]frame, 0, end-i)
			for _, rec := range recs[i:end] {
				if e == nil || e.name != rec.Rel {
					e = c.lookup(rec.Rel)
				}
				g = append(g, c.prepare(rec, e))
			}
			select {
			case <-stop:
				return
			case groups <- g:
			}
			i = end
		}
	}()
apply:
	for g := range groups {
		for i := range g {
			if !redo(&g[i]) {
				break apply
			}
		}
	}
	close(stop)
	for range groups {
		// Wait out the decoder: it closes groups on its way out.
	}
}

// frame is one journaled record made ready for redo from its bytes alone:
// a mutation frame's decoded mutation (or the error decoding it, reported
// only if the frame is not skipped) and, when the catalog keeps Merkle
// trees, the frame's leaf. A frame its relation already covers is left
// unread.
type frame struct {
	rec  wal.Record
	m    mutation
	err  error
	leaf integrity.Hash
}

// prepare decodes and hashes one record, unless e — the record's
// relation, nil when it does not exist yet — already covers it (LSN at or
// below the watermark): redo skips such a frame, so prepare leaves it
// unread. Relations are never dropped and watermarks only rise, so a frame
// covered here is covered when redo reaches it, and prepare may run ahead
// of the frames before it being applied.
func (c *Catalog) prepare(rec wal.Record, e *Entry) frame {
	f := frame{rec: rec}
	if e != nil && rec.LSN <= e.walLSN.Load() {
		return f
	}
	switch rec.Kind {
	case walCreate, walDeclare, walRespecialize:
		// redo decodes these: they are rare.
	default:
		f.m, f.err = decodeMutation(rec.Kind, rec.Payload)
	}
	if c.IntegrityEnabled() {
		f.leaf = integrity.FrameLeaf(rec.LSN, rec.Kind, rec.Rel, rec.Payload)
	}
	return f
}

// redo applies one prepared frame. Frames a snapshot already covers
// (LSN at or below the relation's persisted watermark) are skipped, which
// is what makes replay idempotent across partially truncated logs and
// re-shipped feeds — whether or not their payload decodes. Returns the
// touched entry — with the error when its frame failed to apply — or nil
// when skipped.
func (c *Catalog) redo(f *frame) (*Entry, error) {
	rec := f.rec
	if rec.Kind == walCreate {
		schema, err := backlog.DecodeSchema(rec.Payload)
		if err != nil {
			return nil, err
		}
		if schema.Name != rec.Rel {
			return nil, fmt.Errorf("create record for %q holds schema %q", rec.Rel, schema.Name)
		}
		sh := c.shardFor(rec.Rel)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if _, dup := sh.entries[rec.Rel]; dup {
			return nil, nil // the snapshot file already restored it
		}
		e := c.newEntry(rec.Rel, relation.NewLocked(relation.New(schema, c.newClock())), nil, backlog.Physical{})
		e.logged(rec.LSN, f.leaf)
		sh.entries[rec.Rel] = e
		return e, nil
	}
	e, err := c.Get(rec.Rel)
	if err != nil {
		return nil, err
	}
	if rec.LSN <= e.walLSN.Load() {
		return nil, nil
	}
	err = e.locked.Exclusive(func(r *relation.Relation) error {
		switch rec.Kind {
		case walDeclare:
			descs, err := backlog.DecodeDeclarations(rec.Payload)
			if err != nil {
				return err
			}
			enforcers, err := warmEnforcers(r, descs, false)
			if err != nil {
				return err
			}
			// A bounds error leaves the declaration standing, as it did live.
			_ = e.attach(r, descs, enforcers)
			return nil
		case walRespecialize:
			// The frame's organization and source are re-derived from the
			// adopted classes and the replayed history.
			_, _, adopted, err := decodeRespecialize(rec.Payload)
			if err != nil {
				return err
			}
			e.adopt(r, adopted)
			return nil
		}
		if f.err != nil {
			return f.err
		}
		return e.apply(r, &f.m, rec.LSN)
	})
	if err != nil {
		return e, err
	}
	e.logged(rec.LSN, f.leaf)
	return e, nil
}

// Migration records one physical-design change of a relation: the epoch it
// happened at, the organizations involved, the advice's provenance, and
// the advisor's reasons.
type Migration struct {
	Epoch    uint64
	From, To storage.Kind
	Source   string
	Reasons  []string
}

// encodeRespecialize frames a physical-design change for the WAL: the
// target organization, the advice source, and the adopted observed
// classes. The classes are what replay needs — the organization and source
// are re-derived deterministically by relabel, but carrying them
// makes the frame self-describing for the migration history.
func encodeRespecialize(org storage.Kind, source string, adopted []core.Class) []byte {
	out := []byte{uint8(org)}
	out = append(out, uint8(len(source)))
	out = append(out, source...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(adopted)))
	return append(out, classesToU8(adopted)...)
}

func decodeRespecialize(b []byte) (org storage.Kind, source string, adopted []core.Class, err error) {
	fail := func(msg string) (storage.Kind, string, []core.Class, error) {
		return 0, "", nil, fmt.Errorf("catalog: %s respecialize payload", msg)
	}
	if len(b) < 2 {
		return fail("short")
	}
	org = storage.Kind(b[0])
	sn := int(b[1])
	b = b[2:]
	if len(b) < sn+2 {
		return fail("short")
	}
	source = string(b[:sn])
	b = b[sn:]
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) != n {
		return fail("bad framing in")
	}
	return org, source, classesFromU8(b), nil
}

// Create adds an empty relation under schema.Name. The name must satisfy
// the catalog's naming rule so it can double as the snapshot file name, and
// must not take the prefix reserved for the catalog's own relations.
func (c *Catalog) Create(schema relation.Schema) (*Entry, error) {
	if strings.HasPrefix(schema.Name, sysPrefix) {
		return nil, fmt.Errorf("%w: %q (the %s prefix is reserved)", ErrBadName, schema.Name, sysPrefix)
	}
	return c.create(schema)
}

// create is Create without the reserved-prefix rule.
func (c *Catalog) create(schema relation.Schema) (*Entry, error) {
	name := schema.Name
	if !nameRE.MatchString(name) {
		return nil, fmt.Errorf("%w: %q (want %s)", ErrBadName, name, nameRE)
	}
	if c.cfg.Follower {
		return nil, errFollowerReadOnly()
	}
	if err := c.Degraded(); err != nil {
		return nil, err
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	r := relation.New(schema, c.newClock())
	e := c.newEntry(name, relation.NewLocked(r), nil, backlog.Physical{})
	e.dirty.Store(true) // persist even if never written to
	sh := c.shardFor(name)
	sh.mu.Lock()
	if _, dup := sh.entries[name]; dup {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	// Journaled under the shard lock so the create's WAL position matches
	// its catalog visibility order; creates are rare.
	lsn, err := e.journal(walCreate, backlog.EncodeSchema(schema))
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	sh.entries[name] = e
	sh.mu.Unlock()
	if err := e.waitDurable(lsn); err != nil {
		return nil, err
	}
	return e, nil
}

// WAL exposes the catalog's write-ahead log (nil when disabled), for the
// server's metrics endpoint.
func (c *Catalog) WAL() *wal.Log { return c.cfg.WAL }

// Degraded reports why the catalog is in read-only degraded mode, or nil
// while fully writable. The only degradation cause today is a poisoned
// WAL: its first I/O failure is sticky (fail-stop), reads keep serving
// from memory, and every mutation fails typed with ErrReadOnly until the
// operator restarts the server (recovering the durable prefix).
func (c *Catalog) Degraded() error {
	if w := c.cfg.WAL; w != nil {
		if err := w.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrReadOnly, err)
		}
	}
	return nil
}

// writable refuses mutations while the relation is quarantined by an
// integrity detection, the WAL is poisoned, or the catalog is a follower
// replica.
func (e *Entry) writable() error {
	if cause := e.quarCause.Load(); cause != nil {
		return fmt.Errorf("%w: integrity quarantine: %s", ErrReadOnly, *cause)
	}
	if e.cat.cfg.Follower {
		return errFollowerReadOnly()
	}
	return e.cat.Degraded()
}

// Get resolves a relation by name.
func (c *Catalog) Get(name string) (*Entry, error) {
	if e := c.lookup(name); e != nil {
		return e, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
}

// lookup is Get without the error: nil when there is no such relation.
func (c *Catalog) lookup(name string) *Entry {
	sh := c.shardFor(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.entries[name]
}

// Names lists the catalog's relation names in sorted order.
func (c *Catalog) Names() []string {
	var out []string
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for n := range sh.entries {
			out = append(out, n)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Len reports the number of relations.
func (c *Catalog) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}

// Snapshot persists every dirty relation to the data directory, each
// written atomically (temp file + rename). It returns the number of
// relations saved. Writers to a relation block only while that relation is
// being serialized, not for the whole sweep.
//
// Truncation protocol: the sweep first reads the WAL's durable watermark.
// Every record at or below it was applied to memory before the sweep's
// per-relation locks were taken (the catalog appends and applies under one
// exclusive section), so after a fully successful sweep each such record
// is either inside a fresh snapshot or inside a file an earlier snapshot
// wrote and the relation has not dirtied since. Only then are segments
// wholly at or below the watermark deleted. A partially failed sweep
// truncates nothing.
func (c *Catalog) Snapshot() (int, error) {
	if c.cfg.Dir == "" {
		return 0, nil
	}
	w := c.cfg.WAL
	var cut uint64
	if w != nil {
		if err := w.Err(); err != nil {
			// The log is poisoned (fail-stop): a snapshot now could persist
			// writes that were never acknowledged. Refuse; the operator
			// restarts the server, which recovers the durable prefix.
			return 0, fmt.Errorf("%w: refusing snapshot: %w", ErrReadOnly, err)
		}
		cut = w.DurableLSN()
	}
	saved := 0
	for _, name := range c.Names() {
		e, err := c.Get(name)
		if err != nil {
			continue // dropped concurrently; nothing to save
		}
		ok, err := e.snapshotTo(filepath.Join(c.cfg.Dir, name+fileSuffix))
		if err != nil {
			return saved, fmt.Errorf("catalog: snapshot %q: %w", name, err)
		}
		if ok {
			saved++
		}
	}
	if w != nil {
		if _, err := w.TruncateBelow(cut); err != nil {
			return saved, fmt.Errorf("catalog: wal truncation: %w", err)
		}
	}
	return saved, nil
}

// Close flushes the catalog. The caller must have stopped serving first.
func (c *Catalog) Close() error {
	_, err := c.Snapshot()
	return err
}

// Entry is one named relation with its declaration catalog and the query
// engine over the advisor-chosen physical organization. All mutable state
// hangs off the relation's own reader-writer lock: writes and declaration
// changes run under the exclusive lock, queries and snapshots under the
// shared lock, so many readers proceed in parallel and writers serialize.
type Entry struct {
	name   string
	locked *relation.Locked

	// Guarded by locked's lock (mutated under Exclusive only):
	decls []constraint.Descriptor
	// store is the relation's own version list (r.Store()), taken by
	// rebuildEngine; engine wraps it with what the current label licenses
	// and advice says why. A declaration, a respecialize and a degrade
	// re-label store in place (relabel) and replace only the other two.
	store  *storage.RunStore
	engine *query.Engine
	advice storage.Advice
	// gen is the generation of the live store: a fresh number from the
	// catalog's storeGens whenever its chunks stop being the ones from
	// before — every rebuildEngine (boot, a removing vacuum) and every run
	// repair. Per-chunk partial aggregates are valid within one generation
	// only (aggregate.go); a re-label keeps the generation and so keeps them.
	gen uint64
	cat *Catalog // for the store generations and _sys_events (events.go)

	// dirty marks unsaved changes; atomic so snapshots (shared lock) can
	// clear it while other readers run.
	dirty atomic.Bool

	// walLSN is the LSN of the relation's latest mutation in the catalog's
	// write-ahead log; snapshots persist it so boot-time replay can skip
	// records the snapshot covers.
	walLSN atomic.Uint64

	// dedup is the relation's idempotency window (see dedup.go), and
	// scratch what commit reuses from one mutation to the next. Guarded by
	// locked's exclusive lock, like decls.
	dedup   dedupWindow
	scratch commitScratch

	// tracker incrementally observes the extension's timestamps (guarded
	// by locked's exclusive lock): the monotone class properties it still
	// holds are what the advisor may adopt without a declaration. Fed by
	// apply and rebuilt with the store, so it always reflects the live
	// history.
	tracker *core.Tracker

	// adopted is the set of observed classes a journaled respecialize
	// committed to (guarded by the exclusive lock). relabel
	// intersects it with the tracker's current classes, so an adoption the
	// history later violates degrades back to the general organization
	// instead of serving a broken promise.
	adopted []core.Class

	// migrations counts journaled physical-design changes (guarded by the
	// exclusive lock); their detail is _sys_events' rows.
	migrations uint64

	// lastAdviseEpoch and lastAdviseBytes gate the background advisor's
	// re-advising thresholds (see advisor.go).
	lastAdviseEpoch atomic.Uint64
	lastAdviseBytes atomic.Int64

	// physical is the published physical-design snapshot, recomputed by
	// publish under the exclusive lock. Readers (the metrics endpoint is
	// a probe and must never queue behind a writer) load it atomically.
	physical atomic.Pointer[Physical]

	// plans counts queries and touched elements per plan kind over the
	// entry's lifetime. It lives here rather than on the engine because
	// declarations rebuild the engine; the counters must survive that.
	plans plan.Recorder

	// Batch-operator counters, recorded on the lock-free aggregate read
	// path (hence atomic): rows folded (cache hits execute nothing).
	batchRows atomic.Int64
	// Chunk-partial counters (aggregate.go): full chunks merged from a memo
	// against decoded and folded, and chunks passed over unread.
	runsMerged   atomic.Int64
	groupsMerged atomic.Int64
	runsFolded   atomic.Int64
	chunksPruned atomic.Int64
	// Answers rebuilt from an earlier epoch's cells (aggregate.go), and the
	// windows they folded again against those they copied.
	rebuilt                        atomic.Int64
	windowsRefolded, windowsReused atomic.Int64
	// The chunk memo's counters, one pair per kind (qcache.Chunks), and
	// dense spans copied from an image against encoded (images.go).
	partialMemo, groupMemo, imageMemo qcache.Counts
	spansSpliced, spansEncoded        atomic.Int64

	// Batched-ingest counters (batch.go): InsertBatch calls that wrote a
	// frame, and the elements those frames carried. Atomic so /metrics can
	// read them without queueing behind writers.
	ingBatches atomic.Int64
	ingElems   atomic.Int64

	// pending is the change apply has summarized since the last publish, and
	// changes the log of the last changeLogSize publishes' changes
	// (validator.go): pending under the exclusive lock, changes written under
	// it and read lock-free up to a pinned view's epoch.
	pending change
	changes changeLog

	// view is the published immutable read snapshot, swapped atomically by
	// publish under the exclusive lock on every mutation. Readers pin it
	// with one atomic load and then run entirely lock-free: the view's
	// store never mutates (copy-on-close deletes swap clones into the live
	// structures, leaving the pinned elements exactly as published). Never
	// nil after newEntry.
	view atomic.Pointer[readView]

	// cache is the catalog-wide result cache (nil-safe when disabled).
	cache *qcache.Cache

	// Integrity state. tree is the relation's Merkle tree over committed
	// WAL frames, nil when integrity is off; it has its own mutex because
	// leaves are appended from paths holding different locks (the shard
	// lock for creates, the relation's exclusive lock elsewhere) while
	// proof serving reads it lock-free with respect to the relation.
	// lastSigned is the last signature signedAt made, reused while the
	// tree has not grown; quarCause, when set, degrades the relation to
	// read-only until its artifacts are repaired.
	igMu       sync.Mutex
	tree       *integrity.Tree
	signer     *integrity.Signer
	lastSigned atomic.Pointer[integrity.SignedRoot]
	quarCause  atomic.Pointer[string]
}

// readView is one published epoch of a relation: a frozen store snapshot
// wrapped in its own engine — the scan paths read its runs in arrival
// (tt⊢) order — and the schema. A reader that pinned a view observes the
// relation exactly as of the epoch's publication no matter how many
// writers commit meanwhile.
type readView struct {
	epoch  uint64
	gen    uint64 // Entry.gen of the store the snapshot was taken from
	engine *query.Engine
	schema relation.Schema
}

// publish stamps the next mutation epoch, records what changed since the
// last one in the change log — the records apply summarized since, or
// everything when none were — and swaps in a fresh immutable view of the
// engine's store. Caller holds the exclusive lock (epochs must be assigned
// in commit order).
func (e *Entry) publish() {
	ep := uint64(1)
	if old := e.view.Load(); old != nil {
		ep = old.epoch + 1
	}
	c := e.pending
	if !c.noted {
		c = everything
	}
	e.pending = change{}
	e.changes.record(ep, c)
	e.view.Store(&readView{
		epoch:  ep,
		gen:    e.gen,
		engine: e.engine.Snapshot(),
		schema: e.locked.Schema(),
	})
	phys := e.physicalLocked()
	e.physical.Store(&phys)
}

// Epoch reports the relation's current mutation epoch — bumped by every
// insert, delete, modify, declare, vacuum, and boot-time replay. The
// result cache keeps each answer with the epoch it was computed at, and
// the server's validators name it (with the catalog's Lineage); Revalidate
// tells whether a query's answer moved between two of them.
func (e *Entry) Epoch() uint64 { return e.view.Load().epoch }

// classesToU8 and classesFromU8 convert between the engine's class enum
// and the backlog's persisted byte form.
func classesToU8(cs []core.Class) []uint8 {
	var out []uint8
	for _, c := range cs {
		out = append(out, uint8(c))
	}
	return out
}

func classesFromU8(bs []uint8) []core.Class {
	var out []core.Class
	for _, b := range bs {
		out = append(out, core.Class(b))
	}
	return out
}

// newEntry constructs an entry over the locked relation, seeding the
// persisted physical design (adopted observed classes and migration
// count) before the first engine rebuild so a restored relation adopts
// its migrated organization without WAL replay.
func (c *Catalog) newEntry(name string, l *relation.Locked, decls []constraint.Descriptor, phys backlog.Physical) *Entry {
	e := &Entry{
		name: name, locked: l, decls: decls,
		cat: c, cache: c.cache,
		adopted: classesFromU8(phys.Adopted), migrations: phys.Migrations,
	}
	if c.IntegrityEnabled() {
		e.tree = integrity.NewTree()
		e.signer = c.cfg.Signer
	}
	_ = l.Exclusive(func(r *relation.Relation) error {
		// A bounds error here means a persisted declaration carries
		// inverted offsets; the engine still works, just without pushdown.
		_ = e.rebuildEngine(r)
		e.publish()
		return nil
	})
	return e
}

// Name returns the catalog key.
func (e *Entry) Name() string { return e.name }

// Schema returns the relation schema (immutable).
func (e *Entry) Schema() relation.Schema { return e.locked.Schema() }

// Locked exposes the underlying locked relation for callers (tests, the
// in-process shell) that need direct access.
func (e *Entry) Locked() *relation.Locked { return e.locked }

// perRelationClasses lists the classes declared with per-relation scope —
// the only ones that license a global physical ordering. A per-partition
// sequentiality says nothing about the interleaving of partitions, so it
// must not steer the advisor toward a globally vt-ordered store.
func perRelationClasses(decls []constraint.Descriptor) []core.Class {
	var out []core.Class
	for _, d := range decls {
		if d.Scope == constraint.PerRelation {
			out = append(out, d.Class)
		}
	}
	return out
}

// activeAdopted intersects the entry's adopted observed classes with what
// the tracker still holds: an adoption the history has since violated
// stops licensing anything, so the advisor degrades cleanly instead of
// serving a broken promise. Caller holds the exclusive lock.
func (e *Entry) activeAdopted() []core.Class {
	if len(e.adopted) == 0 || e.tracker == nil {
		return nil
	}
	held := make(map[core.Class]bool)
	for _, c := range e.tracker.Classes() {
		held[c] = true
	}
	var out []core.Class
	for _, c := range e.adopted {
		if held[c] {
			out = append(out, c)
		}
	}
	return out
}

// rebuildEngine takes the relation's store (r.Store()), re-observes its
// versions into a fresh extension tracker, and labels the store (relabel).
// It copies nothing. It runs only where the store is a new one — a relation
// enters the catalog, a vacuum moved the survivors to a fresh heap — and is
// the one event besides a run repair that renews the store generation; every
// other change of physical design re-labels the store it has. Caller holds
// the exclusive lock; the error is relabel's.
func (e *Entry) rebuildEngine(r *relation.Relation) error {
	schema := r.Schema()
	e.tracker = core.NewTracker(schema.ValidTime, schema.Granularity)
	e.store = r.Store()
	e.store.Scan(func(el *element.Element) bool { e.tracker.Observe(el); return true })
	e.gen = e.cat.storeGens.Add(1)
	return e.relabel(r, e.decls)
}

// relabel advises the physical design that decls and the adopted classes the
// tracker still holds license, and re-labels the live store to it, falling
// down the chain vt-ordered → tt-ordered → heap to the first organization
// whose promise the stored history keeps. The store, its chunks, sealed runs
// and close counts, the tracker and the generation are the ones from before,
// so whatever is memoized per chunk stays valid; only the engine that wraps
// the store is new, which is how a demotion loses the pushdown bounds. The
// next publish records everything: a new engine may plan a query another way,
// and a cached answer carries the plan that produced it. Caller holds the
// exclusive lock. The returned error reports only unusable declared offset
// bounds; the engine is valid either way (it just runs without the pushdown).
func (e *Entry) relabel(r *relation.Relation, decls []constraint.Descriptor) error {
	e.pending = everything
	schema := r.Schema()
	classes := perRelationClasses(decls)
	advice := storage.AdviseAuto(classes, e.activeAdopted(), schema.ValidTime)
	if err := e.store.Retype(advice.Store); err != nil {
		// The history predates the ordering promise (or the promise is
		// unenforceable); fall back to the general organization, which
		// only assumes tt order.
		advice = storage.Advise(nil, schema.ValidTime)
		advice.Reasons = append(advice.Reasons,
			fmt.Sprintf("fell back: existing history violates the declared order (%v)", err))
		if err := e.store.Retype(advice.Store); err != nil {
			// Even transaction-time order does not hold — a clock that
			// restarted behind persisted stamps can commit tt out of order.
			// The heap assumes nothing, so every committed element stays
			// queryable.
			advice.Store, advice.Source = storage.Heap, storage.SourceDefault
			advice.Reasons = append(advice.Reasons,
				fmt.Sprintf("fell back: history violates transaction-time order (%v)", err))
			_ = e.store.Retype(storage.Heap) // dropping a promise cannot fail
		}
	}
	en := query.New(e.store, classes)
	e.engine, e.advice = en, advice
	// A declared two-sided fixed bound turns valid-time predicates into
	// transaction-time windows over the tt-ordered log (§3.1's query
	// strategies); enable the pushdown when a per-relation event
	// declaration carries one.
	if advice.Store == storage.TTOrdered && schema.ValidTime == element.EventStamp {
		for _, d := range decls {
			if d.Scope != constraint.PerRelation || d.Kind != constraint.DescEvent {
				continue
			}
			c, err := d.Build()
			if err != nil {
				continue
			}
			ev, ok := c.(constraint.Event)
			if !ok {
				continue
			}
			if lo, hi, ok := ev.Spec.OffsetBounds(); ok {
				if err := en.UseVTOffsetBounds(lo, hi); err != nil {
					return fmt.Errorf("catalog: unusable offset bounds in declaration: %w", err)
				}
				break
			}
		}
	}
	return nil
}

// walErr classifies a WAL append/wait failure: once the log has poisoned
// the catalog is read-only, so the typed ErrReadOnly (with the cause)
// tells clients not to retry against this process.
func (e *Entry) walErr(err error) error {
	if e.cat.Degraded() != nil {
		return fmt.Errorf("%w: %w", ErrReadOnly, err)
	}
	return fmt.Errorf("catalog: wal: %w", err)
}

// waitDurable blocks until the frame at lsn is durable. Called outside
// the relation lock, so concurrent committers on other
// relations (and later ones on this relation) share the group fsync.
// Nothing is signed here: the frame's leaf is already in the tree, and a
// root over it is signed when a reader or a snapshot asks (signedAt).
func (e *Entry) waitDurable(lsn uint64) error {
	if e.cat.cfg.WAL == nil {
		return nil
	}
	if err := e.cat.cfg.WAL.WaitDurable(lsn); err != nil {
		return e.walErr(err)
	}
	return nil
}

// degrade re-advises after a committed element broke the promise of the
// store's label (cause). The relation has already stored it, dropping one
// promise at a time until the store admitted it — the heap admits anything,
// so an acknowledged write is never invisible to reads. The promise that
// broke is an inferred order (or the clock's): a committed element satisfies
// every declaration, so the declarations stay, and with them a declared
// bound's tt-window pushdown. Nothing is copied: the chunks, and so the
// cost, are those of an accepted insert.
func (e *Entry) degrade(r *relation.Relation, cause error) {
	_ = e.relabel(r, e.decls) // the declarations' bounds were usable when declared
	e.advice.Reasons = append(e.advice.Reasons,
		fmt.Sprintf("fell back: committed element violates the store order (%v)", cause))
}

// Declare attaches the descriptors' constraints as enforcers, one per
// scope. The existing extension is validated first: a declaration the
// stored history already violates is rejected whole, leaving the relation
// unguarded by it (the paper's intensional definition — all extensions of
// a typed schema must satisfy the type). On success the declaration
// catalog grows and the physical design is re-advised.
func (e *Entry) Declare(descs []constraint.Descriptor) error {
	if err := e.ClientWritable(); err != nil {
		return err
	}
	if len(descs) == 0 {
		return fmt.Errorf("catalog: no constraints to declare")
	}
	if err := e.writable(); err != nil {
		return err
	}
	var lsn uint64
	err := e.locked.Exclusive(func(r *relation.Relation) error {
		enforcers, err := warmEnforcers(r, descs, true)
		if err != nil {
			return err
		}
		// Validation passed; journal the declaration before attaching it.
		if lsn, err = e.journal(walDeclare, backlog.EncodeDeclarations(descs)); err != nil {
			return err
		}
		// A bounds error leaves the declaration standing (its enforcer is
		// sound) but its bounds cannot drive the pushdown; surface the bug
		// to the caller.
		err = e.attach(r, descs, enforcers)
		e.publish()
		e.dirty.Store(true)
		return err
	})
	if err != nil {
		return err
	}
	return e.waitDurable(lsn)
}

// warmEnforcers builds one enforcer per scope and replays the backlog
// through each, so the incremental checkers end warm for the next live
// transaction. With check set (a live declaration) every operation is
// checked as if it were arriving now; replay skips that — the history was
// validated when the declaration was first accepted.
func warmEnforcers(r *relation.Relation, descs []constraint.Descriptor, check bool) ([]*constraint.Enforcer, error) {
	byScope, err := constraint.BuildAll(descs)
	if err != nil {
		return nil, err
	}
	var enforcers []*constraint.Enforcer
	for scope, cs := range byScope {
		en := constraint.NewEnforcer(scope, cs...)
		for _, rec := range r.Backlog() {
			if check {
				var err error
				switch rec.Op {
				case relation.OpInsert:
					err = en.CheckInsert(r, rec.Elem)
				case relation.OpDelete:
					err = en.CheckDelete(r, rec.Elem, rec.TT)
				}
				if err != nil {
					return nil, fmt.Errorf("catalog: existing extension violates declaration: %w", err)
				}
			}
			en.Applied(r, rec.Op, rec.Elem, rec.TT)
		}
		enforcers = append(enforcers, en)
	}
	return enforcers, nil
}

// attach installs a declaration's warmed enforcers, grows the declaration
// catalog, and re-advises the physical design. Caller holds the exclusive
// lock. The error reports only unusable offset bounds (see relabel).
func (e *Entry) attach(r *relation.Relation, descs []constraint.Descriptor, enforcers []*constraint.Enforcer) error {
	for _, en := range enforcers {
		r.AddGuard(en)
	}
	e.decls = append(e.decls, descs...)
	return e.relabel(r, e.decls)
}

// QueryResult is a catalog query answer with its access-path accounting.
type QueryResult struct {
	// Elements is the answer, materialized: what the exported reads
	// (CurrentCtx, …) return. AnswerCtx leaves it nil; its answer is read
	// where the store holds it (Answer).
	Elements []*element.Element
	// Node is the typed plan the engine executed; Plan is its one-line
	// rendering, made once per computed result (a cache hit reuses it).
	Plan    string
	Node    *plan.Node
	Touched int
	// Epoch is the mutation epoch of the view the result answers for — the
	// one it was computed on, or the later one the result cache served it on
	// — and what the server's validator for it names.
	Epoch uint64
	// answer is the result as the view it was computed on holds it, and
	// Images the encoded form of the sealed chunks it draws on, for the
	// response's encoder to copy from (images.go). The answer is the
	// computed result, which the result cache keeps; Images is resolved for
	// each call, a cache hit included, and is never cached with it.
	answer storage.Answer
	Images []wire.ImageSpan
}

// Answer is the result as the view it was computed on holds it.
func (qr *QueryResult) Answer() *storage.Answer { return &qr.answer }

// CurrentCtx answers the conventional query.
func (e *Entry) CurrentCtx(ctx context.Context) (QueryResult, error) {
	return e.rowsCtx(ctx, plan.Query{Kind: plan.QCurrent})
}

// TimesliceCtx answers the historical query at vt.
func (e *Entry) TimesliceCtx(ctx context.Context, vt chronon.Chronon) (QueryResult, error) {
	return e.rowsCtx(ctx, plan.Query{Kind: plan.QTimeslice, VTLo: int64(vt), VTHi: int64(vt) + 1})
}

// RollbackCtx answers the rollback query at tt.
func (e *Entry) RollbackCtx(ctx context.Context, tt chronon.Chronon) (QueryResult, error) {
	return e.rowsCtx(ctx, plan.Query{Kind: plan.QRollback, TT: int64(tt)})
}

// TimesliceAsOfCtx answers the bitemporal query: elements valid at vt as
// stored at tt. No physical organization indexes both time dimensions, so
// it scans the pinned view — pruned by the chunks' valid-time envelopes and,
// where arrival order is tt⊢ order, cut at tt (storage.AsOf) — and the scan
// is cooperative: it re-checks the context as it goes and stops when the
// caller is gone. Like the other reads it memoizes in the result cache,
// where repeat bitemporal traffic benefits the most.
func (e *Entry) TimesliceAsOfCtx(ctx context.Context, vt, tt chronon.Chronon) (QueryResult, error) {
	return e.rowsCtx(ctx, plan.Query{Kind: plan.QAsOf, VTLo: int64(vt), VTHi: int64(vt) + 1, TT: int64(tt)})
}

// rowsCtx is AnswerCtx with the answer materialized into Elements.
func (e *Entry) rowsCtx(ctx context.Context, pq plan.Query) (QueryResult, error) {
	qr, err := e.AnswerCtx(ctx, pq)
	qr.Elements = qr.answer.Elements()
	return qr, err
}

// AnswerCtx answers one of the engine's query kinds — pq.Kind is QCurrent,
// QTimeslice, QRollback or QAsOf — against the published read view as
// query.Engine.Answer does, leaving the answer where the store holds it: the
// result's Answer names the stored versions, Elements stays nil, and nothing
// of a sealed chunk is materialized. It is what the server encodes; the
// exported reads above are it, materialized.
//
// Readers pin the view with a single atomic load and never touch the
// relation lock, so a steady writer cannot convoy them. Results are memoized
// in the catalog's cache under (relation, fingerprint) with the epoch they
// were computed at, and served at the pinned view's epoch when no change
// since meets pq, the query's footprint (cached). A hit is returned without
// any engine work and still counts on the per-plan-kind metrics (with zero
// touched — nothing was scanned).
func (e *Entry) AnswerCtx(ctx context.Context, pq plan.Query) (QueryResult, error) {
	var fp string
	switch pq.Kind {
	case plan.QCurrent:
		fp = "current"
	case plan.QTimeslice:
		fp = "ts:" + strconv.FormatInt(pq.VTLo, 10)
	case plan.QRollback:
		fp = "rb:" + strconv.FormatInt(pq.TT, 10)
	case plan.QAsOf:
		fp = "asof:" + strconv.FormatInt(pq.VTLo, 10) + ":" + strconv.FormatInt(pq.VTHi, 10) + ":" + strconv.FormatInt(pq.TT, 10)
	default:
		return QueryResult{}, fmt.Errorf("catalog: %v is not an element read", pq.Kind)
	}
	if err := ctx.Err(); err != nil {
		return QueryResult{}, err
	}
	v := e.view.Load()
	if hit, ok := e.cached(v, fp, pq); ok {
		qr := hit.(QueryResult)
		e.plans.Record(qr.Node.Leaf().Kind, 0)
		qr.Epoch = v.epoch
		qr.Images = e.images(v, &qr.answer)
		return qr, nil
	}
	out := QueryResult{Epoch: v.epoch}
	var err error
	if out.answer, out.Node, out.Touched, err = v.engine.Answer(ctx, pq); err != nil {
		return QueryResult{}, err
	}
	e.plans.Record(out.Node.Leaf().Kind, out.Touched)
	out.Plan = out.Node.String()
	if e.cache != nil { // a disabled cache is spared the boxing of a value it would drop
		e.cache.Record(e.name, fp, v.epoch, out, resultSize(&out.answer, out.Plan))
	}
	out.Images = e.images(v, &out.answer)
	return out, nil
}

// resultSize approximates a cached result's resident bytes for the cache's
// byte budget: what the answer pins — a header per span; for a span over a
// chunk what the store may have let go of since (Span.Pins: the chunk header
// and tt⊣ column a close replaces, and the tail's arena; its columns stay
// the store's); and an index seek's elements, each a fixed overhead plus its
// value slices — plus the plan rendering. Precision doesn't matter — the
// budget only has to scale with the real footprint.
func resultSize(a *storage.Answer, plan string) int64 {
	n := int64(len(plan)) + 64
	for _, sp := range a.Spans() {
		n += spanBytes + int64(sp.Pins())
		for _, el := range sp.Elements() {
			n += 128 + 32*int64(len(el.Invariant)+len(el.Varying)+len(el.UserTimes))
		}
	}
	return n
}

// spanBytes is what one span of an answer takes (storage.Span).
const spanBytes = int64(unsafe.Sizeof(storage.Span{}))

// SelectCtx evaluates a parsed tsql query against the pinned view,
// lock-free like the engine reads. The query's Rel must name this entry.
// A SELECT without an aggregate takes the engine's answer to its selection
// by time (tsql.PlanQuery) under whichever leaf the planner picked — in
// arrival order on every path — and tsql evaluates the residual over it in
// place, re-checking the context as it goes. The returned node is the
// executed plan; touched is its access-path cost.
func (e *Entry) SelectCtx(ctx context.Context, q *tsql.Query) (*tsql.Result, *plan.Node, int, error) {
	return e.selectOn(ctx, e.view.Load(), q)
}

// SelectEpochCtx is SelectCtx that also reports the epoch of the view the
// result answers for — what a validator handed out with it must name.
func (e *Entry) SelectEpochCtx(ctx context.Context, q *tsql.Query) (*tsql.Result, *plan.Node, int, uint64, error) {
	v := e.view.Load()
	res, node, touched, err := e.selectOn(ctx, v, q)
	return res, node, touched, v.epoch, err
}

// selectOn is SelectCtx against one pinned view.
func (e *Entry) selectOn(ctx context.Context, v *readView, q *tsql.Query) (*tsql.Result, *plan.Node, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, err
	}
	if q.Group != nil {
		return e.selectAggregate(ctx, v, q)
	}
	a, node, touched, err := v.engine.Answer(ctx, tsql.PlanQuery(q))
	if err != nil {
		return nil, nil, 0, err
	}
	res, err := tsql.EvalAnswer(ctx, q, v.schema, &a)
	if err != nil {
		return nil, nil, 0, err
	}
	node = tsql.Residual(q, node)
	e.plans.Record(node.Leaf().Kind, touched)
	return res, node, touched, nil
}

// Explain compiles the plan a SELECT would execute, without running it.
// It reads the published view's engine — one atomic load, no relation
// lock — so planning traffic never queues behind writers.
func (e *Entry) Explain(q *tsql.Query) *plan.Node {
	return tsql.Compile(q, e.view.Load().engine.Access())
}

// PlanFor builds the plan for one of the engine's query shapes, without
// executing it. Lock-free like Explain.
func (e *Entry) PlanFor(pq plan.Query) *plan.Node {
	return e.view.Load().engine.Plan(pq)
}

// Vacuum physically removes versions dead at or before the horizon (see
// relation.Vacuum), rebuilds the physical store over the survivors, and
// publishes a fresh epoch so pinned views keep serving the pre-vacuum
// state and every cached result is invalidated. No-op horizons (nothing
// removed) publish nothing — reads keep their epoch and cache.
func (e *Entry) Vacuum(horizon chronon.Chronon) (int, error) {
	// Vacuum is not WAL-logged, so a follower must refuse it: a removal
	// the primary never shipped would silently diverge the replica.
	if err := e.writable(); err != nil {
		return 0, err
	}
	removed := 0
	err := e.locked.Exclusive(func(r *relation.Relation) error {
		if horizon >= r.VacuumHorizon() {
			e.dedup.keepVacuumed(r, horizon)
		}
		n, err := r.Vacuum(horizon)
		if err != nil {
			return err
		}
		removed = n
		if n > 0 {
			_ = e.rebuildEngine(r)
			e.publish()
			e.dirty.Store(true)
		}
		return nil
	})
	return removed, err
}

// Respecialize re-advises the relation's physical design from its
// declarations and its observed extension, and migrates the live store
// when the advice differs from the current organization (respecialize),
// then records the migration as a row of _sys_events. Returns the
// migration record and whether one happened.
func (e *Entry) Respecialize() (Migration, bool, error) {
	mig, migrated, err := e.respecialize()
	if migrated {
		e.cat.recordMigration(e.name, mig)
	}
	return mig, migrated, err
}

// respecialize is Respecialize without the row. The migration is journaled
// (walRespecialize) before the store is re-labelled, so the adopted design
// survives a crash and ships to followers; the re-label happens under the
// exclusive lock but readers never block — they keep serving the
// previously published view until the fresh epoch is swapped in.
func (e *Entry) respecialize() (Migration, bool, error) {
	if err := e.writable(); err != nil {
		return Migration{}, false, err
	}
	var mig Migration
	migrated := false
	var lsn uint64
	err := e.locked.Exclusive(func(r *relation.Relation) error {
		declared := perRelationClasses(e.decls)
		observed := e.tracker.Classes()
		cand := storage.AdviseAuto(declared, observed, r.Schema().ValidTime)
		if cand.Store == e.advice.Store {
			return nil // the live organization is already the advised one
		}
		var err error
		if lsn, err = e.journal(walRespecialize, encodeRespecialize(cand.Store, cand.Source, observed)); err != nil {
			return err
		}
		mig = e.adopt(r, observed)
		e.publish()
		e.dirty.Store(true)
		migrated = true
		return nil
	})
	if err != nil || !migrated {
		return mig, migrated, err
	}
	return mig, true, e.waitDurable(lsn)
}

// adopt commits the entry to a set of observed classes and migrates the
// store to the organization they license: the apply half of a
// respecialize frame, live or replayed. Caller holds the exclusive lock.
func (e *Entry) adopt(r *relation.Relation, classes []core.Class) Migration {
	from := e.advice.Store
	e.adopted = classes
	_ = e.relabel(r, e.decls) // bounds errors only; the engine is valid
	e.migrations++
	return Migration{
		Epoch:   e.Epoch() + 1, // the epoch publish is about to stamp
		From:    from,
		To:      e.advice.Store,
		Source:  e.advice.Source,
		Reasons: append([]string(nil), e.advice.Reasons...),
	}
}

// Compact seals runs over the live store's stable prefix when the
// organization supports it, measuring them into the packed footprint, and
// refreshes Physical with the new totals. Returns how many elements were
// newly sealed. It publishes no epoch: sealing changes no element and no
// zone map, so every answer, cached answer and validator stays good.
// Deliberately not WAL-logged: the totals are derived state, rebuilt by the
// advisor loop after a restart.
func (e *Entry) Compact() int {
	sealed := 0
	_ = e.locked.Exclusive(func(r *relation.Relation) error {
		if sealed = e.store.Compact(); sealed > 0 {
			phys := e.physicalLocked()
			e.physical.Store(&phys)
		}
		return nil
	})
	return sealed
}

// Physical is a consistent snapshot of the entry's physical design: the
// live organization with its provenance, the declared / inferred / adopted
// class sets, the migration count (Catalog.Migrations has the history), and
// the compaction state.
type Physical struct {
	Org     storage.Kind
	Source  string
	Reasons []string
	// Declared are the per-relation declared classes; Inferred the monotone
	// classes the extension tracker currently holds; Adopted the observed
	// classes a journaled respecialize committed to.
	Declared   []core.Class
	Inferred   []core.Class
	Adopted    []core.Class
	Migrations uint64
	Compaction storage.CompactionStats
	StoreBytes int64
	Tracker    core.TrackerStats
}

// Physical reports the entry's current physical design. It reads the
// atomically published snapshot — one load, no relation lock — so probe
// traffic (the metrics endpoint) never queues behind writers. The published
// snapshot shares the entry's reasons and adopted classes
// (physicalLocked); the caller gets copies, so nothing it does to them
// reaches the entry.
func (e *Entry) Physical() Physical {
	p := *e.physical.Load()
	p.Reasons, p.Adopted = slices.Clone(p.Reasons), slices.Clone(p.Adopted)
	return p
}

// physicalLocked builds the Physical snapshot; caller holds the lock. It
// runs on every publish, so it copies nothing that grows: the reasons and
// the adopted classes are only ever appended to or replaced whole, so a
// published prefix of them never changes under Physical, its one reader
// (clipped, so not even an append could reach the entry's array), and the
// store keeps its sealing totals current.
func (e *Entry) physicalLocked() Physical {
	return Physical{
		Org:        e.advice.Store,
		Source:     e.advice.Source,
		Reasons:    slices.Clip(e.advice.Reasons),
		Declared:   perRelationClasses(e.decls),
		Inferred:   e.tracker.Classes(),
		Adopted:    slices.Clip(e.adopted),
		Migrations: e.migrations,
		Compaction: storage.Compaction(e.store),
		StoreBytes: storage.StoreBytes(e.store),
		Tracker:    e.tracker.Stats(),
	}
}

// PlanStats reports the entry's lifetime per-plan-kind counters.
func (e *Entry) PlanStats() map[string]plan.KindStats { return e.plans.Snapshot() }

// Classify infers the extension's specializations under the insertion
// basis at the schema granularity.
func (e *Entry) Classify() (core.Report, error) {
	var rep core.Report
	err := e.locked.View(func(r *relation.Relation) error {
		if r.Len() == 0 {
			return fmt.Errorf("catalog: relation %q is empty", e.name)
		}
		rep = core.Classify(r.Versions(), core.TTInsertion, r.Schema().Granularity)
		return nil
	})
	return rep, err
}

// Info is a consistent snapshot of the entry's metadata.
type Info struct {
	Schema       relation.Schema
	Versions     int
	Declarations []constraint.Descriptor
	Advice       storage.Advice
	// Plans is the entry's lifetime query count per plan kind.
	Plans map[string]plan.KindStats
	// Physical is the relation's current physical design.
	Physical Physical
}

// Info reports the entry's schema, size, declarations, current advice,
// physical design, and per-plan-kind query counters.
func (e *Entry) Info() Info {
	var info Info
	_ = e.locked.View(func(r *relation.Relation) error {
		info = Info{
			Schema:       r.Schema(),
			Versions:     r.Len(),
			Declarations: append([]constraint.Descriptor(nil), e.decls...),
			Advice:       e.advice,
			Plans:        e.plans.Snapshot(),
			Physical:     e.physicalLocked(),
		}
		return nil
	})
	return info
}

// snapshotTo saves the relation if dirty; reports whether a save happened.
// The shared lock is held for the whole serialization, so the file is a
// consistent cut and writers simply queue behind it.
func (e *Entry) snapshotTo(path string) (bool, error) {
	saved := false
	err := e.locked.View(func(r *relation.Relation) error {
		if !e.dirty.Swap(false) {
			return nil
		}
		snap := backlog.Of(r)
		snap.Declarations, snap.WALLSN = e.decls, e.walLSN.Load()
		snap.Physical = backlog.Physical{
			Org:        uint8(e.advice.Store),
			Source:     e.advice.Source,
			Adopted:    classesToU8(e.adopted),
			Migrations: e.migrations,
		}
		// The shared lock excludes every leaf-appending path, so the tree
		// snapshot is the same cut as walLSN: replay past the watermark
		// appends each missing leaf exactly once.
		snap.Integrity = e.integritySnapshot()
		if err := backlog.Save(path, snap); err != nil {
			e.dirty.Store(true) // retry on the next snapshot
			return err
		}
		saved = true
		return nil
	})
	return saved, err
}
