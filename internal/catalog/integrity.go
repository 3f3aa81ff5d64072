package catalog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/backlog"
	"repro/internal/integrity"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/vec"
	"repro/internal/wal"
	"repro/internal/wire"
)

// This file is the catalog's integrity layer. Every committed WAL frame
// appends one leaf to its relation's Merkle tree (appendLeaf, called as
// each frame is journaled or replayed), a root is signed when someone
// asks for one (signedAt: the integrity endpoints and the snapshot
// writer, never the write path), snapshots persist the tree alongside
// walLSN, and proofs are served from the same tree the write path
// maintains. The scrubber walks the on-disk artifacts — sealed WAL
// segments, snapshot shards, each relation's chunk zone maps — re-verifying
// each against its checksums or, for zone maps, its elements; a detection quarantines the affected relations
// (read-only, reads keep serving) and kicks the matching repair.

// IntegrityEnabled reports whether the catalog maintains Merkle trees:
// wherever committed frames exist (a WAL is attached or the catalog is
// a follower replaying shipped frames).
func (c *Catalog) IntegrityEnabled() bool {
	return c.cfg.WAL != nil || c.cfg.Follower
}

// appendLeaf appends a frame's leaf to the relation's tree. Its one
// caller (logged) still holds the lock that serialized the write, so leaf
// order is commit order.
func (e *Entry) appendLeaf(leaf integrity.Hash) {
	if e.tree == nil {
		return
	}
	e.igMu.Lock()
	e.tree.Append(leaf)
	e.igMu.Unlock()
}

// seedIntegrity restores the tree persisted with a snapshot shard. Boot
// replay then appends the leaves of records past the shard's walLSN —
// the same cut, so each leaf lands exactly once. The shard's signed root
// is the scrubber's (verifySnapshotShard), not the server's: what is
// served is signed afresh under the key this process holds.
func (e *Entry) seedIntegrity(ig backlog.Integrity) {
	if e.tree == nil || !ig.Tracked {
		return
	}
	e.igMu.Lock()
	e.tree = integrity.NewTreeFromLeaves(ig.Leaves)
	e.igMu.Unlock()
}

// integritySnapshot captures the tree for persistence, with a root
// signed over exactly the leaves persisted (none on a follower, which
// holds no key). The caller holds the relation's shared lock, which
// excludes every leaf-appending path, so the leaves are consistent with
// the walLSN being saved.
func (e *Entry) integritySnapshot() backlog.Integrity {
	if e.tree == nil {
		return backlog.Integrity{}
	}
	e.igMu.Lock()
	leaves, root := e.tree.Leaves(), e.tree.Root()
	e.igMu.Unlock()
	ig := backlog.Integrity{Tracked: true, Leaves: leaves}
	if e.signer != nil {
		sr := e.signedAt(uint64(len(leaves)), root)
		ig.Root = &sr
	}
	return ig
}

// IntegrityState is a relation's integrity surface: the tree size and
// root with a signature covering exactly them, plus the quarantine
// cause when the relation is degraded.
type IntegrityState struct {
	Tracked     bool
	Size        uint64
	Root        integrity.Hash
	Signed      integrity.SignedRoot
	Quarantined string
}

// signedAt returns a SignedRoot over (size, root): signed by the
// relation's signer when it has one, unsigned (the follower posture)
// otherwise. It is the one place a signature is made. Ed25519 is
// deterministic, so while the tree has not grown the last signature is
// the answer and is returned as it stands.
func (e *Entry) signedAt(size uint64, root integrity.Hash) integrity.SignedRoot {
	if e.signer == nil {
		return integrity.SignedRoot{Rel: e.name, Size: size, Root: root}
	}
	if sr := e.lastSigned.Load(); sr != nil && sr.Size == size && sr.Root == root {
		return *sr
	}
	sr := e.signer.Sign(e.name, size, root)
	e.lastSigned.Store(&sr)
	return sr
}

// MerkleHead reports the tree's size and root with no signature — what
// /metrics and a relation's info print.
func (e *Entry) MerkleHead() (size uint64, root integrity.Hash, tracked bool) {
	if e.tree == nil {
		return 0, integrity.Hash{}, false
	}
	e.igMu.Lock()
	size, root = e.tree.Size(), e.tree.Root()
	e.igMu.Unlock()
	return size, root, true
}

// IntegrityState reports the relation's current integrity state.
func (e *Entry) IntegrityState() IntegrityState {
	out := IntegrityState{Quarantined: e.QuarantineCause()}
	if out.Size, out.Root, out.Tracked = e.MerkleHead(); out.Tracked {
		out.Signed = e.signedAt(out.Size, out.Root)
	}
	return out
}

// InclusionProof proves the i-th committed frame is under the current
// root: the leaf hash, the audit path, and a root signed over exactly
// the tree size the path verifies against.
func (e *Entry) InclusionProof(i uint64) (integrity.Hash, integrity.Proof, integrity.SignedRoot, error) {
	if e.tree == nil {
		return integrity.Hash{}, integrity.Proof{}, integrity.SignedRoot{},
			fmt.Errorf("catalog: integrity tracking is disabled for %q", e.name)
	}
	e.igMu.Lock()
	n := e.tree.Size()
	leaf, err := e.tree.Leaf(i)
	var hashes []integrity.Hash
	if err == nil {
		hashes, err = e.tree.InclusionProof(i, n)
	}
	root := e.tree.Root()
	e.igMu.Unlock()
	if err != nil {
		return integrity.Hash{}, integrity.Proof{}, integrity.SignedRoot{}, fmt.Errorf("catalog: %w", err)
	}
	p := integrity.Proof{Kind: integrity.ProofInclusion, Rel: e.name, A: i, N: n, Hashes: hashes}
	return leaf, p, e.signedAt(n, root), nil
}

// ConsistencyProof proves the current tree extends the size-m prefix a
// client anchored earlier: history was appended to, never rewritten.
// Returns the proof, the root at m (informational — verifiers use their
// own anchor), and a signed current root.
func (e *Entry) ConsistencyProof(m uint64) (integrity.Proof, integrity.Hash, integrity.SignedRoot, error) {
	if e.tree == nil {
		return integrity.Proof{}, integrity.Hash{}, integrity.SignedRoot{},
			fmt.Errorf("catalog: integrity tracking is disabled for %q", e.name)
	}
	e.igMu.Lock()
	n := e.tree.Size()
	oldRoot, err := e.tree.RootAt(m)
	var hashes []integrity.Hash
	if err == nil {
		hashes, err = e.tree.ConsistencyProof(m, n)
	}
	root := e.tree.Root()
	e.igMu.Unlock()
	if err != nil {
		return integrity.Proof{}, integrity.Hash{}, integrity.SignedRoot{}, fmt.Errorf("catalog: %w", err)
	}
	p := integrity.Proof{Kind: integrity.ProofConsistency, Rel: e.name, A: m, N: n, Hashes: hashes}
	return p, oldRoot, e.signedAt(n, root), nil
}

// Quarantine degrades the relation to read-only with the given cause;
// reads keep serving from memory. Unquarantine lifts it after a repair.
func (e *Entry) Quarantine(cause string) { e.quarCause.Store(&cause) }

// Unquarantine lifts the integrity quarantine.
func (e *Entry) Unquarantine() { e.quarCause.Store(nil) }

// QuarantineCause reports why the relation is quarantined ("" if not).
func (e *Entry) QuarantineCause() string {
	if p := e.quarCause.Load(); p != nil {
		return *p
	}
	return ""
}

// verifyRuns checks every full chunk's zone map against its elements, under
// the shared lock.
func (e *Entry) verifyRuns() error {
	var bad []storage.RunVerifyError
	_ = e.locked.View(func(*relation.Relation) error {
		bad = storage.VerifyRuns(e.store)
		return nil
	})
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("catalog: relation %q: %d corrupt runs (first: run %d %s)",
		e.name, len(bad), bad[0].Run, bad[0].Reason)
}

// IntegrityStats summarizes the catalog's integrity state as the /metrics
// integrity section, the scrubber's progress aside: lifetime counters,
// Merkle coverage, current quarantines and the event ring.
func (c *Catalog) IntegrityStats() wire.IntegrityMetrics {
	st := wire.IntegrityMetrics{
		Enabled:          c.IntegrityEnabled(),
		Detected:         c.igDetected.Load(),
		Repaired:         c.igRepaired.Load(),
		Quarantines:      c.igQuarantines.Load(),
		EventsUnrecorded: c.unrecorded.Load(),
		Events:           c.IntegrityEvents(),
	}
	if c.cfg.Signer != nil {
		st.Signatures = c.cfg.Signer.Signatures()
	}
	for _, name := range c.Names() {
		e, err := c.Get(name)
		if err != nil {
			continue
		}
		if size, _, tracked := e.MerkleHead(); tracked {
			st.TrackedRelations++
			st.Leaves += size
		}
		if cause := e.QuarantineCause(); cause != "" {
			st.Quarantined = append(st.Quarantined, name)
		}
	}
	return st
}

// ScrubArtifacts lists every on-disk artifact the scrubber should walk,
// in a deterministic order so a persisted cursor resumes cleanly:
// sealed WAL segments, then per-relation snapshot shards and frozen
// runs in name order.
func (c *Catalog) ScrubArtifacts() ([]integrity.Artifact, error) {
	var out []integrity.Artifact
	if w := c.cfg.WAL; w != nil {
		for _, seg := range w.Segments() {
			if !seg.Sealed {
				continue
			}
			out = append(out, integrity.Artifact{
				Kind: "wal-segment", Name: seg.Name, Bytes: w.SegmentSize(seg.Name),
			})
		}
	}
	for _, name := range c.Names() {
		if c.cfg.Dir != "" {
			if fi, err := os.Stat(filepath.Join(c.cfg.Dir, name+fileSuffix)); err == nil {
				out = append(out, integrity.Artifact{
					Kind: "snapshot", Name: name + fileSuffix, Rel: name, Bytes: fi.Size(),
				})
			}
		}
		e, err := c.Get(name)
		if err != nil {
			continue
		}
		// A relation that has filled a chunk has derived state to verify,
		// sealed or not: the zone map every scan, rollback and as-of read
		// prunes on.
		if st := e.view.Load().engine.Store(); st.Len() >= vec.BatchSize {
			out = append(out, integrity.Artifact{Kind: "runs", Name: name, Rel: name, Bytes: storage.StoreBytes(st)})
		}
	}
	return out, nil
}

// VerifyArtifact re-verifies one artifact end to end, returning an
// error describing the damage (nil when clean or gone — artifacts can
// legitimately vanish between listing and verification).
func (c *Catalog) VerifyArtifact(a integrity.Artifact) error {
	switch a.Kind {
	case "wal-segment":
		if w := c.cfg.WAL; w != nil {
			err := w.ScrubSegment(a.Name)
			if err != nil && !isKnownSegment(c.cfg.WAL, a.Name) {
				return nil // truncated away since the listing
			}
			return err
		}
		return nil
	case "snapshot":
		return c.verifySnapshotShard(a.Rel)
	case "runs":
		e, err := c.Get(a.Rel)
		if err != nil {
			return nil // dropped since the listing
		}
		return e.verifyRuns()
	}
	return fmt.Errorf("catalog: unknown artifact kind %q", a.Kind)
}

func isKnownSegment(w *wal.Log, name string) bool {
	for _, s := range w.Segments() {
		if s.Name == name {
			return true
		}
	}
	return false
}

// verifySnapshotShard fully decodes the shard (every block is length-
// framed and CRC-checked) and cross-checks the persisted signed root
// against a tree rebuilt from the persisted leaves.
func (c *Catalog) verifySnapshotShard(name string) error {
	if c.cfg.Dir == "" {
		return nil
	}
	f, err := os.Open(filepath.Join(c.cfg.Dir, name+fileSuffix))
	if err != nil {
		if os.IsNotExist(err) {
			return nil // dropped or not yet snapshotted
		}
		return fmt.Errorf("catalog: snapshot %s: %w", name, err)
	}
	defer f.Close()
	snap, err := backlog.Read(f)
	if err != nil {
		return fmt.Errorf("catalog: snapshot %s: %w", name, err)
	}
	ig := snap.Integrity
	if ig.Tracked && ig.Root != nil && ig.Root.Size <= uint64(len(ig.Leaves)) {
		tr := integrity.NewTreeFromLeaves(ig.Leaves)
		r, err := tr.RootAt(ig.Root.Size)
		if err == nil && r != ig.Root.Root {
			return fmt.Errorf("catalog: snapshot %s: leaves disagree with the sealed root at size %d", name, ig.Root.Size)
		}
	}
	return nil
}

// HandleCorrupt is the scrubber's detection callback: journal the
// finding, then repair the artifact under quarantine of the relations it
// covers (repair) — zone maps rebuild from the elements, snapshot shards
// rewrite from memory, WAL segments are re-snapshotted over and truncated
// away.
func (c *Catalog) HandleCorrupt(a integrity.Artifact, verr error) {
	c.igDetected.Add(1)
	c.journalIntegrity("detect", a, a.Rel, verr.Error())
	rels, fix := []string{a.Rel}, c.repairRuns
	switch a.Kind {
	case "snapshot":
		fix = c.repairSnapshot
	case "wal-segment":
		if c.cfg.WAL == nil {
			return
		}
		rels, fix = c.cfg.WAL.SegmentRelations(a.Name), c.repairSegment
	}
	var ents []*Entry
	for _, rel := range rels {
		if e, err := c.Get(rel); err == nil {
			ents = append(ents, e)
		}
	}
	if len(ents) > 0 { // else dropped since the listing
		c.repair(a, ents, func() (string, error) { return fix(a, ents) })
	}
}

// preserveEvidence copies a damaged artifact into <dir>/quarantine/
// before a repair overwrites or truncates it.
func (c *Catalog) preserveEvidence(name string, read func() ([]byte, error)) {
	if c.cfg.Dir == "" {
		return
	}
	data, err := read()
	if err != nil {
		return
	}
	qdir := filepath.Join(c.cfg.Dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	_ = os.WriteFile(filepath.Join(qdir, filepath.Base(name)), data, 0o644)
}

// repair is every repair's one shape: quarantine the relations ents,
// run fix, and lift the quarantine when it succeeds — each relation
// counted and journaled at both steps, so a per-relation query over
// _sys_events finds the whole story. fix returns what it did, or why it
// failed, which leaves the relations quarantined.
func (c *Catalog) repair(a integrity.Artifact, ents []*Entry, fix func() (string, error)) {
	for _, e := range ents {
		e.Quarantine(fmt.Sprintf("%s %s failed verification", a.Kind, a.Name))
		c.igQuarantines.Add(1)
		c.journalIntegrity("quarantine", a, e.name, "relation degraded to read-only")
	}
	detail, err := fix()
	kind := "repair"
	if err != nil {
		kind, detail = "repair-failed", err.Error()
	} else {
		// Lifted before any repair row is written: _sys_events may be one
		// of the relations.
		for _, e := range ents {
			e.Unquarantine()
		}
		c.igRepaired.Add(1)
	}
	for _, e := range ents {
		c.journalIntegrity(kind, a, e.name, detail)
	}
}

// repairRuns rebuilds a relation's corrupt zone maps from the live elements
// — they are derived state, the elements are ground truth.
func (c *Catalog) repairRuns(_ integrity.Artifact, ents []*Entry) (string, error) {
	e, repaired, resealed := ents[0], false, 0
	_ = e.locked.Exclusive(func(*relation.Relation) error {
		st := e.store
		bad := storage.VerifyRuns(st)
		if len(bad) == 0 {
			repaired = true // damage was in a store a concurrent vacuum rebuilt
			return nil
		}
		idx := make([]int, len(bad))
		for i, b := range bad {
			idx[i] = b.Run
		}
		resealed = storage.ResealRuns(st, idx)
		e.gen = c.storeGens.Add(1) // nothing memoized over a damaged zone map is taken for the repaired one
		repaired = len(storage.VerifyRuns(st)) == 0
		if repaired {
			e.publish()
		}
		return nil
	})
	if !repaired {
		return "", errors.New("damage survived reseal; relation stays quarantined")
	}
	return fmt.Sprintf("rebuilt the zone maps of %d runs from the live elements", resealed), nil
}

// repairSnapshot rewrites a corrupt snapshot shard from the in-memory
// relation — memory is the acked history, the shard is a copy.
func (c *Catalog) repairSnapshot(a integrity.Artifact, ents []*Entry) (string, error) {
	path := filepath.Join(c.cfg.Dir, a.Rel+fileSuffix)
	c.preserveEvidence(a.Name, func() ([]byte, error) { return os.ReadFile(path) })
	ents[0].dirty.Store(true)
	if _, err := ents[0].snapshotTo(path); err != nil {
		return "", err
	}
	if err := c.verifySnapshotShard(a.Rel); err != nil {
		return "", err
	}
	return "shard rewritten from memory and re-verified", nil
}

// repairSegment handles a corrupt sealed WAL segment: preserve the
// damaged bytes as evidence, then force fresh snapshots of the relations
// with history in it so the sweep's truncation drops the segment — memory
// holds the acked history; the on-disk copy is what rotted.
func (c *Catalog) repairSegment(a integrity.Artifact, ents []*Entry) (string, error) {
	w := c.cfg.WAL
	c.preserveEvidence(a.Name, func() ([]byte, error) { return w.SegmentData(a.Name) })
	for _, e := range ents {
		e.dirty.Store(true)
	}
	if _, err := c.Snapshot(); err != nil {
		return "", err
	}
	if isKnownSegment(w, a.Name) {
		return "", errors.New("segment still referenced after snapshot; relations stay quarantined")
	}
	return fmt.Sprintf("%d relations resnapshotted; damaged segment truncated", len(ents)), nil
}

// NewScrubber builds the background scrubber over the catalog's
// artifacts, persisting its cursor in the data directory so a restart
// resumes mid-pass instead of starting over.
func (c *Catalog) NewScrubber(bytesPerSec int64) *integrity.Scrubber {
	cursor := ""
	if c.cfg.Dir != "" {
		cursor = filepath.Join(c.cfg.Dir, "scrub.cursor")
	}
	return integrity.NewScrubber(integrity.ScrubberConfig{
		List:        c.ScrubArtifacts,
		Verify:      c.VerifyArtifact,
		OnCorrupt:   c.HandleCorrupt,
		BytesPerSec: bytesPerSec,
		CursorPath:  cursor,
	})
}

// VerifyRelation synchronously verifies every artifact covering the
// named relation — its snapshot shard, its zone maps, and each sealed
// WAL segment carrying its history — repairing what it can, exactly as
// the background scrubber would. The report counts the artifacts checked,
// the damage found in detection order, and the failures whose artifact
// re-verified clean after repair.
func (c *Catalog) VerifyRelation(name string) (wire.VerifyResponse, error) {
	if _, err := c.Get(name); err != nil {
		return wire.VerifyResponse{}, err
	}
	report := wire.VerifyResponse{Rel: name}
	arts, err := c.ScrubArtifacts()
	if err != nil {
		return report, err
	}
	for _, a := range arts {
		if a.Rel != name && (a.Kind != "wal-segment" || !slices.Contains(c.cfg.WAL.SegmentRelations(a.Name), name)) {
			continue
		}
		report.Artifacts++
		if verr := c.VerifyArtifact(a); verr != nil {
			report.Failures = append(report.Failures, verr.Error())
			c.HandleCorrupt(a, verr)
			if c.VerifyArtifact(a) == nil {
				report.Repaired++
			}
		}
	}
	return report, nil
}
