// Package wal is a segmented, append-only write-ahead log with CRC32C-
// framed records and group commit. The catalog routes every mutation
// through it before acknowledgment, which restores the paper's core
// transaction-time invariant under crashes: an acknowledged append to a
// transaction-time relation is part of the history the system actually
// stored, even across kill -9.
//
// Each segment file is named by the LSN of its first record and starts
// with a checksummed header; records follow as independently checksummed
// frames, so a torn tail (the crash-interrupted last write) is detected
// and discarded at the last whole record instead of being replayed as
// garbage. Durability is fail-stop: the first I/O error poisons the log
// and every later append or commit wait reports it, because after a
// failed or short write the tail state of the segment is unknown and
// appending past it could orphan durable records behind garbage.
//
// Commit protocol: Write frames the record under the log mutex (cheap),
// WaitDurable blocks until an fsync covers the record's LSN. Under the
// group policy the first waiter becomes the sync leader, fsyncs once for
// every record written so far, and wakes the rest — one fsync per batch of
// concurrent committers. Append is the two calls fused.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	segMagic   = "TSWL"
	segVersion = 1
	// headerSize is magic + u16 version + u64 base LSN + u32 CRC.
	headerSize = 18
	// frameMin is the smallest frame body: u64 LSN + u8 kind + u16 rel len.
	frameMin = 11
	// maxFrame bounds a frame body. A single catalog mutation is tiny,
	// and even a batched-ingest frame (N insertions in one record) stays
	// well inside 16 MiB; anything larger is corruption.
	maxFrame = 1 << 24

	defaultSegmentBytes = 64 << 20
	defaultSyncEvery    = 100 * time.Millisecond
)

// MaxFrameBytes is the largest frame body the log accepts — exported so
// batching callers can bound a multi-record payload before staging it.
const MaxFrameBytes = maxFrame

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors.
var (
	// ErrCorrupt reports damage replay cannot attribute to a torn tail:
	// a mangled sealed segment or an LSN discontinuity.
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrClosed reports use of a closed log.
	ErrClosed = errors.New("wal: closed")
)

// SyncPolicy selects when an acknowledged record is durable.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs inside every Write: one fsync per record.
	SyncAlways SyncPolicy = iota
	// SyncGroup batches concurrent committers behind a single fsync.
	SyncGroup
	// SyncInterval acknowledges immediately and fsyncs on a timer; a crash
	// may lose up to SyncEvery of acknowledged writes. Callers choose this
	// loss window explicitly.
	SyncInterval
)

// ParseSyncPolicy maps a -wal-sync flag value to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "group":
		return SyncGroup, nil
	case "interval":
		return SyncInterval, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, group, or interval)", s)
}

// String names the policy as the flag spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncGroup:
		return "group"
	case SyncInterval:
		return "interval"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Kind tags a record's meaning. The log does not interpret it; the
// catalog defines the vocabulary and must keep the values stable across
// releases, since they are replayed from disk.
type Kind uint8

// Record is one logical log entry.
type Record struct {
	LSN     uint64
	Kind    Kind
	Rel     string // owning relation name
	Payload []byte
}

// Options parameterizes Open.
type Options struct {
	// Dir is the segment directory, created if missing. Ignored when FS is
	// set.
	Dir string
	// FS overrides the file system (fault injection, fuzzing).
	FS FS
	// Sync is the commit durability policy.
	Sync SyncPolicy
	// SegmentBytes rolls the active segment once it exceeds this size.
	SegmentBytes int64
	// SyncEvery is the SyncInterval flush period.
	SyncEvery time.Duration
}

// Stats are the log's lifetime gauges, exported through /metrics.
type Stats struct {
	Appended          uint64        // records written
	Fsyncs            uint64        // fsyncs issued
	SyncedRecords     uint64        // records covered by those fsyncs
	MaxBatch          uint64        // largest single-fsync batch
	Replayed          uint64        // records recovered by Open
	ReplayDuration    time.Duration // Open scan plus catalog re-apply
	Segments          int           // live segment files
	LastLSN           uint64        // last written LSN
	DurableLSN        uint64        // last fsync-covered LSN
	TruncatedSegments uint64        // segments deleted by truncation
	VerifyFailures    uint64        // ScrubSegment checks that found damage
}

// MeanBatch is the average records per fsync.
func (s Stats) MeanBatch() float64 {
	if s.Fsyncs == 0 {
		return 0
	}
	return float64(s.SyncedRecords) / float64(s.Fsyncs)
}

type segmentInfo struct {
	name string
	base uint64 // LSN of the first record
	last uint64 // LSN of the last record; base-1 while empty
	file File   // open handle; sealed handles stay open so a racing group-commit fsync never hits a closed fd
	// rels names every relation with a record in this segment, so
	// segment-level corruption can be attributed to exactly the
	// relations whose history it carries.
	rels map[string]struct{}
}

func (s *segmentInfo) addRel(rel string) {
	if s.rels == nil {
		s.rels = make(map[string]struct{})
	}
	s.rels[rel] = struct{}{}
}

// Log is an open write-ahead log.
type Log struct {
	fs   FS
	opts Options

	mu       sync.Mutex // serializes appends, rolls, truncation
	segs     []segmentInfo
	size     int64  // bytes in the active segment
	next     uint64 // next LSN to assign
	written  uint64 // last LSN handed to the OS
	appended uint64
	closed   bool
	stale    []File // handles of truncated segments, closed on Close
	frame    []byte // Write's frame buffer, reused: a file does not retain what it is given

	smu     sync.Mutex // guards the durability watermark and sync state
	scond   *sync.Cond
	durable uint64
	syncing bool  // a sync leader is between election and publication
	failed  error // sticky first I/O error: the log is fail-stop

	fsyncs     uint64
	syncedRecs uint64
	maxBatch   uint64

	recovered   []Record
	replayed    uint64
	replayDur   time.Duration
	truncated   uint64
	verifyFails uint64

	stopc chan struct{}
	wg    sync.WaitGroup
}

func segName(base uint64) string { return fmt.Sprintf("wal-%020d.seg", base) }

// Open scans the directory, validates every segment, recovers the whole
// records (read them with TakeRecovered), discards a torn tail in the
// final segment, and prepares the log for appending. Damage anywhere a
// torn tail cannot explain aborts with ErrCorrupt rather than silently
// dropping history.
func Open(opts Options) (*Log, error) {
	fsys := opts.FS
	if fsys == nil {
		if opts.Dir == "" {
			return nil, errors.New("wal: neither Dir nor FS given")
		}
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("wal: log dir: %w", err)
		}
		fsys = DirFS(opts.Dir)
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = defaultSyncEvery
	}
	l := &Log{fs: fsys, opts: opts}
	l.scond = sync.NewCond(&l.smu)

	start := time.Now()
	names, err := fsys.List()
	if err != nil {
		return nil, fmt.Errorf("wal: listing segments: %w", err)
	}
	var segNames []string
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg") {
			segNames = append(segNames, n)
		}
	}
	sort.Strings(segNames)

	next := uint64(1)
	recreate := false
	activeValid := 0
	var all []Record
	for i, name := range segNames {
		final := i == len(segNames)-1
		data, err := fsys.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("wal: reading %s: %w", name, err)
		}
		base, recs, validLen, headerOK := parseSegment(data)
		if !headerOK {
			if !final {
				return nil, fmt.Errorf("%w: sealed segment %s has a damaged header", ErrCorrupt, name)
			}
			// The crash interrupted a roll before the new segment's header
			// was durable; no acknowledged record can live in it. Recreate
			// the active segment from scratch.
			if name != segName(next) {
				if err := fsys.Remove(name); err != nil {
					return nil, fmt.Errorf("wal: removing damaged %s: %w", name, err)
				}
			}
			recreate = true
			break
		}
		if len(l.segs) == 0 {
			next = base // earlier segments were truncated away
		} else if base != next {
			return nil, fmt.Errorf("%w: segment %s starts at lsn %d, want %d", ErrCorrupt, name, base, next)
		}
		if validLen < len(data) && !final {
			return nil, fmt.Errorf("%w: sealed segment %s has a torn tail", ErrCorrupt, name)
		}
		next += uint64(len(recs))
		all = append(all, recs...)
		si := segmentInfo{name: name, base: base, last: next - 1}
		for _, rec := range recs {
			si.addRel(rec.Rel)
		}
		l.segs = append(l.segs, si)
		activeValid = validLen
	}

	l.next = next
	if len(l.segs) == 0 || recreate {
		f, name, err := l.createSegment(next)
		if err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: syncing %s header: %w", name, err)
		}
		l.segs = append(l.segs, segmentInfo{name: name, base: next, last: next - 1, file: f})
		l.size = headerSize
	} else {
		active := &l.segs[len(l.segs)-1]
		f, err := fsys.OpenAppend(active.name, int64(activeValid))
		if err != nil {
			return nil, fmt.Errorf("wal: reopening %s: %w", active.name, err)
		}
		active.file = f
		l.size = int64(activeValid)
	}
	l.written = next - 1
	l.durable = next - 1
	l.recovered = all
	l.replayed = uint64(len(all))
	l.replayDur = time.Since(start)

	if opts.Sync == SyncInterval {
		l.stopc = make(chan struct{})
		l.wg.Add(1)
		go l.syncLoop(l.stopc)
	}
	return l, nil
}

func (l *Log) createSegment(base uint64) (File, string, error) {
	name := segName(base)
	f, err := l.fs.Create(name)
	if err != nil {
		return nil, "", fmt.Errorf("wal: creating %s: %w", name, err)
	}
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, segVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, base)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, castagnoli))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, "", fmt.Errorf("wal: writing %s header: %w", name, err)
	}
	return f, name, nil
}

// parseSegment decodes one segment file. headerOK=false means the header
// itself is unreadable (an empty or crash-torn segment). validLen is the
// byte length of the well-formed prefix and recs the whole records inside
// it. Framing damage past the header is reported through validLen <
// len(data), never as an error: only the caller knows whether a torn tail
// is legal (final segment) or corruption (sealed one).
func parseSegment(data []byte) (base uint64, recs []Record, validLen int, headerOK bool) {
	if len(data) < headerSize || string(data[:4]) != segMagic {
		return 0, nil, 0, false
	}
	if binary.LittleEndian.Uint32(data[14:18]) != crc32.Checksum(data[:14], castagnoli) {
		return 0, nil, 0, false
	}
	if binary.LittleEndian.Uint16(data[4:6]) != segVersion {
		return 0, nil, 0, false
	}
	base = binary.LittleEndian.Uint64(data[6:14])
	if base == 0 || base > math.MaxUint64/2 {
		return 0, nil, 0, false
	}
	off := headerSize
	next := base
	for {
		if len(data)-off < 4 {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n < frameMin || n > maxFrame || len(data)-off < 4+n+4 {
			break
		}
		body := data[off+4 : off+4+n]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[off+4+n:]) {
			break
		}
		lsn := binary.LittleEndian.Uint64(body)
		relLen := int(binary.LittleEndian.Uint16(body[9:11]))
		if frameMin+relLen > n || lsn != next {
			break
		}
		recs = append(recs, Record{
			LSN:     lsn,
			Kind:    Kind(body[8]),
			Rel:     string(body[frameMin : frameMin+relLen]),
			Payload: append([]byte(nil), body[frameMin+relLen:]...),
		})
		next++
		off += 4 + n + 4
	}
	return base, recs, off, true
}

// FrameBody encodes a record's frame body exactly as it is framed on
// disk: u64 LSN, u8 kind, u16 relation length, relation, payload. These
// bytes are the integrity subsystem's Merkle leaf identity — the
// primary's write path, boot replay, and follower apply all hash the same
// encoding of the same record (integrity.FrameLeaf, which hashes the
// header and the payload where they lie instead of joining them here).
func FrameBody(lsn uint64, kind Kind, rel string, payload []byte) []byte {
	return append(AppendFrameHeader(make([]byte, 0, frameMin+len(rel)+len(payload)), lsn, kind, rel), payload...)
}

// AppendFrameHeader appends the part of a frame body ahead of its payload:
// u64 LSN, u8 kind, u16 relation length, relation.
func AppendFrameHeader(dst []byte, lsn uint64, kind Kind, rel string) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = append(dst, byte(kind))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rel)))
	return append(dst, rel...)
}

// appendFrame appends one frame — u32 body length, the body, u32 CRC32C
// of the body — growing buf at most once.
func appendFrame(buf []byte, lsn uint64, kind Kind, rel string, payload []byte) []byte {
	n := frameMin + len(rel) + len(payload)
	buf = binary.LittleEndian.AppendUint32(slices.Grow(buf, 4+n+4), uint32(n))
	body := len(buf)
	buf = append(AppendFrameHeader(buf, lsn, kind, rel), payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[body:], castagnoli))
}

// MaxKeptFrame bounds every frame buffer kept from one write to the next —
// the log's, and the one a writer encodes its payloads into: a 256-element
// batch's frame fits with room to spare; the buffer of a rare larger one is
// dropped after its write.
const MaxKeptFrame = 128 << 10

// TakeRecovered returns the records Open recovered and releases them.
func (l *Log) TakeRecovered() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs := l.recovered
	l.recovered = nil
	return recs
}

// AddReplayDuration folds the caller's re-apply time into the replay
// gauge, so "last replay" covers scan plus application.
func (l *Log) AddReplayDuration(d time.Duration) {
	l.mu.Lock()
	l.replayDur += d
	l.mu.Unlock()
}

// Err returns the sticky I/O error that poisoned the log, if any.
func (l *Log) Err() error {
	l.smu.Lock()
	defer l.smu.Unlock()
	return l.failed
}

func (l *Log) setFailed(err error) {
	l.smu.Lock()
	if l.failed == nil {
		l.failed = err
	}
	l.scond.Broadcast()
	l.smu.Unlock()
}

// LastLSN reports the last written LSN.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.written
}

// DurableLSN reports the last fsync-covered LSN.
func (l *Log) DurableLSN() uint64 {
	l.smu.Lock()
	defer l.smu.Unlock()
	return l.durable
}

// Write frames one record into the active segment and returns its LSN.
// The record is NOT durable yet: pair with WaitDurable (or use Append).
// Writes for one relation must happen in that relation's commit order —
// the catalog guarantees this by writing under the relation's exclusive
// lock.
func (l *Log) Write(kind Kind, rel string, payload []byte) (uint64, error) {
	if len(rel) > math.MaxUint16 {
		return 0, fmt.Errorf("wal: relation name too long (%d bytes)", len(rel))
	}
	if frameMin+len(rel)+len(payload) > maxFrame {
		return 0, fmt.Errorf("wal: record too large (%d bytes)", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.Err(); err != nil {
		return 0, err
	}
	frame := appendFrame(l.frame[:0], l.next, kind, rel, payload)
	if cap(frame) <= MaxKeptFrame {
		l.frame = frame
	}
	if l.size+int64(len(frame)) > l.opts.SegmentBytes && l.size > headerSize {
		if err := l.rollLocked(); err != nil {
			l.setFailed(err)
			return 0, err
		}
	}
	active := &l.segs[len(l.segs)-1]
	if _, err := active.file.Write(frame); err != nil {
		err = fmt.Errorf("wal: append: %w", err)
		l.setFailed(err)
		return 0, err
	}
	lsn := l.next
	l.next++
	l.written = lsn
	l.size += int64(len(frame))
	l.appended++
	active.last = lsn
	active.addRel(rel)
	if l.opts.Sync == SyncAlways {
		if err := active.file.Sync(); err != nil {
			err = fmt.Errorf("wal: fsync: %w", err)
			l.setFailed(err)
			return 0, err
		}
		l.publishDurable(lsn)
	}
	return lsn, nil
}

// rollLocked seals the active segment (fsync, keep the handle open) and
// starts the next one. Caller holds l.mu.
func (l *Log) rollLocked() error {
	active := &l.segs[len(l.segs)-1]
	if err := active.file.Sync(); err != nil {
		return fmt.Errorf("wal: fsync before roll: %w", err)
	}
	l.publishDurable(l.written)
	f, name, err := l.createSegment(l.next)
	if err != nil {
		return err
	}
	l.segs = append(l.segs, segmentInfo{name: name, base: l.next, last: l.next - 1, file: f})
	l.size = headerSize
	return nil
}

// publishDurable advances the durability watermark to target after a
// successful fsync and books the batch.
func (l *Log) publishDurable(target uint64) {
	l.smu.Lock()
	l.fsyncs++
	if target > l.durable {
		batch := target - l.durable
		l.syncedRecs += batch
		if batch > l.maxBatch {
			l.maxBatch = batch
		}
		l.durable = target
	}
	l.scond.Broadcast()
	l.smu.Unlock()
}

// WaitDurable blocks until the record at lsn is durable under the log's
// policy. Under SyncGroup the first waiter becomes the sync leader: it
// fsyncs once for everything written so far and wakes the batch.
func (l *Log) WaitDurable(lsn uint64) error {
	switch l.opts.Sync {
	case SyncAlways:
		// Write already synced or poisoned the log.
		l.smu.Lock()
		defer l.smu.Unlock()
		if l.durable < lsn && l.failed != nil {
			return l.failed
		}
		return nil
	case SyncInterval:
		// Deliberately weak: durability arrives within SyncEvery.
		return nil
	}
	l.smu.Lock()
	for {
		if l.durable >= lsn {
			l.smu.Unlock()
			return nil
		}
		if l.failed != nil {
			err := l.failed
			l.smu.Unlock()
			return err
		}
		if !l.syncing {
			l.syncing = true
			l.smu.Unlock()
			l.leaderSync()
			l.smu.Lock()
			continue
		}
		l.scond.Wait()
	}
}

// leaderSync runs one fsync pass as the elected leader: snapshot the
// active file and written watermark together under l.mu, fsync outside
// every lock, publish. Sealed segments were fsynced when rolled, so one
// fsync of the active file covers every record up to the watermark. The
// snapshot's file handle stays valid even if a roll or truncation races
// ahead, because handles are kept open until Close.
func (l *Log) leaderSync() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.finishSync(ErrClosed, 0)
		return
	}
	f := l.segs[len(l.segs)-1].file
	target := l.written
	l.mu.Unlock()
	err := f.Sync()
	if err != nil {
		err = fmt.Errorf("wal: fsync: %w", err)
	}
	l.finishSync(err, target)
}

func (l *Log) finishSync(err error, target uint64) {
	if err != nil {
		l.smu.Lock()
		l.syncing = false
		if l.failed == nil {
			l.failed = err
		}
		l.scond.Broadcast()
		l.smu.Unlock()
		return
	}
	l.smu.Lock()
	l.syncing = false
	l.smu.Unlock()
	l.publishDurable(target)
}

// syncLoop is the SyncInterval flusher. stopc is passed in because Close
// nils the field before closing the channel.
func (l *Log) syncLoop(stopc chan struct{}) {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-stopc:
			return
		case <-t.C:
			l.mu.Lock()
			written := l.written
			closed := l.closed
			l.mu.Unlock()
			l.smu.Lock()
			idle := l.syncing || l.failed != nil || l.durable >= written
			if !idle {
				l.syncing = true
			}
			l.smu.Unlock()
			if closed || idle {
				continue
			}
			l.leaderSync()
		}
	}
}

// Append writes the record and returns once it is durable per the policy.
func (l *Log) Append(kind Kind, rel string, payload []byte) (uint64, error) {
	lsn, err := l.Write(kind, rel, payload)
	if err != nil {
		return 0, err
	}
	return lsn, l.WaitDurable(lsn)
}

// TruncateBelow deletes whole segments every record of which has LSN <=
// cut — the snapshot-coordinated truncation: the catalog passes the
// durable watermark its snapshot sweep covered. The active segment is
// never deleted. Returns how many segments were removed.
func (l *Log) TruncateBelow(cut uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	removed := 0
	for len(l.segs) > 1 && l.segs[0].last <= cut {
		s := l.segs[0]
		if err := l.fs.Remove(s.name); err != nil {
			l.truncated += uint64(removed)
			return removed, fmt.Errorf("wal: removing %s: %w", s.name, err)
		}
		if s.file != nil {
			// Keep the handle open until Close: a group-commit leader may
			// still hold it for an in-flight (harmless) fsync.
			l.stale = append(l.stale, s.file)
		}
		l.segs = l.segs[1:]
		removed++
	}
	l.truncated += uint64(removed)
	return removed, nil
}

// Stats snapshots the log's gauges.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	st := Stats{
		Appended:          l.appended,
		Replayed:          l.replayed,
		ReplayDuration:    l.replayDur,
		Segments:          len(l.segs),
		LastLSN:           l.written,
		TruncatedSegments: l.truncated,
		VerifyFailures:    l.verifyFails,
	}
	l.mu.Unlock()
	l.smu.Lock()
	st.Fsyncs = l.fsyncs
	st.SyncedRecords = l.syncedRecs
	st.MaxBatch = l.maxBatch
	st.DurableLSN = l.durable
	l.smu.Unlock()
	return st
}

// Close fsyncs the active segment a final time and closes every handle.
// Afterward the log reports ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	stopc := l.stopc
	l.stopc = nil
	l.mu.Unlock()
	if stopc != nil {
		close(stopc)
		l.wg.Wait()
	}
	// Let any in-flight sync leader publish before the handles go away.
	l.smu.Lock()
	for l.syncing {
		l.scond.Wait()
	}
	l.smu.Unlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	var err error
	if l.Err() == nil && len(l.segs) > 0 {
		if serr := l.segs[len(l.segs)-1].file.Sync(); serr != nil {
			err = fmt.Errorf("wal: final fsync: %w", serr)
		} else {
			l.publishDurable(l.written)
		}
	}
	l.closed = true
	for i := range l.segs {
		if l.segs[i].file != nil {
			_ = l.segs[i].file.Close()
			l.segs[i].file = nil
		}
	}
	for _, f := range l.stale {
		_ = f.Close()
	}
	l.stale = nil
	l.mu.Unlock()

	// Wake waiters; the log is terminally closed.
	l.smu.Lock()
	if l.failed == nil {
		if err != nil {
			l.failed = err
		} else {
			l.failed = ErrClosed
		}
	}
	l.scond.Broadcast()
	l.smu.Unlock()
	return err
}
