// Package backlog persists a temporal relation as its backlog: the
// append-only journal of insertion and logical-deletion operations, each
// stamped with its transaction time. This is the physical representation
// of [JMRS90] that §2 of the paper cites ("a backlog relation of
// insertion, modification, and deletion operations (tuples) with single
// transaction time-stamps"); replaying the journal reconstructs every
// historical state.
//
// The on-disk format is a self-describing binary stream:
//
//	header:  magic "TSBL", format version (u16), schema (length-prefixed)
//	records: length-prefixed bodies, each followed by a CRC-32C of the body
//	trailer: record count (u64) + CRC-32C of the header magic+count
//
// Every record is individually checksummed, so truncation and corruption
// are detected at load time rather than silently replayed.
package backlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
	"repro/internal/tx"
)

const (
	magic = "TSBL"
	// Format versions: 1 = schema + records; 2 adds a declarations block
	// (the constraint catalog) between the schema and the records; 3 adds
	// a state block (the applied write-ahead-log LSN) after the
	// declarations, which makes WAL replay after a snapshot idempotent;
	// 4 adds a physical-design block (live organization, advice source,
	// adopted inferred classes, migration count) after the state block, so
	// a respecialized relation reboots into the organization it migrated
	// to even after the WAL frames that chose it are truncated; 5 adds an
	// integrity block (Merkle leaf sequence and last signed root) after
	// the physical block, so proofs keep working across restarts and WAL
	// truncation. Streams older than the current version remain readable.
	formatVersion = 5
	// maxBody bounds a single record body; a record holds one element, so
	// anything larger indicates corruption.
	maxBody = 1 << 24
	// blockStep is the most of a block's body readBlock allocates before its
	// bytes arrive.
	blockStep = 4 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a failed checksum, bad framing, or a truncated
// stream.
var ErrCorrupt = errors.New("backlog: corrupt or truncated stream")

// Snapshot is everything one persisted stream holds: the relation's
// schema and backlog, and the catalog state cut at the same instant.
// Every field but Schema may be zero, and a block the stream's format
// version predates (see formatVersion) reads as zero.
type Snapshot struct {
	Schema relation.Schema
	// Declarations is the constraint catalog Load re-attaches as enforcers.
	Declarations []constraint.Descriptor
	// Records is the backlog, in transaction-time order.
	Records []relation.LogRecord
	// WALLSN is the applied write-ahead-log LSN: every WAL record at or
	// below it is reflected in Records, so boot-time replay skips them.
	// Zero claims no coverage.
	WALLSN uint64
	// Physical zero is the heap organization with nothing adopted: the
	// catalog then re-advises from the declarations.
	Physical Physical
	// Integrity zero is "not tracked": the catalog then starts a fresh
	// tree from the next commit.
	Integrity Integrity
}

// Of is the snapshot of a bare relation: its schema and backlog, no
// catalog state. The records are a slice Backlog built for this call; the
// elements they point at are the relation's own.
func Of(r *relation.Relation) Snapshot {
	return Snapshot{Schema: r.Schema(), Records: r.Backlog()}
}

// Physical is the journaled physical-design state of a relation: which
// organization it lives in, what licensed that choice, and which inferred
// classes a respecialization adopted. The catalog re-derives the live store
// from this plus the declarations at load, so the block is tiny — it
// records decisions, not data.
type Physical struct {
	// Org is the live organization as a storage.Kind ordinal.
	Org uint8
	// Source is the advice-source token ("declared", "inferred", "default").
	Source string
	// Adopted are the observed classes (core.Class ordinals) the last
	// respecialization committed to; empty when the org follows from
	// declarations alone.
	Adopted []uint8
	// Migrations counts completed store migrations over the relation's
	// lifetime.
	Migrations uint64
}

func encodePhysical(p Physical) []byte {
	var e enc
	e.u8(p.Org)
	e.str(p.Source)
	e.u16(uint16(len(p.Adopted)))
	for _, c := range p.Adopted {
		e.u8(c)
	}
	e.u64(p.Migrations)
	return e.b
}

func decodePhysical(b []byte) (Physical, error) {
	d := dec{b: b}
	var p Physical
	p.Org = d.u8()
	p.Source = d.str()
	n := int(d.u16())
	for i := 0; i < n && d.err == nil; i++ {
		p.Adopted = append(p.Adopted, d.u8())
	}
	p.Migrations = d.u64()
	if d.err != nil {
		return Physical{}, d.err
	}
	if len(d.b) != 0 {
		return Physical{}, fmt.Errorf("%w: trailing physical bytes", ErrCorrupt)
	}
	return p, nil
}

// Write serializes the snapshot to w in the current format version.
func Write(w io.Writer, s Snapshot) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(formatVersion)); err != nil {
		return err
	}
	if err := writeBlock(bw, EncodeSchema(s.Schema)); err != nil {
		return err
	}
	if err := writeBlock(bw, EncodeDeclarations(s.Declarations)); err != nil {
		return err
	}
	state := binary.LittleEndian.AppendUint64(nil, s.WALLSN)
	if err := writeBlock(bw, state); err != nil {
		return err
	}
	if err := writeBlock(bw, encodePhysical(s.Physical)); err != nil {
		return err
	}
	if err := writeIntegrity(bw, s.Integrity); err != nil {
		return err
	}
	for _, rec := range s.Records {
		if err := writeBlock(bw, AppendRecord(nil, rec)); err != nil {
			return err
		}
	}
	var trailer [12]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(len(s.Records)))
	binary.LittleEndian.PutUint32(trailer[8:], crc32.Checksum(trailer[:8], castagnoli))
	if _, err := bw.Write(trailer[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// Read deserializes a snapshot from rd, of any format version up to the
// current one.
func Read(rd io.Reader) (Snapshot, error) {
	br := bufio.NewReader(rd)
	head := make([]byte, len(magic)+2)
	if _, err := io.ReadFull(br, head); err != nil {
		return Snapshot{}, fmt.Errorf("%w: missing header", ErrCorrupt)
	}
	if string(head[:len(magic)]) != magic {
		return Snapshot{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version := binary.LittleEndian.Uint16(head[len(magic):])
	if version < 1 || version > formatVersion {
		return Snapshot{}, fmt.Errorf("backlog: unsupported format version %d", version)
	}
	var s Snapshot
	schemaBody, err := readBlock(br)
	if err != nil {
		return Snapshot{}, err
	}
	if s.Schema, err = DecodeSchema(schemaBody); err != nil {
		return Snapshot{}, err
	}
	if version >= 2 {
		declBody, err := readBlock(br)
		if err != nil {
			return Snapshot{}, err
		}
		if s.Declarations, err = DecodeDeclarations(declBody); err != nil {
			return Snapshot{}, err
		}
	}
	if version >= 3 {
		stateBody, err := readBlock(br)
		if err != nil {
			return Snapshot{}, err
		}
		if len(stateBody) != 8 {
			return Snapshot{}, fmt.Errorf("%w: bad state block", ErrCorrupt)
		}
		s.WALLSN = binary.LittleEndian.Uint64(stateBody)
	}
	if version >= 4 {
		physBody, err := readBlock(br)
		if err != nil {
			return Snapshot{}, err
		}
		if s.Physical, err = decodePhysical(physBody); err != nil {
			return Snapshot{}, err
		}
	}
	if version >= 5 {
		if s.Integrity, err = readIntegrity(br); err != nil {
			return Snapshot{}, err
		}
	}
	for {
		// The trailer is exactly the last 12 bytes of the stream, so the
		// next block is the trailer iff fewer than 13 bytes remain.
		peek, err := br.Peek(13)
		if err != nil {
			if len(peek) != 12 {
				return Snapshot{}, fmt.Errorf("%w: truncated stream", ErrCorrupt)
			}
			count := binary.LittleEndian.Uint64(peek[:8])
			sum := binary.LittleEndian.Uint32(peek[8:])
			if crc32.Checksum(peek[:8], castagnoli) != sum {
				return Snapshot{}, fmt.Errorf("%w: trailer checksum mismatch", ErrCorrupt)
			}
			if count != uint64(len(s.Records)) {
				return Snapshot{}, fmt.Errorf("%w: trailer records %d, read %d", ErrCorrupt, count, len(s.Records))
			}
			return s, nil
		}
		body, err := readBlock(br)
		if err != nil {
			return Snapshot{}, err
		}
		rec, err := DecodeRecord(body)
		if err != nil {
			return Snapshot{}, err
		}
		s.Records = append(s.Records, rec)
	}
}

// Save writes the snapshot to a file so that a crash at any point leaves
// either the old file or the whole new one: temp file, fsync, rename,
// then an fsync of the directory, because the rename is only a directory
// entry until that lands. A caller may act on Save's return — the catalog
// truncates the WAL segments the snapshot covers — so nothing a snapshot
// claims is less durable than the log records it lets a boot skip.
func Save(path string, s Snapshot) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = Write(f, s)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir flushes a directory's entry table; best effort, as the WAL's is
// (not every platform lets a directory be fsynced). A variable so that a
// test can see when it runs.
var syncDir = func(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Load reads a file written by Save, replays the backlog into a fresh
// relation on the given transaction clock, and re-attaches the persisted
// declarations as enforcers (one per scope) warmed with the replayed
// history, so the next transaction is validated against the full state.
// The relation adopts the elements Read decoded (relation.Restore): the
// returned snapshot's records point at the relation's own versions.
func Load(path string, clock tx.Clock) (*relation.Relation, Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Snapshot{}, err
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		return nil, Snapshot{}, err
	}
	r, err := relation.Restore(s.Schema, clock, s.Records)
	if err != nil {
		return nil, Snapshot{}, err
	}
	byScope, err := constraint.BuildAll(s.Declarations)
	if err != nil {
		return nil, Snapshot{}, err
	}
	for scope, cs := range byScope {
		en := constraint.NewEnforcer(scope, cs...)
		for _, rec := range r.Backlog() {
			en.Applied(r, rec.Op, rec.Elem, rec.TT)
		}
		r.AddGuard(en)
	}
	return r, s, nil
}

// writeBlock writes a length-prefixed, checksummed body.
func writeBlock(w io.Writer, body []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(body, castagnoli))
	_, err := w.Write(sum[:])
	return err
}

// readBlock reads one length-prefixed, checksummed body.
func readBlock(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxBody {
		return nil, fmt.Errorf("%w: oversized block (%d bytes)", ErrCorrupt, n)
	}
	// The body is sized from the bytes present, not from the prefix: past
	// blockStep it grows, doubling, as they arrive, so a prefix with
	// nothing behind it allocates blockStep, not the length it claims.
	body := make([]byte, min(n, blockStep))
	for read := 0; ; {
		if _, err := io.ReadFull(r, body[read:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if read = len(body); read == int(n) {
			break
		}
		body = append(body, make([]byte, min(int(n)-read, read))...)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(sum[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return body, nil
}

// --- schema encoding ---

type enc struct{ b []byte }

func (e *enc) u8(v uint8)    { e.b = append(e.b, v) }
func (e *enc) u16(v uint16)  { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string) {
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
}

type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: short record", ErrCorrupt)
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u16() uint16 {
	if d.err != nil || len(d.b) < 2 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) skip(n int) {
	if d.err != nil || len(d.b) < n {
		d.fail()
		return
	}
	d.b = d.b[n:]
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str() string {
	n := int(d.u16())
	if d.err != nil || len(d.b) < n {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// EncodeSchema serializes a relation schema (also the WAL create payload).
func EncodeSchema(s relation.Schema) []byte {
	var e enc
	e.str(s.Name)
	e.u8(uint8(s.ValidTime))
	e.i64(int64(s.Granularity))
	cols := func(cs []relation.Column) {
		e.u16(uint16(len(cs)))
		for _, c := range cs {
			e.str(c.Name)
			e.u8(uint8(c.Type))
		}
	}
	cols(s.Invariant)
	cols(s.Varying)
	e.u16(uint16(len(s.UserTimes)))
	for _, n := range s.UserTimes {
		e.str(n)
	}
	return e.b
}

// DecodeSchema deserializes and validates a relation schema.
func DecodeSchema(b []byte) (relation.Schema, error) {
	d := dec{b: b}
	var s relation.Schema
	s.Name = d.str()
	s.ValidTime = element.TimestampKind(d.u8())
	s.Granularity = chronon.Granularity(d.i64())
	cols := func() []relation.Column {
		n := int(d.u16())
		out := make([]relation.Column, 0, min(n, len(d.b))) // each takes bytes: trust no count past them
		for i := 0; i < n && d.err == nil; i++ {
			out = append(out, relation.Column{
				Name: d.str(),
				Type: element.ValueKind(d.u8()),
			})
		}
		return out
	}
	s.Invariant = cols()
	s.Varying = cols()
	n := int(d.u16())
	for i := 0; i < n && d.err == nil; i++ {
		s.UserTimes = append(s.UserTimes, d.str())
	}
	if d.err != nil {
		return relation.Schema{}, d.err
	}
	if len(d.b) != 0 {
		return relation.Schema{}, fmt.Errorf("%w: trailing schema bytes", ErrCorrupt)
	}
	if err := s.Validate(); err != nil {
		return relation.Schema{}, fmt.Errorf("backlog: invalid persisted schema: %w", err)
	}
	return s, nil
}

// --- record encoding ---

// AppendRecord appends rec's encoding to dst. The write-ahead log frames
// its mutations with the same encoding, so a WAL payload and a snapshot
// record are the same bytes for the same relation.LogRecord, and a frame
// of many records is built in one buffer.
func AppendRecord(dst []byte, rec relation.LogRecord) []byte {
	e := enc{b: dst}
	e.u8(uint8(rec.Op))
	e.i64(int64(rec.TT))
	if rec.Op == relation.OpDelete {
		e.u64(uint64(rec.Elem.ES))
		return e.b
	}
	el := rec.Elem
	e.u64(uint64(el.ES))
	e.u64(uint64(el.OS))
	e.u8(uint8(el.VT.Kind()))
	e.i64(int64(el.VT.Start()))
	e.i64(int64(el.VT.End()))
	vals := func(vs []element.Value) {
		e.u16(uint16(len(vs)))
		for _, v := range vs {
			encodeValue(&e, v)
		}
	}
	vals(el.Invariant)
	vals(el.Varying)
	e.u16(uint16(len(el.UserTimes)))
	for _, t := range el.UserTimes {
		e.i64(int64(t))
	}
	return e.b
}

// DecodeRecord deserializes one backlog record into arrays of its own.
func DecodeRecord(b []byte) (relation.LogRecord, error) {
	var s Slab
	return s.Decode(b)
}

// minInsertSpan is the fewest bytes an insert record takes in a WAL frame,
// its u32 length prefix included: op, tt, es, os, stamp kind, start, end
// and three u16 counts, with no value and no user-defined time.
const minInsertSpan = 4 + 1 + 8 + 8 + 8 + 1 + 8 + 8 + 3*2

// Slab is what a run of insert records — a batch frame's — decodes into:
// one element array and one value array shared by the run, instead of an
// element and a value array per record. A record the slab has no room for
// gets arrays of its own, so a slab's size bounds what it allocates up
// front, never what decodes. The zero Slab has no room.
//
// A decoded element points into the slab's arrays, so one element still
// referenced keeps them all; a holder that outlives most of the run (a
// vacuum's survivor) copies the element out (element.Clone).
type Slab struct {
	els  []element.Element // elements not handed out yet
	vals []element.Value   // values not handed out yet
	// The value array is sized when the first insert shows how many values
	// a record carries: that many for each of units records, at most one a
	// byte of the run (a value takes at least one).
	units, bytes int
}

// NewSlab sizes a slab for up to n insert records in a run of b bytes of
// framed records. n is a claim off the wire: the slab holds no more
// elements than the bytes can back at minInsertSpan each.
func NewSlab(n, b int) *Slab {
	n = max(0, min(n, b/minInsertSpan))
	return &Slab{els: make([]element.Element, n), units: n, bytes: b}
}

// values hands out a value array of length 0 and capacity n: the slab's
// next n values when it has room, else an array of its own, no larger
// than the bytes left to back it (left).
func (s *Slab) values(n, left int) []element.Value {
	if s.vals == nil && s.units > 0 {
		s.vals = make([]element.Value, min(n*s.units, s.bytes))
		s.units = 0
	}
	if n <= len(s.vals) {
		v := s.vals[:0:n]
		s.vals = s.vals[n:]
		return v
	}
	return make([]element.Value, 0, min(n, left))
}

// Decode deserializes one backlog record, an insert's element and values
// drawn from the slab.
func (s *Slab) Decode(b []byte) (relation.LogRecord, error) {
	d := dec{b: b}
	op := relation.Op(d.u8())
	tt := chronon.Chronon(d.i64())
	if op == relation.OpDelete {
		es := surrogate.Surrogate(d.u64())
		if d.err != nil {
			return relation.LogRecord{}, d.err
		}
		if len(d.b) != 0 {
			return relation.LogRecord{}, fmt.Errorf("%w: trailing record bytes", ErrCorrupt)
		}
		return relation.LogRecord{Op: op, TT: tt, Elem: &element.Element{ES: es}}, nil
	}
	if op != relation.OpInsert {
		return relation.LogRecord{}, fmt.Errorf("%w: unknown op %d", ErrCorrupt, op)
	}
	var el *element.Element
	if len(s.els) > 0 {
		el, s.els = &s.els[0], s.els[1:]
	} else {
		el = &element.Element{}
	}
	el.ES = surrogate.Surrogate(d.u64())
	el.OS = surrogate.Surrogate(d.u64())
	kind := element.TimestampKind(d.u8())
	start := chronon.Chronon(d.i64())
	end := chronon.Chronon(d.i64())
	// Both value lists decode into one array, sized before decoding: the
	// invariant count plus the varying one, read past the invariant values
	// by skipping them. Every value takes at least a byte, so no count is
	// trusted beyond the bytes left to back it.
	n := int(d.u16())
	skip := d
	for i := 0; i < n && skip.err == nil; i++ {
		skipValue(&skip)
	}
	vals := s.values(n+int(skip.u16()), len(d.b))
	for ; n > 0 && d.err == nil; n-- {
		vals = append(vals, decodeValue(&d))
	}
	invariants := len(vals)
	for n = int(d.u16()); n > 0 && d.err == nil; n-- {
		vals = append(vals, decodeValue(&d))
	}
	if invariants > 0 {
		el.Invariant = vals[:invariants:invariants]
	}
	if len(vals) > invariants {
		el.Varying = vals[invariants:]
	}
	n = int(d.u16())
	for i := 0; i < n && d.err == nil; i++ {
		el.UserTimes = append(el.UserTimes, chronon.Chronon(d.i64()))
	}
	if d.err != nil {
		return relation.LogRecord{}, d.err
	}
	if len(d.b) != 0 {
		return relation.LogRecord{}, fmt.Errorf("%w: trailing record bytes", ErrCorrupt)
	}
	switch kind {
	case element.EventStamp:
		el.VT = element.EventAt(start)
	case element.IntervalStamp:
		if end <= start {
			return relation.LogRecord{}, fmt.Errorf("%w: empty valid interval", ErrCorrupt)
		}
		el.VT = element.SpanOf(start, end)
	default:
		return relation.LogRecord{}, fmt.Errorf("%w: unknown stamp kind %d", ErrCorrupt, kind)
	}
	el.TTStart = tt
	el.TTEnd = chronon.Forever
	return relation.LogRecord{Op: op, TT: tt, Elem: el}, nil
}

func encodeValue(e *enc, v element.Value) {
	e.u8(uint8(v.Kind()))
	switch v.Kind() {
	case element.KindNull:
	case element.KindString:
		s, _ := v.Str()
		e.str(s)
	case element.KindInt:
		i, _ := v.IntVal()
		e.i64(i)
	case element.KindFloat:
		f, _ := v.FloatVal()
		e.f64(f)
	case element.KindBool:
		b, _ := v.BoolVal()
		if b {
			e.u8(1)
		} else {
			e.u8(0)
		}
	case element.KindTime:
		t, _ := v.TimeVal()
		e.i64(int64(t))
	}
}

// skipValue reads past one encoded value, as decodeValue would, without
// making it.
func skipValue(d *dec) {
	switch element.ValueKind(d.u8()) {
	case element.KindNull:
	case element.KindString:
		d.skip(int(d.u16()))
	case element.KindBool:
		d.skip(1)
	case element.KindInt, element.KindFloat, element.KindTime:
		d.skip(8)
	default:
		d.fail()
	}
}

func decodeValue(d *dec) element.Value {
	switch element.ValueKind(d.u8()) {
	case element.KindNull:
		return element.Null()
	case element.KindString:
		return element.String_(d.str())
	case element.KindInt:
		return element.Int(d.i64())
	case element.KindFloat:
		return element.Float(d.f64())
	case element.KindBool:
		return element.Bool(d.u8() != 0)
	case element.KindTime:
		return element.Time(chronon.Chronon(d.i64()))
	}
	d.fail()
	return element.Null()
}
