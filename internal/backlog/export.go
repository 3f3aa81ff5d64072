package backlog

import (
	"repro/internal/constraint"
	"repro/internal/relation"
)

// The write-ahead log reuses the backlog codec for its record payloads,
// so a WAL entry and a snapshot record are byte-identical encodings of
// the same relation.LogRecord. These wrappers export exactly that codec.

// EncodeRecord serializes one backlog record (the WAL payload format).
func EncodeRecord(rec relation.LogRecord) []byte { return encodeRecord(rec) }

// AppendRecord appends the same encoding to dst, so a frame of many records
// is built in one buffer.
func AppendRecord(dst []byte, rec relation.LogRecord) []byte { return appendRecord(dst, rec) }

// DecodeRecord deserializes one backlog record.
func DecodeRecord(b []byte) (relation.LogRecord, error) {
	return decodeRecord(b, relation.Schema{})
}

// EncodeSchema serializes a relation schema (the WAL create payload).
func EncodeSchema(s relation.Schema) []byte { return encodeSchema(s) }

// DecodeSchema deserializes and validates a relation schema.
func DecodeSchema(b []byte) (relation.Schema, error) { return decodeSchema(b) }

// EncodeDeclarations serializes a constraint catalog (the WAL declare
// payload).
func EncodeDeclarations(decls []constraint.Descriptor) []byte {
	return encodeDeclarations(decls)
}

// DecodeDeclarations deserializes and validates a constraint catalog.
func DecodeDeclarations(b []byte) ([]constraint.Descriptor, error) {
	return decodeDeclarations(b)
}
