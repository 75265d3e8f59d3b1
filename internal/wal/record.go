// Record encoding: every entry the write-ahead log persists — relation
// schemas (with any pre-populated rows) and journaled tuple mutations — is
// one length-prefixed, CRC-checksummed binary frame:
//
//	uint32 LE payload length | uint32 LE CRC-32C(payload) | payload
//
// The checksum is what makes a torn tail detectable: a record cut short by
// a crash fails the length or CRC check and recovery truncates the file at
// the last valid frame instead of ingesting garbage. Payloads are
// self-describing (a kind byte, then varint/length-prefixed fields), so the
// format needs no external schema and stays byte-stable across releases
// that only append new kinds.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/relation"
	"repro/internal/value"
)

// crcTable is CRC-32C (Castagnoli), the polynomial storage systems use for
// its hardware support and error-detection properties.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recordKind discriminates payloads.
type recordKind byte

const (
	// recAddRelation is a structural Add: a schema plus the rows the
	// relation already carried when it was registered.
	recAddRelation recordKind = 1
	// recInsert and recDelete are journaled tuple mutations.
	recInsert recordKind = 2
	recDelete recordKind = 3
)

// record is one decoded WAL entry. Exactly one generation step of the
// source database: replaying records in order reproduces the generation
// sequence exactly.
type record struct {
	kind recordKind
	gen  uint64

	// recInsert / recDelete
	rel   string
	tuple relation.Tuple

	// recAddRelation
	schema relation.Schema
	tuples []relation.Tuple
}

// value kind tags on the wire (decoupled from value.Kind's iota so the
// in-memory enum can evolve without breaking persisted logs).
const (
	wireInt    byte = 1
	wireFloat  byte = 2
	wireString byte = 3
	wireBool   byte = 4
)

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindInt:
		b = append(b, wireInt)
		return binary.AppendVarint(b, v.AsInt())
	case value.KindFloat:
		b = append(b, wireFloat)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.AsFloat()))
	case value.KindString:
		b = append(b, wireString)
		return appendString(b, v.AsString())
	default:
		b = append(b, wireBool)
		if v.AsBool() {
			return append(b, 1)
		}
		return append(b, 0)
	}
}

func appendTuple(b []byte, t relation.Tuple) []byte {
	b = binary.AppendUvarint(b, uint64(len(t)))
	for _, v := range t {
		b = appendValue(b, v)
	}
	return b
}

func appendSchema(b []byte, s relation.Schema) []byte {
	b = appendString(b, s.Name)
	b = binary.AppendUvarint(b, uint64(len(s.Attrs)))
	for _, a := range s.Attrs {
		b = appendString(b, a)
	}
	return b
}

// encodePayload renders the record's payload (kind byte onward).
func encodePayload(rec record) []byte {
	b := make([]byte, 0, 64)
	b = append(b, byte(rec.kind))
	b = binary.AppendUvarint(b, rec.gen)
	switch rec.kind {
	case recAddRelation:
		b = appendSchema(b, rec.schema)
		b = binary.AppendUvarint(b, uint64(len(rec.tuples)))
		for _, t := range rec.tuples {
			b = appendTuple(b, t)
		}
	default:
		b = appendString(b, rec.rel)
		b = appendTuple(b, rec.tuple)
	}
	return b
}

// frame wraps a payload in the length+CRC header.
func frame(payload []byte) []byte {
	out := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, crcTable))
	return append(out, payload...)
}

// byteReader is a cursor over a payload with sticky error handling; the
// final err check subsumes every intermediate bounds check.
type byteReader struct {
	b   []byte
	off int
	err error
}

func (r *byteReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wal: truncated %s at offset %d", what, r.off)
	}
}

func (r *byteReader) byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail("byte")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *byteReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *byteReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

func (r *byteReader) str() string {
	n := int(r.count())
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *byteReader) value() value.Value {
	switch r.byte() {
	case wireInt:
		return value.Int(r.varint())
	case wireFloat:
		if r.err != nil || len(r.b)-r.off < 8 {
			r.fail("float")
			return value.Value{}
		}
		bits := binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
		return value.Float(math.Float64frombits(bits))
	case wireString:
		return value.Str(r.str())
	case wireBool:
		return value.Bool(r.byte() != 0)
	default:
		if r.err == nil {
			r.err = fmt.Errorf("wal: unknown value kind at offset %d", r.off-1)
		}
		return value.Value{}
	}
}

// count reads an element count: string bytes, tuple values, attributes,
// rows or relations. Every element takes at least one byte, so a count can
// never exceed the bytes that remain; the guard bounds allocation on
// corrupt input.
func (r *byteReader) count() uint64 {
	if n := r.uvarint(); n <= uint64(len(r.b)-r.off) {
		return n
	}
	r.fail("count")
	return 0
}

func (r *byteReader) tuple() relation.Tuple {
	n := r.count()
	t := make(relation.Tuple, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		t = append(t, r.value())
	}
	return t
}

// schema reads a schema: name, attribute count, attribute names. A repeated
// attribute name fails the reader.
func (r *byteReader) schema() relation.Schema {
	name := r.str()
	n := r.count()
	attrs := make([]string, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		attrs = append(attrs, r.str())
	}
	s, err := relation.CheckSchema(name, attrs...)
	if r.err == nil {
		r.err = err
	}
	return s
}

// rows reads a row count and that many tuples of s's arity. A tuple of
// another arity fails the reader with an ArityError; rows returns only the
// tuples read before a failure.
func (r *byteReader) rows(s relation.Schema) []relation.Tuple {
	n := r.count()
	out := make([]relation.Tuple, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		t := r.tuple()
		if r.err == nil && len(t) != s.Arity() {
			r.err = &ArityError{Schema: s, Arity: len(t)}
		}
		if r.err == nil {
			out = append(out, t)
		}
	}
	return out
}

// ArityError reports a persisted tuple whose arity does not match its
// relation's schema: a log record or snapshot that checksums clean but
// cannot be replayed.
type ArityError struct {
	Schema relation.Schema
	Arity  int
}

func (e *ArityError) Error() string {
	return fmt.Sprintf("wal: tuple arity %d does not match schema %s", e.Arity, e.Schema)
}

// decodePayload parses a CRC-verified payload into a record.
func decodePayload(payload []byte) (record, error) {
	r := &byteReader{b: payload}
	rec := record{kind: recordKind(r.byte()), gen: r.uvarint()}
	switch rec.kind {
	case recAddRelation:
		rec.schema = r.schema()
		rec.tuples = r.rows(rec.schema)
	case recInsert, recDelete:
		rec.rel = r.str()
		rec.tuple = r.tuple()
	default:
		return rec, fmt.Errorf("wal: unknown record kind %d", rec.kind)
	}
	if r.err != nil {
		return rec, r.err
	}
	if r.off != len(payload) {
		return rec, fmt.Errorf("wal: %d trailing bytes in record payload", len(payload)-r.off)
	}
	return rec, nil
}

// scanFrames walks the framed records in a segment body (the bytes after
// the magic header). It returns the decoded records, the offset just past
// the last valid frame (relative to the start of data), and whether
// trailing bytes remained that did not form a valid frame — a torn tail
// from a crash mid-append, or corruption.
func scanFrames(data []byte) (recs []record, validEnd int, torn bool, err error) {
	off := 0
	for off < len(data) {
		if len(data)-off < 8 {
			return recs, off, true, nil
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n < 0 || len(data)-off-8 < n {
			return recs, off, true, nil
		}
		payload := data[off+8 : off+8+n]
		if crc32.Checksum(payload, crcTable) != sum {
			return recs, off, true, nil
		}
		rec, derr := decodePayload(payload)
		if derr != nil {
			// The frame checksummed clean but the payload is malformed:
			// that is not a torn write, it is an encoder/decoder bug or
			// deliberate tampering — surface it instead of truncating data.
			return recs, off, false, derr
		}
		recs = append(recs, rec)
		off += 8 + n
	}
	return recs, off, false, nil
}
