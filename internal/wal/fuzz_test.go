package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

// reseal rewrites the checksums of data so mutated bytes reach the decoder
// instead of stopping at the CRC check: every length-consistent frame of a
// segment, or the trailing CRC of a snapshot.
func reseal(data []byte, snapshot bool) []byte {
	out := append([]byte(nil), data...)
	if snapshot {
		if len(out) >= 4 {
			binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(out[:len(out)-4], crcTable))
		}
		return out
	}
	for off := len(segMagic); len(out)-off >= 8; {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		if len(out)-off-8 < n {
			break
		}
		binary.LittleEndian.PutUint32(out[off+4:], crc32.Checksum(out[off+8:off+8+n], crcTable))
		off += 8 + n
	}
	return out
}

// FuzzSegmentReplay runs recovery's per-segment work — frame scan plus
// replay into a fresh database — over arbitrary bytes. It must return an
// error or a database, never panic, and a replayed database must sit at
// exactly the generation of the records it applied: no gap accepted.
func FuzzSegmentReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, resealed bool) {
		if resealed {
			data = reseal(data, false)
		}
		db := relation.NewDatabase()
		replayed, validEnd, torn, err := replaySegment(db, data)
		if err != nil {
			return
		}
		if db.Generation() != uint64(replayed) {
			t.Fatalf("replayed %d records but the database is at generation %d", replayed, db.Generation())
		}
		if body := len(data) - len(segMagic); validEnd > body || torn == (validEnd == body) {
			t.Fatalf("validEnd %d of %d body bytes, torn %v", validEnd, body, torn)
		}
	})
}

// FuzzSnapshotDecode runs the snapshot decoder over arbitrary bytes. It
// must return an error or a database, never panic, and a decoded database
// must re-encode to a snapshot that decodes to the same image.
func FuzzSnapshotDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, resealed bool) {
		if resealed {
			data = reseal(data, true)
		}
		db, gen, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		again := encodeSnapshot(db, gen)
		db2, gen2, err := decodeSnapshot(again)
		if err != nil || gen2 != gen || !bytes.Equal(encodeSnapshot(db2, gen2), again) {
			t.Fatalf("decoded snapshot does not round-trip: gen %d→%d, err %v", gen, gen2, err)
		}
	})
}

// arityRecords is a CRC-valid history whose insert does not fit its
// relation: r(a, b) receives a 1-tuple.
func arityRecords() []byte {
	return segment(
		record{kind: recAddRelation, gen: 1, schema: relation.NewSchema("r", "a", "b")},
		record{kind: recInsert, gen: 2, rel: "r", tuple: relation.Tuple{value.Int(1)}},
	)
}

// segment renders records as a segment file.
func segment(recs ...record) []byte {
	out := []byte(segMagic)
	for _, rec := range recs {
		out = append(out, frame(encodePayload(rec))...)
	}
	return out
}

// rawSnapshot renders a snapshot of one relation with the given tuples,
// checksummed, without the arity checks a real database would apply.
func rawSnapshot(schema relation.Schema, tuples ...relation.Tuple) []byte {
	b := append([]byte(snapMagic), 7, 1) // generation 7, one relation
	b = appendSchema(b, schema)
	b = binary.AppendUvarint(b, uint64(len(tuples)))
	for _, t := range tuples {
		b = appendTuple(b, t)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// duplicateRows are two rows that were distinct before ints and floats
// compared exactly and are one row now: the int and the float 1e16.
var duplicateRows = []relation.Tuple{{value.Int(1e16)}, {value.Float(1e16)}}

// duplicateRowSnapshot is a snapshot whose relation holds duplicateRows.
func duplicateRowSnapshot() []byte {
	return rawSnapshot(relation.NewSchema("r", "x"), duplicateRows...)
}

// fuzzSeed is one checked-in corpus entry.
type fuzzSeed struct {
	name     string
	data     []byte
	resealed bool
}

// fuzzSeeds is the checked-in corpus of both targets, by target name.
func fuzzSeeds() map[string][]fuzzSeed {
	rs := relation.NewSchema("r", "a", "b")
	valid := segment(
		record{kind: recAddRelation, gen: 1, schema: rs, tuples: []relation.Tuple{{value.Int(1), value.Str("x")}}},
		record{kind: recInsert, gen: 2, rel: "r", tuple: relation.Tuple{value.Float(2.5), value.Bool(true)}},
		record{kind: recDelete, gen: 3, rel: "r", tuple: relation.Tuple{value.Int(1), value.Str("x")}},
	)
	segs := []fuzzSeed{
		{"valid", valid, false},
		{"unknown-kind", append([]byte(segMagic), frame([]byte{9, 1})...), false},
		{"arity", arityRecords(), false},
		{"repeated-attribute", segment(record{kind: recAddRelation, gen: 1, schema: relation.Schema{Name: "r", Attrs: []string{"a", "a"}}}), false},
	}
	for cut := 0; cut < len(valid); cut++ {
		segs = append(segs, fuzzSeed{fmt.Sprintf("truncated-%03d", cut), valid[:cut], false})
	}

	db := relation.NewDatabase()
	r := relation.NewRelation(rs)
	r.Insert(relation.Tuple{value.Int(1), value.Str("x")})
	r.Insert(relation.Tuple{value.Float(-0.5), value.Bool(false)})
	db.Add(r)
	db.Add(relation.NewRelation(relation.NewSchema("empty", "z")))
	snap := encodeSnapshot(db, 5)
	snaps := []fuzzSeed{
		{"valid", snap, false},
		{"arity", rawSnapshot(rs, relation.Tuple{value.Int(1)}), false},
		{"truncated-tuple", snap[:len(snap)-6], true},
		{"repeated-attribute", rawSnapshot(relation.Schema{Name: "r", Attrs: []string{"a", "a"}}), false},
		{"trailing-bytes", append(snap[:len(snap)-4:len(snap)-4], 0, 0, 0, 0, 0), true},
		{"duplicate-row", duplicateRowSnapshot(), false},
	}
	return map[string][]fuzzSeed{"FuzzSegmentReplay": segs, "FuzzSnapshotDecode": snaps}
}

var updateSeeds = flag.Bool("update", false, "rewrite the fuzz seed corpus under testdata/fuzz")

// TestFuzzSeedCorpus keeps the checked-in corpus in step with the encoders
// (regenerate with `go test ./internal/wal -run TestFuzzSeedCorpus
// -update`). The corpus itself runs as part of every `go test`.
func TestFuzzSeedCorpus(t *testing.T) {
	for target, seeds := range fuzzSeeds() {
		dir := filepath.Join("testdata", "fuzz", target)
		if *updateSeeds {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range seeds {
			path := filepath.Join(dir, "seed-"+s.name)
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nbool(%t)\n", s.data, s.resealed)
			if *updateSeeds {
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil || string(got) != want {
				t.Errorf("%s is stale or missing (err %v); regenerate with -update", path, err)
			}
		}
	}
}

// TestReplayArityMismatchIsError: a checksum-valid record whose tuple does
// not fit its relation fails recovery with a typed error instead of
// panicking inside relation.Insert — in a log record and in a snapshot.
func TestReplayArityMismatchIsError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), arityRecords(), 0o644); err != nil {
		t.Fatal(err)
	}
	var arity *ArityError
	if _, _, err := Recover(dir); !errors.As(err, &arity) || arity.Arity != 1 {
		t.Fatalf("log arity mismatch: %v, want an ArityError for a 1-tuple", err)
	}

	dir = t.TempDir()
	snap := rawSnapshot(relation.NewSchema("r", "a", "b"), relation.Tuple{value.Int(1)})
	if err := os.WriteFile(filepath.Join(dir, snapshotName(7)), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(dir); !errors.As(err, &arity) {
		t.Fatalf("snapshot arity mismatch: %v, want an ArityError", err)
	}
}

// TestDuplicateRowsAreRefused: a snapshot or a relation record that holds
// two equal rows fails recovery instead of silently keeping one, as a
// repeated insert in the log does.
func TestDuplicateRowsAreRefused(t *testing.T) {
	if _, _, err := decodeSnapshot(duplicateRowSnapshot()); err == nil {
		t.Error("a snapshot holding the int and the float 1e16 decoded")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName(7)), duplicateRowSnapshot(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(dir); err == nil {
		t.Error("recovery accepted a snapshot holding a duplicate row")
	}
	seg := segment(record{kind: recAddRelation, gen: 1, schema: relation.NewSchema("r", "x"), tuples: duplicateRows})
	if _, _, _, err := replaySegment(relation.NewDatabase(), seg); err == nil {
		t.Error("replay accepted a relation record holding a duplicate row")
	}
}
