// Snapshots: a full serialization of the database at one generation, so
// recovery replays only the log suffix above it instead of the whole
// mutation history. The file is a single checksummed blob written to a
// temporary name and renamed into place — it either exists completely or
// not at all, which is what lets the log prune everything older the moment
// the rename lands.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync/atomic"

	"repro/internal/fsio"
	"repro/internal/relation"
)

// encodeSnapshot renders the database body (after the magic):
//
//	uvarint gen | uvarint #relations |
//	  per relation (registration order): schema | uvarint #tuples | tuples
//
// followed by a uint32 CRC-32C of magic+body. Tuples are written in
// insertion order so the reconstructed relations iterate identically.
func encodeSnapshot(db *relation.Database, gen uint64) []byte {
	b := make([]byte, 0, 1<<16)
	b = append(b, snapMagic...)
	b = binary.AppendUvarint(b, gen)
	names := db.Names()
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		r := db.Relation(name)
		b = appendSchema(b, r.Schema())
		b = binary.AppendUvarint(b, uint64(r.Len()))
		for _, t := range r.Tuples() {
			b = appendTuple(b, t)
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// writeSnapshot durably writes the snapshot file for gen: temp file, fsync,
// rename, directory fsync.
func writeSnapshot(fs fsio.FS, dir string, db *relation.Database, gen uint64, fsyncs *atomic.Int64) error {
	data := encodeSnapshot(db, gen)
	tmp, err := fs.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		fs.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fs.Remove(tmpName)
		return err
	}
	if fsyncs != nil {
		fsyncs.Add(1)
	}
	if err := tmp.Close(); err != nil {
		fs.Remove(tmpName)
		return err
	}
	if err := fs.Rename(tmpName, filepath.Join(dir, snapshotName(gen))); err != nil {
		fs.Remove(tmpName)
		return err
	}
	return fs.SyncDir(dir)
}

// decodeSnapshot verifies a snapshot file's bytes and reconstructs the
// database, restoring the recorded generation so log replay resumes the
// exact sequence.
func decodeSnapshot(data []byte) (*relation.Database, uint64, error) {
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, 0, fmt.Errorf("not a snapshot file")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return nil, 0, fmt.Errorf("snapshot checksum mismatch")
	}
	r := &byteReader{b: body, off: len(snapMagic)}
	gen := r.uvarint()
	db := relation.NewDatabase()
	for i, n := uint64(0), r.count(); i < n && r.err == nil; i++ {
		rel := relation.NewRelation(r.schema())
		for _, t := range r.rows(rel.Schema()) {
			rel.Insert(t)
		}
		db.Add(rel)
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	if r.off != len(body) {
		return nil, 0, fmt.Errorf("%d trailing bytes in snapshot", len(body)-r.off)
	}
	db.RestoreGeneration(gen)
	return db, gen, nil
}
