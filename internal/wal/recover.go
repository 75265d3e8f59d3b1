// Recovery: newest snapshot, then log-over-snapshot replay. Every record
// carries the generation it advanced the database to and records are
// contiguous, so replay is self-verifying — a gap or a mismatched
// generation after applying a record is corruption, not something to paper
// over. A torn final record in the newest segment is the one expected crash
// artifact: it is truncated away (the mutation it held was never
// acknowledged under FsyncAlways) unless the clean-shutdown marker says no
// crash happened, in which case it too is corruption.
package wal

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fsio"
	"repro/internal/relation"
)

// RecoverInfo reports what recovery found and did.
type RecoverInfo struct {
	// SnapshotGen is the generation of the snapshot loaded (0 when none).
	SnapshotGen uint64
	// SnapshotLoaded distinguishes "no snapshot" from "snapshot at gen 0".
	SnapshotLoaded bool
	// Replayed counts the log records applied over the snapshot.
	Replayed int
	// TornTail reports that a truncated/corrupt final record was cut from
	// the newest segment.
	TornTail bool
	// CleanShutdown reports the clean marker was present: the previous
	// process Closed its log properly.
	CleanShutdown bool
	// Generation is the database generation recovery ended at.
	Generation uint64
}

// Recover reconstructs the database persisted in dir. A missing or empty
// directory yields a fresh empty database — first boot is not an error.
// The returned database has no tap installed; the caller attaches a new
// Log (Create) after recovery so replayed records are not re-logged.
func Recover(dir string) (*relation.Database, RecoverInfo, error) {
	info := RecoverInfo{}
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return relation.NewDatabase(), info, nil
	}
	if _, err := os.Stat(filepath.Join(dir, cleanMarker)); err == nil {
		info.CleanShutdown = true
	}

	db := relation.NewDatabase()
	snaps, err := listSnapshots(fsio.Default, dir)
	if err != nil {
		return nil, info, err
	}
	if len(snaps) > 0 {
		newest := snaps[len(snaps)-1].path
		data, err := os.ReadFile(newest)
		if err != nil {
			return nil, info, err
		}
		if db, info.SnapshotGen, err = decodeSnapshot(data); err != nil {
			// A snapshot is renamed into place only after a successful
			// fsync, so a bad one is real corruption: refuse to serve a
			// silently older state.
			return nil, info, fmt.Errorf("wal: %s: %w", newest, err)
		}
		info.SnapshotLoaded = true
	}

	segs, err := listSegments(fsio.Default, dir)
	if err != nil {
		return nil, info, err
	}
	for i, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, info, err
		}
		replayed, validEnd, torn, err := replaySegment(db, data)
		info.Replayed += replayed
		if err != nil {
			return nil, info, fmt.Errorf("wal: %s: %w", seg.path, err)
		}
		if torn {
			if i != len(segs)-1 {
				return nil, info, fmt.Errorf("wal: %s: torn record in a non-final segment", seg.path)
			}
			if info.CleanShutdown {
				return nil, info, fmt.Errorf("wal: %s: torn record after a clean shutdown", seg.path)
			}
			// The residue of a crash mid-append: the record was never
			// acknowledged as durable, so cutting it loses nothing that was
			// promised. Truncate so the next recovery reads a clean file.
			if err := os.Truncate(seg.path, int64(len(segMagic)+validEnd)); err != nil {
				return nil, info, err
			}
			info.TornTail = true
		}
	}
	info.Generation = db.Generation()
	return db, info, nil
}

// replaySegment applies a segment file's records to db, skipping those a
// snapshot covers, and reports how many it applied plus scanFrames' validEnd
// and torn. A bad header, a generation gap or an unreplayable record is an
// error.
func replaySegment(db *relation.Database, data []byte) (replayed, validEnd int, torn bool, err error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return 0, 0, false, fmt.Errorf("bad segment header")
	}
	recs, validEnd, torn, err := scanFrames(data[len(segMagic):])
	if err != nil {
		return 0, validEnd, torn, err
	}
	for _, rec := range recs {
		switch {
		case rec.gen <= db.Generation():
			// Covered by the snapshot (or a segment overlap from a crash
			// between snapshot write and segment pruning).
			continue
		case rec.gen != db.Generation()+1:
			return replayed, validEnd, torn, fmt.Errorf("generation gap (have %d, record %d)", db.Generation(), rec.gen)
		}
		if err := apply(db, rec); err != nil {
			return replayed, validEnd, torn, err
		}
		if db.Generation() != rec.gen {
			return replayed, validEnd, torn, fmt.Errorf("replay desync at generation %d", rec.gen)
		}
		replayed++
	}
	return replayed, validEnd, torn, nil
}

// apply replays one record through the database's normal mutation paths,
// so generation accounting and journaling behave exactly as they did when
// the record was first written.
func apply(db *relation.Database, rec record) error {
	switch rec.kind {
	case recAddRelation:
		r := relation.NewRelation(rec.schema)
		for _, t := range rec.tuples {
			if !r.Insert(t) {
				return fmt.Errorf("replayed relation %q repeats row %v", rec.schema.Name, t)
			}
		}
		db.Add(r)
		return nil
	case recInsert:
		r := db.Relation(rec.rel)
		if r == nil {
			return fmt.Errorf("insert into unknown relation %q", rec.rel)
		}
		if len(rec.tuple) != r.Schema().Arity() {
			return &ArityError{Schema: r.Schema(), Arity: len(rec.tuple)}
		}
		if !r.Insert(rec.tuple) {
			return fmt.Errorf("replayed insert into %q was a duplicate", rec.rel)
		}
		return nil
	case recDelete:
		r := db.Relation(rec.rel)
		if r == nil {
			return fmt.Errorf("delete from unknown relation %q", rec.rel)
		}
		if !r.Delete(rec.tuple) {
			return fmt.Errorf("replayed delete from %q found no tuple", rec.rel)
		}
		return nil
	default:
		return fmt.Errorf("unknown record kind %d", rec.kind)
	}
}
