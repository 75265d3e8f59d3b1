package diversification

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/query/eval"
	"repro/internal/query/parse"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/wal"
)

// ErrUnknownTable is returned by mutations naming a table that was never
// created. Serving layers map it to a not-found status.
var ErrUnknownTable = errors.New("diversification: unknown table")

// Engine owns a database, compiles queries into Prepared handles, and
// evaluates diversification requests against it.
//
// The engine is safe for concurrent use: mutations (CreateTable, Insert,
// Delete) take the engine's write lock, and query evaluation, snapshot
// builds and the streaming solves run under its read lock, so none of them
// observes a half-applied mutation. A solve on a pinned snapshot holds no
// lock, so a mutation does not wait for it.
//
// An engine from NewEngine is purely in-memory; one from OpenEngine is
// durable — every committed mutation streams to a write-ahead log before
// the mutating call returns, and Snapshot/Close manage the on-disk state.
type Engine struct {
	db *relation.Database

	// mu serializes database mutation against the read paths (snapshot
	// builds, streaming solves, Query). The relation layer synchronizes
	// only the column indexes that concurrent readers build on first
	// probe; tuples, key maps and index maintenance rely on this lock,
	// which is what makes a service serving concurrent traffic sound.
	mu sync.RWMutex

	// Durability (nil/zero for in-memory engines). wal receives every
	// committed mutation via the database tap; snapEvery triggers an
	// automatic snapshot after that many mutations; recovery is the
	// boot-time report OpenEngine produced.
	wal           *wal.Log
	snapEvery     int
	mutsSinceSnap int
	recovery      RecoveryInfo

	// Read-only degradation (see readonly.go): a WAL write failure flips
	// degraded instead of poisoning the engine — solves keep serving,
	// mutations return ErrReadOnly, and a background probe (probeStop/
	// probeDone, backoff walProbe..walProbeMax) retries the log until
	// write mode is restored. walDir/walOpts let the probe re-create the
	// log; walErr and the counters feed Metrics and healthz.
	walDir       string
	walOpts      wal.Options
	walProbe     time.Duration
	walProbeMax  time.Duration
	degraded     atomic.Bool
	walErr       error // under mu
	probeRunning bool  // under mu
	probeStop    chan struct{}
	probeDone    chan struct{}

	walFailures   atomic.Int64
	probeAttempts atomic.Int64
	walRecoveries atomic.Int64
}

// NewEngine creates an engine with an empty database.
func NewEngine() *Engine {
	return &Engine{db: relation.NewDatabase()}
}

// CreateTable registers a relation schema. It advances the database
// generation, invalidating every Prepared handle's cached answer set.
func (e *Engine) CreateTable(name string, attrs ...string) error {
	if len(attrs) == 0 {
		return errors.New("diversification: table needs at least one attribute")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.degraded.Load() {
		return ErrReadOnly
	}
	if e.db.Relation(name) != nil {
		return fmt.Errorf("diversification: table %q already exists", name)
	}
	schema, err := relation.CheckSchema(name, attrs...)
	if err != nil {
		return err
	}
	e.db.Add(relation.NewRelation(schema))
	return e.afterMutation()
}

// MustCreateTable is CreateTable that panics on error.
func (e *Engine) MustCreateTable(name string, attrs ...string) {
	if err := e.CreateTable(name, attrs...); err != nil {
		panic(err)
	}
}

// Insert adds a row of Go values (int, int64, float64, string, bool). A new
// row advances the database generation, invalidating every Prepared
// handle's cached answer set.
func (e *Engine) Insert(table string, values ...interface{}) error {
	_, _, err := e.Mutate(table, [][]interface{}{values}, false)
	return err
}

// MustInsert is Insert that panics on error.
func (e *Engine) MustInsert(table string, values ...interface{}) {
	if err := e.Insert(table, values...); err != nil {
		panic(err)
	}
}

// Delete removes a row, reporting whether it was present. A removed row
// advances the database generation and is recorded in the change journal,
// so Prepared handles maintain their caches incrementally where the query
// allows it.
func (e *Engine) Delete(table string, values ...interface{}) (bool, error) {
	applied, _, err := e.Mutate(table, [][]interface{}{values}, true)
	return applied == 1, err
}

// Mutate inserts the rows into table, or deletes them when del is set, under
// one write lock, so no solve observes part of the batch. It reports how
// many rows changed the table (duplicates inserted and absent rows deleted
// do not count) and the generation the batch ended at. A bad row stops the
// batch: the rows before it stay applied and are counted.
func (e *Engine) Mutate(table string, rows [][]interface{}, del bool) (applied int, gen uint64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.degraded.Load() {
		return 0, e.db.Generation(), ErrReadOnly
	}
	r := e.db.Relation(table)
	if r == nil {
		return 0, e.db.Generation(), fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	apply := r.Insert
	if del {
		apply = r.Delete
	} else {
		r.Grow(len(rows))
	}
	// Insert stores a copy and Delete keeps none, so one scratch tuple
	// serves the whole batch.
	scratch := make(relation.Tuple, r.Schema().Arity())
	for i, values := range rows {
		t, err := fillTuple(scratch, values)
		if err != nil {
			return applied, e.db.Generation(), argErrorf("rows", "table %q row %d %v", table, i, err)
		}
		if apply(t) {
			applied++
			if err := e.afterMutation(); err != nil {
				return applied, e.db.Generation(), err
			}
		}
	}
	return applied, e.db.Generation(), nil
}

// toTuple converts a row of Go values into a tuple of the given arity.
func toTuple(values []interface{}, arity int) (relation.Tuple, error) {
	return fillTuple(make(relation.Tuple, arity), values)
}

// fillTuple converts a row of Go values into dst, whose length is the
// arity the row must have, and returns dst.
func fillTuple(dst relation.Tuple, values []interface{}) (relation.Tuple, error) {
	if len(values) != len(dst) {
		return nil, fmt.Errorf("has %d values, want arity %d", len(values), len(dst))
	}
	for i, v := range values {
		cv, err := toValue(v)
		if err != nil {
			return nil, fmt.Errorf("column %d: %w", i, err)
		}
		dst[i] = cv
	}
	return dst, nil
}

func toValue(v interface{}) (value.Value, error) {
	switch x := v.(type) {
	case int:
		return value.Int(int64(x)), nil
	case int64:
		return value.Int(x), nil
	case float64:
		return value.Float(x), nil
	case string:
		return value.Str(x), nil
	case bool:
		return value.Bool(x), nil
	case value.Value:
		return x, nil
	default:
		return value.Value{}, fmt.Errorf("diversification: unsupported value type %T", v)
	}
}

// Query parses and evaluates a query, returning the full answer set.
func (e *Engine) Query(src string) (*ResultSet, error) {
	return e.QueryContext(context.Background(), src)
}

// QueryContext is Query under a cancellation context: evaluation of an
// expensive (for FO, potentially exponential in the query) answer set can
// be aborted via ctx.
func (e *Engine) QueryContext(ctx context.Context, src string) (*ResultSet, error) {
	q, err := parse.Query(src)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := eval.Validate(q, e.db); err != nil {
		return nil, err
	}
	answers, err := eval.EvaluateContext(ctx, q, e.db)
	if err != nil {
		return nil, err
	}
	return &ResultSet{schema: relation.NewSchema(q.Name, q.Head...), rows: answers}, nil
}

// Language reports the minimal language class of a query text: "identity",
// "CQ", "UCQ", "∃FO+" or "FO".
func (e *Engine) Language(src string) (string, error) {
	return ClassifyQuery(src)
}

// ClassifyQuery exposes the language hierarchy for a parsed query, in
// support of the paper's guidance that language choice drives combined
// complexity.
func ClassifyQuery(src string) (string, error) {
	q, err := parse.Query(src)
	if err != nil {
		return "", err
	}
	return q.Classify().String(), nil
}
