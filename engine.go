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
// Delete) take the engine's write lock and every solve, refresh and query
// evaluation runs under its read lock, so a mutation waits for in-flight
// solves and a solve never observes a half-applied mutation. Long exact
// searches therefore delay mutations; cancel them via their context if
// write latency matters more than the answer.
//
// An engine from NewEngine is purely in-memory; one from OpenEngine is
// durable — every committed mutation streams to a write-ahead log before
// the mutating call returns, and Snapshot/Close manage the on-disk state.
type Engine struct {
	db *relation.Database

	// mu serializes database mutation against the read paths (solves,
	// refreshes, Query). The relation layer itself is unsynchronized; this
	// lock is what makes a service serving concurrent traffic sound.
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

	// cost feeds the plan stage's deadline-aware route degradation with
	// per-route latency observations (see cost.go).
	cost costModel
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
	e.db.Add(relation.NewRelation(relation.NewSchema(name, attrs...)))
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
	e.mu.Lock()
	defer e.mu.Unlock()
	r, t, err := e.mutationRow(table, values)
	if err != nil {
		return err
	}
	if r.Insert(t) {
		return e.afterMutation()
	}
	return nil
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
	e.mu.Lock()
	defer e.mu.Unlock()
	r, t, err := e.mutationRow(table, values)
	if err != nil {
		return false, err
	}
	if r.Delete(t) {
		return true, e.afterMutation()
	}
	return false, nil
}

// mutationRow is the shared front half of Insert and Delete, run under the
// write lock: it refuses writes in read-only mode, resolves the table, and
// converts values into a tuple of the table's arity.
func (e *Engine) mutationRow(table string, values []interface{}) (*relation.Relation, relation.Tuple, error) {
	if e.degraded.Load() {
		return nil, nil, ErrReadOnly
	}
	r := e.db.Relation(table)
	if r == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	if len(values) != r.Schema().Arity() {
		return nil, nil, argErrorf("values", "table %q expects %d values, got %d",
			table, r.Schema().Arity(), len(values))
	}
	t := make(relation.Tuple, len(values))
	for i, v := range values {
		cv, err := toValue(v)
		if err != nil {
			return nil, nil, argErrorf("values", "%v", err)
		}
		t[i] = cv
	}
	return r, t, nil
}

// SetJournalBound caps the database's change journal at n entries (values
// <= 0 restore the default of relation.DefaultJournalBound). The journal
// keeps incremental refresh memory O(bound): when more mutations accumulate
// between refreshes than the bound retains, stale Prepared handles fall
// back to a full rebuild instead of a delta.
func (e *Engine) SetJournalBound(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.db.SetJournalBound(n)
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
	res, err := eval.EvaluateContext(ctx, q, e.db)
	if err != nil {
		return nil, err
	}
	return &ResultSet{schema: res.Schema(), rows: res.Sorted()}, nil
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
