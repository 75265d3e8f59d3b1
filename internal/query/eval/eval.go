// Package eval evaluates queries over databases. It implements the
// semantics the paper assumes: set answers Q(D), active-domain semantics for
// quantifiers (variables range over the constants of D plus those of Q), and
// the membership test t ∈ Q(D) used throughout the upper-bound proofs.
//
// The evaluator is generative where it can be — relation atoms bind
// variables by scanning tuples (through the relation's column indexes when
// an argument is already bound, see index.go), so
// conjunctive queries evaluate as backtracking joins — and falls back to
// active-domain enumeration for variables constrained only by comparisons,
// negation or universal quantification. This mirrors the paper's complexity landscape: CQ/UCQ/∃FO+
// evaluation explores joins (NP combined complexity), while full FO may
// enumerate the domain per quantifier (PSPACE combined complexity), and any
// fixed query is polynomial in |D| (the data-complexity setting). The
// domain — every value of D, deduplicated and sorted — is built only when
// an enumeration first reads it, so a query whose variables all bind from
// atoms never pays for it.
//
// Variable assignments live in a slot array indexed by a per-query variable
// table, mutated and restored along the backtracking search; no maps are
// allocated on the evaluation path. Each distinct answer is keyed once, in
// a reused buffer, to drop repeated bindings; the sorted answers need no
// key index, since a binary search in canonical order finds an answer. An
// answer bound wholly by one atom's tuple, read in head order (identity
// queries and selections), is that stored tuple, not a copy of it.
package eval

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/ctxpoll"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/value"
)

// Evaluator evaluates queries against one database. It holds the
// evaluation domain (active domain of D extended with the query constants)
// and a slot table assigning each variable name a position in the binding
// array.
type Evaluator struct {
	db     *relation.Database
	q      *query.Query
	domain []value.Value // nil until computed (see Domain)
	extra  []string      // free body variables not in the head: implicitly ∃

	slots     map[string]int // variable name → binding slot
	vals      []value.Value  // slot values (valid where bound)
	bound     []bool         // slot bound flags
	headSlots []int
	// headDistinct reports whether the head names each variable once, so
	// an atom whose arguments are the head variables in order binds the
	// head field by field from its tuple.
	headDistinct bool
	// cover is the stored tuple the current head binding was read from, or
	// nil: set by a relation atom whose arguments are the head variables
	// in order and which bound every one of them, for as long as that
	// binding stands. headTuple returns it instead of a copy.
	cover relation.Tuple

	// probeCols and probeVals are scratch for the bound arguments of a
	// probe (index.go), so a probe allocates nothing.
	probeCols []int
	probeVals []value.Value
	// keyBuf is scratch for answer keys.
	keyBuf []byte
	// examined counts the relation tuples satisfyAtom has read.
	examined int
	// freeVars memoizes free-variable slot lists per formula node for the
	// conjunct-ordering cost model and for grounding.
	freeVars map[query.Formula][]int
	// atomSlots memoizes per-atom argument slots (-1 for constants).
	atomSlots map[*query.Atom][]int
	// plans memoizes per-And conjunct orders keyed by the bound pattern of
	// the node's free variables (see plan in index.go).
	plans map[*query.And]map[string][]query.Formula

	// noIndex and noReorder disable the index probes and dynamic conjunct
	// ordering; used by tests and the optimizer ablation benchmarks.
	noIndex, noReorder bool

	// poller is sampled along the backtracking search so that exponential
	// evaluations (deep quantifier nesting, large domains) can be
	// cancelled. A cancelled evaluation stops enumerating; the cause is in
	// poller.Err.
	poller *ctxpoll.Poller
}

// Options configures an Evaluator; the zero value enables all
// optimizations.
type Options struct {
	// NoIndex forces full relation scans for every atom.
	NoIndex bool
	// NoReorder evaluates conjuncts in the static generators-then-filters
	// order instead of the dynamic most-bound-first order.
	NoReorder bool
}

// New prepares an evaluator for q over db. It builds the evaluation domain
// on first use (Domain), so a query that binds every variable from
// relation atoms never pays for it.
func New(q *query.Query, db *relation.Database) *Evaluator {
	head := make(map[string]bool, len(q.Head))
	for _, h := range q.Head {
		head[h] = true
	}
	var extra []string
	for _, v := range query.FreeVars(q.Body) {
		if !head[v] {
			extra = append(extra, v)
		}
	}
	e := &Evaluator{db: db, q: q, extra: extra, slots: make(map[string]int)}
	for _, h := range q.Head {
		e.slot(h)
	}
	collectVars(q.Body, e.slot)
	e.vals = make([]value.Value, len(e.slots))
	e.bound = make([]bool, len(e.slots))
	e.headSlots = make([]int, len(q.Head))
	e.headDistinct = true
	for i, h := range q.Head {
		s := e.slots[h]
		e.headDistinct = e.headDistinct && !slices.Contains(e.headSlots[:i], s)
		e.headSlots[i] = s
	}
	e.freeVars = make(map[query.Formula][]int)
	e.atomSlots = make(map[*query.Atom][]int)
	return e
}

// NewWithOptions prepares an evaluator with explicit optimizer settings.
func NewWithOptions(q *query.Query, db *relation.Database, opts Options) *Evaluator {
	e := New(q, db)
	e.noIndex = opts.NoIndex
	e.noReorder = opts.NoReorder
	return e
}

// slot interns a variable name, allocating its binding slot on first sight.
// Names interned after construction (formulas not part of the query, as the
// tests build) grow the binding arrays.
func (e *Evaluator) slot(name string) int {
	if s, ok := e.slots[name]; ok {
		return s
	}
	s := len(e.slots)
	e.slots[name] = s
	if e.vals != nil {
		e.vals = append(e.vals, value.Value{})
		e.bound = append(e.bound, false)
	}
	return s
}

// collectVars walks the formula calling add for every variable occurrence,
// including quantified ones (shadowing shares the slot; quantifier
// save/restore keeps the semantics straight).
func collectVars(f query.Formula, add func(string) int) {
	switch n := f.(type) {
	case *query.Atom:
		for _, a := range n.Args {
			if a.IsVar() {
				add(a.Name)
			}
		}
	case *query.Cmp:
		if n.L.IsVar() {
			add(n.L.Name)
		}
		if n.R.IsVar() {
			add(n.R.Name)
		}
	case *query.And:
		for _, g := range n.Fs {
			collectVars(g, add)
		}
	case *query.Or:
		for _, g := range n.Fs {
			collectVars(g, add)
		}
	case *query.Not:
		collectVars(n.F, add)
	case *query.Exists:
		for _, v := range n.Vars {
			add(v)
		}
		collectVars(n.F, add)
	case *query.ForAll:
		for _, v := range n.Vars {
			add(v)
		}
		collectVars(n.F, add)
	default:
		panic(fmt.Sprintf("eval: unknown formula %T", f))
	}
}

// freeSlotsOf returns the slots of the formula's free variables, memoized
// per formula node.
func (e *Evaluator) freeSlotsOf(f query.Formula) []int {
	if fv, ok := e.freeVars[f]; ok {
		return fv
	}
	names := query.FreeVars(f)
	fv := make([]int, len(names))
	for i, n := range names {
		fv[i] = e.slot(n)
	}
	e.freeVars[f] = fv
	return fv
}

// argSlotsOf returns the atom's argument slots (-1 for constants),
// memoized per atom node.
func (e *Evaluator) argSlotsOf(a *query.Atom) []int {
	if s, ok := e.atomSlots[a]; ok {
		return s
	}
	s := make([]int, len(a.Args))
	for i, arg := range a.Args {
		if arg.IsVar() {
			s[i] = e.slot(arg.Name)
		} else {
			s[i] = -1
		}
	}
	e.atomSlots[a] = s
	return s
}

// term resolves a term to a constant under the current binding.
func (e *Evaluator) term(t query.Term) (value.Value, bool) {
	if !t.IsVar() {
		return t.Value, true
	}
	s, ok := e.slots[t.Name]
	if !ok || !e.bound[s] {
		return value.Value{}, false
	}
	return e.vals[s], true
}

// WithContext arms the evaluator with a cancellation context, polled
// periodically along the backtracking search. It returns the evaluator for
// chaining. After a run, Err reports whether the context cut it short.
func (e *Evaluator) WithContext(ctx context.Context) *Evaluator {
	e.poller = ctxpoll.New(ctx)
	return e
}

// Err returns the context error that interrupted the last run, or nil when
// the run was completed (or never cancelled).
func (e *Evaluator) Err() error {
	if e.poller == nil {
		return nil
	}
	return e.poller.Err()
}

// interrupted reports whether evaluation must stop.
func (e *Evaluator) interrupted() bool {
	return e.poller != nil && e.poller.Stop()
}

// Evaluate computes Q(D): its distinct answers in canonical order
// (Tuple.Compare, the order Relation.Sorted gives).
func Evaluate(q *query.Query, db *relation.Database) []relation.Tuple {
	return New(q, db).Result()
}

// EvaluateContext is Evaluate under a cancellation context; it returns
// ctx's error (and no answers) when evaluation was interrupted.
func EvaluateContext(ctx context.Context, q *query.Query, db *relation.Database) ([]relation.Tuple, error) {
	e := New(q, db).WithContext(ctx)
	answers := e.Result()
	if err := e.Err(); err != nil {
		return nil, err
	}
	return answers, nil
}

// Result computes Q(D) as Evaluate does: the distinct answers, each keyed
// once and never copied, sorted in canonical order.
func (e *Evaluator) Result() []relation.Tuple {
	var found []relation.Tuple
	e.distinct(make(map[string]struct{}), func(t relation.Tuple) bool {
		found = append(found, t)
		return true
	})
	slices.SortFunc(found, relation.Tuple.Compare)
	return found
}

// headTuple materializes the current binding of the head variables: the
// stored tuple it was read from when one atom bound it (cover), else a new
// tuple.
func (e *Evaluator) headTuple() relation.Tuple {
	if e.cover != nil {
		return e.cover
	}
	t := make(relation.Tuple, len(e.headSlots))
	for i, s := range e.headSlots {
		if !e.bound[s] {
			panic(fmt.Sprintf("eval: head variable %q unbound by satisfy", e.q.Head[i]))
		}
		t[i] = e.vals[s]
	}
	return t
}

// headKey writes the Tuple.Key of the current head binding into keyBuf and
// returns it.
func (e *Evaluator) headKey() []byte {
	buf := e.keyBuf[:0]
	for i, s := range e.headSlots {
		if !e.bound[s] {
			panic(fmt.Sprintf("eval: head variable %q unbound by satisfy", e.q.Head[i]))
		}
		if i > 0 {
			buf = append(buf, 0x1f) // Tuple.Key's separator
		}
		buf = e.vals[s].AppendKey(buf)
	}
	e.keyBuf = buf
	return buf
}

// distinct enumerates the distinct answers of Q(D) in discovery order,
// invoking yield for each new one. seen holds the key of every answer found
// so far. A binding is keyed in keyBuf, so only a new answer allocates its
// key string and its tuple.
func (e *Evaluator) distinct(seen map[string]struct{}, yield func(relation.Tuple) bool) bool {
	return e.satisfy(e.q.Body, func() bool {
		key := e.headKey()
		if _, dup := seen[string(key)]; dup {
			return true
		}
		seen[string(key)] = struct{}{}
		return yield(e.headTuple())
	})
}

// Stream enumerates distinct answers of Q(D) as they are discovered,
// without materializing the full answer set, invoking yield for each new
// tuple. yield returning false stops evaluation — the hook that lets
// diversification terminate early once a satisfactory set is found, the
// paper's Section 1 motivation for taking (Q, D) rather than Q(D) as input.
// It reports whether enumeration ran to completion.
func (e *Evaluator) Stream(yield func(relation.Tuple) bool) bool {
	return e.distinct(make(map[string]struct{}), yield)
}

// Member reports whether t ∈ Q(D) without materializing the full answer.
// Non-head free variables of the body are existentially quantified.
func (e *Evaluator) Member(t relation.Tuple) bool {
	if len(t) != e.q.Arity() {
		return false
	}
	for i, s := range e.headSlots {
		e.vals[s] = t[i]
		e.bound[s] = true
	}
	defer func() {
		for _, s := range e.headSlots {
			e.bound[s] = false
		}
	}()
	body := e.q.Body
	if len(e.extra) > 0 {
		body = &query.Exists{Vars: e.extra, F: body}
	}
	return e.truth(body)
}

// Member is a convenience wrapper constructing a one-shot evaluator.
func Member(q *query.Query, db *relation.Database, t relation.Tuple) bool {
	return New(q, db).Member(t)
}

// Domain returns the evaluation domain (active domain plus query
// constants), computing it on first use: every value of every tuple,
// deduplicated and sorted, is O(|D| log |D|) work that only active-domain
// enumeration (bindFree) needs.
func (e *Evaluator) Domain() []value.Value {
	if e.domain != nil {
		return e.domain
	}
	dom := e.db.ActiveDomain() // never nil, so the domain is computed once
	seen := make(map[string]bool, len(dom))
	for _, v := range dom {
		seen[v.Key()] = true
	}
	for _, v := range e.q.Constants() {
		if !seen[v.Key()] {
			seen[v.Key()] = true
			dom = append(dom, v)
		}
	}
	e.domain = dom
	return dom
}

// satisfy enumerates assignments over the free variables of f, extending
// the current binding, that satisfy f, invoking yield for each. yield
// returning false stops the enumeration; satisfy reports whether
// enumeration ran to completion. The binding is restored before satisfy
// returns.
func (e *Evaluator) satisfy(f query.Formula, yield func() bool) bool {
	switch n := f.(type) {
	case *query.Atom:
		return e.satisfyAtom(n, yield)
	case *query.Cmp:
		return e.bindFree(f, func() bool {
			l, _ := e.term(n.L)
			r, _ := e.term(n.R)
			if n.Op.Eval(l, r) {
				return yield()
			}
			return true
		})
	case *query.And:
		if e.noReorder {
			return e.satisfyAnd(orderConjuncts(n.Fs), 0, yield)
		}
		return e.satisfyAnd(e.plan(n), 0, yield)
	case *query.Or:
		for _, g := range n.Fs {
			ok := e.satisfy(g, func() bool {
				// Assign the disjunction's remaining free variables so
				// every yielded assignment covers all free vars of f.
				return e.bindFree(f, yield)
			})
			if !ok {
				return false
			}
		}
		return true
	case *query.Not, *query.ForAll:
		// Pure filters: ground the free variables, then test truth.
		return e.bindFree(f, func() bool {
			if e.truth(f) {
				return yield()
			}
			return true
		})
	case *query.Exists:
		return e.satisfyExists(n, yield)
	default:
		panic(fmt.Sprintf("eval: unknown formula %T", f))
	}
}

// covers reports whether binding the atom's arguments from a tuple binds
// the head to exactly that tuple: the arguments are the head variables in
// head order, the head names each once, and none is bound yet. A bound one
// would keep its own value, which may be another kind than the tuple's
// field (Int 5 matches Float 5).
func (e *Evaluator) covers(slots []int) bool {
	if !e.headDistinct || len(slots) != len(e.headSlots) {
		return false
	}
	for i, s := range slots {
		if s != e.headSlots[i] || e.bound[s] {
			return false
		}
	}
	return true
}

// satisfyAtom binds the atom's unbound arguments from each matching tuple.
// A constant or bound argument matches an equal field (value.Equal, which
// is the Key equality the column indexes group by), so a scan and an index
// probe keep the same tuples. When the atom covers the head, the tuple is
// the answer's cover while its binding stands.
func (e *Evaluator) satisfyAtom(a *query.Atom, yield func() bool) bool {
	rel := e.db.Relation(a.Rel)
	if rel == nil {
		return true // empty relation: no satisfying assignments
	}
	if len(a.Args) != rel.Schema().Arity() {
		panic(fmt.Sprintf("eval: atom %s has arity %d, relation has %d", a.Rel, len(a.Args), rel.Schema().Arity()))
	}
	slots := e.argSlotsOf(a)
	covers := e.covers(slots)
	if covers {
		outer := e.cover
		defer func() { e.cover = outer }()
	}
	tuples := rel.Tuples()
	run, indexed := e.probe(a, rel)
	n := len(tuples)
	if indexed {
		n = len(run)
	}
	var newly []int // slots bound by this atom, to unbind per tuple
scan:
	for j := 0; j < n; j++ {
		if e.interrupted() {
			return false
		}
		t := tuples[j]
		if indexed {
			t = tuples[run.Pos(j)]
		}
		e.examined++
		newly = newly[:0]
		ok := true
		for i, arg := range a.Args {
			s := slots[i]
			if s < 0 {
				if !value.Equal(arg.Value, t[i]) {
					ok = false
					break
				}
				continue
			}
			if e.bound[s] {
				if !value.Equal(e.vals[s], t[i]) {
					ok = false
					break
				}
				continue
			}
			e.vals[s] = t[i]
			e.bound[s] = true
			newly = append(newly, s)
		}
		if !ok {
			for _, s := range newly {
				e.bound[s] = false
			}
			continue scan
		}
		if covers {
			e.cover = t
		}
		cont := yield()
		for _, s := range newly {
			e.bound[s] = false
		}
		if !cont {
			return false
		}
	}
	return true
}

func (e *Evaluator) satisfyAnd(fs []query.Formula, i int, yield func() bool) bool {
	if i == len(fs) {
		return yield()
	}
	return e.satisfy(fs[i], func() bool {
		return e.satisfyAnd(fs, i+1, yield)
	})
}

// satisfyExists enumerates witnesses of the quantified body. Quantified
// variables shadow outer bindings: the outer slot state is saved and
// cleared for the inner enumeration, and restored — with the inner
// witnesses hidden — around each yield to the continuation. So is the
// cover: an inner atom's tuple no longer holds the head binding the
// continuation sees.
func (e *Evaluator) satisfyExists(n *query.Exists, yield func() bool) bool {
	outer := e.saveSlots(n.Vars)
	outerCover := e.cover
	e.clearSlots(n.Vars)
	ok := e.satisfy(n.F, func() bool {
		inner, innerCover := e.saveSlots(n.Vars), e.cover
		e.restoreSlots(n.Vars, outer)
		e.cover = outerCover
		cont := yield()
		e.restoreSlots(n.Vars, inner)
		e.cover = innerCover
		return cont
	})
	e.restoreSlots(n.Vars, outer)
	return ok
}

// slotState is a saved (value, bound) snapshot for quantifier shadowing.
type slotState struct {
	vals  []value.Value
	bound []bool
}

func (e *Evaluator) saveSlots(vars []string) slotState {
	st := slotState{vals: make([]value.Value, len(vars)), bound: make([]bool, len(vars))}
	for i, v := range vars {
		s := e.slots[v]
		st.vals[i] = e.vals[s]
		st.bound[i] = e.bound[s]
	}
	return st
}

func (e *Evaluator) clearSlots(vars []string) {
	for _, v := range vars {
		e.bound[e.slots[v]] = false
	}
}

func (e *Evaluator) restoreSlots(vars []string, st slotState) {
	for i, v := range vars {
		s := e.slots[v]
		e.vals[s] = st.vals[i]
		e.bound[s] = st.bound[i]
	}
}

// bindFree extends the binding with active-domain values for every free
// variable of f not yet bound, invoking yield for each grounding, and
// restores the binding afterwards.
func (e *Evaluator) bindFree(f query.Formula, yield func() bool) bool {
	var unbound []int
	for _, s := range e.freeSlotsOf(f) {
		if !e.bound[s] {
			unbound = append(unbound, s)
		}
	}
	if len(unbound) == 0 {
		return yield()
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(unbound) {
			return yield()
		}
		s := unbound[i]
		e.bound[s] = true
		for _, v := range e.Domain() {
			if e.interrupted() {
				e.bound[s] = false
				return false
			}
			e.vals[s] = v
			if !rec(i + 1) {
				e.bound[s] = false
				return false
			}
		}
		e.bound[s] = false
		return true
	}
	return rec(0)
}

// truth decides f under a binding that covers all of f's free variables.
func (e *Evaluator) truth(f query.Formula) bool {
	switch n := f.(type) {
	case *query.Atom:
		rel := e.db.Relation(n.Rel)
		if rel == nil {
			return false
		}
		t := make(relation.Tuple, len(n.Args))
		for i, arg := range n.Args {
			v, ok := e.term(arg)
			if !ok {
				panic(fmt.Sprintf("eval: truth of %s with unbound %s", f, arg.Name))
			}
			t[i] = v
		}
		return rel.Contains(t)
	case *query.Cmp:
		l, lok := e.term(n.L)
		r, rok := e.term(n.R)
		if !lok || !rok {
			panic(fmt.Sprintf("eval: truth of %s with unbound term", f))
		}
		return n.Op.Eval(l, r)
	case *query.And:
		for _, g := range n.Fs {
			if !e.truth(g) {
				return false
			}
		}
		return true
	case *query.Or:
		for _, g := range n.Fs {
			if e.truth(g) {
				return true
			}
		}
		return false
	case *query.Not:
		return !e.truth(n.F)
	case *query.Exists:
		// Evaluate generatively: satisfy drives quantified variables from
		// relation atoms where possible instead of grounding domain^|vars|.
		return e.witness(n.Vars, n.F)
	case *query.ForAll:
		// ∀x̄ φ ≡ ¬∃x̄ ¬φ; negate eliminates a double negation so the
		// common guard pattern ∀x̄ ¬(R(x̄) ∧ ...) evaluates as a join scan.
		return !e.witness(n.Vars, negate(n.F))
	default:
		panic(fmt.Sprintf("eval: unknown formula %T", f))
	}
}

// witness reports whether some assignment of vars (over the evaluation
// domain) extends the current binding to satisfy f. It reuses the
// generative satisfy machinery, which binds variables from relation tuples
// when atoms mention them and falls back to active-domain enumeration
// otherwise.
func (e *Evaluator) witness(vars []string, f query.Formula) bool {
	outer := e.saveSlots(vars)
	e.clearSlots(vars)
	found := false
	e.satisfy(f, func() bool {
		found = true
		return false
	})
	e.restoreSlots(vars, outer)
	return found
}

// negate returns ¬f, simplifying a leading negation away.
func negate(f query.Formula) query.Formula {
	if n, ok := f.(*query.Not); ok {
		return n.F
	}
	return &query.Not{F: f}
}

// orderConjuncts places generator formulas (atoms and positive composites)
// before filters (comparisons, negation, universals) so the backtracking
// join binds variables cheaply before testing them. Purely a performance
// reordering; filters enumerate the active domain for any variable still
// unbound, so correctness does not depend on order.
func orderConjuncts(fs []query.Formula) []query.Formula {
	gens := make([]query.Formula, 0, len(fs))
	var filters []query.Formula
	for _, f := range fs {
		switch f.(type) {
		case *query.Cmp, *query.Not, *query.ForAll:
			filters = append(filters, f)
		default:
			gens = append(gens, f)
		}
	}
	return append(gens, filters...)
}
