package reduction

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/query/parse"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/solver"
)

// --- Figure 5 gadgets ---

func TestFigure5Gadgets(t *testing.T) {
	db := GadgetDatabase()
	if db.Relation(RelBool).Len() != 2 {
		t.Error("I01 should have 2 tuples")
	}
	if db.Relation(RelOr).Len() != 4 || db.Relation(RelAnd).Len() != 4 {
		t.Error("I∨ and I∧ should have 4 tuples each")
	}
	if db.Relation(RelNot).Len() != 2 {
		t.Error("I¬ should have 2 tuples")
	}
	// Spot-check the truth tables exactly as printed in Figure 5.
	or := db.Relation(RelOr)
	for _, row := range [][3]int64{{0, 0, 0}, {1, 0, 1}, {1, 1, 0}, {1, 1, 1}} {
		if !or.Contains(relation.Ints(row[0], row[1], row[2])) {
			t.Errorf("I∨ missing row %v", row)
		}
	}
	and := db.Relation(RelAnd)
	for _, row := range [][3]int64{{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {1, 1, 1}} {
		if !and.Contains(relation.Ints(row[0], row[1], row[2])) {
			t.Errorf("I∧ missing row %v", row)
		}
	}
	not := db.Relation(RelNot)
	if !not.Contains(relation.Ints(0, 1)) || !not.Contains(relation.Ints(1, 0)) {
		t.Error("I¬ rows wrong")
	}
}

func TestCubeQueryGeneratesAllAssignments(t *testing.T) {
	db := relation.NewDatabase().Add(BoolRelation())
	for m := 1; m <= 4; m++ {
		q := CubeQuery(m)
		in := Q3SATToQRDMono(&sat.QBF{
			Prefix: make([]sat.Quantifier, m),
			Matrix: sat.NewCNF(sat.Clause{1, -1}),
		})
		if got := len(in.Answers()); got != 1<<m {
			t.Errorf("m=%d: |Q(D)| = %d, want %d", m, got, 1<<m)
		}
		_ = q
		_ = db
	}
}

// --- Theorem 5.1: 3SAT → QRD(CQ, FMS/FMM) ---

func TestThm51ThreeSATToQRD(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		f := sat.Random3SAT(rng, 4, 2+rng.Intn(8))
		want := f.Satisfiable()
		if got := solver.QRDExact(ThreeSATToQRDMaxSum(f)).Exists; got != want {
			t.Fatalf("trial %d FMS: reduction=%v sat=%v for %v", trial, got, want, f)
		}
		if got := solver.QRDExact(ThreeSATToQRDMaxMin(f)).Exists; got != want {
			t.Fatalf("trial %d FMM: reduction=%v sat=%v for %v", trial, got, want, f)
		}
	}
}

func TestThm51KnownFormulas(t *testing.T) {
	satisfiable := sat.NewCNF(sat.Clause{1, 2, 3}, sat.Clause{-1, -2, 3})
	unsat := sat.NewCNF(
		sat.Clause{1, 2, 3}, sat.Clause{1, 2, -3}, sat.Clause{1, -2, 3}, sat.Clause{1, -2, -3},
		sat.Clause{-1, 2, 3}, sat.Clause{-1, 2, -3}, sat.Clause{-1, -2, 3}, sat.Clause{-1, -2, -3},
	)
	if !solver.QRDExact(ThreeSATToQRDMaxSum(satisfiable)).Exists {
		t.Error("satisfiable formula should yield a valid set")
	}
	if solver.QRDExact(ThreeSATToQRDMaxSum(unsat)).Exists {
		t.Error("unsatisfiable formula should yield no valid set")
	}
	if solver.QRDExact(ThreeSATToQRDMaxMin(unsat)).Exists {
		t.Error("unsatisfiable formula should yield no valid set (FMM)")
	}
}

// --- Theorem 7.4: #SAT → RDC(CQ, FMS/FMM), parsimonious ---

func TestThm74SATToRDCParsimonious(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		f := sat.Random3SAT(rng, 4, 2+rng.Intn(6))
		want := f.CountProjected(f.Vars()) // models over appearing variables
		for _, maxMin := range []bool{false, true} {
			in := SATToRDCCount(f, maxMin)
			got := solver.RDCExact(in).Count
			if got.Cmp(big.NewInt(want)) != 0 {
				t.Fatalf("trial %d maxMin=%v: RDC=%v #SAT=%d for %v", trial, maxMin, got, want, f)
			}
		}
	}
}

// --- Theorem 6.1: co-3SAT → DRP(CQ, FMS/FMM) ---

func TestThm61CoThreeSATToDRP(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		f := sat.Random3SAT(rng, 4, 2+rng.Intn(5))
		want := !f.Satisfiable()
		inMS, err := CoThreeSATToDRPMaxSum(f)
		if err != nil {
			t.Fatal(err)
		}
		resMS, err := solver.DRPExact(inMS)
		if err != nil {
			t.Fatalf("trial %d FMS: %v", trial, err)
		}
		if resMS.InTopR != want {
			t.Fatalf("trial %d FMS: rank<=1 %v, want %v for %v", trial, resMS.InTopR, want, f)
		}
		inMM, err := CoThreeSATToDRPMaxMin(f)
		if err != nil {
			t.Fatal(err)
		}
		resMM, err := solver.DRPExact(inMM)
		if err != nil {
			t.Fatalf("trial %d FMM: %v", trial, err)
		}
		if resMM.InTopR != want {
			t.Fatalf("trial %d FMM: rank<=1 %v, want %v for %v", trial, resMM.InTopR, want, f)
		}
	}
}

func TestThm61RejectsSingleClause(t *testing.T) {
	f := sat.NewCNF(sat.Clause{1, 2, 3})
	if _, err := CoThreeSATToDRPMaxSum(f); err == nil {
		t.Error("single-clause formulas are outside the repaired construction")
	}
}

// --- Theorem 5.1/6.1 FO case: membership reductions ---

func membershipFixture() (queryText string, db *relation.Database) {
	r := relation.NewRelation(relation.NewSchema("R", "a", "b"))
	r.InsertAll(relation.Ints(1, 2), relation.Ints(2, 3), relation.Ints(3, 3))
	s := relation.NewRelation(relation.NewSchema("S", "a"))
	s.InsertAll(relation.Ints(2))
	db = relation.NewDatabase().Add(r).Add(s)
	// Q(x) :- R(x, y), not S(x): answers {1, 3}.
	return "Q(x) :- R(x, y), not S(x)", db
}

func TestThm51MembershipToQRDFO(t *testing.T) {
	text, db := membershipFixture()
	q := parse.MustQuery(text)
	cases := []struct {
		s    relation.Tuple
		want bool
	}{
		{relation.Ints(1), true},
		{relation.Ints(2), false},
		{relation.Ints(3), true},
	}
	for _, maxMin := range []bool{false, true} {
		for _, c := range cases {
			in, err := MembershipToQRDFO(q, db, c.s, maxMin)
			if err != nil {
				t.Fatal(err)
			}
			if got := solver.QRDExact(in).Exists; got != c.want {
				t.Errorf("maxMin=%v s=%v: got %v, want %v", maxMin, c.s, got, c.want)
			}
		}
	}
}

func TestThm61MembershipToDRPFO(t *testing.T) {
	text, db := membershipFixture()
	q := parse.MustQuery(text)
	cases := []struct {
		s         relation.Tuple
		notMember bool
	}{
		{relation.Ints(1), false},
		{relation.Ints(2), true},
		{relation.Ints(3), false},
	}
	for _, maxMin := range []bool{false, true} {
		for _, c := range cases {
			in, err := MembershipToDRPFO(q, db, c.s, maxMin)
			if err != nil {
				t.Fatal(err)
			}
			res, err := solver.DRPExact(in)
			if err != nil {
				t.Fatalf("maxMin=%v s=%v: %v", maxMin, c.s, err)
			}
			if res.InTopR != c.notMember {
				t.Errorf("maxMin=%v s=%v: rank<=1 %v, want %v", maxMin, c.s, res.InTopR, c.notMember)
			}
		}
	}
}

func TestMembershipRejectsArityMismatch(t *testing.T) {
	text, db := membershipFixture()
	q := parse.MustQuery(text)
	if _, err := MembershipToQRDFO(q, db, relation.Ints(1, 2), false); err == nil {
		t.Error("arity mismatch must be rejected")
	}
	if _, err := MembershipToDRPFO(q, db, relation.Ints(7), false); err == nil {
		t.Error("out-of-domain tuple must be rejected by the DRP construction")
	}
}

// --- Lemma 5.3: the inductive distance equals suffix-QBF truth ---

func TestLemma53DistanceEqualsSuffixTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		m := 3 + rng.Intn(3)
		q := sat.RandomQBF(rng, m, 2+rng.Intn(6))
		q.Matrix.NumVars = m
		pd := NewPrefixDistance(q)
		// For every prefix p, delta(p) must equal the truth of
		// P_{l+1}x_{l+1}...Pm xm ψ under p.
		var walk func(p []bool)
		walk = func(p []bool) {
			if len(p) >= m {
				return
			}
			a := make(sat.Assignment, len(p))
			for i, b := range p {
				a[i+1] = b
			}
			want := q.EvalUnder(a, len(p)+1)
			if got := pd.delta(p); got != want {
				t.Fatalf("trial %d: delta(%v) = %v, suffix truth = %v", trial, p, got, want)
			}
			walk(append(append([]bool(nil), p...), true))
			walk(append(append([]bool(nil), p...), false))
		}
		walk(nil)
	}
}

// TestPrefixDistanceConcurrentDis calls Dis from several goroutines at once,
// as the parallel matrix fill does, on a fresh memo: under -race it pins
// the memo's locking, and every answer must match a sequential evaluation.
func TestPrefixDistanceConcurrentDis(t *testing.T) {
	ref := NewPrefixDistance(Figure2QBF())
	want := make(map[[2]int]float64)
	for i := 1; i <= 16; i++ {
		for j := 1; j <= 16; j++ {
			want[[2]int{i, j}] = ref.Dis(Figure2Tuple(i), Figure2Tuple(j))
		}
	}
	pd := NewPrefixDistance(Figure2QBF())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pair, d := range want {
				if got := pd.Dis(Figure2Tuple(pair[0]), Figure2Tuple(pair[1])); got != d {
					t.Errorf("concurrent δ(t%d,t%d) = %v, want %v", pair[0], pair[1], got, d)
				}
			}
		}()
	}
	wg.Wait()
}

// --- Figure 2: the worked example distance table ---

func TestFigure2Reproduction(t *testing.T) {
	pd := NewPrefixDistance(Figure2QBF())
	d := func(i, j int) float64 { return pd.Dis(Figure2Tuple(i), Figure2Tuple(j)) }

	// Level l=3 (P4 = ∀): the figure's eight adjacent pairs.
	level3 := map[[2]int]float64{
		{1, 2}: 0, {3, 4}: 1, {5, 6}: 1, {7, 8}: 1,
		{9, 10}: 0, {11, 12}: 1, {13, 14}: 0, {15, 16}: 1,
	}
	for pair, want := range level3 {
		if got := d(pair[0], pair[1]); got != want {
			t.Errorf("δ(t%d,t%d) = %v, want %v", pair[0], pair[1], got, want)
		}
	}
	// Level l=2 (P3 = ∃): all four cross-group blocks are 1.
	blocks2 := [][4]int{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}, {13, 14, 15, 16}}
	for _, blk := range blocks2 {
		for _, i := range []int{blk[0], blk[1]} {
			for _, j := range []int{blk[2], blk[3]} {
				if got := d(i, j); got != 1 {
					t.Errorf("l=2: δ(t%d,t%d) = %v, want 1", i, j, got)
				}
			}
		}
	}
	// Level l=1 (P2 = ∀): [1,4]×[5,8] and [9,12]×[13,16] all 1.
	for i := 1; i <= 4; i++ {
		for j := 5; j <= 8; j++ {
			if got := d(i, j); got != 1 {
				t.Errorf("l=1: δ(t%d,t%d) = %v, want 1", i, j, got)
			}
		}
	}
	for i := 9; i <= 12; i++ {
		for j := 13; j <= 16; j++ {
			if got := d(i, j); got != 1 {
				t.Errorf("l=1: δ(t%d,t%d) = %v, want 1", i, j, got)
			}
		}
	}
	// Level l=0 (P1 = ∃): [1,8]×[9,16] all 1.
	for i := 1; i <= 8; i++ {
		for j := 9; j <= 16; j++ {
			if got := d(i, j); got != 1 {
				t.Errorf("l=0: δ(t%d,t%d) = %v, want 1", i, j, got)
			}
		}
	}
	// The figure's ψ annotations.
	psiWant := map[int]bool{
		1: true, 2: false, 3: true, 4: true, 5: true, 6: true, 7: true, 8: true,
		9: true, 10: false, 11: true, 12: true, 13: false, 14: false, 15: true, 16: true,
	}
	for i, want := range psiWant {
		if got := pd.psi(bits(Figure2Tuple(i))); got != want {
			t.Errorf("ψ[t%d] = %v, want %v", i, got, want)
		}
	}
}

// --- Theorem 5.2: Q3SAT → QRD(CQ, Fmono) ---

func TestThm52Q3SATToQRDMono(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(4)
		q := sat.RandomQBF(rng, m, 2+rng.Intn(6))
		q.Matrix.NumVars = m
		want := q.Eval()
		in := Q3SATToQRDMono(q)
		if got := solver.QRDExact(in).Exists; got != want {
			t.Fatalf("trial %d: reduction=%v ϕ=%v (m=%d)", trial, got, want, m)
		}
	}
	// The Figure 2 sentence is true.
	if !solver.QRDExact(Q3SATToQRDMono(Figure2QBF())).Exists {
		t.Error("Figure 2 sentence should yield a valid set")
	}
}

// --- Theorem 6.2: Q3SAT → DRP(CQ, Fmono) ---

func TestThm62Q3SATToDRPMono(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tested := 0
	for trial := 0; tested < 15 && trial < 200; trial++ {
		m := 2 + rng.Intn(3)
		q := sat.RandomQBF(rng, m, 2+rng.Intn(5))
		q.Matrix.NumVars = m
		in, degenerate := Q3SATToDRPMono(q)
		if degenerate {
			continue // documented corner; covered below
		}
		tested++
		want := q.Eval()
		res, err := solver.DRPExact(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.InTopR != want {
			t.Fatalf("trial %d: rank<=1 is %v, ϕ is %v (m=%d)", trial, res.InTopR, want, m)
		}
	}
	if tested < 10 {
		t.Fatalf("too few non-degenerate instances exercised: %d", tested)
	}
}

// TestThm62KnownCorner documents the errata: with an identically-zero
// distance (unsatisfiable matrix) and ϕ false, the paper's construction
// ranks U first anyway. The constructor flags this.
func TestThm62KnownCorner(t *testing.T) {
	q := &sat.QBF{
		Prefix: []sat.Quantifier{sat.Exists, sat.Exists},
		Matrix: sat.NewCNF(sat.Clause{1}, sat.Clause{-1}),
	}
	if q.Eval() {
		t.Fatal("corner formula should be false")
	}
	in, degenerate := Q3SATToDRPMono(q)
	if !degenerate {
		t.Fatal("constructor should flag the degenerate corner")
	}
	res, err := solver.DRPExact(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.InTopR {
		t.Error("the corner shows rank(U)=1 despite ϕ being false — the flagged gap")
	}
}

// --- Theorem 7.1: #Σ1SAT → RDC(CQ, FMS/FMM), parsimonious ---

func TestThm71SigmaSATToRDC(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		// ψ over X = {1, 2}, Y = {3, 4}.
		f := sat.Random3SAT(rng, 4, 2+rng.Intn(4))
		xVars, yVars := []int{1, 2}, []int{3, 4}
		want := CountSigmaSAT(f, yVars)
		for _, maxMin := range []bool{false, true} {
			in, err := SigmaSATToRDC(f, xVars, yVars, maxMin)
			if err != nil {
				t.Fatal(err)
			}
			got := solver.RDCExact(in).Count
			if got.Cmp(big.NewInt(want)) != 0 {
				t.Fatalf("trial %d maxMin=%v: RDC=%v #Σ1SAT=%d for %v", trial, maxMin, got, want, f)
			}
		}
	}
}

func TestThm71RejectsBadPartition(t *testing.T) {
	f := sat.NewCNF(sat.Clause{1, 2, 3})
	if _, err := SigmaSATToRDC(f, []int{1}, []int{1, 2, 3}, false); err == nil {
		t.Error("overlapping X/Y must be rejected")
	}
	if _, err := SigmaSATToRDC(f, []int{1}, []int{2}, false); err == nil {
		t.Error("uncovered variable must be rejected")
	}
}

// --- Theorem 7.2: #QBF → RDC(CQ, Fmono), parsimonious ---

func TestThm72QBFToRDCMono(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 8; trial++ {
		m, n := 2, 2
		f := sat.Random3SAT(rng, m+n, 2+rng.Intn(4))
		f.NumVars = m + n
		yPrefix := []sat.Quantifier{sat.ForAll, sat.Quantifier(rng.Intn(2) == 0)}
		want := CountQBFFreeModels(f, m, yPrefix)
		in, err := QBFToRDCMono(f, m, yPrefix)
		if err != nil {
			t.Fatal(err)
		}
		got := solver.RDCExact(in).Count
		if got.Cmp(big.NewInt(want)) != 0 {
			t.Fatalf("trial %d: RDC=%v #QBF=%d for %v", trial, got, want, f)
		}
	}
}

func TestThm72Rejections(t *testing.T) {
	f := sat.NewCNF(sat.Clause{1, 2})
	if _, err := QBFToRDCMono(f, 1, []sat.Quantifier{sat.ForAll}); err == nil {
		t.Error("n=1 must be rejected (tie corner)")
	}
	if _, err := QBFToRDCMono(f, 1, []sat.Quantifier{sat.Exists, sat.Exists}); err == nil {
		t.Error("non-universal first Y quantifier must be rejected")
	}
}

// --- Lemma 7.6 and Theorem 7.5: subset sums ---

func TestLemma76SSPToSSPkParsimonious(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(3)
		in := SSPInstance{D: int64(rng.Intn(30))}
		for i := 0; i < n; i++ {
			in.Weights = append(in.Weights, int64(rng.Intn(12)))
		}
		out := SSPToSSPk(in)
		if out.L != n || len(out.Weights) != 2*n {
			t.Fatalf("trial %d: output shape wrong", trial)
		}
		if CountSSP(in).Cmp(CountSSPk(out)) != 0 {
			t.Fatalf("trial %d: #SSP=%v #SSPk=%v for %+v", trial, CountSSP(in), CountSSPk(out), in)
		}
	}
}

func TestThm75SSPkViaRDCTuring(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(3)
		in := SSPkInstance{L: 2 + rng.Intn(2), D: big.NewInt(int64(rng.Intn(20)))}
		for i := 0; i < n; i++ {
			in.Weights = append(in.Weights, big.NewInt(int64(rng.Intn(10))))
		}
		want := CountSSPk(in)
		got, err := CountSSPkViaRDC(in)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("trial %d: via RDC %v, brute %v for %+v", trial, got, want, in)
		}
	}
}

func TestFullSSPChain(t *testing.T) {
	// #SSP → #SSPk → RDC, end to end.
	in := SSPInstance{Weights: []int64{3, 5, 7, 9}, D: 12}
	out := SSPToSSPk(in)
	got, err := CountSSPkViaRDC(out)
	if err != nil {
		t.Fatal(err)
	}
	// Subsets of {3,5,7,9} summing to 12: {3,9}, {5,7} → 2.
	if got.Cmp(big.NewInt(2)) != 0 {
		t.Errorf("chain count = %v, want 2", got)
	}
}

// --- Theorem 9.3 / Corollary 9.4: constraints make mono-QRD hard ---

func TestThm93ConstrainedQRDDecides3SAT(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		f := sat.Random3SAT(rng, 4, 2+rng.Intn(7))
		in := ThreeSATToConstrainedQRD(f)
		if err := in.Sigma.Validate(in.ResultSchema()); err != nil {
			t.Fatal(err)
		}
		want := f.Satisfiable()
		if got := solver.QRDExact(in).Exists; got != want {
			t.Fatalf("trial %d: constrained QRD=%v sat=%v for %v", trial, got, want, f)
		}
	}
}

func TestThm93SigmaIsFixedAndSmall(t *testing.T) {
	s := ConstrainedSigma()
	if s.Len() != 2 || s.M != 2 {
		t.Errorf("Σ should be two width-2 constraints, got %d (m=%d)", s.Len(), s.M)
	}
	for _, c := range s.Constraints {
		if c.Width() > 2 {
			t.Errorf("constraint %v exceeds width 2", c)
		}
	}
}

// --- Theorem 9.3: designed refutation family ---

func TestHardConstrainedRefutation(t *testing.T) {
	var prevNodes int
	for n := 2; n <= 7; n++ {
		in := HardConstrainedRefutation(n)
		if got, want := len(in.Answers()), 2*n+2; got != want {
			t.Fatalf("n=%d: |D| = %d, want %d (linear growth)", n, got, want)
		}
		res := solver.QRDExact(in)
		if res.Exists {
			t.Fatalf("n=%d: refutation instance reported satisfiable", n)
		}
		if n > 2 && res.Stats.Nodes < 2*prevNodes-prevNodes/2 {
			t.Errorf("n=%d: nodes %d did not roughly double from %d", n, res.Stats.Nodes, prevNodes)
		}
		prevNodes = res.Stats.Nodes
	}
	// Dropping the contradiction makes the family satisfiable: same schema
	// and Σ, answer flips.
	f := &sat.CNF{NumVars: 5}
	f.Clauses = append(f.Clauses, sat.Clause{1, 2}, sat.Clause{3, 4}, sat.Clause{5})
	if !solver.QRDExact(ThreeSATToConstrainedQRD(f)).Exists {
		t.Error("satisfiable family should admit a valid set")
	}
}

// --- Theorem 8.3 appendix erratum (λ=1 RDC(Fmono) data complexity) ---

// TestThm83Lambda1CountErratum machine-checks the erratum documented on
// Lambda1SSPkToRDCMono: the appendix's claimed count equality fails on a
// two-element instance. W = {a, b}, π(a) = 10, π(b) = 0, l = 1, d = 10:
// exactly one 1-subset reaches 10, but five 2-sets of the constructed
// instance are valid, because Fmono charges δdis((w),(w')) to (w) against
// the whole answer set, partner selected or not. (π(a) = 12 > d keeps all
// comparisons away from float equality at the bound.)
func TestThm83Lambda1CountErratum(t *testing.T) {
	weights := []int64{12, 0}
	in := Lambda1SSPkToRDCMono(weights, 1, 10)
	got := solver.RDCExact(in).Count
	claimed := CountSSPkAtLeast(weights, 1, 10)
	if claimed.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("claimed count = %v, want 1", claimed)
	}
	if got.Cmp(big.NewInt(5)) != 0 {
		t.Fatalf("constructed instance has %v valid sets, expected 5 (the erratum)", got)
	}
	if got.Cmp(claimed) == 0 {
		t.Fatal("counts unexpectedly agree; the erratum documentation is stale")
	}
}

// TestThm83Lambda1PairedSetsAreValid checks the direction of the appendix
// proof that does hold: for every L-subset T with sum >= d, the paired set
// {(w),(w') : w in T} is valid. So constructed-instance counts are an upper
// bound on the claimed count.
func TestThm83Lambda1PairedSetsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(3)
		weights := make([]int64, n)
		for i := range weights {
			weights[i] = rng.Int63n(20)
		}
		l := 1 + rng.Intn(n-1)
		d := rng.Int63n(40)
		in := Lambda1SSPkToRDCMono(weights, l, d)
		answers := in.Answers()
		byKey := map[string]relation.Tuple{}
		for _, tp := range answers {
			byKey[tp.Key()] = tp
		}
		valid := solver.RDCExact(in).Count
		claimed := CountSSPkAtLeast(weights, l, d)
		if valid.Cmp(claimed) < 0 {
			t.Fatalf("trial %d: valid sets %v < claimed %v — paired direction broken", trial, valid, claimed)
		}
	}
}
