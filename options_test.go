package diversification

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/objective"
	"repro/internal/relation"
	"repro/internal/value"
)

// TestSettingsValidateTable exercises every validation branch of the
// option set and pins the typed ArgError each one produces: the field
// name is the wire contract the HTTP layer exposes in its 400 bodies.
func TestSettingsValidateTable(t *testing.T) {
	cases := []struct {
		name      string
		mutate    func(*settings)
		wantField string // "" means valid
	}{
		{"defaults are valid", func(s *settings) {}, ""},
		{"negative k", func(s *settings) { s.k = -1 }, "k"},
		{"zero k is valid", func(s *settings) { s.k = 0 }, ""},
		{"unknown objective", func(s *settings) { s.objective = Objective(42) }, "objective"},
		{"unknown algorithm", func(s *settings) { s.algorithm = Algorithm(42) }, "algorithm"},
		{"lambda below range", func(s *settings) { s.lambda = -0.1 }, "lambda"},
		{"lambda above range", func(s *settings) { s.lambda = 1.1 }, "lambda"},
		{"lambda NaN", func(s *settings) { s.lambda = math.NaN() }, "lambda"},
		{"lambda bounds are valid", func(s *settings) { s.lambda = 1 }, ""},
		{"negative rank", func(s *settings) { s.rank = -1 }, "rank"},
		{"negative parallelism", func(s *settings) { s.parallelism = -1 }, "parallelism"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := defaultSettings()
			tc.mutate(&s)
			err := s.validate()
			if tc.wantField == "" {
				if err != nil {
					t.Fatalf("expected valid, got %v", err)
				}
				return
			}
			var argErr *ArgError
			if !errors.As(err, &argErr) {
				t.Fatalf("expected *ArgError, got %T: %v", err, err)
			}
			if argErr.Field != tc.wantField {
				t.Errorf("field = %q, want %q", argErr.Field, tc.wantField)
			}
			if argErr.Reason == "" {
				t.Error("reason must describe the rejection")
			}
			if !strings.HasPrefix(err.Error(), "diversification: invalid "+tc.wantField+": ") {
				t.Errorf("Error() = %q lacks the canonical prefix", err.Error())
			}
		})
	}
}

// TestParseEnums covers the full textual enum surface: names, the paper's
// abbreviations, defaults and the typed rejection of unknowns.
func TestParseEnums(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Objective
	}{
		{"max-sum", MaxSum}, {"FMS", MaxSum}, {"", MaxSum},
		{"max-min", MaxMin}, {"FMM", MaxMin},
		{"mono", Mono}, {"Fmono", Mono},
	} {
		got, err := ParseObjective(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	var argErr *ArgError
	if _, err := ParseObjective("nope"); !errors.As(err, &argErr) || argErr.Field != "objective" {
		t.Errorf("ParseObjective(nope) = %v, want ArgError on objective", err)
	}

	for _, tc := range []struct {
		in   string
		want Algorithm
	}{
		{"auto", Auto}, {"", Auto}, {"exact", Exact}, {"greedy", Greedy},
		{"local-search", LocalSearch}, {"online", Online},
	} {
		got, err := ParseAlgorithm(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseAlgorithm("nope"); !errors.As(err, &argErr) || argErr.Field != "algorithm" {
		t.Errorf("ParseAlgorithm(nope) = %v, want ArgError on algorithm", err)
	}

	for _, tc := range []struct {
		in   string
		want ProblemKind
	}{
		{"diversify", ProblemDiversify}, {"", ProblemDiversify},
		{"decide", ProblemDecide}, {"count", ProblemCount},
		{"in-top-r", ProblemInTopR}, {"intopr", ProblemInTopR},
		{"rank", ProblemRank},
	} {
		got, err := ParseProblem(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseProblem(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseProblem("nope"); !errors.As(err, &argErr) || argErr.Field != "problem" {
		t.Errorf("ParseProblem(nope) = %v, want ArgError on problem", err)
	}

	// String() round-trips every named constant, and falls back to a
	// numbered form for garbage values.
	for _, o := range []Objective{MaxSum, MaxMin, Mono} {
		if rt, err := ParseObjective(o.String()); err != nil || rt != o {
			t.Errorf("objective %v does not round-trip", o)
		}
	}
	for _, a := range []Algorithm{Auto, Exact, Greedy, LocalSearch, Online} {
		if rt, err := ParseAlgorithm(a.String()); err != nil || rt != a {
			t.Errorf("algorithm %v does not round-trip", a)
		}
	}
	for _, k := range []ProblemKind{ProblemDiversify, ProblemDecide, ProblemCount, ProblemInTopR, ProblemRank} {
		if rt, err := ParseProblem(k.String()); err != nil || rt != k {
			t.Errorf("problem %v does not round-trip", k)
		}
	}
	for _, s := range []string{Objective(9).String(), Algorithm(9).String(), ProblemKind(9).String()} {
		if !strings.Contains(s, "(9)") {
			t.Errorf("stringer fallback = %q", s)
		}
	}
}

// TestAttrScorers pins the shared attribute-based scorers: the single
// definition of numeric coercion and 0/1 inequality distance that the
// CLIs and the wire protocol all use.
func TestAttrScorers(t *testing.T) {
	e := NewEngine()
	e.MustCreateTable("m", "name", "count", "score", "ok")
	e.MustInsert("m", "a", 3, 2.5, true)
	e.MustInsert("m", "b", 4, 1.5, false)
	rs, err := e.Query("Q(name, count, score, ok) :- m(name, count, score, ok)")
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := rs.Row(0), rs.Row(1)
	cases := []struct {
		attr string
		row  Row
		want float64
	}{
		{"count", r0, 3}, {"score", r0, 2.5}, {"ok", r0, 1}, {"ok", r1, 0},
		{"name", r0, 0}, {"missing", r0, 0},
	}
	for _, tc := range cases {
		if got := AttrRelevance(tc.attr)(tc.row); got != tc.want {
			t.Errorf("AttrRelevance(%q) = %v, want %v", tc.attr, got, tc.want)
		}
	}
	if d := AttrDistance("name").Dis(r0, r1); d != 1 {
		t.Errorf("distinct names should be distance 1, got %v", d)
	}
	if d := AttrDistance("name").Dis(r0, r0); d != 0 {
		t.Errorf("equal names should be distance 0, got %v", d)
	}
}

// TestAttrRelevanceMatchesRowGet holds AttrRelevance, which reads the
// tuple's value, bit for bit to the recipe it replaced, which read it
// boxed through Row.Get, and to no allocation per call.
func TestAttrRelevanceMatchesRowGet(t *testing.T) {
	recipe := func(attr string, r Row) float64 {
		switch x := r.Get(attr).(type) {
		case int64:
			return float64(x)
		case float64:
			return x
		case bool:
			if x {
				return 1
			}
			return 0
		default:
			return 0
		}
	}
	cells := []value.Value{
		value.Int(1), value.Int(0), value.Int(-3), value.Int(1 << 62), value.Int(-1 << 63),
		value.Float(1), value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()),
		value.Float(math.Inf(1)), value.Float(math.Inf(-1)), value.Float(2.5), value.Float(1e300),
		value.Float(math.SmallestNonzeroFloat64), value.Str("1"), value.Str(""), value.Bool(true), value.Bool(false),
	}
	schema := relation.NewSchema("Q", "id", "c")
	for i, c := range cells {
		row := Row{schema: schema, tuple: relation.Tuple{value.Int(int64(i)), c}}
		for _, attr := range []string{"c", "id", "missing"} {
			got, want := AttrRelevance(attr)(row), recipe(attr, row)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("AttrRelevance(%q) on %v = %v (%x), Row.Get recipe %v (%x)",
					attr, c, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	rel := AttrRelevance("c")
	row := Row{schema: schema, tuple: relation.Tuple{value.Int(7), value.Float(2.5)}}
	if allocs := testing.AllocsPerRun(100, func() { sinkFloat = rel(row) }); allocs != 0 {
		t.Errorf("AttrRelevance allocates %v times per call, want 0", allocs)
	}
}

var sinkFloat float64

// TestAttrDistanceMatchesCategoryDistance pins the lowering of an
// AttrDistance binding: the plane's CategoryDistance on the attribute's
// column must agree with AttrDistance.Dis over Row.Get on every pair of
// cells, across kinds, NaN, both zeros and both infinities, and must be the
// zero distance for an attribute the schema lacks.
func TestAttrDistanceMatchesCategoryDistance(t *testing.T) {
	cells := []value.Value{
		value.Int(1), value.Int(0), value.Int(-3), value.Float(1), value.Float(0),
		value.Float(math.Copysign(0, -1)), value.Float(math.NaN()), value.Float(math.Inf(1)),
		value.Float(math.Inf(-1)), value.Float(2.5), value.Str("1"), value.Str(""), value.Str("a"),
		value.Bool(true), value.Bool(false),
	}
	schema := relation.NewSchema("Q", "id", "c")
	rows := make([]Row, len(cells))
	for i, c := range cells {
		rows[i] = Row{schema: schema, tuple: relation.Tuple{value.Int(int64(i)), c}}
	}
	for _, attr := range []string{"c", "id", "missing"} {
		s := defaultSettings()
		WithDistance(AttrDistance(attr))(&s)
		dis := s.objectiveOver(schema).Dis
		if _, ok := dis.(objective.CategoryDistance); !ok {
			t.Fatalf("AttrDistance(%q) lowers to %T, want objective.CategoryDistance", attr, dis)
		}
		for _, a := range rows {
			for _, b := range rows {
				want := AttrDistance(attr).Dis(a, b)
				if got := dis.Dis(a.tuple, b.tuple); got != want {
					t.Errorf("attr %q: %v vs %v: category distance %v, AttrDistance %v", attr, a, b, got, want)
				}
			}
		}
	}
	// A typed nil function restores the default zero distance.
	var none func(Row, Row) float64
	s := defaultSettings()
	WithDistance(AttrDistance("c"))(&s)
	WithDistance(none)(&s)
	if d := s.objectiveOver(schema).Dis.Dis(rows[0].tuple, rows[1].tuple); d != 0 {
		t.Errorf("typed nil distance: %v, want the zero distance", d)
	}
}
