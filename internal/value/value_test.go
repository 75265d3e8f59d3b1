package value

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindInt:    "int",
		KindFloat:  "float",
		KindString: "string",
		KindBool:   "bool",
		Kind(99):   "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt || v.AsInt() != 42 || v.AsFloat() != 42 {
		t.Errorf("Int(42) round-trip failed: %+v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.AsFloat() != 2.5 || v.AsInt() != 2 {
		t.Errorf("Float(2.5) round-trip failed: %+v", v)
	}
	if v := Str("abc"); v.Kind() != KindString || v.AsString() != "abc" {
		t.Errorf("Str round-trip failed: %+v", v)
	}
	if v := Bool(true); v.Kind() != KindBool || !v.AsBool() || v.AsInt() != 1 {
		t.Errorf("Bool(true) round-trip failed: %+v", v)
	}
	if v := Bool(false); v.AsBool() || v.AsInt() != 0 {
		t.Errorf("Bool(false) round-trip failed: %+v", v)
	}
}

func TestZeroValueIsIntZero(t *testing.T) {
	var v Value
	if v.Kind() != KindInt || v.AsInt() != 0 {
		t.Errorf("zero Value = %+v, want Int(0)", v)
	}
	if !Equal(v, Int(0)) {
		t.Error("zero Value should equal Int(0)")
	}
}

func TestAsFloatOnString(t *testing.T) {
	if !math.IsNaN(Str("x").AsFloat()) {
		t.Error("Str.AsFloat should be NaN")
	}
}

func TestAsBool(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{Int(0), false}, {Int(3), true},
		{Float(0), false}, {Float(0.1), true},
		{Str(""), false}, {Str("x"), true},
		{Bool(false), false}, {Bool(true), true},
	}
	for _, c := range cases {
		if got := c.v.AsBool(); got != c.want {
			t.Errorf("%v.AsBool() = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Error("Int(2) should equal Float(2.0)")
	}
	if Compare(Int(1), Float(1.5)) != -1 {
		t.Error("Int(1) should be less than Float(1.5)")
	}
	if Compare(Float(3.5), Int(3)) != 1 {
		t.Error("Float(3.5) should be greater than Int(3)")
	}
	if Compare(Int(1<<53+1), Float(1<<53)) != 0 {
		t.Error("an int against a float compares by float64 value")
	}
}

func TestCompareWithinKinds(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		// Ints compare exactly, also beyond 2⁵³ where float64 rounds.
		{Int(1 << 53), Int(1<<53 + 1), -1},
		{Int(1<<53 + 1), Int(1 << 53), 1},
		{Int(math.MaxInt64 - 1), Int(math.MaxInt64), -1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Str("c"), Str("b"), 1},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Bool(true), Bool(false), 1},
		{Float(1.5), Float(2.5), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareCrossKindOrdering(t *testing.T) {
	// Non-numeric cross-kind comparison orders by Kind.
	if Compare(Int(100), Str("a")) != -1 {
		t.Error("int should order before string")
	}
	if Compare(Str("a"), Bool(false)) != -1 {
		t.Error("string should order before bool")
	}
	if Compare(Bool(true), Int(0)) != 1 {
		t.Error("bool should order after int")
	}
}

func TestLessAndEqual(t *testing.T) {
	if !Less(Int(1), Int(2)) || Less(Int(2), Int(1)) || Less(Int(2), Int(2)) {
		t.Error("Less misbehaves on ints")
	}
	if !Equal(Str("x"), Str("x")) || Equal(Str("x"), Str("y")) {
		t.Error("Equal misbehaves on strings")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(-7), "-7"},
		{Float(2.5), "2.5"},
		{Str("hello"), "hello"},
		{Bool(true), "true"},
		{Bool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestKeyDistinguishesKinds(t *testing.T) {
	vals := []Value{Int(1), Str("1"), Bool(true), Float(1.5), Str("true")}
	seen := map[string]Value{}
	for _, v := range vals {
		k := v.Key()
		if prev, ok := seen[k]; ok {
			t.Errorf("Key collision between %v and %v: %q", prev, v, k)
		}
		seen[k] = v
	}
}

func TestKeyNumericAgreement(t *testing.T) {
	if Int(5).Key() != Float(5).Key() {
		t.Error("Int(5) and Float(5) should share a key since they are Equal")
	}
	if Int(5).Key() == Float(5.5).Key() {
		t.Error("distinct numerics must have distinct keys")
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"42", Int(42)},
		{"-3", Int(-3)},
		{"2.5", Float(2.5)},
		{"true", Bool(true)},
		{"false", Bool(false)},
		{`"quoted"`, Str("quoted")},
		{"'single'", Str("single")},
		{"plain", Str("plain")},
		{"  77 ", Int(77)},
	}
	for _, c := range cases {
		if got := Parse(c.in); !Equal(got, c.want) || got.Kind() != c.want.Kind() {
			t.Errorf("Parse(%q) = %v (%v), want %v (%v)", c.in, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

// Property: Compare is antisymmetric and consistent with Equal.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		v, w := Int(a), Int(b)
		return Compare(v, w) == -Compare(w, v) && (Compare(v, w) == 0) == Equal(v, w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is transitive over randomly generated ints (checked by
// comparing with the native ordering).
func TestCompareMatchesNativeOrderProperty(t *testing.T) {
	f := func(a, b int64) bool {
		want := 0
		if a < b {
			want = -1
		} else if a > b {
			want = 1
		}
		return Compare(Int(a), Int(b)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: string Keys are injective on strings.
func TestStringKeyInjectiveProperty(t *testing.T) {
	f := func(a, b string) bool {
		if a == b {
			return Str(a).Key() == Str(b).Key()
		}
		return Str(a).Key() != Str(b).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortStability(t *testing.T) {
	vs := []Value{Int(3), Float(1.5), Int(-2), Float(2), Int(0)}
	sort.Slice(vs, func(i, j int) bool { return Less(vs[i], vs[j]) })
	for i := 1; i < len(vs); i++ {
		if Compare(vs[i-1], vs[i]) > 0 {
			t.Fatalf("not sorted at %d: %v", i, vs)
		}
	}
}
