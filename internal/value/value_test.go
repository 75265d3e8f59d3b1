package value

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestValueSize: a Value is four words, so a three-field tuple fits the
// 96-byte size class; a float keeps its exact bits in the payload word.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("Value is %d bytes, want 32", got)
	}
	for _, f := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(-1), 0.1, -1e300} {
		if got := Float(f).AsFloat(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("Float(%v) reads back bits %#x, want %#x", f, math.Float64bits(got), math.Float64bits(f))
		}
	}
	for _, i := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		if got := Int(i).AsInt(); got != i {
			t.Errorf("Int(%d) reads back %d", i, got)
		}
	}
}

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
	// Exact, with no float64 rounding: 2⁵³+1 is not a float64.
	if Compare(Int(1<<53+1), Float(1<<53)) != 1 || Compare(Float(1<<53), Int(1<<53+1)) != -1 {
		t.Error("Int(2⁵³+1) should order above Float(2⁵³)")
	}
	if Compare(Int(math.MaxInt64), Float(1<<63)) != -1 || Compare(Int(math.MinInt64), Float(-(1<<63))) != 0 {
		t.Error("floats at ±2⁶³ should compare exactly against the int64 bounds")
	}
}

// TestCompareNaNAndZeros: NaN equals NaN and orders after every other
// number, infinities included; −0 equals +0 and the int 0.
func TestCompareNaNAndZeros(t *testing.T) {
	nan, negNaN := Float(math.NaN()), Float(-math.NaN())
	for _, v := range []Value{Int(5), Int(math.MaxInt64), Float(math.Inf(1)), Float(math.Inf(-1)), Float(1e300)} {
		if Compare(v, nan) != -1 || Compare(nan, v) != 1 {
			t.Errorf("%v should order before NaN", v)
		}
	}
	if Compare(nan, negNaN) != 0 || !Equal(nan, negNaN) {
		t.Error("every NaN should equal every other")
	}
	if Compare(nan, Str("a")) != -1 {
		t.Error("NaN is a number and orders before strings")
	}
	negZero := Float(math.Copysign(0, -1))
	if !Equal(negZero, Float(0)) || !Equal(negZero, Int(0)) || Compare(negZero, Int(0)) != 0 {
		t.Error("−0 should equal +0 and the int 0")
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

// TestEqualMatchesKey: Equal is exactly Key equality, equal keys hash
// alike, and AppendKey appends Key, across NaN, signed zeros and
// infinities, and integral floats around 1e15 and 2⁵³.
func TestEqualMatchesKey(t *testing.T) {
	vals := []Value{
		Int(0), Int(5), Int(-5), Int(1e15 - 1), Int(1e15), Int(1e16), Int(1 << 53), Int(1<<53 + 1),
		Float(0), Float(math.Copysign(0, -1)), Float(5), Float(5.5), Float(-5), Float(0.1),
		Float(1e15 - 1), Float(1e15), Float(1e16), Float(1 << 53), Float(-1e16),
		Float(math.NaN()), Float(-math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		Str(""), Str("5"), Str("i5"), Str("NaN"), Str("true"), Bool(false), Bool(true),
	}
	for _, v := range vals {
		if got := string(v.AppendKey([]byte("pre"))); got != "pre"+v.Key() {
			t.Errorf("AppendKey(%v) = %q, want %q", v, got, "pre"+v.Key())
		}
		for _, w := range vals {
			same := v.Key() == w.Key()
			if Equal(v, w) != same || (Compare(v, w) == 0) != same {
				t.Errorf("Equal(%v %v, %v %v) = %v, keys %q %q", v.Kind(), v, w.Kind(), w, !same, v.Key(), w.Key())
			}
			if same && v.KeyHash() != w.KeyHash() {
				t.Errorf("%v and %v share key %q but hash %x and %x", v, w, v.Key(), v.KeyHash(), w.KeyHash())
			}
		}
	}
	// The values where the float64-rounding order tied different keys.
	if Equal(Float(math.NaN()), Int(5)) {
		t.Error("NaN should differ from 5")
	}
	if !Equal(Float(1e16), Int(1e16)) || Float(1e16).Key() != Int(1e16).Key() {
		t.Error("the int and the float 1e16 should be one value with one key")
	}
}

// Property: Equal agrees with Key equality on random numeric pairs, and
// values with the same key hash alike.
func TestEqualKeyProperty(t *testing.T) {
	f := func(a, b int64, x, y float64, pick uint8) bool {
		vs := []Value{Int(a), Int(b), Float(x), Float(y), Float(float64(a)), Float(math.Trunc(y))}
		v, w := vs[int(pick)%len(vs)], vs[int(pick/8)%len(vs)]
		same := v.Key() == w.Key()
		return Equal(v, w) == same && (!same || v.KeyHash() == w.KeyHash())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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
