// Package value provides the typed constants that populate tuple fields in
// the relational substrate. The paper's model works over relations whose
// attributes carry constants drawn from ordered domains, with built-in
// predicates =, !=, <, <=, >, >= available in all four query languages; this
// package supplies those domains and their total order (Compare), in which
// ints and floats share one exact numeric order with NaN last, and two
// values are equal exactly when they have the same Key.
package value

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The supported kinds. Ints and floats share one numeric order; otherwise
// values of different kinds (which well-typed queries do not compare)
// order by the declaration order below.
const (
	KindInt Kind = iota
	KindFloat
	KindString
	KindBool
)

// String returns the conventional name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is an immutable typed constant. The zero Value is the integer 0.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Bool returns a boolean value. Booleans order false < true.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

// Kind reports the value's runtime type.
func (v Value) Kind() Kind { return v.kind }

// AsInt returns the integer payload. It is the caller's responsibility to
// check the kind; for non-integers it converts where sensible (floats
// truncate, booleans map to 0/1) and returns 0 for strings.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt, KindBool:
		return v.i
	case KindFloat:
		return int64(v.f)
	default:
		return 0
	}
}

// AsFloat returns the value as a float64, converting integers and booleans.
// Strings yield NaN.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt, KindBool:
		return float64(v.i)
	case KindFloat:
		return v.f
	default:
		return math.NaN()
	}
}

// AsString returns the string payload, or the printed form for other kinds.
func (v Value) AsString() string {
	if v.kind == KindString {
		return v.s
	}
	return v.String()
}

// AsBool reports the value as a boolean: booleans directly, numbers by
// non-zero test, strings by non-emptiness.
func (v Value) AsBool() bool {
	switch v.kind {
	case KindBool, KindInt:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	default:
		return v.s != ""
	}
}

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Compare totally orders values: -1 if v < w, 0 if equal, +1 if v > w.
// Ints and floats form one numeric order, compared exactly: no int is
// rounded to a float64, so Int(2⁵³+1) orders above Float(2⁵³), and an
// int equals a float only when the float is exactly that int (Int(2)
// equals Float(2)). NaN equals NaN and orders after every other number;
// −0 equals +0. Other cross-kind comparisons order by Kind. Within a kind
// the natural order applies. Two values compare equal exactly when they
// have the same Key.
func Compare(v, w Value) int {
	if v.IsNumeric() && w.IsNumeric() {
		switch {
		case v.kind == KindInt && w.kind == KindInt:
			return cmp.Compare(v.i, w.i)
		case v.kind == KindInt:
			return compareIntFloat(v.i, w.f)
		case w.kind == KindInt:
			return -compareIntFloat(w.i, v.f)
		default:
			return compareFloats(v.f, w.f)
		}
	}
	if v.kind != w.kind {
		return cmp.Compare(v.kind, w.kind)
	}
	if v.kind == KindString {
		return strings.Compare(v.s, w.s)
	}
	return cmp.Compare(v.i, w.i) // bools: false < true
}

// compareFloats orders floats numerically, with every NaN equal to every
// other and above every number. cmp.Compare puts NaN first, so comparing
// the negations, which reverses the numeric order, puts it last.
func compareFloats(a, b float64) int { return cmp.Compare(-b, -a) }

// compareIntFloat compares i with f exactly. A float in [−2⁶³, 2⁶³) splits
// exactly into an int64 integral part and a fraction, so the integral
// parts decide and the fraction breaks their tie; floats outside that
// range, infinities included, lie beyond every int64, and NaN above all.
func compareIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f) || f >= 1<<63:
		return -1
	case f < -(1 << 63):
		return 1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(t, f)
}

// Equal reports whether v and w are equal under Compare, which is whether
// they have the same Key. Values of one kind take a fast path: Equal runs
// for every field an atom's constant or bound argument is matched against.
func Equal(v, w Value) bool {
	if v.kind == w.kind {
		switch v.kind {
		case KindFloat:
			return v.f == w.f || (math.IsNaN(v.f) && math.IsNaN(w.f))
		case KindString:
			return v.s == w.s
		default:
			return v.i == w.i
		}
	}
	return Compare(v, w) == 0
}

// Less reports whether v orders strictly before w.
func Less(v, w Value) bool { return Compare(v, w) < 0 }

// String renders the value for display. Strings are returned verbatim.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Key returns a canonical encoding of v, suitable as a map key: two values
// have the same Key exactly when they are Equal. A float that is exactly an
// int64 takes that int's key, and every NaN has one key.
func (v Value) Key() string {
	var buf [24]byte
	return string(v.AppendKey(buf[:0]))
}

// AppendKey appends v's Key to dst and returns the extended slice, so a
// caller can build or look up a key in a reused buffer without allocating.
func (v Value) AppendKey(dst []byte) []byte {
	if i, ok := v.intKey(); ok {
		return strconv.AppendInt(append(dst, 'i'), i, 10)
	}
	switch v.kind {
	case KindFloat:
		return strconv.AppendFloat(append(dst, 'f'), v.f, 'g', -1, 64)
	case KindString:
		// Tuple keys separate fields with 0x1f, so a string writes 0x1e
		// and 0x1f each behind a 0x1e: an unescaped 0x1f is always a
		// separator, and a tuple's key decodes to its fields alone.
		dst = append(dst, 's')
		start := 0
		for i := 0; i < len(v.s); i++ {
			if c := v.s[i]; c == 0x1e || c == 0x1f {
				dst = append(append(dst, v.s[start:i]...), 0x1e)
				start = i
			}
		}
		return append(dst, v.s[start:]...)
	case KindBool:
		if v.i != 0 {
			return append(dst, "bt"...)
		}
		return append(dst, "bf"...)
	default:
		return append(dst, '?')
	}
}

// intKey reports whether v's Key is an integer key, and its integer: ints,
// and floats that are exactly an int64.
func (v Value) intKey() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindFloat:
		if v.f == math.Trunc(v.f) && v.f >= -(1<<63) && v.f < 1<<63 {
			return int64(v.f), true
		}
	}
	return 0, false
}

// KeyHash returns a 64-bit hash of v's Key without building the key:
// Equal values hash alike, so a table grouping by Key can hold hashes
// instead of key strings.
func (v Value) KeyHash() uint64 {
	if i, ok := v.intKey(); ok {
		return mix(uint64(i), 'i')
	}
	switch v.kind {
	case KindFloat:
		if math.IsNaN(v.f) {
			return mix(0, 'n') // every NaN has the key "fNaN"
		}
		// Not an int64: equal floats have equal bits, since ±0 take the
		// int key.
		return mix(math.Float64bits(v.f), 'f')
	case KindString:
		h := uint64(14695981039346656037) // FNV-1a
		for i := 0; i < len(v.s); i++ {
			h ^= uint64(v.s[i])
			h *= 1099511628211
		}
		return mix(h, 's')
	default:
		return mix(uint64(v.i), 'b')
	}
}

// mix spreads x, salted by a kind tag, over all 64 bits (the splitmix64
// finalizer).
func mix(x, tag uint64) uint64 {
	x += tag * 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// Parse interprets a literal: quoted strings, true/false, integers, floats.
// Unquoted non-numeric text parses as a string, which keeps data loading
// forgiving.
func Parse(text string) Value {
	t := strings.TrimSpace(text)
	if len(t) >= 2 && (t[0] == '"' || t[0] == '\'') && t[len(t)-1] == t[0] {
		return Str(t[1 : len(t)-1])
	}
	switch t {
	case "true":
		return Bool(true)
	case "false":
		return Bool(false)
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return Float(f)
	}
	return Str(t)
}
