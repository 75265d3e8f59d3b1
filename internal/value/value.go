// Package value provides the typed constants that populate tuple fields in
// the relational substrate. The paper's model works over relations whose
// attributes carry constants drawn from ordered domains, with built-in
// predicates =, !=, <, <=, >, >= available in all four query languages; this
// package supplies those domains and their total order.
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

// The supported kinds. Ordering between kinds (used only when values of
// different kinds are compared, which well-typed queries avoid) follows the
// declaration order below.
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
// Two ints compare exactly; mixed numeric kinds compare by numeric value
// (so Int(2) equals Float(2)); other cross-kind comparisons order by Kind
// first. Within a kind the natural order applies.
func Compare(v, w Value) int {
	if v.kind == KindInt && w.kind == KindInt {
		return cmp.Compare(v.i, w.i)
	}
	if v.IsNumeric() && w.IsNumeric() {
		a, b := v.AsFloat(), w.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.s, w.s)
	case KindBool:
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// Equal reports whether v and w are equal under Compare.
func Equal(v, w Value) bool { return Compare(v, w) == 0 }

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

// Key returns a canonical encoding that distinguishes values of different
// kinds and payloads; it is suitable for use as a map key. Numerically equal
// int/float values encode identically so that Key-equality matches Equal for
// the numeric values produced by this package's constructors.
func (v Value) Key() string {
	switch v.kind {
	case KindInt:
		return "i" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		if v.f == math.Trunc(v.f) && math.Abs(v.f) < 1e15 {
			return "i" + strconv.FormatInt(int64(v.f), 10)
		}
		return "f" + strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return "s" + v.s
	case KindBool:
		if v.i != 0 {
			return "bt"
		}
		return "bf"
	default:
		return "?"
	}
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
