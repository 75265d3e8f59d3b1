package tsvio

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

// chainParseField is the field parser as a plain chain: ParseInt, then
// ParseFloat, then the two booleans, else a string. ParseField must agree
// with it on every field; it only skips the parsers that cannot succeed.
func chainParseField(s string) value.Value {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return value.Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return value.Float(f)
	}
	switch s {
	case "true":
		return value.Bool(true)
	case "false":
		return value.Bool(false)
	}
	return value.Str(s)
}

// sameBits reports whether two values have the same kind and payload, a
// float's sign and NaN bits included.
func sameBits(v, w value.Value) bool {
	if v.Kind() != w.Kind() {
		return false
	}
	switch v.Kind() {
	case value.KindFloat:
		return math.Float64bits(v.AsFloat()) == math.Float64bits(w.AsFloat())
	case value.KindString:
		return v.AsString() == w.AsString()
	default:
		return v.AsInt() == w.AsInt()
	}
}

// FuzzTSVRoundTrip holds Read to an error, never a panic, on any input;
// ParseField to the plain parser chain on every field; and Write to text
// that Read gives back as the same values, kind and bits. The checked-in
// corpus holds the fields that need care: integral floats and -0 (which
// Write once printed as ints), NaN and the infinities in their spellings,
// text that only starts like a number (nancy, 1e400, 1_000), a hex float,
// a leading zero, a boolean, an empty field and a CRLF line.
func FuzzTSVRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		for _, line := range strings.Split(src, "\n") {
			for _, field := range strings.Split(strings.TrimRight(line, "\r"), "\t") {
				if got, want := ParseField(field), chainParseField(field); !sameBits(got, want) {
					t.Fatalf("ParseField(%q) = %v (%v), the parser chain gives %v (%v)", field, got, got.Kind(), want, want.Kind())
				}
			}
		}
		attrs, rows, err := Read("R", strings.NewReader(src))
		if err != nil {
			return
		}
		rel := relation.NewRelation(relation.NewSchema("R", attrs...))
		rel.InsertAll(rows...)
		var buf bytes.Buffer
		if err := Write(&buf, rel); err != nil {
			t.Fatal(err)
		}
		backAttrs, back, err := Read("R", &buf)
		if err != nil {
			t.Fatalf("%q writes as %q, which does not read: %v", src, buf.String(), err)
		}
		if strings.Join(backAttrs, "\t") != strings.Join(attrs, "\t") {
			t.Fatalf("attributes %q read back as %q", attrs, backAttrs)
		}
		want := rel.Sorted()
		if len(back) != len(want) {
			t.Fatalf("%d rows written, %d read back from %q", len(want), len(back), buf.String())
		}
		for i := range want {
			for j := range want[i] {
				if !sameBits(back[i][j], want[i][j]) {
					t.Fatalf("row %d field %d: wrote %v (%v), read back %v (%v)", i, j,
						want[i][j], want[i][j].Kind(), back[i][j], back[i][j].Kind())
				}
			}
		}
	})
}
