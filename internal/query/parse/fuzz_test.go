package parse

import (
	"reflect"
	"testing"
)

// FuzzQueryRoundTrip: a query that parses must render, through
// Query.String, to text that parses back to the same query, every constant
// keeping its kind and value. The checked-in corpus
// holds the three renderings that once broke the trip: a float printed
// with an exponent (1e+06), an integral float printed without its decimal
// point (1.0 as 1), and a tab printed as the escape \t, which the lexer
// reads as t.
func FuzzQueryRoundTrip(f *testing.F) {
	f.Add("Q(x, y) :- R(x, z), S(z, y), x < 5")
	f.Add(`Q(x) :- exists y (R(x, y) and not S(y, "a\"b\\c")) or x = -2.5`)
	f.Add("Q(x) :- forall y (R(x, y) -> y >= 0.001), x != true")
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Query(src)
		if err != nil {
			return
		}
		text := q.String()
		back, err := Query(text)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", src, text, err)
		}
		if !reflect.DeepEqual(back, q) {
			t.Fatalf("%q renders as %q, which reparses as %q", src, text, back)
		}
	})
}
