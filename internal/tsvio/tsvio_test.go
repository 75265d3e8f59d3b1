package tsvio

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/relation"
	"repro/internal/value"
)

func TestParseFieldPreference(t *testing.T) {
	cases := []struct {
		in   string
		want value.Value
	}{
		{"42", value.Int(42)},
		{"-7", value.Int(-7)},
		{"3.5", value.Float(3.5)},
		{"true", value.Bool(true)},
		{"false", value.Bool(false)},
		{"hello", value.Str("hello")},
		{"", value.Str("")},
		{"12abc", value.Str("12abc")},
		{"1e3", value.Float(1000)},
	}
	for _, c := range cases {
		if got := ParseField(c.in); !value.Equal(got, c.want) || got.Kind() != c.want.Kind() {
			t.Errorf("ParseField(%q) = %v (%v), want %v (%v)", c.in, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestReadBasic(t *testing.T) {
	src := "id\tname\tprice\n1\twidget\t9.5\n2\tgadget\t12\n\n3\tdoohickey\ttrue\n"
	attrs, rows, err := Read("items", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(attrs, ",") != "id,name,price" {
		t.Fatalf("attributes wrong: %v", attrs)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 (blank line skipped)", len(rows))
	}
	want := relation.Tuple{value.Int(1), value.Str("widget"), value.Float(9.5)}
	if !rows[0].Equal(want) || rows[0][2].Kind() != value.KindFloat {
		t.Errorf("first row %v, want %v", rows[0], want)
	}
}

func TestReadErrors(t *testing.T) {
	for _, bad := range []string{
		"",                // empty input
		"a\tb\n1\n",       // field-count mismatch
		"a\tb\n1\t2\t3\n", // too many fields
		"a\t\tc\n",        // empty attribute name
		"a\tb\ta\n",       // repeated attribute name
	} {
		if _, _, err := Read("r", strings.NewReader(bad)); err == nil {
			t.Errorf("Read(%q) should fail", bad)
		}
	}
}

func TestReadFailingReader(t *testing.T) {
	if _, _, err := Read("r", failingReader{}); err == nil {
		t.Error("reader error should surface")
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("boom") }

// TestRoundTrip is the write/read inverse property over random relations
// with TSV-safe values.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := relation.NewRelation(relation.NewSchema("R", "a", "b", "c"))
		for i := 0; i < 1+r.Intn(20); i++ {
			rel.Insert(relation.Tuple{
				value.Int(r.Int63n(100)),
				value.Str(randWord(r)),
				value.Float(float64(r.Intn(1000)) / 4),
			})
		}
		var buf bytes.Buffer
		if err := Write(&buf, rel); err != nil {
			return false
		}
		_, back, err := Read("R", bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		if len(back) != rel.Len() {
			return false
		}
		for _, tp := range back {
			if !rel.Contains(tp) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// randWord emits a short word that does not collide with numeric or boolean
// literals and contains no tabs/newlines.
func randWord(r *rand.Rand) string {
	letters := "abcdefghijklmnopqrstuvwxyz"
	n := 3 + r.Intn(6)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(letters[r.Intn(len(letters))])
	}
	return "w" + b.String()
}

func TestWriteDeterministic(t *testing.T) {
	rel := relation.NewRelation(relation.NewSchema("R", "x"))
	rel.Insert(relation.Tuple{value.Int(3)})
	rel.Insert(relation.Tuple{value.Int(1)})
	rel.Insert(relation.Tuple{value.Int(2)})
	var a, b bytes.Buffer
	if err := Write(&a, rel); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, rel); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("output not deterministic")
	}
	if !strings.HasPrefix(a.String(), "x\n1\n2\n3\n") {
		t.Errorf("not in canonical order:\n%s", a.String())
	}
}

func TestUpdatesRoundTrip(t *testing.T) {
	updates := []Update{
		{Rel: "R", Tuple: relation.Ints(1, 2)},
		{Rel: "R", Tuple: relation.Ints(3, 4)},
		{Checkpoint: true},
		{Delete: true, Rel: "R", Tuple: relation.Ints(1, 2)},
		{Rel: "S", Tuple: relation.Tuple{value.Str("x"), value.Float(1.5), value.Bool(true)}},
		{Checkpoint: true},
	}
	var buf bytes.Buffer
	if err := WriteUpdates(&buf, updates); err != nil {
		t.Fatal(err)
	}
	got, err := ReadUpdates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(updates) {
		t.Fatalf("round-trip length %d, want %d\n%s", len(got), len(updates), buf.String())
	}
	for i, u := range updates {
		g := got[i]
		if g.Checkpoint != u.Checkpoint || g.Delete != u.Delete || g.Rel != u.Rel {
			t.Errorf("update %d = %+v, want %+v", i, g, u)
			continue
		}
		if !u.Checkpoint && !g.Tuple.Equal(u.Tuple) {
			t.Errorf("update %d tuple = %v, want %v", i, g.Tuple, u.Tuple)
		}
	}
}

func TestReadUpdatesSyntax(t *testing.T) {
	// Comments and blank-line checkpoints; consecutive checkpoints collapse.
	in := "# a comment\nR\t1\n\n\n--\nR\t2\n"
	got, err := ReadUpdates(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		cp  bool
		val int64
	}{{false, 1}, {true, 0}, {false, 2}}
	if len(got) != len(want) {
		t.Fatalf("parsed %d updates, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Checkpoint != w.cp {
			t.Errorf("update %d checkpoint = %v, want %v", i, got[i].Checkpoint, w.cp)
		}
		if !w.cp && got[i].Tuple[0].AsInt() != w.val {
			t.Errorf("update %d value = %v, want %d", i, got[i].Tuple[0], w.val)
		}
	}
	for _, bad := range []string{"R\n", "-\t1\n"} {
		if _, err := ReadUpdates(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadUpdates(%q) should fail", bad)
		}
	}
}
