// Package tsvio reads and writes relations as tab-separated files: the
// first line names the attributes, every following line is one tuple.
// Field values parse as int, then float, then bool, then string — the same
// preference order the value package's literal parser uses, minus quoting
// (TSV fields are raw).
//
// It is the interchange format between divgen (which emits workloads) and
// divcli (which loads them), and a convenient way to get real data into an
// Engine.
package tsvio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/relation"
	"repro/internal/value"
)

// ParseField interprets one TSV field: int, float, bool, then string. Each
// numeric parser runs only on text it could accept, so a string or float
// field costs no failed parse.
func ParseField(s string) value.Value {
	if mayBeInt(s) {
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return value.Int(i)
		}
	}
	if mayBeFloat(s) {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return value.Float(f)
		}
	}
	switch s {
	case "true":
		return value.Bool(true)
	case "false":
		return value.Bool(false)
	}
	return value.Str(s)
}

// mayBeInt reports whether s has the form strconv.ParseInt accepts in base
// 10: an optional sign, then decimal digits.
func mayBeInt(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// mayBeFloat reports whether s could be text strconv.ParseFloat accepts:
// after an optional sign, inf, infinity or nan in any case, or only the
// characters of a decimal literal (digits, '.', exponent, '_' and signs),
// or of a hexadecimal one after a 0x prefix.
func mayBeFloat(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	if strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity") || strings.EqualFold(s, "nan") {
		return true
	}
	hex := len(s) > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9', c == '.', c == '_', c == '+', c == '-', c == 'e', c == 'E':
		case hex && (c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' || c == 'x' || c == 'X' || c == 'p' || c == 'P'):
		default:
			return false
		}
	}
	return true
}

// formatField renders a value as the TSV field ParseField reads back as the
// same value: a float that would read as an int gains a ".0".
func formatField(v value.Value) string {
	s := v.AsString()
	if v.Kind() == value.KindFloat && !strings.ContainsAny(s, ".eIN") {
		s += ".0"
	}
	return s
}

// Read parses TSV input: the attribute names on its first line, then one
// row per line, in file order and with any duplicates (set semantics is
// the relation's business). Blank lines are skipped; every data line must
// have exactly as many fields as the header, and the names must be
// distinct and non-empty. name labels the errors.
func Read(name string, r io.Reader) ([]string, []relation.Tuple, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, nil, fmt.Errorf("tsvio: %s: %v", name, err)
		}
		return nil, nil, fmt.Errorf("tsvio: %s: empty input", name)
	}
	attrs := strings.Split(strings.TrimRight(sc.Text(), "\r\n"), "\t")
	for i, a := range attrs {
		if a == "" {
			return nil, nil, fmt.Errorf("tsvio: %s: empty attribute name at column %d", name, i+1)
		}
	}
	if _, err := relation.CheckSchema(name, attrs...); err != nil {
		return nil, nil, fmt.Errorf("tsvio: %v", err)
	}
	var rows []relation.Tuple
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), "\r\n")
		if text == "" {
			continue
		}
		t := make(relation.Tuple, len(attrs))
		n := 0
		for rest, more := text, true; more; n++ {
			var field string
			field, rest, more = strings.Cut(rest, "\t")
			if n < len(t) {
				t[n] = ParseField(field)
			}
		}
		if n != len(attrs) {
			return nil, nil, fmt.Errorf("tsvio: %s:%d: %d fields, want %d", name, line, n, len(attrs))
		}
		rows = append(rows, t)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("tsvio: %s: %v", name, err)
	}
	return attrs, rows, nil
}

// Write emits the relation as TSV, header first, tuples in canonical
// (sorted) order so output is deterministic. A float always renders as a
// float, so Read gives back the values written.
func Write(w io.Writer, r *relation.Relation) error {
	if _, err := fmt.Fprintln(w, strings.Join(r.Schema().Attrs, "\t")); err != nil {
		return err
	}
	for _, t := range r.Sorted() {
		fields := make([]string, len(t))
		for i, v := range t {
			fields[i] = formatField(v)
		}
		if _, err := fmt.Fprintln(w, strings.Join(fields, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// Update is one event of a dynamic workload's update stream: a tuple
// inserted into or deleted from a named relation, or a checkpoint at which
// a replaying consumer re-solves. The textual form is one event per line:
//
//	R<TAB>v1<TAB>v2...      insert (v1, v2, ...) into R
//	-R<TAB>v1<TAB>v2...     delete (v1, v2, ...) from R
//	--                      checkpoint (blank lines work too)
//	# ...                   comment
type Update struct {
	Checkpoint bool
	Delete     bool
	Rel        string
	Tuple      relation.Tuple
}

// ReadUpdates parses an update stream. Consecutive checkpoints collapse to
// one, and a trailing checkpoint is implied by the consumer, not required
// in the file.
func ReadUpdates(r io.Reader) ([]Update, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []Update
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), "\r\n")
		if strings.HasPrefix(text, "#") {
			continue
		}
		if text == "" || text == "--" {
			if len(out) > 0 && !out[len(out)-1].Checkpoint {
				out = append(out, Update{Checkpoint: true})
			}
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) < 2 {
			return nil, fmt.Errorf("tsvio: updates:%d: want relation<TAB>values..., got %q", line, text)
		}
		u := Update{Rel: fields[0]}
		if strings.HasPrefix(u.Rel, "-") {
			u.Delete = true
			u.Rel = u.Rel[1:]
		}
		if u.Rel == "" {
			return nil, fmt.Errorf("tsvio: updates:%d: empty relation name", line)
		}
		u.Tuple = make(relation.Tuple, len(fields)-1)
		for i, f := range fields[1:] {
			u.Tuple[i] = ParseField(f)
		}
		out = append(out, u)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tsvio: updates: %v", err)
	}
	return out, nil
}

// WriteUpdates emits an update stream in the textual form ReadUpdates
// parses.
func WriteUpdates(w io.Writer, updates []Update) error {
	for _, u := range updates {
		if u.Checkpoint {
			if _, err := fmt.Fprintln(w, "--"); err != nil {
				return err
			}
			continue
		}
		rel := u.Rel
		if u.Delete {
			rel = "-" + rel
		}
		fields := make([]string, 0, len(u.Tuple)+1)
		fields = append(fields, rel)
		for _, v := range u.Tuple {
			fields = append(fields, formatField(v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(fields, "\t")); err != nil {
			return err
		}
	}
	return nil
}
