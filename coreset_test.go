package diversification

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// coresetSchema is the answer schema of every coreset in these tests.
var coresetSchema = []string{"id", "cat", "rel"}

// referenceMerge is the engine-based merge MergeCoresets replaced, kept as
// its oracle: union the coresets (largest score per row), load the union
// into a fresh engine, and Prepare a greedy statement over it whose δrel
// looks the shipped score up and whose δdis is the attribute distance.
func referenceMerge(ctx context.Context, parts []*Coreset, distanceAttr string) (*Response, error) {
	rowKey := func(vals []interface{}) string { return fmt.Sprintf("%#v", vals) }
	scores := make(map[string]float64)
	var rows [][]interface{}
	var first *Coreset
	missing := false
	for _, cs := range parts {
		if cs == nil {
			missing = true
			continue
		}
		if first == nil {
			first = cs
		}
		for j, row := range cs.Rows {
			key := rowKey(row)
			prev, ok := scores[key]
			if !ok {
				rows = append(rows, row)
			}
			if !ok || cs.Scores[j] > prev {
				scores[key] = cs.Scores[j]
			}
		}
	}
	eng := NewEngine()
	if err := eng.CreateTable("u", first.Schema...); err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := eng.Insert("u", row...); err != nil {
			return nil, err
		}
	}
	obj, err := ParseObjective(first.Objective)
	if err != nil {
		return nil, err
	}
	k := first.K
	if missing && k > len(rows) {
		k = len(rows)
	}
	opts := []Option{
		WithK(k), WithLambda(first.Lambda), WithObjective(obj), WithAlgorithm(Greedy),
		WithRelevance(func(r Row) float64 { return scores[rowKey(r.Values())] }),
	}
	if distanceAttr != "" {
		opts = append(opts, WithDistance(AttrDistance(distanceAttr)))
	}
	head := strings.Join(first.Schema, ", ")
	p, err := eng.Prepare(fmt.Sprintf("Q(%s) :- u(%s)", head, head), opts...)
	if err != nil {
		return nil, err
	}
	return p.Do(ctx, Request{Problem: ProblemDiversify})
}

// randomCoresets partitions a random row pool into 1–4 coresets. Some rows
// ship from several parts with different scores, relevance ties are common
// (scores come from a small range), and with more than one part a part may
// be missing (nil).
func randomCoresets(rng *rand.Rand, k int, lambda float64, obj Objective) []*Coreset {
	n := 6 + rng.Intn(14)
	pool := make([][]interface{}, n)
	for i := range pool {
		pool[i] = []interface{}{fmt.Sprintf("r%02d", i), fmt.Sprintf("c%d", rng.Intn(4)), int64(rng.Intn(5))}
	}
	parts := make([]*Coreset, 1+rng.Intn(4))
	for i := range parts {
		parts[i] = &Coreset{Schema: coresetSchema, K: k, Lambda: lambda, Objective: obj.String(), Generation: uint64(1 + rng.Intn(9))}
	}
	for _, row := range pool {
		for i, cs := range parts {
			if i == 0 || rng.Intn(3) == 0 { // part 0 always ships it, others sometimes
				cs.Rows = append(cs.Rows, row)
				cs.Scores = append(cs.Scores, float64(row[2].(int64))+float64(rng.Intn(3))/2)
			}
		}
	}
	rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	if len(parts) > 1 && rng.Intn(2) == 0 {
		parts[rng.Intn(len(parts))] = nil
	}
	return parts
}

// TestMergeCoresetsMatchesEngineMerge pins MergeCoresets to the engine
// recipe it replaced, across random partitions into 1–4 parts, duplicated
// rows with differing scores, missing parts, FMS/FMM, λ ∈ {0, ½, 1} and
// k ∈ {1, 3, 5}: selection rows, value bits, steps and answers are equal,
// and so is the no-candidate outcome.
func TestMergeCoresetsMatchesEngineMerge(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	for _, obj := range []Objective{MaxSum, MaxMin} {
		for _, lambda := range []float64{0, 0.5, 1} {
			for _, k := range []int{1, 3, 5} {
				for trial := 0; trial < 6; trial++ {
					parts := randomCoresets(rng, k, lambda, obj)
					attr := "cat"
					if trial%3 == 2 {
						attr = ""
					}
					name := fmt.Sprintf("%s/λ=%g/k=%d/%d", obj, lambda, k, trial)
					got, gotErr := MergeCoresets(ctx, parts, attr, false)
					want, wantErr := referenceMerge(ctx, parts, attr)
					if wantErr != nil {
						if !errors.Is(wantErr, ErrNoCandidate) || !errors.Is(gotErr, ErrNoCandidate) {
							t.Fatalf("%s: reference error %v, merge error %v", name, wantErr, gotErr)
						}
						continue
					}
					if gotErr != nil {
						t.Fatalf("%s: %v", name, gotErr)
					}
					if !reflect.DeepEqual(selectionValues(got), selectionValues(want)) {
						t.Fatalf("%s: selection\n  merge     %v\n  reference %v", name, selectionValues(got), selectionValues(want))
					}
					if math.Float64bits(got.Selection.Value) != math.Float64bits(want.Selection.Value) {
						t.Fatalf("%s: value %v, reference %v", name, got.Selection.Value, want.Selection.Value)
					}
					if got.Stats != want.Stats {
						t.Fatalf("%s: stats %+v, reference %+v", name, got.Stats, want.Stats)
					}
				}
			}
		}
	}
}

func selectionValues(resp *Response) [][]interface{} {
	out := make([][]interface{}, len(resp.Selection.Rows))
	for i, r := range resp.Selection.Rows {
		out[i] = r.Values()
	}
	return out
}

// TestMergeCoresetsResponse pins the merged response's own fields: the
// route and refresh report, the generation sum, the cached and degraded
// ORs, the k clamp when a part is missing, and an explain that reports the
// merge rather than a query the caller never wrote.
func TestMergeCoresetsResponse(t *testing.T) {
	ctx := context.Background()
	part := func(gen uint64, cached bool, rows ...[]interface{}) *Coreset {
		cs := &Coreset{Schema: coresetSchema, K: 3, Lambda: 0.5, Objective: "max-sum", Generation: gen, Cached: cached}
		for _, row := range rows {
			cs.Rows = append(cs.Rows, row)
			cs.Scores = append(cs.Scores, float64(row[2].(int64)))
		}
		return cs
	}
	a := part(4, false, []interface{}{"a", "c1", int64(9)}, []interface{}{"b", "c1", int64(5)})
	b := part(7, true, []interface{}{"c", "c2", int64(7)}, []interface{}{"a", "c1", int64(9)})

	resp, err := MergeCoresets(ctx, []*Coreset{a, b}, "cat", true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Route != "greedy" || resp.Problem != ProblemDiversify || resp.Generation != 11 || !resp.Cached || resp.Degraded {
		t.Fatalf("response markers: %+v", resp)
	}
	if resp.Refresh != (RefreshInfo{Mode: "rebuild", Answers: 3}) || resp.Stats.Answers != 3 {
		t.Fatalf("refresh %+v, stats %+v: want a rebuild over the 3-row union", resp.Refresh, resp.Stats)
	}
	wantExplain := "problem:   diversify\nobjective: max-sum (λ=0.5, k=3)\nroute:     greedy\n"
	if resp.Explain != wantExplain {
		t.Fatalf("explain:\n%s\nwant:\n%s", resp.Explain, wantExplain)
	}

	// Every part answered but the union is short of k: no candidate set.
	if _, err := MergeCoresets(ctx, []*Coreset{part(1, false, []interface{}{"a", "c1", int64(9)})}, "cat", false); !errors.Is(err, ErrNoCandidate) {
		t.Fatalf("short union with every part present: %v, want ErrNoCandidate", err)
	}
	// A part is missing: the survivors' shorter selection, flagged.
	resp, err = MergeCoresets(ctx, []*Coreset{nil, a}, "cat", true)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || len(resp.Selection.Rows) != 2 || !strings.Contains(resp.Explain, "(λ=0.5, k=2)") {
		t.Fatalf("partial merge: degraded %v, %d rows, explain %q", resp.Degraded, len(resp.Selection.Rows), resp.Explain)
	}
}

// TestMergeCoresetsRejectsMalformed feeds the merge the coresets a broken
// or misdeployed shard could send. Each is an error; the echoed settings
// fail with the ArgError field Prepare reports for them.
func TestMergeCoresetsRejectsMalformed(t *testing.T) {
	good := func() *Coreset {
		return &Coreset{
			Schema: coresetSchema, K: 1, Lambda: 0.5, Objective: "max-sum",
			Rows:   [][]interface{}{{"a", "c1", int64(3)}},
			Scores: []float64{3},
		}
	}
	cases := []struct {
		name  string
		parts func() []*Coreset
		field string // ArgError field, "" for a plain error
		want  string // substring of the error
	}{
		{"scores length", func() []*Coreset { cs := good(); cs.Scores = nil; return []*Coreset{cs} }, "", "0 scores for 1 rows"},
		{"arity", func() []*Coreset {
			cs := good()
			cs.Rows = [][]interface{}{{"a", "c1"}}
			return []*Coreset{good(), cs}
		}, "", "shard[1] coreset row 0 has 2 values, want arity 3"},
		{"value type", func() []*Coreset { cs := good(); cs.Rows[0][2] = []int{3}; return []*Coreset{cs} }, "", "unsupported value type"},
		{"NaN lambda", func() []*Coreset { cs := good(); cs.Lambda = math.NaN(); return []*Coreset{cs} }, "lambda", ""},
		{"negative k", func() []*Coreset { cs := good(); cs.K = -1; return []*Coreset{cs} }, "k", ""},
		{"unknown objective", func() []*Coreset { cs := good(); cs.Objective = "max-product"; return []*Coreset{cs} }, "objective", "max-product"},
		{"mono", func() []*Coreset { cs := good(); cs.Objective = "mono"; return []*Coreset{cs} }, "objective", "not coreset-mergeable"},
		{"repeated attribute", func() []*Coreset {
			cs := good()
			cs.Schema = []string{"id", "id", "rel"}
			return []*Coreset{cs}
		}, "", `repeats attribute "id"`},
		{"drift", func() []*Coreset { cs := good(); cs.K = 2; return []*Coreset{nil, good(), cs} }, "",
			"shard[2] coreset settings drift: (k=2 λ=0.5 max-sum schema=[id cat rel]) vs shard[1] (k=1"},
		{"no coreset", func() []*Coreset { return []*Coreset{nil, nil} }, "", "no coreset"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := MergeCoresets(context.Background(), tc.parts(), "cat", false)
			if err == nil {
				t.Fatalf("malformed coreset merged: %+v", resp.Selection)
			}
			var argErr *ArgError
			if isArg := errors.As(err, &argErr); isArg != (tc.field != "") || (isArg && argErr.Field != tc.field) {
				t.Fatalf("error %v: want ArgError field %q", err, tc.field)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q lacks %q", err, tc.want)
			}
		})
	}
}
