package objective

import (
	"context"
	"testing"

	"repro/internal/relation"
)

// fuzzInstance decodes the fuzz input into a small scored answer set: up to
// 12 two-column integer points, a λ, an objective kind, a distance (the
// Euclidean metric or a category distance on either column or on none),
// and a candidate subset. The decoding never fails — malformed inputs just
// wrap around — so every input exercises the equivalence property.
func fuzzInstance(data []byte) (o *Objective, answers []relation.Tuple, ids []int) {
	if len(data) < 4 {
		return nil, nil, nil
	}
	n := 2 + int(data[0])%11
	kind := Kind(int(data[1]) % 3)
	dis := []Distance{EuclideanDistance(), CategoryDistance{Col: 0}, CategoryDistance{Col: 1}, CategoryDistance{Col: -1}}[int(data[1]/3)%4]
	lambda := float64(data[2]%101) / 100
	k := 1 + int(data[3])%n
	rest := data[4:]
	at := func(i int) int64 {
		if len(rest) == 0 {
			return int64(i)
		}
		return int64(int8(rest[i%len(rest)]))
	}
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		t := relation.Ints(at(2*i), at(2*i+1))
		if seen[t.Key()] {
			continue // answer sets are sets
		}
		seen[t.Key()] = true
		answers = append(answers, t)
	}
	if k > len(answers) {
		k = len(answers)
	}
	// Pick k distinct IDs, spread by a decoded stride. The decoded bytes are
	// signed, so normalize both into [0, len).
	mod := func(x int64) int {
		m := int(x) % len(answers)
		if m < 0 {
			m += len(answers)
		}
		return m
	}
	stride := 1 + mod(at(2*n))
	used := make([]bool, len(answers))
	id := mod(at(2*n + 1))
	for len(ids) < k {
		for used[id] {
			id = (id + 1) % len(answers)
		}
		used[id] = true
		ids = append(ids, id)
		id = (id + stride) % len(answers)
	}
	return New(kind, AttrRelevance(0, 1), dis, lambda), answers, ids
}

// FuzzObjectiveEquivalence asserts the plane's contract under adversarial
// inputs: scoring through the interned plane — materialized, direct, or
// category lists for a category distance — must agree bit-for-bit with
// scoring through the δrel/δdis interfaces, for full evaluations,
// per-answer mono scores and greedy marginal gains.
func FuzzObjectiveEquivalence(f *testing.F) {
	f.Add([]byte{5, 0, 50, 2, 1, 9, 3, 7, 2, 8, 6, 4})
	f.Add([]byte{11, 1, 100, 4, 250, 3, 17, 99, 5, 5, 5, 6, 120, 0})
	f.Add([]byte{3, 2, 0, 1, 1, 2, 3, 4})
	f.Add([]byte{9, 3, 50, 3, 1, 1, 2, 1, 1, 2, 3, 2})        // category distance on column 0, FMS
	f.Add([]byte{10, 7, 30, 4, 4, 1, 4, 2, 5, 1, 5, 2, 6, 1}) // on column 1, FMM
	f.Add([]byte{6, 11, 70, 2, 1, 1, 2, 2, 3, 3})             // on no column, Fmono
	f.Fuzz(func(t *testing.T, data []byte) {
		o, answers, ids := fuzzInstance(data)
		if o == nil {
			return
		}
		u := make([]relation.Tuple, len(ids))
		for i, id := range ids {
			u[i] = answers[id]
		}
		want := o.Eval(u, answers)
		for _, plane := range []*Plane{
			NewPlane(o, answers, PlaneOptions{}),
			directPlane(o, answers),
		} {
			plane.Materialize()
			if got := o.EvalIDs(plane, ids); got != want {
				t.Fatalf("EvalIDs (materialized=%v) = %v, Eval = %v (kind %v, λ=%v, n=%d, ids %v)",
					plane.Materialized(), got, want, o.Kind, o.Lambda, len(answers), ids)
			}
			direct := o.MonoScores(answers)
			viaPlane, err := o.MonoScoresPlane(context.Background(), plane)
			if err != nil {
				t.Fatal(err)
			}
			for i := range direct {
				if direct[i] != viaPlane[i] {
					t.Fatalf("MonoScores[%d]: plane %v != direct %v", i, viaPlane[i], direct[i])
				}
			}
			chosen := u[:len(u)-1]
			chosenIDs := ids[:len(ids)-1]
			cand := ids[len(ids)-1]
			dWant := o.MaxSumDelta(chosen, answers[cand], len(ids))
			if dGot := o.MaxSumDeltaIDs(plane, chosenIDs, cand, len(ids)); dGot != dWant {
				t.Fatalf("MaxSumDeltaIDs = %v, MaxSumDelta = %v", dGot, dWant)
			}
			for i, id := range ids {
				if plane.Rel(id) != o.Rel.Rel(answers[id]) {
					t.Fatalf("Rel(%d): plane %v != direct %v", id, plane.Rel(id), o.Rel.Rel(answers[id]))
				}
				for _, jd := range ids[i+1:] {
					if plane.Dis(id, jd) != plane.Dis(jd, id) {
						t.Fatalf("Dis(%d,%d) asymmetric through the plane", id, jd)
					}
					if plane.Dis(id, jd) != o.Dis.Dis(answers[id], answers[jd]) {
						t.Fatalf("Dis(%d,%d): plane %v != direct %v", id, jd,
							plane.Dis(id, jd), o.Dis.Dis(answers[id], answers[jd]))
					}
				}
			}
		}
	})
}
