package solver

import (
	"testing"

	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/relation"
)

// fuzzSearchInstance decodes the fuzz input into a small exact-search
// instance: up to 10 two-column integer points, a kind, a λ, a k, and a
// split depth. Never fails; malformed inputs wrap around.
func fuzzSearchInstance(data []byte) func() *core.Instance {
	if len(data) < 5 {
		return nil
	}
	n := 3 + int(data[0])%8
	kind := objective.Kind(int(data[1]) % 3)
	lambda := float64(data[2]%101) / 100
	k := 1 + int(data[3])%5
	depth := int(data[4]) % 4 // 0 = auto
	rest := data[5:]
	at := func(i int) int64 {
		if len(rest) == 0 {
			return int64(i * 3)
		}
		return int64(int8(rest[i%len(rest)]))
	}
	return func() *core.Instance {
		r := relation.NewRelation(relation.NewSchema("P", "x", "y"))
		for i := 0; i < n; i++ {
			r.Insert(relation.Ints(at(2*i), at(2*i+1)))
		}
		db := relation.NewDatabase().Add(r)
		obj := objective.New(kind, objective.AttrRelevance(0, 1), objective.EuclideanDistance(), lambda)
		in := &core.Instance{Query: nil, DB: db, Obj: obj, K: k}
		in.SetAnswers(r.Sorted())
		in.ParallelDepth = depth
		return in
	}
}

// FuzzSearchWorkers holds the exact search, at one and at four workers, to
// the brute-force reference under adversarial inputs: best set, first
// witness and counts alike, across random instances, objectives, λ and split
// depths.
func FuzzSearchWorkers(f *testing.F) {
	f.Add([]byte{8, 0, 50, 3, 2, 9, 3, 7, 2, 8, 6, 4, 1, 0, 12})
	f.Add([]byte{9, 1, 100, 4, 1, 250, 3, 17, 99, 5, 5, 5, 6, 120, 0})
	f.Add([]byte{6, 2, 25, 2, 3, 1, 2, 3, 4, 9, 9, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		mk := fuzzSearchInstance(data)
		if mk == nil {
			return
		}
		checkAgainstReference(t, "fuzz", mk)
	})
}
