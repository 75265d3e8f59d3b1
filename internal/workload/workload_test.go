package workload

import (
	"math/rand"
	"testing"

	"repro/internal/objective"
	"repro/internal/query"
	"repro/internal/query/eval"
	"repro/internal/solver"
)

func TestGiftShopShape(t *testing.T) {
	db := GiftShop(rand.New(rand.NewSource(1)), 40, 60)
	if db.Relation("catalog").Len() != 40 {
		t.Errorf("catalog size = %d", db.Relation("catalog").Len())
	}
	if db.Relation("history").Len() == 0 {
		t.Error("history empty")
	}
	// Prices within [5, 99].
	for _, tu := range db.Relation("catalog").Tuples() {
		if p := tu[2].AsInt(); p < 5 || p > 99 {
			t.Errorf("price %d out of range", p)
		}
	}
}

func TestGiftShopDeterministic(t *testing.T) {
	a := GiftShop(rand.New(rand.NewSource(5)), 10, 10)
	b := GiftShop(rand.New(rand.NewSource(5)), 10, 10)
	as, bs := a.Relation("catalog").Sorted(), b.Relation("catalog").Sorted()
	for i := range as {
		if !as[i].Equal(bs[i]) {
			t.Fatal("same seed should give same database")
		}
	}
}

func TestGiftQueryClassification(t *testing.T) {
	if got := GiftQuery("b", "r", 20, 30).Classify(); got != query.FO {
		t.Errorf("gift query should be FO, got %v", got)
	}
	if got := GiftCQQuery(20, 30).Classify(); got != query.CQ {
		t.Errorf("CQ gift query should be CQ, got %v", got)
	}
}

func TestGiftQueryExcludesPastGifts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := GiftShop(rng, 30, 80)
	// Pick a (buyer, recipient, item) from history; that item must not be
	// recommended for that pair when in price range.
	h := db.Relation("history").Tuples()[0]
	item, buyer, recipient := h[0].AsString(), h[1].AsString(), h[2].AsString()
	q := GiftQuery(buyer, recipient, 5, 99)
	res := eval.Evaluate(q, db)
	for _, tu := range res {
		if tu[0].AsString() == item {
			t.Errorf("item %s was already given by %s to %s", item, buyer, recipient)
		}
	}
	// And the unfiltered CQ query does include it.
	cq := eval.Evaluate(GiftCQQuery(5, 99), db)
	found := false
	for _, tu := range cq {
		if tu[0].AsString() == item {
			found = true
		}
	}
	if !found {
		t.Error("CQ query should include the purchased item")
	}
}

func TestGiftRelevanceUsesHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := GiftShop(rng, 20, 100)
	rel := GiftRelevance(db, "holiday", 8, 70)
	// Some item should deviate from the default 2.5.
	deviates := false
	for _, tu := range db.Relation("catalog").Tuples() {
		if rel.Rel(tu) != 2.5 {
			deviates = true
		}
	}
	if !deviates {
		t.Error("no item picked up a history-derived relevance")
	}
}

func TestGiftDistanceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := GiftShop(rng, 25, 10)
	dis := GiftDistance(db)
	items := db.Relation("catalog").Tuples()
	for i := 0; i < len(items) && i < 10; i++ {
		if dis.Dis(items[i], items[i]) != 0 {
			t.Error("self distance must be 0")
		}
		for j := i + 1; j < len(items) && j < 10; j++ {
			a, b := dis.Dis(items[i], items[j]), dis.Dis(items[j], items[i])
			if a != b {
				t.Error("distance must be symmetric")
			}
			if a < 0 || a > 2 {
				t.Errorf("distance %v out of range", a)
			}
		}
	}
}

func TestGiftInstanceSolvable(t *testing.T) {
	in := GiftInstance(rand.New(rand.NewSource(6)), 25, 60, 3, objective.MaxSum, 0.5)
	if len(in.Answers()) < 3 {
		t.Skip("too few answers with this seed")
	}
	best := solver.QRDBest(in)
	if !best.Exists || len(best.Witness) != 3 {
		t.Fatal("gift instance should have a best 3-set")
	}
}

func TestPointsInstance(t *testing.T) {
	in := Points(rand.New(rand.NewSource(7)), 30, 2, 100, objective.MaxMin, 0.7, 4)
	if got := len(in.Answers()); got != 30 {
		t.Errorf("|Q(D)| = %d, want 30", got)
	}
	if in.Language() != query.Identity {
		t.Errorf("points instance should use an identity query, got %v", in.Language())
	}
	res := solver.QRDBest(in)
	if !res.Exists {
		t.Fatal("best set should exist")
	}
}

func TestClusteredInstance(t *testing.T) {
	in := Clustered(rand.New(rand.NewSource(8)), 4, 8, 1000, 10, objective.MaxSum, 1, 4)
	if len(in.Answers()) == 0 {
		t.Fatal("clustered instance empty")
	}
	// Diversity-only best set should pick points far apart: its value should
	// comfortably exceed a same-cluster baseline.
	best := solver.QRDBest(in)
	ans := in.Answers()
	worst := in.Eval(ans[:4])
	if best.Value < worst {
		t.Errorf("best %v should be at least the first-four baseline %v", best.Value, worst)
	}
}

func TestCoursesScenario(t *testing.T) {
	db, prereqs := Courses()
	if db.Relation("courses").Len() != 8 {
		t.Errorf("course catalog size = %d", db.Relation("courses").Len())
	}
	if len(prereqs) != 4 {
		t.Errorf("prerequisite constraints = %d", len(prereqs))
	}
}

func TestTeamRoster(t *testing.T) {
	db := TeamRoster(rand.New(rand.NewSource(9)), 20)
	if db.Relation("players").Len() != 20 {
		t.Errorf("roster size = %d", db.Relation("players").Len())
	}
	for _, tu := range db.Relation("players").Tuples() {
		if s := tu[2].AsInt(); s < 50 || s > 99 {
			t.Errorf("skill %d out of range", s)
		}
	}
}

func TestDynamicPointsStream(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db, updates := DynamicPoints(rng, 50, 12, 4, 2, 300)
	rel := db.Relation("P")
	if rel.Len() != 50 {
		t.Fatalf("base relation has %d rows, want 50", rel.Len())
	}
	inserts, checkpoints := 0, 0
	for _, u := range updates {
		if u.Checkpoint {
			checkpoints++
			continue
		}
		if u.Delete || u.Rel != "P" || len(u.Tuple) != 2 {
			t.Fatalf("unexpected update %+v", u)
		}
		if rel.Contains(u.Tuple) {
			t.Errorf("stream tuple %v already in the base set", u.Tuple)
		}
		if !rel.Insert(u.Tuple) {
			t.Errorf("stream tuple %v repeated within the stream", u.Tuple)
		}
		inserts++
	}
	if inserts != 12 || checkpoints != 3 {
		t.Errorf("stream has %d inserts / %d checkpoints, want 12 / 3", inserts, checkpoints)
	}
}

func TestDynamicGiftStream(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db, updates := DynamicGift(rng, 20, 40, 6, 2)
	cat := db.Relation("catalog")
	if cat.Len() != 20 {
		t.Fatalf("base catalog has %d rows, want 20", cat.Len())
	}
	inserts := 0
	for _, u := range updates {
		if u.Checkpoint {
			continue
		}
		if u.Rel != "catalog" || len(u.Tuple) != cat.Schema().Arity() {
			t.Fatalf("unexpected update %+v", u)
		}
		if !cat.Insert(u.Tuple) {
			t.Errorf("stream item %v collides with the catalog", u.Tuple)
		}
		inserts++
	}
	if inserts != 6 {
		t.Errorf("stream has %d inserts, want 6", inserts)
	}
}

func TestDynamicPointsExhaustedDomain(t *testing.T) {
	// side^dim = 4 total points; base takes 2, so at most 2 fresh stream
	// inserts exist — the generator must truncate, not spin forever.
	rng := rand.New(rand.NewSource(1))
	_, updates := DynamicPoints(rng, 2, 10, 1, 1, 4)
	inserts := 0
	for _, u := range updates {
		if !u.Checkpoint {
			inserts++
		}
	}
	if inserts > 2 {
		t.Errorf("exhausted domain produced %d inserts, want <= 2", inserts)
	}
}
