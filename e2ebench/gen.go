package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// table is one generated relation: the name divserve loads it under and
// the TSV file holding it.
type table struct {
	name string
	file string
}

// dataset is everything a workload's servers and checker share: the input
// files, the registered statement with its scoring bindings, and the
// checker's own model of Q(D).
type dataset struct {
	tables  []table
	stmt    string
	relAttr string // numeric answer attribute used as δrel
	disAttr string // answer attribute whose inequality is δdis
	model   *model
	writes  *writeGen // mutation source; nil for read-only workloads
}

// statement is the name every workload registers its query under.
const statement = "q"

// writeTSV writes rows under a header line, creating the file in dir.
func writeTSV(dir, name string, header []string, rows [][]string) (table, error) {
	path := filepath.Join(dir, name+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return table{}, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return table{}, err
	}
	if err := f.Close(); err != nil {
		return table{}, err
	}
	return table{name: name, file: path}, nil
}

// genItems builds items(id, cat, rel) for the warm-read and cluster
// workloads: cat is zipf(1.1) over 200 categories, so a few categories are
// crowded and most are sparse; rel is a permutation of n evenly spaced
// values in (0, 1), so relevance never ties. The statement is the identity
// query, so Q(D) is the table itself.
//
// The (cat, rel) pairs come from a fixed generator, the same for every
// seed: which categories the most relevant rows fall in sets how much work
// a greedy solve does, and drawing that per seed moved the median read by
// 20% from one seed to another. The seed permutes the category labels and
// the order, and so the ids, of the rows.
func genItems(rng *rand.Rand, dir string, n int) (*dataset, error) {
	fixed := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(fixed, 1.1, 1, 199)
	perm := fixed.Perm(n)
	labels, order := rng.Perm(200), rng.Perm(n)
	m := newModel([]string{"id", "cat", "rel"}, "rel", "cat")
	rows := make([][]string, n)
	for i := range rows {
		rel := strconv.FormatFloat((float64(perm[i])+0.5)/float64(n), 'f', 7, 64)
		rows[order[i]] = []string{strconv.Itoa(order[i]), fmt.Sprintf("c%03d", labels[zipf.Uint64()]), rel}
	}
	for _, r := range rows {
		m.add(r)
	}
	t, err := writeTSV(dir, "items", []string{"id", "cat", "rel"}, rows)
	if err != nil {
		return nil, err
	}
	return &dataset{
		tables:  []table{t},
		stmt:    "Q(id, cat, rel) :- items(id, cat, rel)",
		relAttr: "rel",
		disAttr: "cat",
		model:   m,
	}, nil
}

// genGift builds the gift-shop database of the paper's Example 3.1:
// catalog(item, type, price, stock) and history(item, buyer, recipient,
// rating). The statement is the example's FO query — items in a price
// band that buyer b00 has not already given to recipient r00 — which
// keeps about half the catalog.
func genGift(rng *rand.Rand, dir string, nCatalog, nHistory int) (*dataset, error) {
	const lo, hi = 20, 67
	catalog := make([][]string, nCatalog)
	for i := range catalog {
		catalog[i] = []string{
			fmt.Sprintf("g%04d", i),
			fmt.Sprintf("t%02d", rng.Intn(16)),
			strconv.Itoa(5 + rng.Intn(95)),
			strconv.Itoa(rng.Intn(20)),
		}
	}
	given := make(map[string]bool)
	history := make([][]string, nHistory)
	for i := range history {
		h := []string{
			catalog[rng.Intn(nCatalog)][0],
			fmt.Sprintf("b%02d", rng.Intn(20)),
			fmt.Sprintf("r%02d", rng.Intn(30)),
			strconv.Itoa(1 + rng.Intn(5)),
		}
		if h[1] == "b00" && h[2] == "r00" {
			given[h[0]] = true
		}
		history[i] = h
	}
	m := newModel([]string{"n", "t", "p"}, "p", "t")
	for _, c := range catalog {
		p, _ := strconv.Atoi(c[2])
		if p >= lo && p <= hi && !given[c[0]] {
			m.add(c[:3])
		}
	}
	ct, err := writeTSV(dir, "catalog", []string{"item", "type", "price", "stock"}, catalog)
	if err != nil {
		return nil, err
	}
	ht, err := writeTSV(dir, "history", []string{"item", "buyer", "recipient", "rating"}, history)
	if err != nil {
		return nil, err
	}
	return &dataset{
		tables: []table{ct, ht},
		stmt: fmt.Sprintf(`Q(n, t, p) :- catalog(n, t, p, s), p >= %d, p <= %d, `+
			`not exists b, r, g (history(n, b, r, g), b = "b00", r = "r00")`, lo, hi),
		relAttr: "p",
		disAttr: "t",
		model:   m,
	}, nil
}

// genWriteMix builds catalog(item, type, price, stock) and history(item,
// buyer, rating) with ratings 0..4, under the positive CQ join
// catalog ⋈ history with rating >= 4: about a fifth of the history rows
// become answers. The returned dataset carries the mutation source that
// keeps |Q(D)| level while every step changes it.
func genWriteMix(rng *rand.Rand, dir string, nCatalog, nHistory int) (*dataset, error) {
	wg := &writeGen{rng: rng, catalog: make(map[string][2]string), live: make(map[string]int)}
	catalog := make([][]string, nCatalog)
	for i := range catalog {
		catalog[i] = []string{
			fmt.Sprintf("w%05d", i),
			fmt.Sprintf("t%02d", rng.Intn(40)),
			strconv.Itoa(1 + rng.Intn(500)),
			strconv.Itoa(rng.Intn(20)),
		}
		wg.catalog[catalog[i][0]] = [2]string{catalog[i][1], catalog[i][2]}
	}
	m := newModel([]string{"i", "t", "p", "b"}, "p", "t")
	wg.model = m
	history := make([][]string, 0, nHistory)
	seen := make(map[string]bool)
	for len(history) < nHistory {
		h := []string{
			catalog[rng.Intn(nCatalog)][0],
			fmt.Sprintf("u%03d", rng.Intn(500)),
			strconv.Itoa(rng.Intn(5)),
		}
		if k := strings.Join(h, "\t"); !seen[k] {
			seen[k] = true
			history = append(history, h)
			if h[2] == "4" {
				wg.addAnswer(h[0], h[1])
			}
		}
	}
	ct, err := writeTSV(dir, "catalog", []string{"item", "type", "price", "stock"}, catalog)
	if err != nil {
		return nil, err
	}
	ht, err := writeTSV(dir, "history", []string{"item", "buyer", "rating"}, history)
	if err != nil {
		return nil, err
	}
	return &dataset{
		tables:  []table{ct, ht},
		stmt:    "Q(i, t, p, b) :- catalog(i, t, p, s), history(i, b, r), r >= 4",
		relAttr: "p",
		disAttr: "t",
		model:   m,
		writes:  wg,
	}, nil
}

// mutation is one write request: rows to insert into or delete from a
// table, plus how the checker's model changes once it is acknowledged.
type mutation struct {
	table  string
	delete bool
	row    []any
	apply  func()
}

// writeGen produces write-mix steps and mirrors their effect on Q(D). A
// step inserts a new catalog item, inserts a qualifying purchase of it
// (one answer more) and deletes a random existing qualifying purchase (one
// answer fewer), so every step invalidates the statement while |Q(D)|
// stays where the planner picked its plane regime.
type writeGen struct {
	rng     *rand.Rand
	model   *model
	catalog map[string][2]string // item -> (type, price)
	step    int

	// live lists the (item, buyer) purchases with rating 4, with live
	// mapping each to its index, so a delete picks one uniformly in O(1).
	buyers [][2]string
	live   map[string]int
}

func (w *writeGen) addAnswer(item, buyer string) {
	tp := w.catalog[item]
	w.model.add([]string{item, tp[0], tp[1], buyer})
	w.live[item+"\t"+buyer] = len(w.buyers)
	w.buyers = append(w.buyers, [2]string{item, buyer})
}

func (w *writeGen) removeAnswer(item, buyer string) {
	tp := w.catalog[item]
	w.model.remove([]string{item, tp[0], tp[1], buyer})
	k := item + "\t" + buyer
	i := w.live[k]
	last := w.buyers[len(w.buyers)-1]
	w.buyers[i] = last
	w.live[last[0]+"\t"+last[1]] = i
	w.buyers = w.buyers[:len(w.buyers)-1]
	delete(w.live, k)
}

// next returns the three mutations of the next write step.
func (w *writeGen) next() []mutation {
	w.step++
	item := fmt.Sprintf("x%06d", w.step)
	typ := fmt.Sprintf("t%02d", w.rng.Intn(40))
	price := 1 + w.rng.Intn(500)
	buyer := fmt.Sprintf("u%03d", w.rng.Intn(500))
	victim := w.buyers[w.rng.Intn(len(w.buyers))]
	return []mutation{
		{table: "catalog", row: []any{item, typ, price, w.rng.Intn(20)}, apply: func() {
			w.catalog[item] = [2]string{typ, strconv.Itoa(price)}
		}},
		{table: "history", row: []any{item, buyer, 4}, apply: func() { w.addAnswer(item, buyer) }},
		{table: "history", delete: true, row: []any{victim[0], victim[1], 4}, apply: func() {
			w.removeAnswer(victim[0], victim[1])
		}},
	}
}

// shape is one diversify request, and also its wire form: the load
// generator marshals it as the body of POST /v1/query/{name}. Every field
// is always sent, so λ = 0 cannot fall back to the statement's binding.
type shape struct {
	K         int     `json:"k"`
	Lambda    float64 `json:"lambda"`
	Objective string  `json:"objective"`
}

// solveCombos is one block of the solve stream: half max-sum, half
// max-min, k ∈ {5, 10, 20}. Max-min costs about twice what max-sum does at
// the same k, so with k spread evenly over both halves the median read
// would fall exactly where the cheaper half meets the dearer one, on the
// tail of one (k, objective) population, and swing between runs. Max-min
// draws k = 10 three times in six instead, which puts the median a third
// of the way into the k = 10 max-min population.
var solveCombos = [12]struct {
	k   int
	obj string
}{
	{5, "max-sum"}, {5, "max-sum"}, {10, "max-sum"}, {10, "max-sum"}, {20, "max-sum"}, {20, "max-sum"},
	{5, "max-min"}, {10, "max-min"}, {10, "max-min"}, {10, "max-min"}, {20, "max-min"}, {20, "max-min"},
}

// solveStream is the distinct-request stream of the solve-bound
// workloads. Request j takes the slot of solveCombos that a seeded order
// puts at its place in its block of twelve. Slot s of block b draws λ from
// a grid of 10⁴ values at index offset + (12b + s)·6181, with a seeded
// offset. 6181 is coprime to 10⁴, so no two of the first 10⁴ requests are
// equal — each is a real solve, never a cache hit. Block by block, a slot's
// λ steps by 12·6181 mod 10⁴ = 4172, close to √2 − 1, so every slot covers
// [0, 1] evenly over any run of blocks. Max-sum's cost grows several-fold
// with λ, so this keeps each (k, objective) population, and the median,
// the same from seed to seed; stepping by request order instead left which
// λ values a population drew to the seed, and moved the median by 30%.
type solveStream struct {
	seed   int64
	offset int
}

func newSolveStream(seed int64) solveStream {
	return solveStream{seed: seed, offset: rand.New(rand.NewSource(seed)).Intn(10000)}
}

func (s solveStream) at(j int) shape {
	n := len(solveCombos)
	slot := rand.New(rand.NewSource(s.seed*1_000_003 + int64(j/n))).Perm(n)[j%n]
	c := solveCombos[slot]
	idx := (s.offset + (j/n*n+slot)*6181) % 10000
	return shape{K: c.k, Lambda: (float64(idx) + 0.5) / 10000, Objective: c.obj}
}

// zipfShapes is a stream of requests drawn zipf(1.2)-distributed over 64
// greedy shapes (k ∈ {4, 8, 12, 16} × both objectives × 8 λ values), with
// a seeded assignment of shapes to popularity ranks. Draws are made in
// index order whatever order at is called in, so the stream is a function
// of the seed alone.
type zipfShapes struct {
	mu     sync.Mutex
	zipf   *rand.Zipf
	shapes []shape
	drawn  []shape
}

func newZipfShapes(seed int64) *zipfShapes {
	rng := rand.New(rand.NewSource(seed))
	z := &zipfShapes{}
	for _, k := range []int{4, 8, 12, 16} {
		for _, obj := range []string{"max-sum", "max-min"} {
			for l := 1; l <= 8; l++ {
				z.shapes = append(z.shapes, shape{K: k, Lambda: float64(l) / 10, Objective: obj})
			}
		}
	}
	rng.Shuffle(len(z.shapes), func(i, j int) { z.shapes[i], z.shapes[j] = z.shapes[j], z.shapes[i] })
	z.zipf = rand.NewZipf(rng, 1.2, 1, uint64(len(z.shapes)-1))
	return z
}

func (z *zipfShapes) at(j int) shape {
	z.mu.Lock()
	defer z.mu.Unlock()
	for len(z.drawn) <= j {
		z.drawn = append(z.drawn, z.shapes[z.zipf.Uint64()])
	}
	return z.drawn[j]
}
