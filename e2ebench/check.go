package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// answer is one row of Q(D) as the checker models it.
type answer struct {
	key string  // canonical form of every head attribute, in order
	rel float64 // δrel: the relevance attribute as a number
	dis string  // the distance attribute; δdis is 1 where two rows differ on it
}

// model is the checker's own account of Q(D), built from the generated
// inputs and the acknowledged mutations without any code of the system
// under test. Every diversify answer is checked against it.
type model struct {
	mu     sync.Mutex // the closed-loop clients share the model
	attrs  []string
	relIdx int
	disIdx int
	rows   map[string]answer
	sorted []answer // rows in key order, rebuilt after a mutation

	// gen is the database generation every answer must carry: the
	// generation of the last acknowledged write (or of the loaded data).
	// Zero until the first answer fixes it.
	gen uint64
}

func newModel(attrs []string, relAttr, disAttr string) *model {
	m := &model{attrs: attrs, rows: make(map[string]answer)}
	for i, a := range attrs {
		switch a {
		case relAttr:
			m.relIdx = i
		case disAttr:
			m.disIdx = i
		}
	}
	return m
}

// canonField maps a TSV field to the identity the wire gives the same
// value: numbers by their float64 value (the loader reads integers and
// decimals alike as numbers), anything else as a string.
func canonField(s string) string {
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return "n" + strconv.FormatFloat(f, 'g', -1, 64)
	}
	return "s" + s
}

// canonWire is canonField for a JSON-decoded (UseNumber) value.
func canonWire(v any) (string, error) {
	switch x := v.(type) {
	case string:
		return "s" + x, nil
	case json.Number:
		f, err := strconv.ParseFloat(string(x), 64)
		if err != nil {
			return "", err
		}
		return "n" + strconv.FormatFloat(f, 'g', -1, 64), nil
	default:
		return "", fmt.Errorf("unexpected value %v (%T)", v, v)
	}
}

func (m *model) answerOf(fields []string) answer {
	canon := make([]string, len(fields))
	for i, f := range fields {
		canon[i] = canonField(f)
	}
	rel, _ := strconv.ParseFloat(fields[m.relIdx], 64)
	return answer{key: strings.Join(canon, "\x00"), rel: rel, dis: canon[m.disIdx]}
}

func (m *model) add(fields []string) {
	a := m.answerOf(fields)
	m.mu.Lock()
	m.rows[a.key] = a
	m.sorted = nil
	m.mu.Unlock()
}

func (m *model) remove(fields []string) {
	key := m.answerOf(fields).key
	m.mu.Lock()
	delete(m.rows, key)
	m.sorted = nil
	m.mu.Unlock()
}

// setGen records the generation answers must carry from now on.
func (m *model) setGen(gen uint64) {
	m.mu.Lock()
	m.gen = gen
	m.mu.Unlock()
}

// queryResponse is the part of a diversify response the benchmark reads.
type queryResponse struct {
	Selection *struct {
		Rows  []map[string]any `json:"rows"`
		Value float64          `json:"value"`
	} `json:"selection"`
	Stats struct {
		Steps int `json:"steps"`
	} `json:"stats"`
	Refresh struct {
		Mode string `json:"mode"`
	} `json:"refresh"`
	Generation uint64 `json:"generation"`
	Cached     bool   `json:"cached"`
	Degraded   bool   `json:"degraded"`
}

func decodeResponse(body []byte) (*queryResponse, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var r queryResponse
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return &r, nil
}

// errDegraded reports an answer the server itself flagged as partial (a
// shard did not respond): a failed request, not a wrong answer.
var errDegraded = errors.New("answer flagged degraded")

// check verifies a diversify answer to sh: a full, undegraded selection
// of k distinct rows of Q(D), at the expected generation, whose reported
// value is the objective recomputed from the rows.
func (m *model) check(sh shape, r *queryResponse) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.Degraded {
		return errDegraded
	}
	if r.Selection == nil {
		return fmt.Errorf("no selection")
	}
	if m.gen != 0 && r.Generation != m.gen {
		return fmt.Errorf("answer at generation %d, want %d", r.Generation, m.gen)
	}
	if len(r.Selection.Rows) != sh.K {
		return fmt.Errorf("%d rows, want k=%d", len(r.Selection.Rows), sh.K)
	}
	picked := make([]answer, 0, sh.K)
	seen := make(map[string]bool, sh.K)
	for i, row := range r.Selection.Rows {
		if len(row) != len(m.attrs) {
			return fmt.Errorf("row %d has %d attributes, want %d", i, len(row), len(m.attrs))
		}
		canon := make([]string, len(m.attrs))
		for j, attr := range m.attrs {
			v, ok := row[attr]
			if !ok {
				return fmt.Errorf("row %d lacks attribute %q", i, attr)
			}
			c, err := canonWire(v)
			if err != nil {
				return fmt.Errorf("row %d attribute %q: %v", i, attr, err)
			}
			canon[j] = c
		}
		key := strings.Join(canon, "\x00")
		a, ok := m.rows[key]
		if !ok {
			return fmt.Errorf("row %d %v is not in Q(D)", i, row)
		}
		if seen[key] {
			return fmt.Errorf("row %d %v is selected twice", i, row)
		}
		seen[key] = true
		picked = append(picked, a)
	}
	want := objective(sh, picked)
	if !sameValue(want, r.Selection.Value) {
		return fmt.Errorf("reported value %v, rows give %v", r.Selection.Value, want)
	}
	return nil
}

// sameValue compares objective values summed in different orders.
func sameValue(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func dis(a, b answer) float64 {
	if a.dis == b.dis {
		return 0
	}
	return 1
}

// objective is the paper's FMS or FMM of a selection:
//
//	FMS(U) = (k-1)(1-λ)·Σ δrel(t) + 2λ·Σ_{t<t'} δdis(t, t')
//	FMM(U) = (1-λ)·min δrel(t) + λ·min_{t≠t'} δdis(t, t')
func objective(sh shape, u []answer) float64 {
	if len(u) == 0 {
		return 0
	}
	l := sh.Lambda
	if sh.Objective == "max-min" {
		minRel, minDis := math.Inf(1), 0.0
		for _, a := range u {
			minRel = math.Min(minRel, a.rel)
		}
		if len(u) > 1 {
			minDis = math.Inf(1)
			for i := range u {
				for j := i + 1; j < len(u); j++ {
					minDis = math.Min(minDis, dis(u[i], u[j]))
				}
			}
		}
		return (1-l)*minRel + l*minDis
	}
	relSum, disSum := 0.0, 0.0
	for i := range u {
		relSum += u[i].rel
		for j := i + 1; j < len(u); j++ {
			disSum += dis(u[i], u[j])
		}
	}
	return float64(len(u)-1)*(1-l)*relSum + 2*l*disSum
}

// reference runs the textbook greedy for sh over the whole model — max-sum
// by largest marginal gain, max-min farthest-point from the most relevant
// row — and returns the objective value of its selection. It is the
// yardstick of quality_ratio; ties break by row key, not as the system
// breaks them.
func (m *model) reference(sh shape) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sorted == nil {
		m.sorted = make([]answer, 0, len(m.rows))
		for _, a := range m.rows {
			m.sorted = append(m.sorted, a)
		}
		sort.Slice(m.sorted, func(i, j int) bool { return m.sorted[i].key < m.sorted[j].key })
	}
	rows := m.sorted
	if sh.K <= 0 || sh.K > len(rows) {
		return 0
	}
	l := sh.Lambda
	used := make([]bool, len(rows))
	score := make([]float64, len(rows))
	maxMin := sh.Objective == "max-min"
	for i, a := range rows {
		if maxMin {
			score[i] = math.Inf(1) // min distance to the chosen rows
		} else {
			score[i] = float64(sh.K-1) * (1 - l) * a.rel
		}
	}
	picked := make([]answer, 0, sh.K)
	for len(picked) < sh.K {
		best, bestVal := -1, math.Inf(-1)
		for i, a := range rows {
			if used[i] {
				continue
			}
			v := score[i]
			if maxMin {
				if len(picked) == 0 {
					v = a.rel
				} else {
					v = (1-l)*a.rel + l*score[i]
				}
			}
			if v > bestVal {
				best, bestVal = i, v
			}
		}
		used[best] = true
		chosen := rows[best]
		picked = append(picked, chosen)
		for i, a := range rows {
			if used[i] {
				continue
			}
			if maxMin {
				score[i] = math.Min(score[i], dis(chosen, a))
			} else {
				score[i] += 2 * l * dis(chosen, a)
			}
		}
	}
	return objective(sh, picked)
}
