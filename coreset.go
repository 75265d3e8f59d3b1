package diversification

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/relation"
)

// Coreset is a shard-local diversification summary: the k′ = k + slack
// rows the greedy heuristic selects, with their relevance scores, packaged
// for MergeCoresets to union with other shards' coresets and re-solve. The
// greedy 2-approximation survives that composition (solve shard-locally,
// solve again over the union), which is what makes the coreset — rather
// than the full answer set — a sufficient shard response.
//
// Rows carry attribute values in schema order (the same form Request.Set
// and Engine.Insert accept); Scores[i] is δrel of Rows[i] under the
// statement's relevance binding, so a coordinator can reproduce the
// relevance half of the objective without the shard's scoring code.
// Pairwise distances are NOT shippable (they are quadratic); cluster mode
// therefore requires an attribute-based δdis the coordinator can
// re-evaluate from the row values.
type Coreset struct {
	// Schema names the statement's answer attributes, in row order.
	Schema []string `json:"schema"`
	// Rows are the selected k′ answers, values in schema order.
	Rows [][]interface{} `json:"rows"`
	// Scores[i] is δrel(Rows[i]) under the statement's relevance binding.
	Scores []float64 `json:"scores"`

	// K is the effective selection size the final solve targets; KPrime is
	// the per-shard coreset size actually extracted (min(k + slack, |Q(D)|)).
	K      int `json:"k"`
	KPrime int `json:"k_prime"`
	// Lambda and Objective echo the effective settings the coreset was
	// extracted under, so the coordinator's final solve cannot drift from
	// the shards'.
	Lambda    float64 `json:"lambda"`
	Objective string  `json:"objective"`

	// Answers is |Q(D)| on this shard; Generation the database generation
	// the coreset is paired with.
	Answers    int    `json:"answers"`
	Generation uint64 `json:"generation"`

	// Degraded/DegradedFrom/Cached mirror the underlying solve's markers;
	// a coordinator ORs them into its merged response so cluster answers
	// stay truthful about approximation and cache provenance.
	Degraded     bool   `json:"degraded,omitempty"`
	DegradedFrom string `json:"degraded_from,omitempty"`
	Cached       bool   `json:"cached,omitempty"`

	// Elapsed is the shard-side wall clock of the extraction.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
}

// CoresetSpec parameterizes a coreset extraction. The pointer fields are
// per-request overrides of the statement's prepared bindings, exactly like
// Request; Slack sets k′ = k + slack, nil defaulting to slack = k (the
// paper-safe default: doubling the shard budget keeps the union rich
// enough that the merged greedy solve empirically tracks the single-engine
// one).
type CoresetSpec struct {
	K         *int
	Lambda    *float64
	Objective *Objective
	Slack     *int
}

// coresetAttempts bounds the count-then-solve retry when mutations land
// between the answer-count read and the solve (the clamped k′ can go stale
// either way; one re-read almost always settles it).
const coresetAttempts = 2

// Coreset extracts a shard-local coreset from a registered statement: the
// greedy heuristic's k′-selection over this engine's answer set, with
// relevance scores and the effective settings echoed for the coordinator.
// The solve itself goes through Service.Do, so it is admission-gated,
// result-cached and coalesced exactly like a query; only the k′ clamp and
// the score extraction are coreset-specific.
//
// Mono objectives are refused — Fmono's value depends on all of Q(D), so
// shard-local solves do not compose — and so are constrained statements
// (the greedy heuristic cannot honor σ).
func (s *Service) Coreset(ctx context.Context, name string, spec CoresetSpec) (*Coreset, error) {
	p, ok := s.Prepared(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStatement, name)
	}
	var opts []Option
	if spec.K != nil {
		opts = append(opts, WithK(*spec.K))
	}
	if spec.Lambda != nil {
		opts = append(opts, WithLambda(*spec.Lambda))
	}
	if spec.Objective != nil {
		opts = append(opts, WithObjective(*spec.Objective))
	}
	ms, err := p.call(opts)
	if err != nil {
		return nil, err
	}
	if ms.objective == Mono {
		return nil, argErrorf("objective", "mono objective is not coreset-mergeable (its value depends on all of Q(D), which no shard holds)")
	}
	if len(ms.constraints) > 0 {
		return nil, argErrorf("constraints", "coreset extraction runs the greedy heuristic, which does not support constraints")
	}
	slack := ms.k
	if spec.Slack != nil {
		if *spec.Slack < 0 {
			return nil, argErrorf("slack", "must be >= 0, got %d", *spec.Slack)
		}
		slack = *spec.Slack
	}

	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	start := time.Now()
	var lastErr error
	for attempt := 0; attempt < coresetAttempts; attempt++ {
		n, gen, err := s.answerCount(ctx, p)
		if err != nil {
			return nil, err
		}
		kp := ms.k + slack
		if kp > n {
			kp = n
		}
		cs := &Coreset{
			Schema:     append([]string(nil), p.schema.Attrs...),
			K:          ms.k,
			KPrime:     kp,
			Lambda:     ms.lambda,
			Objective:  ms.objective.String(),
			Answers:    n,
			Generation: gen,
		}
		if kp == 0 {
			// An empty shard contributes an empty coreset, not an error: the
			// coordinator's union may still satisfy k from other shards.
			cs.Elapsed = time.Since(start)
			return cs, nil
		}
		greedy := Greedy
		resp, err := s.Do(ctx, name, Request{
			Problem:   ProblemDiversify,
			K:         &kp,
			Lambda:    spec.Lambda,
			Objective: spec.Objective,
			Algorithm: &greedy,
		})
		if err != nil {
			if errors.Is(err, ErrNoCandidate) {
				// The answer set shrank between the count and the solve:
				// re-read and retry with a fresh clamp.
				lastErr = err
				continue
			}
			return nil, err
		}
		rel := ms.relevance
		if rel == nil {
			rel = func(Row) float64 { return 1 }
		}
		cs.Rows = make([][]interface{}, len(resp.Selection.Rows))
		cs.Scores = make([]float64, len(resp.Selection.Rows))
		for i, row := range resp.Selection.Rows {
			cs.Rows[i] = row.Values()
			cs.Scores[i] = rel(row)
		}
		if resp.Stats.Answers > 0 {
			cs.Answers = resp.Stats.Answers
		}
		cs.Generation = resp.Generation
		cs.Degraded = resp.Degraded
		cs.DegradedFrom = resp.DegradedFrom
		cs.Cached = resp.Cached
		cs.Elapsed = time.Since(start)
		return cs, nil
	}
	return nil, lastErr
}

// answerCount reports |Q(D)| (and its generation) for a statement,
// admission-gated: a cold statement pays its rebuild here, which is the
// same work a query would perform and must respect the concurrency bound.
func (s *Service) answerCount(ctx context.Context, p *Prepared) (int, uint64, error) {
	release, err := s.admit(ctx)
	if err != nil {
		return 0, 0, err
	}
	defer release()
	p.eng.mu.RLock()
	defer p.eng.mu.RUnlock()
	snap, err := p.snapshotFor(ctx)
	if err != nil {
		return 0, 0, err
	}
	return len(snap.answers), snap.gen, nil
}

// MergeCoresets is the consuming half of Coreset: the greedy procedure run
// once more, over the union of the shards' coresets. parts is indexed by
// shard, nil for a shard that did not answer. Coresets come from other
// processes, so they are validated: every part must echo the first one's
// schema, k, λ and objective; rows must fit the schema and carry scores;
// the settings must pass Prepare's checks (typed ArgErrors), mono refused.
//
// The union keeps each distinct row once, at its largest shipped score, in
// canonical tuple order — a single engine's snapshot order — so a one-shard
// merge answers byte for byte as that shard's engine. δrel is the shipped
// score; δdis is AttrDistance(distanceAttr), zero when distanceAttr is "".
// A missing part marks the response Degraded and clamps k to the union
// size; with every part present, a union short of k is ErrNoCandidate.
// Generation sums the parts' generations; Cached and Degraded are ORs.
func MergeCoresets(ctx context.Context, parts []*Coreset, distanceAttr string, explain bool) (*Response, error) {
	resp := &Response{Problem: ProblemDiversify, Route: "greedy"}
	var s settings
	var schema relation.Schema
	var rows []scoredRow
	first, missing := -1, false
	for i, cs := range parts {
		if cs == nil {
			missing = true
			continue
		}
		if first < 0 {
			obj, err := ParseObjective(cs.Objective)
			if err != nil {
				return nil, err
			}
			s = settings{k: cs.K, lambda: cs.Lambda, objective: obj}
			if err := s.validate(); err != nil {
				return nil, err
			}
			if obj == Mono {
				return nil, argErrorf("objective", "mono objective is not coreset-mergeable (its value depends on all of Q(D), which no shard holds)")
			}
			if schema, err = relation.CheckSchema("Q", cs.Schema...); err != nil {
				return nil, err
			}
			first = i
		} else if f := parts[first]; !slices.Equal(cs.Schema, f.Schema) || cs.K != f.K || cs.Lambda != f.Lambda || cs.Objective != s.objective.String() {
			// Drift (a misdeployed shard, or renamed answer attributes) must
			// fail, not merge rows read under the wrong settings.
			return nil, fmt.Errorf("diversification: shard[%d] coreset settings drift: (k=%d λ=%g %s schema=%v) vs shard[%d] (k=%d λ=%g %s schema=%v)",
				i, cs.K, cs.Lambda, cs.Objective, cs.Schema, first, f.K, f.Lambda, s.objective, f.Schema)
		}
		if len(cs.Scores) != len(cs.Rows) {
			return nil, fmt.Errorf("diversification: shard[%d] coreset has %d scores for %d rows", i, len(cs.Scores), len(cs.Rows))
		}
		for j, row := range cs.Rows {
			t, err := toTuple(row, schema.Arity())
			if err != nil {
				return nil, fmt.Errorf("diversification: shard[%d] coreset row %d %w", i, j, err)
			}
			rows = append(rows, scoredRow{t, cs.Scores[j]})
		}
		resp.Generation += cs.Generation
		resp.Degraded = resp.Degraded || cs.Degraded
		resp.Cached = resp.Cached || cs.Cached
	}
	if first < 0 {
		return nil, errors.New("diversification: no coreset to merge")
	}
	union, scores := dedupRows(rows)
	if missing {
		resp.Degraded = true
		s.k = min(s.k, len(union))
	}

	s.relevance = func(r Row) float64 {
		i, _ := relation.Search(union, r.tuple)
		return scores[i]
	}
	if distanceAttr != "" {
		WithDistance(AttrDistance(distanceAttr))(&s)
	}
	in := &core.Instance{Obj: s.objectiveOver(schema), K: s.k}
	in.SetAnswers(union)
	res, err := approx.GreedyContext(ctx, in)
	if err != nil {
		return nil, err
	}
	// The union is rebuilt for every merge: a full rebuild, truthfully.
	resp.Refresh = RefreshInfo{Mode: "rebuild", Answers: len(union)}
	resp.Stats = Stats{Steps: res.Steps, Answers: len(union)}
	if len(res.Set) == 0 {
		return nil, ErrNoCandidate
	}
	resp.Selection = newSelection(schema, res.Set, res.Value, resp.Route)
	if explain {
		resp.Explain = fmt.Sprintf("problem:   %s\nobjective: %s (λ=%g, k=%d)\nroute:     %s\n",
			resp.Problem, s.objective, s.lambda, s.k, resp.Route)
	}
	return resp, nil
}

// scoredRow is a coreset row with the score its shard shipped.
type scoredRow struct {
	t     relation.Tuple
	score float64
}

// dedupRows sorts rows into canonical tuple order and keeps each distinct
// tuple once: its first copy in rows, scored with the first of its scores
// that no later one exceeds. Compare's ties are exactly the Key ties, so
// this is the dedup a map keyed by Tuple.Key would do, without the keys.
func dedupRows(rows []scoredRow) ([]relation.Tuple, []float64) {
	slices.SortStableFunc(rows, func(a, b scoredRow) int { return a.t.Compare(b.t) })
	var union []relation.Tuple
	var scores []float64
	for i, r := range rows {
		if i > 0 && r.t.Compare(rows[i-1].t) == 0 {
			if last := len(scores) - 1; r.score > scores[last] {
				scores[last] = r.score
			}
			continue
		}
		union, scores = append(union, r.t), append(scores, r.score)
	}
	return union, scores
}

// ClusterMetrics is the coordinator's counter block inside Metrics: the
// shard fan-out traffic, its failures, and per-shard observations. It is
// populated only by a cluster coordinator (see internal/cluster); a plain
// Service leaves Metrics.Cluster nil.
type ClusterMetrics struct {
	Shards         int   `json:"shards"`
	FanOuts        int64 `json:"fan_outs"`        // coordinated diversify requests fanned to shards
	FanOutErrors   int64 `json:"fan_out_errors"`  // individual shard calls that failed
	PartialResults int64 `json:"partial_results"` // merged responses served with >= 1 shard missing

	// ShardStats is one entry per configured shard, in shard-index order.
	ShardStats []ClusterShardMetrics `json:"shard_stats,omitempty"`
}

// ClusterShardMetrics is one shard's view from the coordinator: traffic,
// failures, the latest/worst observed fan-out latency and the size of the
// last coreset it returned.
type ClusterShardMetrics struct {
	Addr            string `json:"addr"`
	Requests        int64  `json:"requests"`
	Errors          int64  `json:"errors"`
	LastLatencyNS   int64  `json:"last_latency_ns,omitempty"`
	MaxLatencyNS    int64  `json:"max_latency_ns,omitempty"`
	LastCoresetSize int64  `json:"last_coreset_size,omitempty"`
}
