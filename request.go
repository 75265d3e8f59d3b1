package diversification

import (
	"encoding/json"
	"fmt"
	"strings"
)

// ProblemKind identifies which of the paper's decision/optimization
// problems a Request asks for. The zero value is ProblemDiversify.
type ProblemKind int

const (
	// ProblemDiversify finds a best k-set under the objective (the
	// optimization form of QRD); the Response carries a Selection.
	ProblemDiversify ProblemKind = iota
	// ProblemDecide answers QRD: does a k-set with F >= Bound exist? The
	// Response carries Exists.
	ProblemDecide
	// ProblemCount answers RDC: how many valid k-sets reach Bound? The
	// Response carries Count.
	ProblemCount
	// ProblemInTopR answers DRP for the Request's Set: does it rank among
	// the top r candidate sets? The Response carries InTopR.
	ProblemInTopR
	// ProblemRank computes rank(Set) exactly; the Response carries Rank.
	ProblemRank
)

// String returns the conventional lowercase name ("diversify", "decide",
// "count", "in-top-r", "rank").
func (k ProblemKind) String() string {
	switch k {
	case ProblemDiversify:
		return "diversify"
	case ProblemDecide:
		return "decide"
	case ProblemCount:
		return "count"
	case ProblemInTopR:
		return "in-top-r"
	case ProblemRank:
		return "rank"
	default:
		return fmt.Sprintf("ProblemKind(%d)", int(k))
	}
}

func (k ProblemKind) valid() bool {
	switch k {
	case ProblemDiversify, ProblemDecide, ProblemCount, ProblemInTopR, ProblemRank:
		return true
	default:
		return false
	}
}

// ParseProblem maps the textual problem names to the typed enum; the empty
// string selects the default ProblemDiversify.
func ParseProblem(s string) (ProblemKind, error) {
	switch s {
	case "diversify", "":
		return ProblemDiversify, nil
	case "decide":
		return ProblemDecide, nil
	case "count":
		return ProblemCount, nil
	case "in-top-r", "intopr":
		return ProblemInTopR, nil
	case "rank":
		return ProblemRank, nil
	default:
		return 0, argErrorf("problem", "unknown problem %q", s)
	}
}

// MarshalJSON renders the problem as its textual name.
func (k ProblemKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses the textual problem name.
func (k *ProblemKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	p, err := ParseProblem(s)
	if err != nil {
		return err
	}
	*k = p
	return nil
}

// Request is one diversification task against a Prepared statement,
// expressed uniformly for all five problems: every public solve method
// compiles into a Request, the plan stage resolves it against the
// Prepare-time bindings exactly once, and one execute dispatches it. The
// typed fields are overrides — a nil pointer leaves the Prepare-time
// binding in place — so a Request round-trips through JSON (which is how
// the network facade carries it) without an is-set sidecar per field.
//
// Go callers composing requests in code usually skip the pointers and put
// functional options in Options; the two forms merge, typed fields first:
//
//	resp, err := p.Do(ctx, diversification.Request{
//	    Problem: diversification.ProblemDecide,
//	    Options: []diversification.Option{diversification.WithBound(2)},
//	})
type Request struct {
	// Problem selects which question to answer. Defaults to diversify.
	Problem ProblemKind `json:"problem"`

	// Typed per-request overrides of the Prepare-time bindings; nil means
	// "use the prepared value".
	K         *int       `json:"k,omitempty"`
	Lambda    *float64   `json:"lambda,omitempty"`
	Objective *Objective `json:"objective,omitempty"`
	Algorithm *Algorithm `json:"algorithm,omitempty"`
	Bound     *float64   `json:"bound,omitempty"`
	Rank      *int       `json:"rank,omitempty"`

	// Set is the candidate set assessed by ProblemInTopR and ProblemRank:
	// one row per tuple, attribute values in schema order.
	Set [][]interface{} `json:"set,omitempty"`

	// Explain asks the Response to carry the plan's human-readable
	// resolution report (Response.Explain). Off by default: the report is
	// allocation per request, and Prepared.Plan exposes the same
	// information on demand.
	Explain bool `json:"explain,omitempty"`

	// Options carries further per-request overrides (relevance, distance,
	// constraints, parallelism, ...) in the functional-option form. They
	// are applied after the typed fields, so an Option wins on conflict.
	Options []Option `json:"-"`
}

// requestKey canonicalizes a Request against the statement's Prepare-time
// bindings into the statement-and-request half of a Service cache key (the
// Service prepends the database generation). The key derives from the
// merged settings — the same merge the plan stage performs — not the raw
// struct, so the two spellings of one request (a typed field vs the
// equivalent functional option) share an entry, and a request that merely
// restates a Prepare-time default keys identically to one that omits it.
//
// ok is false when the request is not cacheable: an invalid option set
// (the pipeline will produce the typed error), or a per-call
// WithRelevance/WithDistance override — function values have no canonical
// form, so those requests always solve, and so does a per-call
// AttrDistance, which takes the same override path.
func (p *Prepared) requestKey(req Request) (key string, ok bool) {
	if !req.Problem.valid() {
		return "", false
	}
	s, err := p.call(req.callOptions())
	if err != nil {
		return "", false
	}
	if s.dirty != 0 {
		return "", false
	}
	var b strings.Builder
	// p.id pins the statement identity: re-registering a name compiles a
	// new handle (possibly with new scoring bindings), and its id keeps the
	// old handle's entries unreachable.
	fmt.Fprintf(&b, "s%d|%s|k%d|l%g|o%s|a%s|b%g|r%d|w%d|x%t",
		p.id, req.Problem, s.k, s.lambda, s.objective, s.algorithm, s.bound, s.rank,
		s.workers(), req.Explain)
	for _, c := range s.constraints {
		fmt.Fprintf(&b, "|c%q", c)
	}
	for _, row := range req.Set {
		b.WriteString("|t")
		for _, v := range row {
			// Type-tagged values: int64(5) and float64(5) both print "5"
			// but select different tuple values downstream.
			fmt.Fprintf(&b, "(%T)%v,", v, v)
		}
	}
	return b.String(), true
}

// callOptions lowers the Request's typed overrides and Options into the
// single option slice the plan stage merges over the Prepare-time settings.
func (r Request) callOptions() []Option {
	opts := make([]Option, 0, 6+len(r.Options))
	if r.K != nil {
		opts = append(opts, WithK(*r.K))
	}
	if r.Lambda != nil {
		opts = append(opts, WithLambda(*r.Lambda))
	}
	if r.Objective != nil {
		opts = append(opts, WithObjective(*r.Objective))
	}
	if r.Algorithm != nil {
		opts = append(opts, WithAlgorithm(*r.Algorithm))
	}
	if r.Bound != nil {
		opts = append(opts, WithBound(*r.Bound))
	}
	if r.Rank != nil {
		opts = append(opts, WithRank(*r.Rank))
	}
	return append(opts, r.Options...)
}
