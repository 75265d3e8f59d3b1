// Package httpapi is the JSON-over-HTTP facade of the diversification
// service: the wire request/response types, one http.Handler serving them
// from a Backend — a single-engine diversification.Service or a cluster
// coordinator — and a small Go client. The protocol:
//
//	POST /v1/query/{name}     run a Request against a registered statement
//	POST /v1/coreset/{name}   extract a shard-local k′-coreset for cluster merge
//	POST /v1/refresh/{name}   bring a statement's caches up to date
//	POST /v1/insert/{table}   insert rows into a table
//	POST /v1/delete/{table}   delete rows from a table
//	POST /v1/admin/snapshot   persist the database, prune the WAL
//	GET  /healthz             liveness
//	GET  /metrics             service counters (admission, traffic, WAL)
//
// The coreset route is mounted only on backends that produce coresets (a
// single engine serving as a shard); a coordinator answers it with 404.
// Responses are the library's own JSON forms (diversification.Response,
// RefreshInfo, Metrics, SnapshotInfo). Errors are {"error": ..., "field":
// ...} with the status mapping: invalid arguments 400, unknown statement
// or table 404, snapshot of a non-durable engine 409, no candidate set
// 422, admission queue full 429, deadline exceeded 504, anything else 500;
// a shard failure forwarded by a coordinator keeps the shard's status.
package httpapi

import (
	"encoding/json"
	"fmt"

	diversification "repro"
)

// QueryRequest is the wire form of one query against a named statement.
// Pointer fields are per-request overrides: absent means "use the
// statement's prepared binding", mirroring diversification.Request.
type QueryRequest struct {
	// Problem is "diversify" (default), "decide", "count", "in-top-r" or
	// "rank".
	Problem string `json:"problem,omitempty"`

	K         *int     `json:"k,omitempty"`
	Lambda    *float64 `json:"lambda,omitempty"`
	Objective *string  `json:"objective,omitempty"` // "max-sum" | "max-min" | "mono"
	Algorithm *string  `json:"algorithm,omitempty"` // "auto" | "exact" | "greedy" | "local-search" | "online"
	Bound     *float64 `json:"bound,omitempty"`
	Rank      *int     `json:"rank,omitempty"`

	// Set is the candidate set for in-top-r and rank: rows of attribute
	// values in schema order.
	Set [][]interface{} `json:"set,omitempty"`

	// RelevanceAttr names a numeric attribute used as δrel for this
	// request (diversification.AttrRelevance); DistanceAttr names an
	// attribute whose inequality defines a 0/1 δdis
	// (diversification.AttrDistance). Like a per-call WithRelevance or
	// WithDistance, either one bypasses the statement's shared score plane
	// and the result cache: the request builds its own plane, which for
	// DistanceAttr is the O(n) category plane.
	RelevanceAttr string `json:"relevance_attr,omitempty"`
	DistanceAttr  string `json:"distance_attr,omitempty"`

	// Constraints replace the statement's compatibility constraints (Cm
	// syntax) for this request.
	Constraints []string `json:"constraints,omitempty"`

	// TimeoutMillis bounds this request (queue wait + solve); 0 defers to
	// the server's default deadline. A negative value, or one above
	// math.MaxInt64/10⁶, is refused with a 400 on "timeout_ms".
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`

	// Explain asks the response to include the plan's human-readable
	// resolution report. Off by default — it is per-request allocation and
	// payload most callers never read.
	Explain bool `json:"explain,omitempty"`
}

// ToRequest lowers the wire form onto the library's typed Request.
func (qr QueryRequest) ToRequest() (diversification.Request, error) {
	var req diversification.Request
	problem, err := diversification.ParseProblem(qr.Problem)
	if err != nil {
		return req, err
	}
	req.Problem = problem
	req.K = qr.K
	req.Lambda = qr.Lambda
	req.Bound = qr.Bound
	req.Rank = qr.Rank
	if qr.Objective != nil {
		obj, err := diversification.ParseObjective(*qr.Objective)
		if err != nil {
			return req, err
		}
		req.Objective = &obj
	}
	if qr.Algorithm != nil {
		alg, err := diversification.ParseAlgorithm(*qr.Algorithm)
		if err != nil {
			return req, err
		}
		req.Algorithm = &alg
	}
	if qr.Set != nil {
		set, err := decodeSet(qr.Set, "set")
		if err != nil {
			return req, err
		}
		req.Set = set
	}
	if qr.RelevanceAttr != "" {
		req.Options = append(req.Options, diversification.WithRelevance(diversification.AttrRelevance(qr.RelevanceAttr)))
	}
	if qr.DistanceAttr != "" {
		req.Options = append(req.Options, diversification.WithDistance(diversification.AttrDistance(qr.DistanceAttr)))
	}
	if qr.Constraints != nil {
		req.Options = append(req.Options, diversification.WithConstraints(qr.Constraints...))
	}
	req.Explain = qr.Explain
	return req, nil
}

// CoresetRequest is the wire form of POST /v1/coreset/{name}: a cluster
// coordinator asking a shard for its k′-coreset. Pointer fields override
// the statement's prepared bindings exactly like QueryRequest; Slack sets
// k′ = k + slack (absent defers to the shard's default of slack = k).
type CoresetRequest struct {
	K         *int     `json:"k,omitempty"`
	Lambda    *float64 `json:"lambda,omitempty"`
	Objective *string  `json:"objective,omitempty"` // "max-sum" | "max-min" ("mono" is refused: not coreset-mergeable)
	Slack     *int     `json:"slack,omitempty"`

	// TimeoutMillis bounds the shard-side extraction; 0 defers to the
	// shard's default deadline. It is bounded as QueryRequest's is.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// ToSpec lowers the wire form onto the library's typed CoresetSpec.
func (cr CoresetRequest) ToSpec() (diversification.CoresetSpec, error) {
	spec := diversification.CoresetSpec{K: cr.K, Lambda: cr.Lambda, Slack: cr.Slack}
	if cr.Objective != nil {
		obj, err := diversification.ParseObjective(*cr.Objective)
		if err != nil {
			return spec, err
		}
		spec.Objective = &obj
	}
	return spec, nil
}

// decodeSet normalizes JSON-decoded rows (candidate sets, mutation rows,
// coreset rows): json.Number values go through the library's shared
// int/float boundary rule, so integer attributes compare equal to the
// integers stored in the database. Failures are typed ArgErrors naming
// field, the JSON field the rows came in: user input maps to 400, not 500.
func decodeSet(set [][]interface{}, field string) ([][]interface{}, error) {
	out := make([][]interface{}, len(set))
	for i, row := range set {
		out[i] = make([]interface{}, len(row))
		for j, v := range row {
			switch x := v.(type) {
			case json.Number:
				n, err := diversification.JSONNumberValue(x)
				if err != nil {
					return nil, &diversification.ArgError{Field: field, Reason: fmt.Sprintf("row %d column %d: %v", i, j, err)}
				}
				out[i][j] = n
			case float64:
				// A body decoded without UseNumber: recover integers that
				// survived the float round trip exactly.
				if f := x; f == float64(int64(f)) {
					out[i][j] = int64(f)
				} else {
					out[i][j] = f
				}
			case string, bool, int64:
				out[i][j] = x
			default:
				return nil, &diversification.ArgError{Field: field, Reason: fmt.Sprintf("row %d column %d: unsupported value %v (want a scalar)", i, j, v)}
			}
		}
	}
	return out, nil
}

// MutateRequest is the wire form of POST /v1/insert/{table} and
// /v1/delete/{table}: rows of attribute values in schema order. The same
// scalar normalization as candidate sets applies, so integers survive the
// JSON round trip as integers.
type MutateRequest struct {
	Rows [][]interface{} `json:"rows"`
}

// MutateBody is the response to a mutation: how many tuples actually
// changed (duplicate inserts and misses don't count) and the database
// generation after the batch — the watermark a caller can poll refreshes
// or replicate against.
type MutateBody struct {
	Applied    int    `json:"applied"`
	Generation uint64 `json:"generation"`
}

// ErrorBody is the wire form of a failed request.
type ErrorBody struct {
	Error string `json:"error"`
	// Field names the invalid argument when the failure was a typed
	// ArgError; empty otherwise.
	Field string `json:"field,omitempty"`
}

// HealthBody is the wire form of GET /healthz: Status is "ok" for full
// health or "degraded" when the engine is serving read-only after a WAL
// failure (solves fine, mutations refused until the recovery probe
// restores write mode).
type HealthBody struct {
	Status string `json:"status"`
	// ReadOnly mirrors Status == "degraded" for machine consumption.
	ReadOnly bool `json:"read_only,omitempty"`
}
