package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	diversification "repro"
)

// maxBodyBytes bounds a request body: queries are small control messages,
// and a facade serving public traffic must not buffer arbitrary input.
const maxBodyBytes = 1 << 20

// maxResponseBytes bounds what the client buffers of a response — far
// looser than the request bound, since selections and explain reports
// have no small-message guarantee.
const maxResponseBytes = 64 << 20

// Backend is what the wire protocol is served from: a single-engine
// Service (NewHandler adapts one) or a cluster coordinator. It lives here —
// not in internal/cluster — so the coordinator can depend on httpapi for
// its shard clients without an import cycle: cluster implements this
// interface, cmd/divserve wires the two together.
//
// Do answers a wire query, Refresh/Mutate/Snapshot are the control plane
// (Mutate receives rows already normalized by the wire scalar rule),
// Metrics reports the backend's counters and Health its liveness.
type Backend interface {
	Do(ctx context.Context, name string, qr QueryRequest) (*diversification.Response, error)
	Refresh(ctx context.Context, name string) (diversification.RefreshInfo, error)
	Mutate(ctx context.Context, table string, rows [][]interface{}, del bool) (MutateBody, error)
	Snapshot(ctx context.Context) (diversification.SnapshotInfo, error)
	Metrics() diversification.Metrics
	Health(ctx context.Context) HealthBody
}

// coresetBackend is the optional capability behind POST /v1/coreset/{name}.
// A single engine (a shard) produces coresets; a coordinator consumes them
// and, lacking the method, answers the route with 404.
type coresetBackend interface {
	Coreset(ctx context.Context, name string, cr CoresetRequest) (*diversification.Coreset, error)
}

// NewHandler serves the diversification wire protocol from svc. Routing
// uses the standard library mux only, so the facade composes under any
// outer middleware stack.
func NewHandler(svc *diversification.Service) http.Handler { return newHandler(service{svc}) }

// NewClusterHandler serves the same wire protocol from a cluster
// coordinator, so clients (cmd/divquery, httpapi.Client) talk to a
// coordinator and a single engine identically.
func NewClusterHandler(b Backend) http.Handler { return newHandler(b) }

func newHandler(b Backend) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, b.Health(r.Context()))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, b.Metrics())
	})
	mux.HandleFunc("POST /v1/query/{name}", func(w http.ResponseWriter, r *http.Request) {
		var qr QueryRequest
		if !readJSON(w, r, &qr) {
			return
		}
		ctx, cancel, err := requestContext(r.Context(), qr.TimeoutMillis)
		if err != nil {
			writeError(w, err)
			return
		}
		defer cancel()
		resp, err := b.Do(ctx, r.PathValue("name"), qr)
		reply(w, resp, err)
	})
	if cb, ok := b.(coresetBackend); ok {
		mux.HandleFunc("POST /v1/coreset/{name}", func(w http.ResponseWriter, r *http.Request) {
			var cr CoresetRequest
			if !readJSON(w, r, &cr) {
				return
			}
			ctx, cancel, err := requestContext(r.Context(), cr.TimeoutMillis)
			if err != nil {
				writeError(w, err)
				return
			}
			defer cancel()
			cs, err := cb.Coreset(ctx, r.PathValue("name"), cr)
			reply(w, cs, err)
		})
	}
	mux.HandleFunc("POST /v1/refresh/{name}", func(w http.ResponseWriter, r *http.Request) {
		info, err := b.Refresh(r.Context(), r.PathValue("name"))
		reply(w, info, err)
	})
	mux.HandleFunc("POST /v1/insert/{table}", mutateHandler(b, false))
	mux.HandleFunc("POST /v1/delete/{table}", mutateHandler(b, true))
	mux.HandleFunc("POST /v1/admin/snapshot", func(w http.ResponseWriter, r *http.Request) {
		info, err := b.Snapshot(r.Context())
		reply(w, info, err)
	})
	return mux
}

// mutateHandler serves the insert/delete routes: decode the rows through
// the wire scalar rule and hand the batch to the backend.
func mutateHandler(b Backend, del bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var mr MutateRequest
		if !readJSON(w, r, &mr) {
			return
		}
		if len(mr.Rows) == 0 {
			writeError(w, &diversification.ArgError{Field: "rows", Reason: "mutation needs at least one row"})
			return
		}
		rows, err := decodeSet(mr.Rows, "rows")
		if err != nil {
			writeError(w, err)
			return
		}
		mb, err := b.Mutate(r.Context(), r.PathValue("table"), rows, del)
		reply(w, mb, err)
	}
}

// service adapts a single-engine Service to Backend: the wire forms lower
// onto the library's typed Request and CoresetSpec, a mutation batch runs
// through the engine, and health reflects read-only mode. Refresh,
// Snapshot and Metrics are the Service's own.
type service struct{ *diversification.Service }

func (s service) Do(ctx context.Context, name string, qr QueryRequest) (*diversification.Response, error) {
	req, err := qr.ToRequest()
	if err != nil {
		return nil, err
	}
	return s.Service.Do(ctx, name, req)
}

func (s service) Coreset(ctx context.Context, name string, cr CoresetRequest) (*diversification.Coreset, error) {
	spec, err := cr.ToSpec()
	if err != nil {
		return nil, err
	}
	return s.Service.Coreset(ctx, name, spec)
}

// Mutate applies the batch through the engine's one mutation path: every
// row under a single write lock, so applied counts this batch's rows only.
func (s service) Mutate(_ context.Context, table string, rows [][]interface{}, del bool) (MutateBody, error) {
	applied, gen, err := s.Engine().Mutate(table, rows, del)
	if err != nil {
		return MutateBody{}, err
	}
	return MutateBody{Applied: applied, Generation: gen}, nil
}

// Health reports a read-only engine as degraded: still alive and serving
// queries — degraded says "stop sending writes", not "take me out of
// rotation".
func (s service) Health(context.Context) HealthBody {
	if s.Engine().ReadOnly() {
		return HealthBody{Status: "degraded", ReadOnly: true}
	}
	return HealthBody{Status: "ok"}
}

// maxTimeoutMillis is the largest wire timeout whose nanoseconds fit a
// time.Duration.
const maxTimeoutMillis = math.MaxInt64 / int64(time.Millisecond)

// requestContext applies the wire-level per-request timeout, if any. A
// negative timeout, or one too large for a time.Duration, is an ArgError on
// timeout_ms.
func requestContext(ctx context.Context, timeoutMillis int64) (context.Context, context.CancelFunc, error) {
	if timeoutMillis < 0 || timeoutMillis > maxTimeoutMillis {
		return nil, nil, &diversification.ArgError{
			Field:  "timeout_ms",
			Reason: fmt.Sprintf("must be between 0 and %d milliseconds, got %d", maxTimeoutMillis, timeoutMillis),
		}
	}
	if timeoutMillis == 0 {
		return ctx, func() {}, nil
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(timeoutMillis)*time.Millisecond)
	return ctx, cancel, nil
}

// readJSON decodes the request body into dst (empty bodies decode as the
// zero value, so a bare POST runs the statement's prepared bindings).
// Numbers decode as json.Number so candidate-set integers stay integers.
func readJSON(w http.ResponseWriter, r *http.Request, dst interface{}) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "reading body: " + err.Error()})
		return false
	}
	if len(body) == 0 {
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "decoding request: " + err.Error()})
		return false
	}
	return true
}

// reply writes v as a 200, or err through writeError.
func reply(w http.ResponseWriter, v interface{}, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// writeError maps a backend error onto the wire. A shard failure forwarded
// by a coordinator keeps the shard's status and body — an unknown
// statement is 404 whether one engine or eight said so. Otherwise: typed
// argument errors and their field to 400, unknown statements and tables to
// 404, snapshotting a non-durable engine to 409, "no candidate set" to 422,
// admission rejection to 429 (with Retry-After), a read-only degraded
// engine to 503 (with Retry-After — the recovery probe usually restores
// write mode within seconds), deadlines to 504, everything else to 500.
func writeError(w http.ResponseWriter, err error) {
	var serr *StatusError
	var argErr *diversification.ArgError
	switch {
	case errors.As(err, &serr):
		if serr.RetryAfter > 0 {
			w.Header().Set("Retry-After", "1")
		}
		body := serr.Body
		if body.Error == "" {
			body.Error = err.Error()
		}
		writeJSON(w, serr.Code, body)
	case errors.As(err, &argErr):
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Field: argErr.Field})
	case errors.Is(err, diversification.ErrUnknownStatement),
		errors.Is(err, diversification.ErrUnknownTable):
		writeJSON(w, http.StatusNotFound, ErrorBody{Error: err.Error()})
	case errors.Is(err, diversification.ErrNotDurable):
		writeJSON(w, http.StatusConflict, ErrorBody{Error: err.Error()})
	case errors.Is(err, diversification.ErrNoCandidate):
		writeJSON(w, http.StatusUnprocessableEntity, ErrorBody{Error: err.Error()})
	case errors.Is(err, diversification.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ErrorBody{Error: err.Error()})
	case errors.Is(err, diversification.ErrReadOnly):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusGatewayTimeout, ErrorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorBody{Error: err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, status int, body interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}
