package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	diversification "repro"
)

// testService builds a service over a small catalog with one registered
// statement: k=3, FMS, λ=0.7, price relevance, type distance.
func testService(t testing.TB) *diversification.Service {
	t.Helper()
	e := diversification.NewEngine()
	e.MustCreateTable("catalog", "item", "type", "price")
	rows := []struct {
		item, typ string
		price     int
	}{
		{"ring", "jewelry", 28},
		{"novel", "book", 22},
		{"puzzle", "toy", 25},
		{"scarf", "fashion", 30},
		{"paints", "artsy", 21},
		{"kite", "toy", 38},
	}
	for _, r := range rows {
		e.MustInsert("catalog", r.item, r.typ, r.price)
	}
	svc := diversification.NewService(e, diversification.ServiceConfig{})
	err := svc.Register("catalog", "Q(item, type, price) :- catalog(item, type, price)",
		diversification.WithK(3),
		diversification.WithObjective(diversification.MaxSum),
		diversification.WithLambda(0.7),
		diversification.WithRelevance(func(r diversification.Row) float64 {
			return float64(r.Get("price").(int64))
		}),
		diversification.WithDistance(func(a, b diversification.Row) float64 {
			if a.Get("type") == b.Get("type") {
				return 0
			}
			return 1
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func testClient(t testing.TB) (*Client, *diversification.Service) {
	t.Helper()
	svc := testService(t)
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(srv.Close)
	return &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}, svc
}

func TestEndToEndQuery(t *testing.T) {
	client, _ := testClient(t)
	ctx := context.Background()

	if h, err := client.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, %v; want ok", h, err)
	}

	resp, err := client.Query(ctx, "catalog", QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Selection == nil || len(resp.Selection.Rows) != 3 {
		t.Fatalf("diversify response malformed: %+v", resp)
	}
	if resp.Route == "" || resp.Generation == 0 {
		t.Errorf("response lost its plan metadata: route=%q gen=%d", resp.Route, resp.Generation)
	}
	if resp.Explain != "" {
		t.Error("explain must be opt-in")
	}

	// Opting in carries the plan report across the wire.
	resp, err = client.Query(ctx, "catalog", QueryRequest{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Explain, "route:     exact") {
		t.Errorf("explain=true response lacks the plan report: %q", resp.Explain)
	}

	// Decide with a typed override.
	bound := 1.0
	resp, err = client.Query(ctx, "catalog", QueryRequest{Problem: "decide", Bound: &bound})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Decided() {
		t.Error("bound 1 should be reachable")
	}

	// Count: C(6,3) = 20 at bound 0.
	k := 3
	resp, err = client.Query(ctx, "catalog", QueryRequest{Problem: "count", K: &k})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count.Cmp(big.NewInt(20)) != 0 {
		t.Errorf("count = %v, want 20", resp.Count)
	}

	// In-top-r with a candidate set: integers must survive the JSON trip
	// and match the stored int64 attributes.
	k2, rank := 2, 1
	resp, err = client.Query(ctx, "catalog", QueryRequest{
		Problem: "in-top-r", K: &k2, Rank: &rank,
		Set: [][]interface{}{{"kite", "toy", 38}, {"scarf", "fashion", 30}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Refresh and metrics round out the protocol.
	info, err := client.Refresh(ctx, "catalog")
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode != "warm" {
		t.Errorf("refresh after queries = %q, want warm", info.Mode)
	}
	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Statements != 1 || m.Requests == 0 {
		t.Errorf("metrics: %+v", m)
	}
}

func TestErrorMapping(t *testing.T) {
	client, _ := testClient(t)
	ctx := context.Background()

	cases := []struct {
		name      string
		stmt      string
		req       QueryRequest
		wantCode  int
		wantField string
	}{
		{"unknown statement", "missing", QueryRequest{}, http.StatusNotFound, ""},
		{"bad problem", "catalog", QueryRequest{Problem: "nope"}, http.StatusBadRequest, "problem"},
		{"bad objective", "catalog", QueryRequest{Objective: strPtr("nope")}, http.StatusBadRequest, "objective"},
		{"bad algorithm", "catalog", QueryRequest{Algorithm: strPtr("nope")}, http.StatusBadRequest, "algorithm"},
		{"negative k", "catalog", QueryRequest{K: intPtr(-1)}, http.StatusBadRequest, "k"},
		{"k too large", "catalog", QueryRequest{K: intPtr(100)}, http.StatusUnprocessableEntity, ""},
		{"bad set", "catalog", QueryRequest{Problem: "rank", Set: [][]interface{}{{"only", "one", 1}}}, http.StatusBadRequest, "set"},
		// Unsupported set values are user input: 400 with the field, never
		// a 500 from the decode layer.
		{"null set value", "catalog", QueryRequest{Problem: "rank", Set: [][]interface{}{{nil, nil, nil}, {nil, nil, nil}, {nil, nil, nil}}}, http.StatusBadRequest, "set"},
		// Constraints the statement's schema cannot compile, algorithms
		// that cannot honor a request, and candidate sets outside Q(D) are
		// the client's mistakes too: 400 with the field, never a 500.
		{"unparsable constraint", "catalog", QueryRequest{Constraints: []string{"garbage"}}, http.StatusBadRequest, "constraints"},
		{"constraint on a missing attribute", "catalog", QueryRequest{Constraints: []string{"exists s (s.nope = 1)"}}, http.StatusBadRequest, "constraints"},
		{"greedy with constraints", "catalog", QueryRequest{Algorithm: strPtr("greedy"), Constraints: []string{`exists s (s.type = "toy")`}}, http.StatusBadRequest, "algorithm"},
		{"local search with constraints", "catalog", QueryRequest{Algorithm: strPtr("local-search"), Constraints: []string{`exists s (s.type = "toy")`}}, http.StatusBadRequest, "algorithm"},
		{"online with constraints", "catalog", QueryRequest{Algorithm: strPtr("online"), Constraints: []string{`exists s (s.type = "toy")`}}, http.StatusBadRequest, "algorithm"},
		{"online mono", "catalog", QueryRequest{Algorithm: strPtr("online"), Objective: strPtr("mono")}, http.StatusBadRequest, "algorithm"},
		{"rank set outside Q(D)", "catalog", QueryRequest{Problem: "rank", Set: [][]interface{}{{"kite", "toy", 38}, {"scarf", "fashion", 30}, {"yacht", "toy", 99}}}, http.StatusBadRequest, "set"},
		{"rank set with a repeated row", "catalog", QueryRequest{Problem: "rank", Set: [][]interface{}{{"kite", "toy", 38}, {"scarf", "fashion", 30}, {"kite", "toy", 38}}}, http.StatusBadRequest, "set"},
		{"in-top-r set outside Q(D)", "catalog", QueryRequest{Problem: "in-top-r", Rank: intPtr(1), Set: [][]interface{}{{"kite", "toy", 38}, {"scarf", "fashion", 30}, {"yacht", "toy", 99}}}, http.StatusBadRequest, "set"},
		{"rank set violating the constraints", "catalog", QueryRequest{Problem: "rank", Constraints: []string{`exists s (s.type = "book")`}, Set: [][]interface{}{{"kite", "toy", 38}, {"scarf", "fashion", 30}, {"ring", "jewelry", 28}}}, http.StatusBadRequest, "set"},
	}
	for _, tc := range cases {
		_, err := client.Query(ctx, tc.stmt, tc.req)
		var serr *StatusError
		if !errors.As(err, &serr) {
			t.Errorf("%s: got %v, want StatusError", tc.name, err)
			continue
		}
		if serr.Code != tc.wantCode {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, serr.Code, tc.wantCode, serr.Body.Error)
		}
		if serr.Body.Field != tc.wantField {
			t.Errorf("%s: field %q, want %q", tc.name, serr.Body.Field, tc.wantField)
		}
	}

	if _, err := client.Refresh(ctx, "missing"); err == nil {
		t.Error("refresh of unknown statement should fail")
	}
}

func TestWriteErrorStatuses(t *testing.T) {
	// The mappings not reachable deterministically over a live server, and
	// the shard failures a coordinator forwards. A zero body means the
	// response must carry err.Error().
	unknown := ErrorBody{Error: `diversification: unknown statement: "nope"`}
	readOnly := ErrorBody{Error: "diversification: engine is read-only"}
	cases := []struct {
		err        error
		code       int
		retryAfter string
		body       ErrorBody
	}{
		{diversification.ErrOverloaded, http.StatusTooManyRequests, "1", ErrorBody{}},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "", ErrorBody{}},
		{context.Canceled, http.StatusGatewayTimeout, "", ErrorBody{}},
		{errors.New("boom"), http.StatusInternalServerError, "", ErrorBody{}},
		{&StatusError{Code: http.StatusNotFound, Body: unknown}, http.StatusNotFound, "", unknown},
		{fmt.Errorf("cluster: shard[0]: %w", &StatusError{Code: http.StatusServiceUnavailable, Body: readOnly, RetryAfter: 2 * time.Second}),
			http.StatusServiceUnavailable, "1", readOnly},
		{&StatusError{Code: http.StatusBadGateway}, http.StatusBadGateway, "", ErrorBody{}},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeError(rec, tc.err)
		if rec.Code != tc.code {
			t.Errorf("writeError(%v) = %d, want %d", tc.err, rec.Code, tc.code)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
			t.Errorf("writeError(%v) Retry-After %q, want %q", tc.err, got, tc.retryAfter)
		}
		want := tc.body
		if want == (ErrorBody{}) {
			want = ErrorBody{Error: tc.err.Error()}
		}
		var got ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got != want {
			t.Errorf("writeError(%v) body %q, want %+v", tc.err, rec.Body.String(), want)
		}
	}
}

func TestPerRequestTimeout(t *testing.T) {
	client, _ := testClient(t)
	// A 0ms wire timeout is "no override", a negative one is refused, and
	// an (unrealistically) tiny one must come back as a gateway-timeout
	// class error.
	if _, err := client.Query(context.Background(), "catalog", QueryRequest{}); err != nil {
		t.Errorf("a zero timeout must defer to the server default: %v", err)
	}
	var serr *StatusError
	_, err := client.Query(context.Background(), "catalog", QueryRequest{TimeoutMillis: -1})
	if !errors.As(err, &serr) || serr.Code != http.StatusBadRequest || serr.Body.Field != "timeout_ms" {
		t.Errorf("negative timeout returned %v, want a 400 on timeout_ms", err)
	}
	start := time.Now()
	_, err = client.Query(context.Background(), "catalog", QueryRequest{TimeoutMillis: 1, Problem: "count", K: intPtr(3)})
	if err != nil && (!errors.As(err, &serr) || serr.Code != http.StatusGatewayTimeout) {
		t.Errorf("tiny timeout returned %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("timeout did not bound the request")
	}
}

// TestTimeoutMillisBound: a timeout_ms whose nanoseconds overflow a
// time.Duration is a 400 on "timeout_ms", on the query and coreset routes
// alike, before any work; the largest timeout that fits still answers.
func TestTimeoutMillisBound(t *testing.T) {
	h := demoHandler(t)
	for _, tc := range []struct {
		path, body string
		code       int
	}{
		{"/v1/query/gifts", `{"timeout_ms":9300000000000}`, http.StatusBadRequest},
		{"/v1/query/gifts", `{"timeout_ms":9223372036855}`, http.StatusBadRequest},
		{"/v1/query/gifts", `{"timeout_ms":-5}`, http.StatusBadRequest},
		{"/v1/query/gifts", `{"timeout_ms":9000000000000}`, http.StatusOK},
		{"/v1/query/gifts", `{"timeout_ms":9223372036854}`, http.StatusOK},
		{"/v1/coreset/gifts", `{"timeout_ms":9300000000000}`, http.StatusBadRequest},
		{"/v1/coreset/gifts", `{"timeout_ms":-1}`, http.StatusBadRequest},
		{"/v1/coreset/gifts", `{"timeout_ms":9000000000000}`, http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		if rec.Code != tc.code {
			t.Errorf("POST %s %s: status %d, want %d: %s", tc.path, tc.body, rec.Code, tc.code, rec.Body)
			continue
		}
		var eb ErrorBody
		if tc.code == http.StatusBadRequest && (json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Field != "timeout_ms") {
			t.Errorf("POST %s %s: body %s, want an ErrorBody naming timeout_ms", tc.path, tc.body, rec.Body)
		}
	}
}

func TestHandlerRejectsMalformedBody(t *testing.T) {
	svc := testService(t)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/query/catalog", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body returned %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/query/catalog", "application/json", strings.NewReader(`{"unknown_field":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field returned %d, want 400", resp.StatusCode)
	}
}

func TestWireScoringAttrs(t *testing.T) {
	// relevance_attr/distance_attr build per-request scorers that bypass
	// the statement's shared plane; the solve must still succeed and
	// reflect the overridden scoring.
	client, _ := testClient(t)
	k := 1
	resp, err := client.Query(context.Background(), "catalog", QueryRequest{
		K: &k, RelevanceAttr: "price", DistanceAttr: "type",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Selection.Rows[0].Get("item"); got != "kite" {
		t.Errorf("price relevance should pick the kite, got %v", got)
	}
}

func TestStatusErrorRendering(t *testing.T) {
	withBody := &StatusError{Code: 400, Body: ErrorBody{Error: "diversification: invalid k: nope", Field: "k"}}
	if got := withBody.Error(); !strings.Contains(got, "400") || !strings.Contains(got, "invalid k") {
		t.Errorf("Error() = %q", got)
	}
	empty := &StatusError{Code: 502}
	if got := empty.Error(); !strings.Contains(got, "no error body") {
		t.Errorf("empty-body Error() = %q", got)
	}
}

func TestDecodeSetValueKinds(t *testing.T) {
	set, err := decodeSet([][]interface{}{{
		json.Number("42"), json.Number("2.5"), json.Number("1e3"),
		float64(7), float64(7.5), "s", true, int64(3),
	}}, "set")
	if err != nil {
		t.Fatal(err)
	}
	want := []interface{}{int64(42), 2.5, 1000.0, int64(7), 7.5, "s", true, int64(3)}
	for i, w := range want {
		if set[0][i] != w {
			t.Errorf("value %d decoded to %T %v, want %T %v", i, set[0][i], set[0][i], w, w)
		}
	}
	if _, err := decodeSet([][]interface{}{{struct{}{}}}, "set"); err == nil {
		t.Error("unsupported value should fail")
	}
	if _, err := decodeSet([][]interface{}{{json.Number("zz")}}, "set"); err == nil {
		t.Error("malformed number should fail")
	}
}

func strPtr(s string) *string { return &s }
func intPtr(i int) *int       { return &i }

func TestMutationRoutes(t *testing.T) {
	client, svc := testClient(t)
	ctx := context.Background()
	before := svc.Engine().Generation()

	// A two-row insert where one row is a duplicate: applied counts real
	// mutations, and the generation advances by exactly that many.
	mb, err := client.Insert(ctx, "catalog", [][]interface{}{
		{"globe", "toy", 19},
		{"ring", "jewelry", 28}, // already present
	})
	if err != nil {
		t.Fatal(err)
	}
	if mb.Applied != 1 || mb.Generation != before+1 {
		t.Fatalf("insert: %+v (before gen %d)", mb, before)
	}

	mb, err = client.Delete(ctx, "catalog", [][]interface{}{
		{"globe", "toy", 19},
		{"never", "was", 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mb.Applied != 1 || mb.Generation != before+2 {
		t.Fatalf("delete: %+v", mb)
	}

	var serr *StatusError
	if _, err := client.Insert(ctx, "nope", [][]interface{}{{1}}); !errors.As(err, &serr) || serr.Code != http.StatusNotFound {
		t.Fatalf("insert into unknown table: %v", err)
	}
	if _, err := client.Insert(ctx, "catalog", nil); !errors.As(err, &serr) || serr.Code != http.StatusBadRequest || serr.Body.Field != "rows" {
		t.Fatalf("empty insert: %v", err)
	}
	if _, err := client.Insert(ctx, "catalog", [][]interface{}{{"x"}}); !errors.As(err, &serr) || serr.Code != http.StatusBadRequest || serr.Body.Field != "rows" {
		t.Fatalf("arity mismatch: %v, want a 400 naming \"rows\"", err)
	}
	if _, err := client.Insert(ctx, "catalog", [][]interface{}{{"globe", "toy", []int{19}}}); !errors.As(err, &serr) || serr.Code != http.StatusBadRequest || serr.Body.Field != "rows" {
		t.Fatalf("non-scalar cell: %v, want a 400 naming \"rows\"", err)
	}
}

// TestConcurrentMutationBatches races four 500-row insert batches into one
// engine: each reports exactly its own rows as applied, so the counts sum
// to the rows inserted.
func TestConcurrentMutationBatches(t *testing.T) {
	client, svc := testClient(t)
	ctx := context.Background()
	before := svc.Engine().Generation()
	const batches, rows = 4, 500
	applied := make([]int, batches)
	errs := make([]error, batches)
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		batch := make([][]interface{}, rows)
		for i := range batch {
			batch[i] = []interface{}{fmt.Sprintf("bulk-%d-%d", b, i), "bulk", i}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			mb, err := client.Insert(ctx, "catalog", batch)
			applied[b], errs[b] = mb.Applied, err
		}()
	}
	wg.Wait()
	sum := 0
	for b := range applied {
		if errs[b] != nil {
			t.Fatalf("batch %d: %v", b, errs[b])
		}
		sum += applied[b]
	}
	if sum != batches*rows {
		t.Fatalf("batches reported %v applied rows (sum %d), want %d each", applied, sum, rows)
	}
	if gen := svc.Engine().Generation(); gen != before+batches*rows {
		t.Fatalf("generation %d after the batches, want %d", gen, before+batches*rows)
	}
}

func TestSnapshotRoute(t *testing.T) {
	// In-memory engine: the admin snapshot maps ErrNotDurable to 409.
	client, _ := testClient(t)
	var serr *StatusError
	if _, err := client.Snapshot(context.Background()); !errors.As(err, &serr) || serr.Code != http.StatusConflict {
		t.Fatalf("snapshot of in-memory engine: %v", err)
	}

	// Durable engine: the snapshot reports the generation it captured.
	e, _, err := diversification.OpenEngine(diversification.DurabilityConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	e.MustCreateTable("p", "x")
	e.MustInsert("p", 1)
	svc := diversification.NewService(e, diversification.ServiceConfig{})
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(srv.Close)
	durable := &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
	si, err := durable.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if si.Generation != e.Generation() {
		t.Fatalf("snapshot generation %d, want %d", si.Generation, e.Generation())
	}
	m, err := durable.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Durability == nil || m.Durability.LastSnapshotGen != si.Generation {
		t.Fatalf("durability metrics missing or stale: %+v", m.Durability)
	}
}
