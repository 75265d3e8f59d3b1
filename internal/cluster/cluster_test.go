package cluster

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	diversification "repro"
	"repro/httpapi"
)

const testStmt = "Q(id, cat, rel) :- pts(id, cat, rel)"

// testRows builds n deterministic candidate rows: distinct ids, categories
// cycling through 7 values (the 0/1 attribute distance), and distinct
// relevance scores (7919 is coprime with the prime 104729, so the map is
// injective for n < 104729) — distinct scores keep greedy tie-break-free,
// which the byte-identity assertions rely on.
func testRows(n int) [][]interface{} {
	rows := make([][]interface{}, n)
	for i := 0; i < n; i++ {
		rows[i] = []interface{}{
			fmt.Sprintf("id-%04d", i),
			fmt.Sprintf("c%d", i%7),
			int64(1000 + (i*7919)%104729),
		}
	}
	return rows
}

func testOpts(k int, lambda float64, obj diversification.Objective) []diversification.Option {
	return []diversification.Option{
		diversification.WithK(k),
		diversification.WithLambda(lambda),
		diversification.WithObjective(obj),
		diversification.WithRelevance(diversification.AttrRelevance("rel")),
		diversification.WithDistance(diversification.AttrDistance("cat")),
	}
}

// newShardServer boots one full Service over the given rows behind a real
// HTTP handler — exactly what a shard process serves.
func newShardServer(t *testing.T, rows [][]interface{}, opts []diversification.Option) (*httptest.Server, *diversification.Service) {
	t.Helper()
	return newShardServerStmt(t, testStmt, rows, opts)
}

// newShardServerStmt is newShardServer registering stmt as "pts".
func newShardServerStmt(t *testing.T, stmt string, rows [][]interface{}, opts []diversification.Option) (*httptest.Server, *diversification.Service) {
	t.Helper()
	e := diversification.NewEngine()
	if err := e.CreateTable("pts", "id", "cat", "rel"); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if err := e.Insert("pts", row...); err != nil {
			t.Fatal(err)
		}
	}
	svc := diversification.NewService(e, diversification.ServiceConfig{})
	if err := svc.Register("pts", stmt, opts...); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.NewHandler(svc))
	t.Cleanup(srv.Close)
	return srv, svc
}

// newCluster partitions rows by the production routing hash across S shard
// servers and returns a coordinator over them plus the per-shard servers.
func newCluster(t *testing.T, rows [][]interface{}, s, slack int, opts []diversification.Option) (*Coordinator, []*httptest.Server) {
	t.Helper()
	parts := make([][][]interface{}, s)
	for _, row := range rows {
		i := ShardOf(row, s)
		parts[i] = append(parts[i], row)
	}
	servers := make([]*httptest.Server, s)
	addrs := make([]string, s)
	for i := 0; i < s; i++ {
		servers[i], _ = newShardServer(t, parts[i], opts)
		addrs[i] = servers[i].URL
	}
	coord, err := New(Config{Shards: addrs, Slack: slack, DistanceAttr: "cat"})
	if err != nil {
		t.Fatal(err)
	}
	return coord, servers
}

// singleGreedy solves the same instance on one engine holding all rows:
// the reference the cluster merge is measured against.
func singleGreedy(t *testing.T, rows [][]interface{}, opts []diversification.Option) *diversification.Response {
	t.Helper()
	_, svc := newShardServer(t, rows, opts)
	greedy := diversification.Greedy
	resp, err := svc.Do(context.Background(), "pts", diversification.Request{
		Problem:   diversification.ProblemDiversify,
		Algorithm: &greedy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func selectionKeys(resp *diversification.Response) []string {
	keys := make([]string, len(resp.Selection.Rows))
	for i, r := range resp.Selection.Rows {
		keys[i] = RowKey(r.Values())
	}
	return keys
}

// TestMergeRejectsRenamedSchema: a shard whose statement renames an answer
// attribute (cat → kind, same arity) is settings drift. The merge must fail
// with both schemas in the error rather than read that shard's rows under
// the other shards' attribute names.
func TestMergeRejectsRenamedSchema(t *testing.T) {
	rows := testRows(20)
	good, _ := newShardServer(t, rows[:10], testOpts(3, 0.6, diversification.MaxSum))
	renamedOpts := append(testOpts(3, 0.6, diversification.MaxSum), diversification.WithDistance(diversification.AttrDistance("kind")))
	renamed, _ := newShardServerStmt(t, "Q(id, kind, rel) :- pts(id, kind, rel)", rows[10:], renamedOpts)
	coord, err := New(Config{Shards: []string{good.URL, renamed.URL}, DistanceAttr: "cat"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := coord.Do(context.Background(), "pts", httpapi.QueryRequest{})
	if err == nil {
		t.Fatalf("renamed shard merged silently: %d rows", len(resp.Selection.Rows))
	}
	for _, want := range []string{"settings drift", "schema=[id kind rel]", "schema=[id cat rel]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("drift error %q lacks %q", err, want)
		}
	}
}

// TestCoresetMergeDifferential is the acceptance suite: across FMS/FMM ×
// S∈{1,2,4,8} × slack∈{0,k}, the union-of-coresets solve returns exactly k
// rows and a value within the greedy 2-approximation bound of the
// single-engine greedy solve; at S=1 the merged answer is byte-identical
// to the single-engine one (same rows, same order, same value bits).
func TestCoresetMergeDifferential(t *testing.T) {
	const n, k, lambda = 60, 5, 0.6
	rows := testRows(n)
	ctx := context.Background()
	for _, obj := range []diversification.Objective{diversification.MaxSum, diversification.MaxMin} {
		opts := testOpts(k, lambda, obj)
		single := singleGreedy(t, rows, opts)
		if len(single.Selection.Rows) != k {
			t.Fatalf("%s: single-engine selected %d of k=%d", obj, len(single.Selection.Rows), k)
		}
		for _, s := range []int{1, 2, 4, 8} {
			for _, slack := range []int{0, k} {
				name := fmt.Sprintf("%s/S=%d/slack=%d", obj, s, slack)
				t.Run(name, func(t *testing.T) {
					coord, _ := newCluster(t, rows, s, slack, opts)
					resp, err := coord.Do(ctx, "pts", httpapi.QueryRequest{})
					if err != nil {
						t.Fatal(err)
					}
					if resp.Degraded {
						t.Fatalf("unexpected degraded merge: %s", resp.DegradedFrom)
					}
					if got := len(resp.Selection.Rows); got != k {
						t.Fatalf("merged selection has %d rows, want %d", got, k)
					}
					if resp.Selection.Value < single.Selection.Value/2-1e-9 {
						t.Fatalf("merged value %g below 2-approximation of single-engine %g",
							resp.Selection.Value, single.Selection.Value)
					}
					if s == 1 {
						if !reflect.DeepEqual(selectionKeys(resp), selectionKeys(single)) {
							t.Fatalf("S=1 selection differs from single engine:\n  merged %v\n  single %v",
								selectionKeys(resp), selectionKeys(single))
						}
						if math.Float64bits(resp.Selection.Value) != math.Float64bits(single.Selection.Value) {
							t.Fatalf("S=1 value not byte-identical: merged %x single %x",
								math.Float64bits(resp.Selection.Value), math.Float64bits(single.Selection.Value))
						}
					}
				})
			}
		}
	}
}

// TestClusterPreservesLargeIntegers: integers beyond 2⁵³ cross the shard
// wire exactly. Two rows that differ only in such a value stay two rows,
// and a one-shard cluster selects exactly what a single engine selects,
// values included — no float64 rounding on the way through the coreset.
func TestClusterPreservesLargeIntegers(t *testing.T) {
	const big = int64(1) << 53
	rows := append(testRows(10),
		[]interface{}{"big", "c1", big},
		[]interface{}{"big", "c1", big + 1},
	)
	opts := testOpts(3, 0.6, diversification.MaxSum)
	// Slack >= n: the shard ships every row, so the union is all of them.
	coord, _ := newCluster(t, rows, 1, len(rows), opts)
	resp, err := coord.Do(context.Background(), "pts", httpapi.QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	want := singleGreedy(t, rows, opts)
	if !reflect.DeepEqual(selectionKeys(resp), selectionKeys(want)) {
		t.Fatalf("S=1 selection differs from single engine:\n  merged %v\n  single %v", selectionKeys(resp), selectionKeys(want))
	}
	if !containsKey(resp, RowKey([]interface{}{"big", "c1", big + 1})) {
		t.Fatalf("selection lost the 2⁵³+1 row: %v", selectionKeys(resp))
	}
	if resp.Stats.Answers != len(rows) {
		t.Fatalf("merged union has %d rows, want %d: rows differing beyond 2⁵³ were deduplicated", resp.Stats.Answers, len(rows))
	}
}

// TestClusterShardKill asserts the availability contract: with one of
// three shards killed, the merged answer is flagged degraded — and with
// full-partition coresets it is exactly the single-engine answer over the
// surviving shards' data, i.e. a partial result, never a wrong one.
func TestClusterShardKill(t *testing.T) {
	const n, k, lambda = 60, 5, 0.6
	rows := testRows(n)
	opts := testOpts(k, lambda, diversification.MaxSum)
	ctx := context.Background()

	// Slack >= n makes every shard ship its whole partition, so the
	// survivors' union IS their whole data set and the merged solve must
	// byte-match a single engine holding exactly that data.
	coord, servers := newCluster(t, rows, 3, n, opts)

	healthy, err := coord.Do(ctx, "pts", httpapi.QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Degraded {
		t.Fatalf("healthy cluster answered degraded: %s", healthy.DegradedFrom)
	}
	if h := coord.Health(ctx); h.Status != "ok" {
		t.Fatalf("healthy cluster reports %q", h.Status)
	}

	servers[1].Close()
	resp, err := coord.Do(ctx, "pts", httpapi.QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("shard down but response not flagged degraded")
	}
	if !strings.Contains(resp.DegradedFrom, "shard[1]") {
		t.Fatalf("degraded_from does not name the dead shard: %q", resp.DegradedFrom)
	}
	var live [][]interface{}
	for _, row := range rows {
		if ShardOf(row, 3) != 1 {
			live = append(live, row)
		}
	}
	want := singleGreedy(t, live, opts)
	if !reflect.DeepEqual(selectionKeys(resp), selectionKeys(want)) {
		t.Fatalf("partial result differs from single-engine solve over surviving data:\n  merged %v\n  want   %v",
			selectionKeys(resp), selectionKeys(want))
	}
	if math.Float64bits(resp.Selection.Value) != math.Float64bits(want.Selection.Value) {
		t.Fatalf("partial value not byte-identical to surviving-data solve: %g vs %g",
			resp.Selection.Value, want.Selection.Value)
	}
	if h := coord.Health(ctx); h.Status != "degraded" {
		t.Fatalf("cluster with dead shard reports %q, want degraded", h.Status)
	}

	m := coord.Metrics()
	if m.Cluster == nil {
		t.Fatal("coordinator metrics missing cluster block")
	}
	if m.Cluster.FanOutErrors == 0 || m.Cluster.PartialResults == 0 {
		t.Fatalf("cluster metrics did not record the failure: %+v", m.Cluster)
	}
	if len(m.Cluster.ShardStats) != 3 || m.Cluster.ShardStats[1].Errors == 0 {
		t.Fatalf("shard stats did not record the dead shard: %+v", m.Cluster.ShardStats)
	}
}

// TestClusterAllShardsDown asserts total failure is an error, not an
// empty success.
func TestClusterAllShardsDown(t *testing.T) {
	rows := testRows(20)
	opts := testOpts(3, 0.5, diversification.MaxSum)
	coord, servers := newCluster(t, rows, 2, 0, opts)
	for _, srv := range servers {
		srv.Close()
	}
	if _, err := coord.Do(context.Background(), "pts", httpapi.QueryRequest{}); err == nil {
		t.Fatal("all shards down but Do succeeded")
	}
}

// TestClusterMutateRoutesAndServes covers the router half of the
// subsystem: coordinator mutations land on the owning shards, and the next
// merged solve sees them without an explicit refresh (shard solves
// revalidate lazily). A new dominant-relevance row must appear in the
// merged selection; deleting it must remove it again.
func TestClusterMutateRoutesAndServes(t *testing.T) {
	const n, k = 40, 3
	rows := testRows(n)
	opts := testOpts(k, 0.6, diversification.MaxSum)
	coord, _ := newCluster(t, rows, 4, k, opts)
	ctx := context.Background()

	star := []interface{}{"id-star", "c9", int64(10_000_000)}
	mb, err := coord.Mutate(ctx, "pts", [][]interface{}{star}, false)
	if err != nil {
		t.Fatal(err)
	}
	if mb.Applied != 1 {
		t.Fatalf("insert applied %d rows, want 1", mb.Applied)
	}
	resp, err := coord.Do(ctx, "pts", httpapi.QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !containsKey(resp, RowKey(star)) {
		t.Fatalf("dominant inserted row missing from merged selection: %v", selectionKeys(resp))
	}

	if mb, err = coord.Mutate(ctx, "pts", [][]interface{}{star}, true); err != nil || mb.Applied != 1 {
		t.Fatalf("delete applied %d, err %v", mb.Applied, err)
	}
	if resp, err = coord.Do(ctx, "pts", httpapi.QueryRequest{}); err != nil {
		t.Fatal(err)
	}
	if containsKey(resp, RowKey(star)) {
		t.Fatal("deleted row still in merged selection")
	}
}

func containsKey(resp *diversification.Response, key string) bool {
	for _, have := range selectionKeys(resp) {
		if have == key {
			return true
		}
	}
	return false
}

// TestClusterRefreshMerges asserts the control-plane fan-out: refresh
// reports sum over shards with the worst mode.
func TestClusterRefreshMerges(t *testing.T) {
	rows := testRows(30)
	opts := testOpts(3, 0.5, diversification.MaxSum)
	coord, servers := newCluster(t, rows, 3, 0, opts)
	ctx := context.Background()
	info, err := coord.Refresh(ctx, "pts")
	if err != nil {
		t.Fatal(err)
	}
	if info.Answers != 30 {
		t.Fatalf("merged refresh reports %d answers, want 30", info.Answers)
	}
	if info.Mode != "rebuild" {
		t.Fatalf("cold cluster refresh mode %q, want rebuild", info.Mode)
	}
	servers[2].Close()
	if _, err := coord.Refresh(ctx, "pts"); err == nil {
		t.Fatal("refresh with dead shard succeeded; control-plane calls must not partially succeed silently")
	}
}

// TestClusterCachedMarker asserts shard-side result-cache hits surface in
// the merged response's cached marker — the OR contract.
func TestClusterCachedMarker(t *testing.T) {
	rows := testRows(30)
	opts := testOpts(3, 0.5, diversification.MaxSum)
	coord, _ := newCluster(t, rows, 2, 0, opts)
	ctx := context.Background()
	first, err := coord.Do(ctx, "pts", httpapi.QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first merged solve claims cached")
	}
	second, err := coord.Do(ctx, "pts", httpapi.QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical merge not marked cached despite shard result caches")
	}
	if math.Float64bits(first.Selection.Value) != math.Float64bits(second.Selection.Value) {
		t.Fatal("cached merge changed the answer")
	}
}

// TestClusterExplainTrailer asserts the truthfulness satellite: an explain
// in cluster mode reports the merge itself (objective and route, no
// synthetic query over the union) and records shard count, per-shard
// coreset sizes and the slowest shard.
func TestClusterExplainTrailer(t *testing.T) {
	rows := testRows(30)
	opts := testOpts(3, 0.5, diversification.MaxSum)
	coord, servers := newCluster(t, rows, 3, 0, opts)
	resp, err := coord.Do(context.Background(), "pts", httpapi.QueryRequest{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"objective: max-sum (λ=0.5, k=3)", "route:     greedy", "cluster:   3 shards", "coresets:  [", "slowest:   shard["} {
		if !strings.Contains(resp.Explain, want) {
			t.Fatalf("explain missing %q:\n%s", want, resp.Explain)
		}
	}
	if strings.Contains(resp.Explain, "u(") {
		t.Fatalf("explain describes a synthetic query over the union:\n%s", resp.Explain)
	}
	servers[0].Close()
	resp, err = coord.Do(context.Background(), "pts", httpapi.QueryRequest{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Explain, "coresets:  [-") {
		t.Fatalf("explain does not mark the dead shard's coreset:\n%s", resp.Explain)
	}
}

// TestClusterRequestValidation pins the cluster-mode contract: request
// shapes without distributed semantics are typed argument errors, not
// silently wrong merges.
func TestClusterRequestValidation(t *testing.T) {
	rows := testRows(20)
	opts := testOpts(3, 0.5, diversification.MaxSum)
	coord, _ := newCluster(t, rows, 2, 0, opts)
	ctx := context.Background()
	mono, exact := "mono", "exact"
	rank := 2
	cases := []struct {
		name  string
		qr    httpapi.QueryRequest
		field string
	}{
		{"problem", httpapi.QueryRequest{Problem: "count"}, "problem"},
		{"set", httpapi.QueryRequest{Set: [][]interface{}{{"id-0001", "c1", int64(1)}}}, "set"},
		{"constraints", httpapi.QueryRequest{Constraints: []string{"<(c1, c2), 1>"}}, "constraints"},
		{"scoring", httpapi.QueryRequest{RelevanceAttr: "rel"}, "relevance_attr"},
		{"distance_attr", httpapi.QueryRequest{DistanceAttr: "cat"}, "distance_attr"},
		{"rank", httpapi.QueryRequest{Rank: &rank}, "rank"},
		{"objective", httpapi.QueryRequest{Objective: &mono}, "objective"},
		{"algorithm", httpapi.QueryRequest{Algorithm: &exact}, "algorithm"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := coord.Do(ctx, "pts", tc.qr)
			var argErr *diversification.ArgError
			if err == nil || !errors.As(err, &argErr) {
				t.Fatalf("want ArgError, got %v", err)
			}
			if argErr.Field != tc.field {
				t.Fatalf("ArgError field %q, want %q (the field the client sent)", argErr.Field, tc.field)
			}
		})
	}
}

// TestShardOfDeterministicAndCovering pins the partition hash: stable
// keys, full bucket coverage at realistic sizes, and agreement between
// int-typed and int64-typed spellings of the same row (the loader inserts
// Go ints, the wire delivers int64s — they must route identically).
func TestShardOfDeterministicAndCovering(t *testing.T) {
	rows := testRows(200)
	for _, s := range []int{2, 4, 8} {
		hit := make([]int, s)
		for _, row := range rows {
			i := ShardOf(row, s)
			if i != ShardOf(row, s) {
				t.Fatal("ShardOf not deterministic")
			}
			hit[i]++
		}
		for i, c := range hit {
			if c == 0 {
				t.Fatalf("S=%d: shard %d owns no rows of 200", s, i)
			}
		}
	}
	a := []interface{}{"x", "c1", int(42)}
	b := []interface{}{"x", "c1", int64(42)}
	if ShardOf(a, 8) != ShardOf(b, 8) || RowKey(a) != RowKey(b) {
		t.Fatal("int and int64 spellings of a row must route to the same shard")
	}
}

// TestClusterMutateReportsEveryAppliedShard pins the partial-failure
// report of a routed mutation: with one row bound for each of two shards
// and shard 0 down, shard 1 still applies its row, and the error counts
// it — the applied total covers every shard that succeeded, not only the
// ones before the failure in index order.
func TestClusterMutateReportsEveryAppliedShard(t *testing.T) {
	coord, servers := newCluster(t, testRows(10), 2, 0, testOpts(3, 0.5, diversification.MaxSum))
	var batch [][]interface{}
	for i, owner := 0, 0; owner < 2; i++ {
		row := []interface{}{fmt.Sprintf("new-%d", i), "c0", int64(1)}
		if ShardOf(row, 2) == owner {
			batch = append(batch, row)
			owner++
		}
	}
	servers[0].Close()
	_, err := coord.Mutate(context.Background(), "pts", batch, false)
	if err == nil || !strings.Contains(err.Error(), "(1 rows applied on other shards)") {
		t.Fatalf("mutate with shard 0 down: %v, want the error to count shard 1's applied row", err)
	}
}

// updateWire regenerates the coordinator wire transcript:
//
//	go test ./internal/cluster -run TestClusterWireGolden -update
var updateWire = flag.Bool("update", false, "rewrite testdata/golden/wire.txt from the coordinator's current responses")

// TestClusterWireGolden pins the coordinator's wire protocol byte for
// byte: status codes, Retry-After and bodies (elapsed_ns scrubbed) for a
// healthy merge, the typed and forwarded error paths, routed mutations,
// the control-plane fan-out and the routes a coordinator does not serve.
func TestClusterWireGolden(t *testing.T) {
	coord, _ := newCluster(t, testRows(30), 3, 0, testOpts(3, 0.5, diversification.MaxSum))
	srv := httptest.NewServer(httpapi.NewClusterHandler(coord))
	defer srv.Close()
	steps := []struct{ method, path, body string }{
		{"GET", "/healthz", ""},
		{"POST", "/v1/query/pts", `{}`},
		{"POST", "/v1/query/nope", `{}`},
		{"POST", "/v1/query/pts", `{"problem":"count"}`},
		{"POST", "/v1/query/pts", `{"k":`},
		{"POST", "/v1/coreset/pts", `{}`},
		{"POST", "/v1/insert/pts", `{"rows":[]}`},
		{"POST", "/v1/insert/pts", `{"rows":[["id-star","c9",10000000]]}`},
		{"POST", "/v1/query/pts", `{"k":2}`},
		{"POST", "/v1/delete/pts", `{"rows":[["id-star","c9",10000000]]}`},
		{"POST", "/v1/refresh/pts", ""},
		{"POST", "/v1/refresh/nope", ""},
		{"POST", "/v1/admin/snapshot", ""},
		{"GET", "/v1/query/pts", ""},
	}
	elapsed := regexp.MustCompile(`"elapsed_ns":[0-9]+`)
	var transcript strings.Builder
	for _, s := range steps {
		req, err := http.NewRequest(s.method, srv.URL+s.path, strings.NewReader(s.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", s.method, s.path, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		body := elapsed.ReplaceAllString(strings.TrimSpace(string(raw)), `"elapsed_ns":0`)
		fmt.Fprintf(&transcript, "$ %s %s %s\n%d retry-after=%q %s\n",
			s.method, s.path, s.body, resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	golden := filepath.Join("testdata", "golden", "wire.txt")
	if *updateWire {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(transcript.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file %s (run `go test ./internal/cluster -run TestClusterWireGolden -update`): %v", golden, err)
	}
	if string(want) != transcript.String() {
		t.Errorf("coordinator transcript diverged from %s\n--- want ---\n%s\n--- got ---\n%s", golden, want, transcript.String())
	}
}
