package httpapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	diversification "repro"
)

// chaosClient stands a Chaos-wrapped handler in front of the test service
// and returns a client with fast retry timing.
func chaosClient(t testing.TB, policy ChaosPolicy) (*Client, *diversification.Service) {
	t.Helper()
	svc := testService(t)
	srv := httptest.NewServer(Chaos(policy, NewHandler(svc)))
	t.Cleanup(srv.Close)
	return &Client{
		BaseURL:    srv.URL,
		HTTPClient: srv.Client(),
		Retry:      RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	}, svc
}

func TestClientRetriesIdempotentOn503(t *testing.T) {
	client, _ := chaosClient(t, func(r *http.Request, n int) Fault {
		if n <= 2 {
			return Fault{Status: http.StatusServiceUnavailable}
		}
		return Fault{}
	})
	resp, err := client.Query(context.Background(), "catalog", QueryRequest{})
	if err != nil {
		t.Fatalf("query after two 503s: %v", err)
	}
	if resp.Selection == nil {
		t.Fatal("no selection in retried response")
	}
	if got := client.Stats().Retries; got != 2 {
		t.Fatalf("Stats().Retries = %d, want 2", got)
	}
}

func TestClientRetriesIdempotentOnDroppedConnection(t *testing.T) {
	client, _ := chaosClient(t, func(r *http.Request, n int) Fault {
		return Fault{Drop: n == 1}
	})
	if _, err := client.Query(context.Background(), "catalog", QueryRequest{}); err != nil {
		t.Fatalf("query after dropped connection: %v", err)
	}
	if got := client.Stats().Retries; got != 1 {
		t.Fatalf("Stats().Retries = %d, want 1", got)
	}
}

// TestMutationNotRetriedOnDroppedConnection pins the applied-counts-exact
// contract: a connection that dies mid-request proves nothing about whether
// the mutation ran, so the client must not re-issue it.
func TestMutationNotRetriedOnDroppedConnection(t *testing.T) {
	var requests atomic.Int64
	client, _ := chaosClient(t, func(r *http.Request, n int) Fault {
		requests.Add(1)
		return Fault{Drop: true}
	})
	_, err := client.Insert(context.Background(), "catalog", [][]interface{}{{"drum", "toy", 15}})
	if err == nil {
		t.Fatal("insert over a dropped connection succeeded")
	}
	if got := requests.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (no retry)", got)
	}
	if got := client.Stats().Retries; got != 0 {
		t.Fatalf("Stats().Retries = %d, want 0", got)
	}
}

// TestMutationRetriedOn503 is the provably-not-applied case: a 503 from
// the read-only gate (or a 429 from admission) rejects before any mutation
// runs, so re-issuing is safe and the row lands exactly once.
func TestMutationRetriedOn503(t *testing.T) {
	client, svc := chaosClient(t, func(r *http.Request, n int) Fault {
		if n == 1 {
			return Fault{Status: http.StatusServiceUnavailable, RetryAfter: 1}
		}
		return Fault{}
	})
	// RetryAfter: 1s would dominate the test; cap it below the policy max.
	client.Retry.MaxDelay = 5 * time.Millisecond
	before := svc.Engine().Generation()
	mb, err := client.Insert(context.Background(), "catalog", [][]interface{}{{"drum", "toy", 15}})
	if err != nil {
		t.Fatalf("insert after 503: %v", err)
	}
	if mb.Applied != 1 {
		t.Fatalf("Applied = %d, want 1", mb.Applied)
	}
	if got := client.Stats().Retries; got != 1 {
		t.Fatalf("Stats().Retries = %d, want 1", got)
	}
	if got := svc.Engine().Generation(); got != before+1 {
		t.Fatalf("generation = %d, want %d (exactly one insert applied)", got, before+1)
	}
}

func TestStatusErrorCarriesRetryAfter(t *testing.T) {
	client, _ := chaosClient(t, func(r *http.Request, n int) Fault {
		return Fault{Status: http.StatusTooManyRequests, RetryAfter: 7}
	})
	client.Retry = RetryPolicy{MaxAttempts: 1}
	_, err := client.Query(context.Background(), "catalog", QueryRequest{})
	var serr *StatusError
	if !errors.As(err, &serr) {
		t.Fatalf("got %v, want *StatusError", err)
	}
	if serr.Code != http.StatusTooManyRequests || serr.RetryAfter != 7*time.Second {
		t.Fatalf("StatusError = code %d retry-after %s, want 429 / 7s", serr.Code, serr.RetryAfter)
	}
}

func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	var requests atomic.Int64
	client, _ := chaosClient(t, func(r *http.Request, n int) Fault {
		requests.Add(1)
		return Fault{Status: http.StatusServiceUnavailable}
	})
	client.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	_, err := client.Query(context.Background(), "catalog", QueryRequest{})
	var serr *StatusError
	if !errors.As(err, &serr) || serr.Code != http.StatusServiceUnavailable {
		t.Fatalf("got %v, want 503 StatusError", err)
	}
	if got := requests.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3", got)
	}
}

func TestClientNoRetryOn400(t *testing.T) {
	client, _ := testClient(t)
	client.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond}
	k := -1
	_, err := client.Query(context.Background(), "catalog", QueryRequest{K: &k})
	var serr *StatusError
	if !errors.As(err, &serr) || serr.Code != http.StatusBadRequest {
		t.Fatalf("got %v, want 400 StatusError", err)
	}
	if got := client.Stats().Retries; got != 0 {
		t.Fatalf("Stats().Retries = %d, want 0 (client errors are not retryable)", got)
	}
}

func TestClientDefaultTimeout(t *testing.T) {
	// The delay outlives the client timeout by far, but stays short: the
	// server only notices the abandoned request when the delay expires, and
	// the httptest cleanup waits for it.
	client, _ := chaosClient(t, func(r *http.Request, n int) Fault {
		return Fault{Delay: 2 * time.Second}
	})
	client.Retry = RetryPolicy{MaxAttempts: 1}
	client.DefaultTimeout = 50 * time.Millisecond
	start := time.Now()
	// Background context carries no deadline: the client's own bound must
	// keep a hung server from blocking forever.
	_, err := client.Query(context.Background(), "catalog", QueryRequest{})
	if err == nil {
		t.Fatal("query against a hung server succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("took %s: default timeout did not bound the call", elapsed)
	}
}

func TestHealthReportsDegraded(t *testing.T) {
	// A handcrafted handler standing in for a degraded server: the client
	// contract is about parsing, not about how the engine got degraded
	// (readonly_test.go covers that end).
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"degraded","read_only":true}`))
	}))
	t.Cleanup(srv.Close)
	client := &Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
	h, err := client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || !h.ReadOnly {
		t.Fatalf("Health = %+v, want degraded/read-only", h)
	}
}
