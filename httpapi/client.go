package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	diversification "repro"
)

// StatusError is a non-2xx response from the server, carrying the decoded
// error body when one was present and the server's Retry-After advice on
// 429/503.
type StatusError struct {
	Code int
	Body ErrorBody
	// RetryAfter is the parsed Retry-After header (zero when absent): how
	// long the server asks the client to wait before retrying.
	RetryAfter time.Duration
}

// Error renders "httpapi: 400 Bad Request: diversification: invalid k: ...".
func (e *StatusError) Error() string {
	msg := e.Body.Error
	if msg == "" {
		msg = "(no error body)"
	}
	return fmt.Sprintf("httpapi: %d %s: %s", e.Code, http.StatusText(e.Code), msg)
}

// RetryPolicy tunes the client's capped exponential backoff. The zero
// value means: 3 attempts, 50ms base delay, 2s cap. MaxAttempts 1
// disables retries; a negative BaseDelay retries immediately.
type RetryPolicy struct {
	MaxAttempts int
	BaseDelay   time.Duration
	MaxDelay    time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// delay computes the wait before retry number attempt (0-based), honoring
// the server's Retry-After advice when the failure carried one and
// applying full jitter otherwise — a fleet of clients retrying a
// recovering server must not arrive in lockstep.
func (p RetryPolicy) delay(attempt int, err error) time.Duration {
	var serr *StatusError
	if errors.As(err, &serr) && serr.RetryAfter > 0 {
		if serr.RetryAfter > p.MaxDelay {
			return p.MaxDelay
		}
		return serr.RetryAfter
	}
	if p.BaseDelay < 0 {
		return 0
	}
	d := p.BaseDelay << attempt
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// defaultClientTimeout bounds requests whose context carries no deadline,
// so a hung server cannot block a caller forever.
const defaultClientTimeout = 30 * time.Second

// sharedTransport is the transport behind every Client whose HTTPClient is
// nil. Unlike http.DefaultTransport's 2 idle conns per host, it keeps a
// fan-out-sized idle pool: a cluster coordinator issues S concurrent calls
// per request to the same small set of shard hosts, and recycling those
// connections instead of re-dialing is the difference between a stable
// ephemeral-port footprint and churning one port per shard call.
var sharedTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   30 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	ForceAttemptHTTP2:     true,
	MaxIdleConns:          256,
	MaxIdleConnsPerHost:   64,
	IdleConnTimeout:       90 * time.Second,
	TLSHandshakeTimeout:   10 * time.Second,
	ExpectContinueTimeout: 1 * time.Second,
}

// sharedHTTPClient wraps sharedTransport; per-request deadlines come from
// contexts, so the client itself carries no timeout.
var sharedHTTPClient = &http.Client{Transport: sharedTransport}

// Client talks the diversification wire protocol to a divserve instance.
// The zero HTTPClient means a shared tuned transport (see sharedTransport);
// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
//
// Resilience: idempotent calls (Query, Coreset, Refresh, Metrics, Health)
// are retried per Retry with capped exponential backoff plus jitter,
// honoring the server's Retry-After on 429/503. Mutations (Insert, Delete,
// Snapshot) retry only failures that prove the request was never applied —
// a refused connection, or a 429/503 rejection — keeping applied-counts
// exact.
type Client struct {
	BaseURL    string
	HTTPClient *http.Client

	// DefaultTimeout bounds requests whose context has no deadline of its
	// own: zero means 30s, negative disables the bound.
	DefaultTimeout time.Duration

	// Retry tunes retries; the zero value retries idempotent calls 3 times
	// with 50ms..2s backoff.
	Retry RetryPolicy

	retries atomic.Int64

	connsNew    atomic.Int64
	connsReused atomic.Int64
}

// ClientStats counts the resilience machinery's interventions and the
// transport's connection economy.
type ClientStats struct {
	// Retries counts re-issued attempts (not first attempts).
	Retries int64 `json:"retries"`
	// ConnsNew counts attempts served over a freshly dialed connection,
	// ConnsReused over one recycled from the idle pool. A healthy steady
	// state reuses nearly always; a rising ConnsNew under constant traffic
	// means the pool is undersized for the fan-out or the server is
	// closing connections.
	ConnsNew    int64 `json:"conns_new"`
	ConnsReused int64 `json:"conns_reused"`
}

// Stats snapshots the retry and connection-reuse counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Retries:     c.retries.Load(),
		ConnsNew:    c.connsNew.Load(),
		ConnsReused: c.connsReused.Load(),
	}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return sharedHTTPClient
}

// withTimeout applies the default per-request timeout to contexts without
// a deadline of their own.
func (c *Client) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.DefaultTimeout < 0 {
		return ctx, func() {}
	}
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	d := c.DefaultTimeout
	if d == 0 {
		d = defaultClientTimeout
	}
	return context.WithTimeout(ctx, d)
}

// roundTrip issues one HTTP request and reads the full (bounded) body.
func (c *Client) roundTrip(ctx context.Context, method, path string, payload []byte) ([]byte, error) {
	var reader io.Reader
	if payload != nil {
		reader = bytes.NewReader(payload)
	}
	trace := &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				c.connsReused.Add(1)
			} else {
				c.connsNew.Add(1)
			}
		},
	}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), method, strings.TrimSuffix(c.BaseURL, "/")+path, reader)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// Responses are not bounded the way request bodies are (a wide
	// selection or an explain report can be large); cap defensively but
	// detect the cut instead of handing a truncated document to the JSON
	// decoder.
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, err
	}
	if len(raw) > maxResponseBytes {
		return nil, fmt.Errorf("httpapi: response exceeds %d bytes", maxResponseBytes)
	}
	if resp.StatusCode/100 != 2 {
		serr := &StatusError{Code: resp.StatusCode}
		_ = json.Unmarshal(raw, &serr.Body)
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			serr.RetryAfter = parseRetryAfter(ra, time.Now())
		}
		return nil, serr
	}
	return raw, nil
}

// parseRetryAfter parses a Retry-After header value per RFC 9110 §10.2.3:
// either delay-seconds or an HTTP-date (any of the three date formats
// http.ParseTime accepts). A date in the past — or on the boundary —
// means "retry now" and yields zero, same as an absent header: the retry
// policy then falls back to its own backoff. Unparseable values also
// yield zero rather than an error; the header is advice, not protocol.
func parseRetryAfter(value string, now time.Time) time.Duration {
	if secs, err := strconv.Atoi(value); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(value); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// retryable reports whether err may be retried for the given call class.
// Idempotent calls retry any transport failure and the retryable statuses;
// mutations retry only failures that prove the request was never applied:
// a refused connection (the server never saw it) or a 429/503 (the
// admission gate or read-only check rejected it before any mutation ran).
func retryable(err error, idempotent bool) bool {
	var serr *StatusError
	if errors.As(err, &serr) {
		return serr.Code == http.StatusTooManyRequests || serr.Code == http.StatusServiceUnavailable
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if idempotent {
		return true // any transport failure: the call has no side effects
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

// do issues one request with the client's resilience machinery and
// decodes the JSON response into out (unless out is nil). Non-2xx
// statuses decode into a StatusError.
func (c *Client) do(ctx context.Context, method, path string, body, out interface{}, idempotent bool) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	ctx, cancel := c.withTimeout(ctx)
	defer cancel()
	policy := c.Retry.withDefaults()
	var raw []byte
	for attempt := 0; ; attempt++ {
		var err error
		if raw, err = c.roundTrip(ctx, method, path, payload); err == nil {
			break
		}
		if attempt+1 >= policy.MaxAttempts || !retryable(err, idempotent) || ctx.Err() != nil {
			return err
		}
		select {
		case <-time.After(policy.delay(attempt, err)):
		case <-ctx.Done():
			return err
		}
		c.retries.Add(1)
	}
	if out == nil {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // integer cells (coreset rows) must not round through float64
	return dec.Decode(out)
}

// Query runs a QueryRequest against the named statement.
func (c *Client) Query(ctx context.Context, name string, qr QueryRequest) (*diversification.Response, error) {
	var resp diversification.Response
	if err := c.do(ctx, http.MethodPost, "/v1/query/"+name, qr, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Coreset asks the server for the named statement's shard-local
// k′-coreset (see diversification.Coreset). Row values are normalized back
// through the wire scalar rule, so a merge sees exactly the values the
// shard stores, integers beyond 2⁵³ included.
func (c *Client) Coreset(ctx context.Context, name string, cr CoresetRequest) (*diversification.Coreset, error) {
	var cs diversification.Coreset
	if err := c.do(ctx, http.MethodPost, "/v1/coreset/"+name, cr, &cs, true); err != nil {
		return nil, err
	}
	rows, err := decodeSet(cs.Rows, "rows")
	if err != nil {
		return nil, err
	}
	cs.Rows = rows
	return &cs, nil
}

// Refresh brings the named statement's caches up to date.
func (c *Client) Refresh(ctx context.Context, name string) (diversification.RefreshInfo, error) {
	var info diversification.RefreshInfo
	err := c.do(ctx, http.MethodPost, "/v1/refresh/"+name, nil, &info, true)
	return info, err
}

// Insert adds rows (attribute values in schema order) to a table.
func (c *Client) Insert(ctx context.Context, table string, rows [][]interface{}) (MutateBody, error) {
	var mb MutateBody
	err := c.do(ctx, http.MethodPost, "/v1/insert/"+table, MutateRequest{Rows: rows}, &mb, false)
	return mb, err
}

// Delete removes rows (attribute values in schema order) from a table.
func (c *Client) Delete(ctx context.Context, table string, rows [][]interface{}) (MutateBody, error) {
	var mb MutateBody
	err := c.do(ctx, http.MethodPost, "/v1/delete/"+table, MutateRequest{Rows: rows}, &mb, false)
	return mb, err
}

// Snapshot asks the server to persist its database and prune the WAL.
func (c *Client) Snapshot(ctx context.Context) (diversification.SnapshotInfo, error) {
	var si diversification.SnapshotInfo
	err := c.do(ctx, http.MethodPost, "/v1/admin/snapshot", nil, &si, false)
	return si, err
}

// Metrics fetches the service counters.
func (c *Client) Metrics(ctx context.Context) (diversification.Metrics, error) {
	var m diversification.Metrics
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &m, true)
	return m, err
}

// Health fetches the liveness report, distinguishing a healthy server
// ("ok") from one serving read-only ("degraded").
func (c *Client) Health(ctx context.Context) (HealthBody, error) {
	var h HealthBody
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h, true)
	return h, err
}
