package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns bounds the load generator: at most this many client goroutines,
// each on its own keep-alive connection, so the generator never takes
// more than its share of a small host.
const maxConns = 2

// newHTTPClient is the load generator's client: plain net/http with at
// most maxConns keep-alive connections, no retries and no hedging.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
}

// post sends body as JSON and returns the status and the whole response.
func post(ctx context.Context, hc *http.Client, url string, body any) (int, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// getJSON fetches url and decodes the JSON body into dst.
func getJSON(ctx context.Context, hc *http.Client, url string, dst any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// errWrong marks a wrong answer, as opposed to a failed request.
var errWrong = errors.New("wrong answer")

// recorder collects one phase's observations. Every answer is checked
// whether or not its phase is timed. A read that fails counts in the
// latencies as +Inf, slower than any answer, so a change that sheds or
// refuses slow requests cannot read as faster.
type recorder struct {
	mu        sync.Mutex
	reads     []float64 // ms, every diversify read
	raw       []float64 // reads before scaling to probeRef speed
	fresh     []float64 // ms, the first read after each write step
	warmReads []float64 // ms, every other read
	writes    []float64 // ms, mutation acknowledgements
	quality   []float64 // served value / reference greedy value
	steps     []float64 // Response.Stats.Steps
	respBytes []float64
	lag       []float64 // ms, how late the open-loop generator sent
	attempted int
	failed    int
	wrong     int
	checked   atomic.Int64
}

// addRead records one read's latency; the caller holds r.mu.
func (r *recorder) addRead(ms float64, fresh bool) {
	r.reads = append(r.reads, ms)
	r.raw = append(r.raw, ms)
	if fresh {
		r.fresh = append(r.fresh, ms)
	} else {
		r.warmReads = append(r.warmReads, ms)
	}
}

// absorb adds a round's observations to r, with its server latencies
// multiplied by scale. Generator lag is the benchmark's own, and stays raw.
func (r *recorder) absorb(o *recorder, scale float64) {
	scaled := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * scale
		}
		return out
	}
	r.reads = append(r.reads, scaled(o.reads)...)
	r.raw = append(r.raw, o.raw...)
	r.fresh = append(r.fresh, scaled(o.fresh)...)
	r.warmReads = append(r.warmReads, scaled(o.warmReads)...)
	r.writes = append(r.writes, scaled(o.writes)...)
	r.quality = append(r.quality, o.quality...)
	r.steps = append(r.steps, o.steps...)
	r.respBytes = append(r.respBytes, o.respBytes...)
	r.lag = append(r.lag, o.lag...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
}

// answered counts the reads that were answered.
func (r *recorder) answered() int {
	n := 0
	for _, ms := range r.reads {
		if !math.IsInf(ms, 1) {
			n++
		}
	}
	return n
}

func (r *recorder) fail(wrong bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if wrong {
		r.wrong++
	}
	if r.failed <= 5 {
		kind := "failed"
		if wrong {
			kind = "WRONG"
		}
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %s\n", kind, fmt.Sprintf(format, args...))
	}
}

// failRead records a failed read, timed as slower than any answer.
func (r *recorder) failRead(wrong, fresh bool, format string, args ...any) {
	r.fail(wrong, format, args...)
	r.mu.Lock()
	r.addRead(math.Inf(1), fresh)
	r.mu.Unlock()
}

// target is where one phase sends its requests.
type target struct {
	hc   *http.Client
	base string // http://host:port of the front server
	stmt string // statement name queried
	ds   *dataset
}

func newTarget(addr string, ds *dataset) *target {
	return &target{hc: newHTTPClient(), base: "http://" + addr, stmt: statement, ds: ds}
}

// read sends one diversify request and checks the answer; every tenth
// checked answer is also measured against the reference greedy, outside
// the timed interval. It returns the latency in ms, and ok false when the
// request failed or the answer was wrong.
func (t *target) read(ctx context.Context, rec *recorder, sh shape, fresh bool, from time.Time) (ms float64, ok bool) {
	status, body, err := post(ctx, t.hc, t.base+"/v1/query/"+t.stmt, sh)
	ms = msSince(from)
	rec.mu.Lock()
	rec.attempted++
	rec.mu.Unlock()
	if err != nil || status != http.StatusOK {
		if ctx.Err() == nil {
			rec.failRead(false, fresh, "query %+v: status %d, err %v: %.200s", sh, status, err, body)
		}
		return ms, false
	}
	resp, err := decodeResponse(body)
	if err == nil {
		err = t.ds.model.check(sh, resp)
	}
	if err != nil {
		rec.failRead(!errors.Is(err, errDegraded), fresh, "query %+v: %v", sh, err)
		return ms, false
	}
	q := 0.0
	if rec.checked.Add(1)%10 == 1 {
		q = resp.Selection.Value / t.ds.model.reference(sh)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.addRead(ms, fresh)
	if q != 0 {
		rec.quality = append(rec.quality, q)
	}
	rec.steps = append(rec.steps, float64(resp.Stats.Steps))
	rec.respBytes = append(rec.respBytes, float64(len(body)))
	return ms, true
}

// mutateBody is the wire form of a mutation acknowledgement.
type mutateBody struct {
	Applied    int    `json:"applied"`
	Generation uint64 `json:"generation"`
}

// write applies one mutation and, once it is acknowledged, the same change
// to the checker's model: the ack must report exactly one row applied and
// the next generation.
func (t *target) write(ctx context.Context, rec *recorder, m mutation) (ms float64, ok bool) {
	route := "/v1/insert/"
	if m.delete {
		route = "/v1/delete/"
	}
	start := time.Now()
	status, body, err := post(ctx, t.hc, t.base+route+m.table, map[string]any{"rows": [][]any{m.row}})
	ms = msSince(start)
	rec.mu.Lock()
	rec.attempted++
	rec.mu.Unlock()
	if err != nil || status != http.StatusOK {
		if ctx.Err() == nil {
			rec.fail(false, "mutation %s%s %v: status %d, err %v: %.200s", route, m.table, m.row, status, err, body)
		}
		return ms, false
	}
	var ack mutateBody
	if err := json.Unmarshal(body, &ack); err != nil {
		rec.fail(true, "mutation %v: decoding ack: %v", m.row, err)
		return ms, false
	}
	want := t.ds.model.gen + 1
	if ack.Applied != 1 || ack.Generation != want {
		rec.fail(true, "mutation %s%s %v: applied %d at generation %d, want 1 at %d", route, m.table, m.row, ack.Applied, ack.Generation, want)
		return ms, false
	}
	m.apply()
	t.ds.model.setGen(ack.Generation)
	rec.mu.Lock()
	rec.writes = append(rec.writes, ms)
	rec.mu.Unlock()
	return ms, true
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// firstAnswer polls sh until the deployment answers it, checking the
// answer: connection refusals, non-2xx replies and answers flagged
// degraded (a shard still booting) mean "not serving yet"; a wrong answer
// is fatal. The first answer ever seen fixes the generation every later
// answer must carry.
func (t *target) firstAnswer(ctx context.Context, sh shape, limit time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	for {
		status, body, err := post(ctx, t.hc, t.base+"/v1/query/"+t.stmt, sh)
		if err == nil && status == http.StatusOK {
			resp, err := decodeResponse(body)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", errWrong, err)
			}
			if t.ds.model.gen == 0 && !resp.Degraded {
				t.ds.model.setGen(resp.Generation)
			}
			err = t.ds.model.check(sh, resp)
			if err == nil {
				return body, nil
			}
			if !errors.Is(err, errDegraded) {
				return nil, fmt.Errorf("%w: first answer: %v", errWrong, err)
			}
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("no answer within %s (last: status %d, err %v, %.200s)", limit, status, err, body)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// op is one request of a workload's stream: a diversify read (fresh when
// it is the first read after a write step) or a mutation.
type op struct {
	read  bool
	shape shape
	fresh bool
	mut   mutation
}

// source yields a workload's request stream. at must be called with
// increasing i when the stream depends on earlier requests (the write mix
// draws its mutations from the model as it stands).
type source interface {
	at(i int) op
}

// do sends one op and records it, timing a read from from.
func (t *target) do(ctx context.Context, rec *recorder, o op, from time.Time) (ms float64, ok bool) {
	if o.read {
		return t.read(ctx, rec, o.shape, o.fresh, from)
	}
	return t.write(ctx, rec, o.mut)
}

// reads is the source of the read-only closed-loop workloads.
type reads struct{ stream func(j int) shape }

func (r reads) at(i int) op { return op{read: true, shape: r.stream(i)} }

// writeMix repeats two write steps (three mutations each), each followed
// by a fresh read, then one warm read, with reads drawn from a
// distinct-request stream. Two thirds of the reads are fresh, so the read
// median and tail both fall among the fresh reads, never on the boundary
// between the two populations.
type writeMix struct {
	stream solveStream
	gen    *writeGen
	reads  int
	step   []mutation
}

// writeMixCycle is one period of the mix: W a mutation of the current
// write step, F a fresh read, R a warm read.
const writeMixCycle = "WWWFWWWFR"

func (w *writeMix) at(i int) op {
	j := i % len(writeMixCycle)
	if writeMixCycle[j] == 'W' {
		k := strings.Count(writeMixCycle[:j], "W") % 3
		if k == 0 {
			w.step = w.gen.next()
		}
		return op{mut: w.step[k]}
	}
	w.reads++
	return op{read: true, shape: w.stream.at(w.reads - 1), fresh: writeMixCycle[j] == 'F'}
}

// loop is a workload's request pattern: it drives target until the
// deadline, recording into rec. Loops keep their position between calls,
// so warm-up and the timed window continue one stream.
type loop interface {
	run(ctx context.Context, t *target, rec *recorder, until time.Time)
}

// closedLoop runs clients goroutines that each send the next request of a
// shared stream as soon as their previous answer is checked.
type closedLoop struct {
	clients int
	src     source
	mu      sync.Mutex
	next    int
}

func (l *closedLoop) take() op {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.src.at(l.next - 1)
}

func (l *closedLoop) run(ctx context.Context, t *target, rec *recorder, until time.Time) {
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(until) {
				t.do(ctx, rec, l.take(), time.Now())
			}
		}()
	}
	wg.Wait()
}

// openLoop sends requests on a fixed schedule, rate per second, spread
// over maxConns connections: request i is due at start + i/rate. A
// request's latency runs from its due time when the connection was still
// busy at that time, so a stall is charged to every request it delays;
// when the connection was idle, latency runs from the actual send, and
// the timer's lateness is reported as generator lag instead.
type openLoop struct {
	rate float64
	src  source
	next int
}

func (l *openLoop) run(ctx context.Context, t *target, rec *recorder, until time.Time) {
	start := time.Now()
	n := int(until.Sub(start).Seconds() * l.rate)
	first := l.next
	l.next += n
	var wg sync.WaitGroup
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			busyUntil := start
			for i := c; i < n && ctx.Err() == nil; i += maxConns {
				due := start.Add(time.Duration(float64(i) / l.rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				from := sent
				if busyUntil.After(due) {
					from = due
				}
				ms, _ := t.do(ctx, rec, l.src.at(first+i), from)
				busyUntil = from.Add(time.Duration(ms * float64(time.Millisecond)))
				rec.mu.Lock()
				rec.lag = append(rec.lag, float64(sent.Sub(due).Nanoseconds())/1e6)
				rec.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}
