package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one traffic mix against one deployment of divserve.
type workload struct {
	name string
	why  string

	// gen writes the workload's inputs into dir, full-size or toy-size.
	gen func(rng *rand.Rand, dir string, toy bool) (*dataset, error)

	cluster bool // a coordinator in front of two shards
	durable bool // -data-dir with -fsync always

	// newSource builds the seeded request stream; clients closed-loop
	// clients drive it, or, when open is set, a fixed-rate schedule.
	newSource func(seed int64, ds *dataset) source
	clients   int
	open      bool
}

// loop returns the request pattern that drives src in an untraced run.
func (w *workload) loop(src source) loop {
	if w.open {
		return &openLoop{rate: zipfRate, src: src}
	}
	return &closedLoop{clients: w.clients, src: src}
}

// zipfRate is the zipf-cached workload's fixed request rate, per second:
// a quarter of the capacity two closed-loop clients measured on the
// commit that defined the benchmark, which is half of what the host
// delivers in its slow phases, when its speed drops to about half (see
// README.md, "Calibration").
const zipfRate = 2500

func solveReads(seed int64, _ *dataset) source { return reads{stream: newSolveStream(seed).at} }

var workloads = []*workload{
	{
		name: "warm-read-100k",
		why:  "every request is a distinct greedy solve on a warm 100k-row snapshot, so the solver and plane dominate; eval, WAL and cache do no work",
		gen: func(rng *rand.Rand, dir string, toy bool) (*dataset, error) {
			return genItems(rng, dir, pick(toy, 100_000, 2_000))
		},
		newSource: solveReads,
		clients:   maxConns,
	},
	{
		name: "zipf-cached",
		why:  "a fixed-rate zipfian mix of 64 shapes over an FO query is served from the result cache, so HTTP coding and the cache dominate and solver changes should not move it",
		gen: func(rng *rand.Rand, dir string, toy bool) (*dataset, error) {
			return genGift(rng, dir, pick(toy, 2_000, 300), pick(toy, 6_000, 900))
		},
		newSource: func(seed int64, _ *dataset) source { return reads{stream: newZipfShapes(seed).at} },
		clients:   maxConns,
		open:      true,
	},
	{
		name: "write-mix-5k",
		why:  "fsynced writes invalidate a ~5k-answer join before two of every three reads, so reads pay delta evaluation plus a plane rebase; the third shows warm solve cost",
		gen: func(rng *rand.Rand, dir string, toy bool) (*dataset, error) {
			return genWriteMix(rng, dir, pick(toy, 6_000, 600), pick(toy, 24_000, 2_400))
		},
		durable: true,
		newSource: func(seed int64, ds *dataset) source {
			return &writeMix{stream: newSolveStream(seed), gen: ds.writes}
		},
		clients: 1,
	},
	{
		name: "cluster-read-100k",
		why:  "the warm-read stream against a coordinator and two shards: the same solve work split across shards plus fan-out, coreset transfer and merge",
		gen: func(rng *rand.Rand, dir string, toy bool) (*dataset, error) {
			return genItems(rng, dir, pick(toy, 100_000, 2_000))
		},
		cluster:   true,
		newSource: solveReads,
		clients:   maxConns,
	},
}

func pick(toy bool, full, small int) int {
	if toy {
		return small
	}
	return full
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// probe is the request that times set-up and recovery: the first answer to
// it marks a deployment as serving.
var probe = shape{K: 10, Lambda: 0.5, Objective: "max-sum"}

// bootLimit bounds how long a deployment may take to give its first answer.
const bootLimit = 120 * time.Second

// serveArgs are the divserve flags that load ds and register its
// statement with greedy selection and attribute scoring.
func serveArgs(ds *dataset) []string {
	args := []string{
		"-stmt", statement + "=" + ds.stmt,
		"-algorithm", "greedy",
		"-relevance-attr", ds.relAttr,
		"-distance-attr", ds.disAttr,
	}
	for _, t := range ds.tables {
		args = append(args, "-load", t.name+"="+t.file)
	}
	return args
}

// deploy lays out w's processes on fresh loopback ports, logging under
// dir. dataDir and fsync apply to durable workloads.
func (w *workload) deploy(bin, dir string, ds *dataset, dataDir, fsync string) (*deployment, error) {
	newServer := func(name string, args []string) (*server, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		return &server{bin: bin, args: args, addr: addr, log: filepath.Join(dir, name+".log")}, nil
	}
	if !w.cluster {
		args := serveArgs(ds)
		if w.durable {
			args = append(args, "-data-dir", dataDir, "-fsync", fsync)
		}
		s, err := newServer("divserve", args)
		if err != nil {
			return nil, err
		}
		return &deployment{servers: []*server{s}, front: s}, nil
	}
	d := &deployment{}
	var addrs []string
	for i := 0; i < 2; i++ {
		args := append(serveArgs(ds), "-shard-id", strconv.Itoa(i), "-shard-count", "2")
		s, err := newServer(fmt.Sprintf("shard%d", i), args)
		if err != nil {
			return nil, err
		}
		d.servers = append(d.servers, s)
		addrs = append(addrs, s.addr)
	}
	coord, err := newServer("coordinator", []string{"-shards", strings.Join(addrs, ","), "-distance-attr", ds.disAttr})
	if err != nil {
		return nil, err
	}
	d.servers = append(d.servers, coord)
	d.front = coord
	return d, nil
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	QueuePeak int64 `json:"queue_peak"`
	Cache     struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Durability *struct {
		WALBytes    int64 `json:"wal_bytes"`
		Fsyncs      int64 `json:"fsyncs"`
		ReplayNanos int64 `json:"replay_ns"`
	} `json:"durability"`
	Plane *struct {
		Regimes map[string]int64 `json:"regimes"`
	} `json:"plane"`
}

func planeRegimes(ms []serverMetrics) []map[string]int64 {
	var out []map[string]int64
	for _, m := range ms {
		if m.Plane != nil {
			out = append(out, m.Plane.Regimes)
		}
	}
	return out
}

// engineMetrics scrapes /metrics from every engine of d (the shards, in
// cluster mode; a coordinator has no engine).
func engineMetrics(ctx context.Context, t *target, d *deployment) ([]serverMetrics, error) {
	var out []serverMetrics
	for _, s := range d.servers {
		if d.front != s || len(d.servers) == 1 {
			var m serverMetrics
			if err := getJSON(ctx, t.hc, "http://"+s.addr+"/metrics", &m); err != nil {
				return nil, err
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// runState is what one untraced run has measured so far. Times are scaled
// to probeRef speed unless named raw.
type runState struct {
	setup    []float64 // seconds from launch to the first correct answer
	rawSetup []float64
	recovery float64 // seconds from restart to the first identical answer
	window   time.Duration
	probes   []float64 // ms, every host-speed probe of the run
	warm     *recorder
	timed    *recorder
	rss      []float64 // MiB, resident set summed over the servers, sampled
	peakRSS  float64   // MiB, summed VmHWM at the end of the window
	servers  int       // processes the memory figures sum over
	before   []serverMetrics
	after    []serverMetrics
	replay   []serverMetrics // after the restart
}

// probe times the host's speed once d is idle, keeping the time for the
// run's report.
func (st *runState) probe(d *deployment) time.Duration {
	p := probeSpeed(d)
	st.probes = append(st.probes, float64(p.Nanoseconds())/1e6)
	return p
}

// roundLen is how long the load runs between two host-speed probes.
const roundLen = time.Second

// measure drives l against d's front server t for the window w in rounds of
// roundLen, probing the host's speed between rounds, and records each
// round into rec scaled by the probes on either side of it. It returns how
// long the load ran.
func (st *runState) measure(ctx context.Context, d *deployment, l loop, t *target, rec *recorder, w time.Duration) time.Duration {
	end := time.Now().Add(w)
	before := st.probe(d)
	var ran time.Duration
	for ctx.Err() == nil && time.Now().Before(end) {
		round := &recorder{}
		start := time.Now()
		until := start.Add(roundLen)
		if until.After(end) {
			until = end
		}
		l.run(ctx, t, round, until)
		ran += time.Since(start)
		after := st.probe(d)
		rec.absorb(round, scaleBetween(before, after))
		before = after
	}
	return ran
}

// runServed drives w against real divserve processes: set up several
// times, warm up, measure the window and, for a durable workload, kill and
// restart to measure recovery. Every answer in every phase is checked.
func runServed(ctx context.Context, cfg *config, w *workload) (*runState, error) {
	dir := filepath.Join(cfg.work, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ds, err := w.gen(rand.New(rand.NewSource(cfg.seed)), dir, cfg.toy)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	seedDir := filepath.Join(dir, "seed")
	if w.durable {
		if err := seedDurable(ctx, cfg, w, dir, ds, seedDir); err != nil {
			return nil, err
		}
	}
	st := &runState{}
	// boot launches a deployment and times it to its first correct answer,
	// scaled by the host-speed probes on either side, and also raw.
	boot := func(i int, dataDir string) (d *deployment, t *target, secs, raw float64, body []byte, err error) {
		if w.durable && dataDir == "" {
			dataDir = filepath.Join(dir, fmt.Sprintf("data%d", i))
			if err := copyDir(seedDir, dataDir); err != nil {
				return nil, nil, 0, 0, nil, err
			}
		}
		if d, err = w.deploy(cfg.bin, dir, ds, dataDir, "always"); err != nil {
			return nil, nil, 0, 0, nil, err
		}
		t = newTarget(d.front.addr, ds)
		before := st.probe(nil) // the previous deployment is stopped
		start := time.Now()
		if err := d.start(); err != nil {
			return nil, nil, 0, 0, nil, err
		}
		body, err = t.firstAnswer(ctx, probe, bootLimit)
		raw = time.Since(start).Seconds()
		if err != nil {
			d.stop(syscall.SIGKILL)
			return nil, nil, 0, 0, nil, fmt.Errorf("%w\n%s", err, d.logTails())
		}
		return d, t, raw * scaleBetween(before, st.probe(d)), raw, body, nil
	}

	var d *deployment
	var t *target
	for i := 0; i < cfg.setups(); i++ {
		if d != nil {
			d.stop(syscall.SIGKILL)
		}
		var secs, raw float64
		if d, t, secs, raw, _, err = boot(i, ""); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		st.setup = append(st.setup, secs)
		st.rawSetup = append(st.rawSetup, raw)
	}
	defer func() { d.stop(syscall.SIGKILL) }()
	dataDir := filepath.Join(dir, fmt.Sprintf("data%d", cfg.setups()-1))

	l := w.loop(w.newSource(cfg.seed, ds))
	st.warm = &recorder{}
	l.run(ctx, t, st.warm, time.Now().Add(cfg.warmup()))
	if st.before, err = engineMetrics(ctx, t, d); err != nil {
		return nil, err
	}
	st.timed = &recorder{}
	stop, sampled := make(chan struct{}), make(chan []float64)
	go func() { sampled <- d.sampleRSS(250*time.Millisecond, stop) }()
	st.window = st.measure(ctx, d, l, t, st.timed, cfg.seconds)
	close(stop)
	st.rss = <-sampled
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if st.after, err = engineMetrics(ctx, t, d); err != nil {
		return nil, err
	}
	if st.peakRSS, err = d.memory("VmHWM"); err != nil {
		return nil, err
	}
	st.servers = len(d.servers)
	if !w.durable {
		return st, nil
	}

	// Recovery: after a SIGKILL, the restarted server must give the answer
	// the killed one gave.
	before, err := t.firstAnswer(ctx, probe, bootLimit)
	if err != nil {
		return nil, fmt.Errorf("last read before the kill: %w", err)
	}
	d.stop(syscall.SIGKILL)
	var after []byte
	var secs float64
	if d, t, secs, _, after, err = boot(cfg.setups(), dataDir); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	st.recovery = secs
	if err := sameAnswer(before, after); err != nil {
		return nil, fmt.Errorf("%w: after restart: %v", errWrong, err)
	}
	if st.replay, err = engineMetrics(ctx, t, d); err != nil {
		return nil, err
	}
	return st, nil
}

// seedDurable boots a durable server once on an empty data directory,
// loading the inputs without fsync, and snapshots it: every timed boot
// then recovers a copy of that snapshot, as a restarted durable server
// does. Seeding is not timed.
func seedDurable(ctx context.Context, cfg *config, w *workload, dir string, ds *dataset, seedDir string) error {
	d, err := w.deploy(cfg.bin, dir, ds, seedDir, "off")
	if err != nil {
		return err
	}
	if err := d.start(); err != nil {
		return err
	}
	defer d.stop(syscall.SIGTERM)
	t := newTarget(d.front.addr, ds)
	if _, err := t.firstAnswer(ctx, probe, bootLimit); err != nil {
		return fmt.Errorf("seeding %s: %v\n%s", seedDir, err, d.logTails())
	}
	status, body, err := post(ctx, t.hc, t.base+"/v1/admin/snapshot", struct{}{})
	if err != nil || status != 200 {
		return fmt.Errorf("snapshot of %s: status %d, err %v: %s", seedDir, status, err, body)
	}
	return nil
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// sameAnswer compares two diversify responses byte for byte after removing
// the fields that say how an answer was served rather than what it is:
// its timing, its cache marker and how its snapshot was refreshed.
func sameAnswer(a, b []byte) error {
	sa, err := scrub(a)
	if err != nil {
		return err
	}
	sb, err := scrub(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(sa, sb) {
		return fmt.Errorf("answers differ:\n before %s\n after  %s", sa, sb)
	}
	return nil
}

func scrub(body []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	delete(m, "elapsed_ns")
	delete(m, "cached")
	delete(m, "refresh")
	return json.Marshal(m)
}

// calibrateZipf measures zipf-cached capacity: the workload's deployment
// and stream driven by maxConns closed-loop clients instead of the fixed
// rate. A quarter of it is the rate the workload runs at.
func calibrateZipf(ctx context.Context, cfg *config) (float64, error) {
	w, err := findWorkload("zipf-cached")
	if err != nil {
		return 0, err
	}
	closed := *w
	closed.open = false
	if err := buildServer(cfg.root, cfg.bin); err != nil {
		return 0, err
	}
	st, err := runServed(ctx, cfg, &closed)
	if err != nil {
		return 0, err
	}
	return float64(st.timed.answered()) / st.window.Seconds(), nil
}
