// Command divserve serves diversified queries over JSON/HTTP: it loads
// relations, registers named prepared statements, and exposes the
// diversification service's wire protocol with bounded admission.
//
// Usage:
//
//	divserve -load catalog=catalog.tsv \
//	         -stmt 'cheap=Q(item, type, price) :- catalog(item, type, price, s), price <= 30' \
//	         -k 3 -objective max-sum -lambda 0.7 -distance-attr type \
//	         -addr :8080
//
//	divserve -demo -addr :8080     # built-in gift-shop catalog, statement "gifts"
//
//	divserve -demo -data-dir /var/lib/divserve -fsync always -addr :8080
//
// With -data-dir the server is durable: every committed mutation streams
// to a write-ahead log in that directory before the mutating request is
// acknowledged, and on boot the newest snapshot plus the log rebuild the
// database exactly as it was — -demo and -load seed data only on the
// first boot of an empty directory. SIGTERM/SIGINT shut down gracefully:
// in-flight requests drain, the log is flushed and fsynced, and a
// clean-shutdown marker is written.
//
// Routes:
//
//	POST /v1/query/{name}    run a query request against a statement
//	POST /v1/coreset/{name}  extract a shard-local k′-coreset (not served
//	                         by a coordinator)
//	POST /v1/refresh/{name}  refresh a statement's caches
//	POST /v1/insert/{table}  insert rows into a table
//	POST /v1/delete/{table}  delete rows from a table
//	POST /v1/admin/snapshot  persist the database, prune the WAL
//	GET  /healthz            liveness
//	GET  /metrics            service counters
//
// Flags:
//
//	-addr HOST:PORT     listen address (default :8080)
//	-load name=file     load a relation from TSV (repeatable)
//	-demo               use the built-in gift-shop database and statement
//	-stmt name=query    register a prepared statement (repeatable); the
//	                    scoring flags below become its prepared bindings
//	-k N                selection size bound to every statement
//	-objective F        max-sum | max-min | mono
//	-lambda X           relevance/diversity trade-off in [0,1]
//	-algorithm A        auto | exact | greedy | local-search | online
//	-relevance-attr A   numeric attribute used as δrel
//	-distance-attr A    attribute whose inequality defines δdis
//	-constraint C       compatibility constraint in Cm syntax (repeatable)
//	-parallel N         exact-search workers per request (0 = all cores,
//	                    1 = one warm-started walk)
//	-max-concurrent N   execution slots (0 = GOMAXPROCS)
//	-max-queue N        admission queue bound (0 = 4×slots, -1 = none)
//	-timeout D          default per-request deadline, e.g. 5s (0 = none)
//	-cache-entries N    generation-keyed result cache + request coalescing,
//	                    bounded to N entries (0 = default 1024; negative
//	                    disables the cache)
//	-warm               refresh every statement before serving
//	-data-dir DIR       durable mode: WAL + snapshots live here
//	-fsync P            WAL sync policy: always | interval | off
//	-fsync-interval D   period of the "interval" policy (default 100ms)
//	-snapshot-every N   automatic snapshot after N mutations (0 = manual)
//	-shutdown-grace D   how long shutdown waits for in-flight requests
//	-wal-probe D        read-only recovery probe base backoff (default 100ms)
//	-wal-probe-max D    read-only recovery probe backoff cap (default 5s)
//	-chaos-wal SPEC     TESTING: WAL fault schedule, e.g. sync:5 or write:3+
//
// Cluster flags:
//
//	-shards a,b,c       coordinator mode: fan diversify requests out to
//	                    these shards and merge their k′-coresets with one
//	                    greedy solve (δdis from -distance-attr, zero without
//	                    it); mutations route to the owning shard by
//	                    partition hash. Data flags (-demo/-load/-data-dir)
//	                    do not apply — data lives on the shards.
//	-coreset-slack N    coordinator: per-shard coreset budget k′ = k + N
//	                    (negative, the default, defers to the shard-side
//	                    default of slack = k)
//	-shard-id I         shard mode: this server is shard I of -shard-count;
//	                    -demo/-load install only the rows the partition
//	                    hash routes here, so a fleet of shards booted from
//	                    the same source splits it without overlap
//	-shard-count S      shard mode: total shards in the cluster
//
// A coordinator answers the same wire protocol as a single engine. When a
// shard is down, diversify answers still come back from the remaining
// shards' coresets — flagged degraded, never wrong — and /healthz reports
// "degraded"; /metrics grows a cluster block (per-shard latency, coreset
// sizes, fan-out errors).
//
// A WAL failure degrades the server to read-only instead of killing it:
// queries keep serving, mutations return 503 with Retry-After, /healthz
// reports "degraded", and a background probe restores write mode when the
// disk recovers. An exact diversify that cannot finish within 80% of its
// deadline answers with the greedy set its search warm-started from,
// flagged degraded in the response rather than answered with a 504.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	diversification "repro"
	"repro/httpapi"
	"repro/internal/cluster"
	"repro/internal/faultfs"
	"repro/internal/fsio"
	"repro/internal/load"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var (
		loads       multiFlag
		stmts       multiFlag
		constraints multiFlag
		addr        = flag.String("addr", ":8080", "listen address")
		demo        = flag.Bool("demo", false, "use the built-in gift-shop database and statement")
		k           = flag.Int("k", 3, "number of results to select")
		objName     = flag.String("objective", "max-sum", "max-sum | max-min | mono")
		lambda      = flag.Float64("lambda", 0.5, "trade-off λ in [0,1]")
		algName     = flag.String("algorithm", "auto", "auto | exact | greedy | local-search | online")
		relAttr     = flag.String("relevance-attr", "", "numeric attribute used as relevance")
		disAttr     = flag.String("distance-attr", "", "attribute whose inequality is the distance")
		parallel    = flag.Int("parallel", 1, "exact-search workers per request (0 = all cores, 1 = one warm-started walk)")
		maxConc     = flag.Int("max-concurrent", 0, "execution slots (0 = GOMAXPROCS)")
		maxQueue    = flag.Int("max-queue", 0, "admission queue bound (0 = 4×slots, -1 = none)")
		timeout     = flag.Duration("timeout", 0, "default per-request deadline (0 = none)")
		cacheSize   = flag.Int("cache-entries", 0, "result cache entry bound (0 = default 1024, negative disables the cache)")
		warm        = flag.Bool("warm", false, "refresh every statement before serving")
		dataDir     = flag.String("data-dir", "", "durable mode: directory for the WAL and snapshots")
		fsync       = flag.String("fsync", "always", "WAL sync policy: always | interval | off")
		fsyncEvery  = flag.Duration("fsync-interval", 100*time.Millisecond, `period of the "interval" fsync policy`)
		snapEvery   = flag.Int("snapshot-every", 0, "automatic snapshot after N mutations (0 = manual only)")
		grace       = flag.Duration("shutdown-grace", 5*time.Second, "how long shutdown waits for in-flight requests")
		walProbe    = flag.Duration("wal-probe", 0, "read-only recovery probe base backoff (0 = 100ms)")
		walProbeMax = flag.Duration("wal-probe-max", 0, "read-only recovery probe backoff cap (0 = 5s)")
		chaosWAL    = flag.String("chaos-wal", "", "TESTING: WAL fault schedule, e.g. sync:5 or write:3+ (op:N fails the Nth once, op:N+ fails from the Nth on)")
		shards      = flag.String("shards", "", "coordinator mode: comma-separated shard addresses to fan out to")
		slack       = flag.Int("coreset-slack", -1, "coordinator: per-shard coreset budget k' = k + N (negative = shard default of k)")
		shardID     = flag.Int("shard-id", -1, "shard mode: this server's shard index (with -shard-count)")
		shardCount  = flag.Int("shard-count", 0, "shard mode: total shards in the cluster")
	)
	flag.Var(&loads, "load", "relation to load, as name=file.tsv (repeatable)")
	flag.Var(&stmts, "stmt", "statement to register, as name=query (repeatable)")
	flag.Var(&constraints, "constraint", "compatibility constraint in Cm syntax (repeatable)")
	flag.Parse()

	if *shards != "" {
		if *demo || len(loads) > 0 || *dataDir != "" {
			fatalf("-shards (coordinator mode) does not take -demo/-load/-data-dir: data lives on the shards")
		}
		if *shardID >= 0 || *shardCount > 0 {
			fatalf("-shards and -shard-id/-shard-count are mutually exclusive: a server is a coordinator or a shard, not both")
		}
		runCoordinator(*addr, strings.Split(*shards, ","), *slack, *disAttr, *timeout, *grace)
		return
	}

	var keep func(row []interface{}) bool
	if *shardCount > 0 || *shardID >= 0 {
		if *shardID < 0 || *shardID >= *shardCount {
			fatalf("shard mode needs 0 <= -shard-id < -shard-count, got id %d of %d", *shardID, *shardCount)
		}
		id, n := *shardID, *shardCount
		keep = func(row []interface{}) bool { return cluster.ShardOf(row, n) == id }
		log.Printf("shard mode: serving partition %d of %d", id, n)
	}

	var e *diversification.Engine
	recovered := false
	if *dataDir != "" {
		var chaosFS fsio.FS
		if *chaosWAL != "" {
			inj, err := faultfs.ParseSpec(*chaosWAL)
			if err != nil {
				fatalf("%v", err)
			}
			ffs := faultfs.Wrap(nil)
			ffs.SetInjector(inj)
			chaosFS = ffs
			log.Printf("CHAOS: WAL fault schedule %q armed", *chaosWAL)
		}
		eng, rec, err := diversification.OpenEngine(diversification.DurabilityConfig{
			Dir:             *dataDir,
			Fsync:           *fsync,
			FsyncInterval:   *fsyncEvery,
			SnapshotEvery:   *snapEvery,
			ProbeBackoff:    *walProbe,
			ProbeBackoffMax: *walProbeMax,
			FS:              chaosFS,
		})
		if err != nil {
			fatalf("%v", err)
		}
		e = eng
		recovered = rec.Generation > 0
		log.Printf("recovered %s: snapshot gen %d + %d log entries -> gen %d in %s (torn tail: %v, clean shutdown: %v)",
			*dataDir, rec.SnapshotGen, rec.ReplayedEntries, rec.Generation,
			rec.ReplayDuration.Round(time.Microsecond), rec.TornTail, rec.CleanShutdown)
	} else {
		e = diversification.NewEngine()
	}

	switch {
	case *demo:
		// A recovered database already holds its data (possibly mutated far
		// beyond the seed); re-seeding would duplicate or clash. The demo
		// statement and its bindings are still registered — statements are
		// not persisted.
		if !recovered {
			load.DemoFilter(e, keep)
		}
		if len(stmts) == 0 {
			stmts = append(stmts, "gifts=Q(item, type, price) :- catalog(item, type, price, s), price <= 40")
			*relAttr, *disAttr, *lambda = "price", "type", 0.7
		}
	case len(loads) > 0:
		for _, spec := range loads {
			name, file, ok := strings.Cut(spec, "=")
			if !ok {
				fatalf("bad -load %q: want name=file.tsv", spec)
			}
			if recovered {
				log.Printf("skipping -load %s: database recovered from %s", spec, *dataDir)
				continue
			}
			if err := load.TSVFilter(e, name, file, keep); err != nil {
				fatalf("loading %s: %v", spec, err)
			}
		}
	case recovered:
		// Durable restart with neither -demo nor -load: the recovered
		// database is the data source.
	default:
		fmt.Fprintln(os.Stderr, "divserve: need -demo, -load name=file.tsv, or a recoverable -data-dir")
		flag.Usage()
		os.Exit(2)
	}
	if len(stmts) == 0 {
		fatalf("need at least one -stmt name=query")
	}

	objective, err := diversification.ParseObjective(*objName)
	if err != nil {
		fatalf("%v", err)
	}
	algorithm, err := diversification.ParseAlgorithm(*algName)
	if err != nil {
		fatalf("%v", err)
	}
	opts := []diversification.Option{
		diversification.WithK(*k),
		diversification.WithObjective(objective),
		diversification.WithLambda(*lambda),
		diversification.WithAlgorithm(algorithm),
		diversification.WithConstraints(constraints...),
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "parallel" {
			opts = append(opts, diversification.WithParallelism(*parallel))
		}
	})
	if *relAttr != "" {
		opts = append(opts, diversification.WithRelevance(diversification.AttrRelevance(*relAttr)))
	}
	if *disAttr != "" {
		opts = append(opts, diversification.WithDistance(diversification.AttrDistance(*disAttr)))
	}

	svc := diversification.NewService(e, diversification.ServiceConfig{
		MaxConcurrent:  *maxConc,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *timeout,
		ShutdownGrace:  *grace,
		CacheEntries:   *cacheSize,
	})
	for _, spec := range stmts {
		name, src, ok := strings.Cut(spec, "=")
		if !ok {
			fatalf("bad -stmt %q: want name=query", spec)
		}
		if err := svc.Register(name, src, opts...); err != nil {
			fatalf("registering %q: %v", name, err)
		}
		log.Printf("registered statement %q: %s", name, src)
	}
	if *warm {
		for _, name := range svc.Statements() {
			info, err := svc.Refresh(context.Background(), name)
			if err != nil {
				fatalf("warming %q: %v", name, err)
			}
			log.Printf("warmed %q: %d answers (%s)", name, info.Answers, info.Mode)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: *addr, Handler: httpapi.NewHandler(svc)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("divserve listening on %s (%d statements)", *addr, len(svc.Statements()))

	select {
	case err := <-errc:
		fatalf("%v", err)
	case <-ctx.Done():
		stop()
		log.Printf("divserve shutting down: draining requests, flushing log")
		// Drain order: the service gate first (new admissions rejected,
		// in-flight requests finish), then the HTTP listener, then the
		// engine (WAL flush + clean-shutdown marker).
		if err := svc.Close(context.Background()); err != nil {
			log.Printf("drain: %v", err)
		}
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("shutdown: %v", err)
		}
		if err := e.Close(); err != nil {
			fatalf("closing engine: %v", err)
		}
		log.Printf("divserve shut down cleanly")
	}
}

// runCoordinator serves cluster-coordinator mode: no local engine, just
// the fan-out/merge backend behind the same wire protocol.
func runCoordinator(addr string, shardAddrs []string, slack int, distanceAttr string, timeout, grace time.Duration) {
	coord, err := cluster.New(cluster.Config{
		Shards:       shardAddrs,
		Slack:        slack,
		DistanceAttr: distanceAttr,
		Timeout:      timeout,
	})
	if err != nil {
		fatalf("%v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: addr, Handler: httpapi.NewClusterHandler(coord)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("divserve coordinating %d shards on %s: %s", len(shardAddrs), addr, strings.Join(shardAddrs, ", "))

	select {
	case err := <-errc:
		fatalf("%v", err)
	case <-ctx.Done():
		stop()
		log.Printf("divserve coordinator shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), grace+10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("shutdown: %v", err)
		}
		log.Printf("divserve coordinator shut down cleanly")
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "divserve: "+format+"\n", args...)
	os.Exit(1)
}
