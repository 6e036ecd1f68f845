// Command haild runs the resident HAIL query server: one long-lived
// process owning one filesystem, one shared result cache and one shared
// adaptive indexer, serving concurrent HTTP queries for many tenants.
//
// Usage:
//
//	haild -fs /tmp/hailfs [-addr :8648] \
//	      [-max-in-flight 32] [-queue-timeout 2s] \
//	      [-cache-budget N] \
//	      [-offer-rate 0.25] [-adaptive-budget N] \
//	      [-persist-every 30s] [-parallelism N] [-pprof addr] \
//	      [-tenant name:cacheBytes:adaptiveBytes]...
//
// Endpoints:
//
//	POST /query    {"tenant","file","query","splitting","pack_scans",
//	                "adaptive","no_cache","trace","limit"}
//	GET  /metrics  process metrics registry (JSON; ?format=text for the table)
//	GET  /trace    retained query traces (?id=N → Chrome trace_event JSON)
//	GET  /tenants  per-tenant ledgers: budgets, charges, blocks, cache hits, 429s
//	GET  /healthz  liveness
//
// Unlike hailquery (one process per query), haild keeps the cache warm
// and the adaptive replicas hot across queries and across tenants: the
// second identical query is served from the shared cache, and indexes
// built as a by-product of one tenant's queries speed up everyone's.
// -offer-rate is the fraction of an adaptive query's unindexed blocks
// converted (0 observes demand and builds nothing), and -adaptive-budget
// caps the extra replica bytes, kept by evicting the coldest adaptive
// replicas of other columns. -tenant caps what each named tenant may admit into that shared state
// (bytes of cache admissions / bytes of triggered adaptive builds; 0
// means unlimited, and unlisted tenants are unlimited; past 64 unlisted
// names, further ones share one overflow ledger). "pack_scans" packs
// no-index scan blocks and, unless "no_cache", fully-cached blocks at the
// replica the shared cache holds their output at. -max-in-flight
// plus -queue-timeout bound concurrency: excess queries wait briefly for
// a slot and are rejected with 429 rather than piling up. Every /query
// reply, whatever its status, carries the query's id in an X-Query-Id
// header; /trace lists it, and each query writes one log line with it to
// stderr. A client that disconnects cancels its query, which frees its
// slot within one block per worker.
//
// -pprof serves net/http/pprof's /debug/pprof/ endpoints on a listener of
// their own (off when empty, the default), never on -addr. Each query
// runs under the profiler labels tenant, query (its id) and sig (its
// signature's hash), so a CPU profile splits by them:
// go tool pprof -tagfocus tenant=capped http://ADDR/debug/pprof/profile.
//
// The filesystem, adaptive records and heat included, is saved every
// -persist-every (committed by one rename: a kill -9 mid-save leaves the
// last committed state or the new one) and once more on SIGINT/SIGTERM
// after in-flight requests drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux, which only -pprof serves
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/qcache"
	"repro/internal/server"
)

// tenantFlags collects repeated -tenant name:cacheBytes:adaptiveBytes
// specifications.
type tenantFlags struct {
	limits map[string]server.TenantLimits
}

func (t *tenantFlags) String() string {
	var parts []string
	for name, lim := range t.limits {
		parts = append(parts, fmt.Sprintf("%s:%d:%d", name, lim.CacheBytes, lim.AdaptiveBytes))
	}
	return strings.Join(parts, ",")
}

func (t *tenantFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) != 3 || parts[0] == "" {
		return fmt.Errorf("want name:cacheBytes:adaptiveBytes, got %q", v)
	}
	cache, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return fmt.Errorf("bad cacheBytes in %q: %v", v, err)
	}
	adaptiveB, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return fmt.Errorf("bad adaptiveBytes in %q: %v", v, err)
	}
	if t.limits == nil {
		t.limits = make(map[string]server.TenantLimits)
	}
	t.limits[parts[0]] = server.TenantLimits{CacheBytes: cache, AdaptiveBytes: adaptiveB}
	return nil
}

func run(args []string, stdout, stderr io.Writer, ready chan<- string, shutdown <-chan os.Signal) error {
	fs := flag.NewFlagSet("haild", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fsDir := fs.String("fs", "", "filesystem directory (required)")
	addr := fs.String("addr", ":8648", "listen address")
	maxInFlight := fs.Int("max-in-flight", 32, "max concurrently executing queries")
	queueTimeout := fs.Duration("queue-timeout", 2*time.Second, "how long an over-capacity query may wait for a slot before 429")
	cacheBudget := fs.Int64("cache-budget", qcache.DefaultBudget, "shared result cache byte budget")
	offerRate := fs.Float64("offer-rate", 0.25, "adaptive: fraction of unindexed blocks converted per adaptive query (0 = observe demand only, build nothing)")
	adaptiveBudget := fs.Int64("adaptive-budget", 0, "adaptive: global cap on extra replica bytes, kept by evicting the coldest adaptive replicas (0 = unlimited)")
	persistEvery := fs.Duration("persist-every", 30*time.Second, "period of background filesystem saves (0 = only at shutdown)")
	parallelism := fs.Int("parallelism", 0, "per-query engine task parallelism (0 = GOMAXPROCS)")
	traceBuffer := fs.Int("trace-buffer", 16, "how many opt-in query traces /trace retains")
	pprofAddr := fs.String("pprof", "", "listen address of the net/http/pprof endpoints (empty = off)")
	var tenants tenantFlags
	fs.Var(&tenants, "tenant", "tenant budget spec name:cacheBytes:adaptiveBytes (repeatable; 0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return errUsage
	}
	if *fsDir == "" {
		fs.Usage()
		return fmt.Errorf("%w: missing required -fs", errUsage)
	}

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return err
		}
		pprofSrv := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: readHeaderTimeout}
		defer pprofSrv.Close()
		go func() { _ = pprofSrv.Serve(pln) }()
		fmt.Fprintf(stdout, "haild: pprof on %s\n", pln.Addr())
	}

	srv, err := server.New(server.Config{
		FSDir:          *fsDir,
		MaxInFlight:    *maxInFlight,
		QueueTimeout:   *queueTimeout,
		CacheBudget:    *cacheBudget,
		OfferRate:      *offerRate,
		AdaptiveBudget: *adaptiveBudget,
		PersistEvery:   *persistEvery,
		Parallelism:    *parallelism,
		Tenants:        tenants.limits,
		TraceBuffer:    *traceBuffer,
		Logger:         slog.New(slog.NewTextHandler(stderr, nil)),
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close() //lint:allow errsink best-effort cleanup; the listen failure is the error the caller needs
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	fmt.Fprintf(stdout, "haild: serving %s on %s\n", *fsDir, ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case sig := <-shutdown:
		fmt.Fprintf(stdout, "haild: %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := httpSrv.Shutdown(ctx)
		cancel()
		if cerr := srv.Close(); cerr != nil && err == nil {
			err = cerr
		}
		fmt.Fprintln(stdout, "haild: stopped")
		return err
	case err := <-serveErr:
		srv.Close() //lint:allow errsink best-effort cleanup; Serve's failure is the error the caller needs
		return err
	}
}

// Connection deadlines. A query body is at most 1 MiB and is read before
// the query takes a slot, so these bound how long a slow or silent client
// can hold a connection and its goroutine, not a slot. Responses get no
// write deadline: a large query may run for minutes.
const (
	readHeaderTimeout = 10 * time.Second // request line and headers
	readTimeout       = 30 * time.Second // headers and the whole body
	idleTimeout       = 2 * time.Minute  // a keep-alive connection between requests
)

// errUsage marks usage errors, which exit with status 2 (the Unix
// convention for bad invocations).
var errUsage = errors.New("usage")

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	err := run(os.Args[1:], os.Stdout, os.Stderr, nil, sig)
	if err == nil {
		return
	}
	if err != errUsage {
		fmt.Fprintf(os.Stderr, "haild: %v\n", err)
	}
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}
