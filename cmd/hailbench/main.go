// Command hailbench regenerates the paper's tables and figures, plus the
// adaptive-indexing, result-cache, scan-packing and replica-lifecycle
// trajectory experiments.
//
// Usage:
//
//	hailbench [-quick] [-only Fig4a,Fig6a,...] [-json out.json]
//	hailbench [-quick] -adaptive [-adaptive-evict] [-offer-rate 0.25] [-jobs 8] [-workload Synthetic] [-adaptive-budget N]
//	hailbench [-quick] -cache [-pack-scans] [-cache-budget N] [-offer-rate 0.25] [-jobs 6] [-workload UserVisits]
//	hailbench [-quick] -dispatch [-cache-budget N] [-workload UserVisits]
//	hailbench [-quick] -lifecycle [-offer-rate 0.5] [-jobs 6] [-workload UserVisits] [-adaptive-budget N]
//	hailbench [-quick] -obs [-workload UserVisits] [-json BENCH_obs.json]
//	hailbench [-quick] -serve [-queries 240] [-tenants 4] [-workload UserVisits] [-json BENCH_serve.json]
//
// With no flags it runs every paper experiment at full fidelity (~64
// partitions per block), printing each figure as an aligned table of
// simulated seconds. -quick uses small fixtures (coarser index
// granularity, same code paths). -only restricts to a comma-separated
// list of experiment IDs.
//
// -adaptive instead runs a sequence of identical jobs filtering on an
// attribute no replica is indexed on: the adaptive indexer converts a
// bounded fraction (-offer-rate) of the remaining unindexed blocks during
// each job, so job 1 pays a small penalty and jobs 2..k speed up until
// every block is index-scanned. -adaptive-evict enables the lifecycle
// manager's eviction policy: builds that would exceed -adaptive-budget
// retire the coldest adaptive replicas instead of being denied.
//
// -cache runs the block-level result-cache trajectory: a cold job
// populates the cache, an identical hot job answers its blocks from it,
// then the adaptive indexer is switched on so its replica conversions
// invalidate affected entries. With -pack-scans the same trajectory runs under
// packed scan splits (fully-cached blocks pinned at their cached
// replica), so the hot jobs' dispatch bound falls alongside their map
// work.
//
// -dispatch runs the scan-split packing experiment: the adaptive job-1
// and cache-hot workloads execute with per-block and with packed scan
// splits, reporting dispatch counts and simulated wall time for both; a
// final phase kills a packed split's pinned node mid-job and verifies the
// job completes with only the affected blocks re-resolved.
//
// -lifecycle runs the adaptive replica lifecycle experiment: converge on
// one never-indexed column under a fixed extra-storage budget, then shift
// the workload to a second never-indexed column. Eviction retires the
// cold column's replicas so the new column converges inside the same
// budget — the trajectory that was BudgetDenied forever before the
// lifecycle manager.
//
// -obs runs the benchmark query set with the observability layer fully
// wired (per-query trace spans, metrics registry, namenode gauges) and
// reports each query's task-latency p50/p95/p99 from the registry's
// histograms — gated on a validating span tree and the root span
// covering ≥90% of wall-clock.
//
// -serve runs the resident-server storm: a server.Server (the haild
// stack) is booted over a saved filesystem, the adaptive query is warmed
// to convergence, and -queries concurrent HTTP queries across -tenants
// tenants hammer the shared cache + shared adaptive indexer over a
// hot/cold mix — every response gated byte-equivalent to isolated serial
// execution, with p50/p99 latency from the server's own obs histograms
// and wall-clock throughput.
//
// -json writes the run's report as JSON to the given path — CI uploads
// these as BENCH_*.json artifacts to accumulate the perf trajectory
// across commits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/qcache"
)

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hailbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "use small fixtures (faster, coarser index granularity)")
	only := fs.String("only", "", "comma-separated experiment IDs (e.g. Fig4a,Fig6a)")
	adaptiveMode := fs.Bool("adaptive", false, "run the adaptive-indexing experiment")
	cacheMode := fs.Bool("cache", false, "run the result-cache trajectory experiment")
	dispatchMode := fs.Bool("dispatch", false, "run the scan-split packing (dispatch) experiment")
	lifecycleMode := fs.Bool("lifecycle", false, "run the adaptive replica lifecycle (workload shift + eviction) experiment")
	obsMode := fs.Bool("obs", false, "run the observability experiment (traced benchmark queries, task-latency p50/p95/p99)")
	serveMode := fs.Bool("serve", false, "run the resident-server storm (concurrent multi-tenant queries over one shared cache+indexer, p50/p99 + throughput)")
	serveQueries := fs.Int("queries", 240, "serve: concurrent queries in the storm")
	serveTenants := fs.Int("tenants", 4, "serve: tenants the storm's queries rotate through")
	packScans := fs.Bool("pack-scans", false, "with -cache: run the trajectory under packed scan splits")
	adaptiveEvict := fs.Bool("adaptive-evict", false, "with -adaptive: evict the coldest adaptive replicas when a build would exceed -adaptive-budget")
	offerRate := fs.Float64("offer-rate", 0.25, "adaptive/cache/lifecycle: fraction of unindexed blocks converted per job (0 = observe demand only, build nothing)")
	jobs := fs.Int("jobs", 8, "adaptive/cache: number of identical jobs in the sequence; lifecycle: jobs per phase")
	workloadName := fs.String("workload", "UserVisits", "adaptive/cache/dispatch/lifecycle: workload (UserVisits or Synthetic)")
	adaptiveBudget := fs.Int64("adaptive-budget", 0, "adaptive/cache/lifecycle: cap on extra replica bytes adaptive builds may store (0 = unlimited; lifecycle auto-sizes)")
	cacheBudget := fs.Int64("cache-budget", qcache.DefaultBudget, "cache/dispatch: byte budget for cached block results")
	jsonPath := fs.String("json", "", "write the run's report as JSON to this path")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		// The flag package already printed the diagnostic and usage.
		return errUsage
	}

	r := experiments.NewRunner()
	if *quick {
		r = experiments.NewQuickRunner()
	}

	// The trajectory experiments, one row each: the flag that selects the
	// mode, the tuning flags it accepts (every other one is rejected rather
	// than silently ignored), the experiment, and the figure it reports.
	// The experiments read w when run, after -workload has been resolved.
	w := experiments.UserVisits
	rate := adaptive.RateFromFlag(*offerRate)
	modes := []struct {
		on     bool
		flag   string
		knobs  string
		run    func() (fmt.Stringer, error)
		figure string
	}{
		{*adaptiveMode, "adaptive", "workload jobs offer-rate adaptive-budget adaptive-evict",
			func() (fmt.Stringer, error) { return r.ExpAdaptive(w, *jobs, rate) }, "FigAdaptive"},
		{*cacheMode, "cache", "workload jobs offer-rate adaptive-budget cache-budget pack-scans",
			func() (fmt.Stringer, error) { return r.ExpCache(w, *jobs, *cacheBudget, rate, *packScans) }, "FigCache"},
		{*dispatchMode, "dispatch", "workload cache-budget",
			func() (fmt.Stringer, error) { return r.ExpDispatch(w, *cacheBudget) }, "FigDispatch"},
		{*lifecycleMode, "lifecycle", "workload jobs offer-rate adaptive-budget",
			func() (fmt.Stringer, error) { return r.ExpLifecycle(w, *jobs, rate) }, "FigLifecycle"},
		{*obsMode, "obs", "workload",
			func() (fmt.Stringer, error) { return r.ExpObs(w) }, "FigObs"},
		{*serveMode, "serve", "workload queries tenants",
			func() (fmt.Stringer, error) { return r.ExpServe(w, *serveQueries, *serveTenants) }, "FigServe"},
	}
	mode := -1 // figure mode
	for i, m := range modes {
		if !m.on {
			continue
		}
		if mode >= 0 {
			return fmt.Errorf("%w: -adaptive, -cache, -dispatch, -lifecycle, -obs and -serve are mutually exclusive", errUsage)
		}
		mode = i
	}
	if mode >= 0 && *only != "" {
		return fmt.Errorf("%w: -only does not combine with the trajectory experiments", errUsage)
	}
	// The tuning flags, grouped by where they apply. One set outside the
	// active mode's knobs is a usage error; the trajectory knobs name the
	// mode that fixes its own sequence instead of their homes.
	accepted := map[string]bool{}
	if mode >= 0 {
		for _, k := range strings.Fields(modes[mode].knobs) {
			accepted[k] = true
		}
	}
	for i, g := range []struct{ knobs, home string }{
		{"offer-rate jobs workload adaptive-budget", "-adaptive, -cache or -lifecycle"},
		{"cache-budget", "-cache or -dispatch"},
		{"pack-scans", "-cache"},
		{"adaptive-evict", "-adaptive (-lifecycle always evicts)"},
		{"queries tenants", "-serve"},
	} {
		var unaccepted []string
		for _, k := range strings.Fields(g.knobs) {
			if !accepted[k] {
				unaccepted = append(unaccepted, k)
			}
		}
		stray := cliutil.Stray(fs, unaccepted...)
		if len(stray) == 0 {
			continue
		}
		if i == 0 && mode >= 0 {
			return fmt.Errorf("%w: %s does not combine with -%s", errUsage, strings.Join(stray, ", "), modes[mode].flag)
		}
		return fmt.Errorf("%w: %s only applies with %s", errUsage, strings.Join(stray, ", "), g.home)
	}

	// writeJSON persists the run's report for the CI perf-trajectory
	// artifact.
	writeJSON := func(v any) error {
		if *jsonPath == "" {
			return nil
		}
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
	}

	if mode >= 0 {
		switch strings.ToLower(*workloadName) {
		case "uservisits":
		case "synthetic":
			w = experiments.Synthetic
		default:
			return fmt.Errorf("unknown workload %q (want UserVisits or Synthetic)", *workloadName)
		}
		r.AdaptiveBudget = *adaptiveBudget
		r.AdaptiveEvict = *adaptiveEvict
		start := time.Now()
		rep, err := modes[mode].run()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, rep)
		fmt.Fprintf(stdout, "(%s computed in %.1fs real time)\n", modes[mode].figure, time.Since(start).Seconds())
		return writeJSON(rep)
	}

	type exp struct {
		id  string
		run func() (*experiments.Figure, error)
	}
	all := []exp{
		{"Fig4a", r.Fig4a}, {"Fig4b", r.Fig4b}, {"Fig4c", r.Fig4c},
		{"Table2a", r.Table2a}, {"Table2b", r.Table2b}, {"Fig5", r.Fig5},
		{"Fig6a", r.Fig6a}, {"Fig6b", r.Fig6b}, {"Fig6c", r.Fig6c},
		{"Fig7a", r.Fig7a}, {"Fig7b", r.Fig7b}, {"Fig7c", r.Fig7c},
		{"Fig8", r.Fig8},
		{"Fig9a", r.Fig9a}, {"Fig9b", r.Fig9b}, {"Fig9c", r.Fig9c},
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	failed := false
	var figures []*experiments.Figure
	for _, e := range all {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		start := time.Now()
		fig, err := e.run()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.id, err)
			failed = true
			continue
		}
		figures = append(figures, fig)
		fmt.Fprintln(stdout, fig)
		fmt.Fprintf(stdout, "(%s computed in %.1fs real time)\n\n", e.id, time.Since(start).Seconds())
	}
	if failed {
		return fmt.Errorf("some experiments failed")
	}
	return writeJSON(figures)
}

// errUsage marks usage errors, which exit with status 2 (the Unix
// convention for bad invocations).
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil {
		return
	}
	if err != errUsage { // the bare sentinel means flag already reported it
		fmt.Fprintf(os.Stderr, "hailbench: %v\n", err)
	}
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}
