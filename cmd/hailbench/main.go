// Command hailbench regenerates the paper's tables and figures, plus the
// adaptive-indexing, result-cache, scan-packing and resident-server
// trajectory experiments.
//
// Usage:
//
//	hailbench [-quick] [-only Fig4a,Fig6a,...] [-json out.json]
//	hailbench [-quick] -adaptive [-offer-rate 0.25] [-jobs 8] [-workload Synthetic]
//	hailbench [-quick] -cache [-offer-rate 0.25] [-jobs 6] [-workload UserVisits]
//	hailbench [-quick] -dispatch [-workload UserVisits]
//	hailbench [-quick] -serve [-queries 240] [-tenants 4] [-workload UserVisits] [-json BENCH_serve.json]
//
// With no flags it runs every paper experiment at full fidelity (~64
// partitions per block), printing each figure as an aligned table of
// simulated seconds. -quick uses small fixtures (coarser index
// granularity, same code paths). -only restricts to a comma-separated
// list of experiment IDs; an unknown ID is a usage error. The ablations
// (AblationUnclustered, AblationMultiLevel, AblationSplitting,
// AblationLayout) and Section5FullText run only when -only names them.
//
// -adaptive instead runs two phases of identical jobs under one
// extra-storage budget. Phase A filters on an attribute no replica is
// indexed on: the adaptive indexer converts a bounded fraction
// (-offer-rate, in (0, 1]) of the remaining unindexed blocks during each
// job, so job 1 pays a small penalty and jobs 2..k speed up until every
// block is index-scanned. Phase B shifts the workload to a second
// never-indexed attribute: eviction retires the cold column's replicas so
// the new column converges inside the same budget. -jobs is the job count
// per phase.
//
// -cache runs the block-level result-cache trajectory: a cold job
// populates the cache, an identical hot job answers its blocks from it,
// then the adaptive indexer is switched on so its replica conversions
// invalidate affected entries.
//
// -dispatch runs the scan-split packing experiment: the adaptive job-1
// and cache-hot workloads execute with per-block and with packed scan
// splits, reporting dispatch counts and simulated wall time for both; a
// final phase kills a packed split's pinned node mid-job and verifies the
// job completes with only the affected blocks re-resolved.
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
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiments"
)

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hailbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "use small fixtures (faster, coarser index granularity)")
	only := fs.String("only", "", "comma-separated experiment IDs (e.g. Fig4a,Fig6a)")
	adaptiveMode := fs.Bool("adaptive", false, "run the adaptive-indexing experiment (convergence, then a workload shift with eviction)")
	cacheMode := fs.Bool("cache", false, "run the result-cache trajectory experiment")
	dispatchMode := fs.Bool("dispatch", false, "run the scan-split packing (dispatch) experiment")
	serveMode := fs.Bool("serve", false, "run the resident-server storm (concurrent multi-tenant queries over one shared cache+indexer, p50/p99 + throughput)")
	serveQueries := fs.Int("queries", 240, "serve: concurrent queries in the storm")
	serveTenants := fs.Int("tenants", 4, "serve: tenants the storm's queries rotate through")
	offerRate := fs.Float64("offer-rate", 0.25, "adaptive/cache: fraction of unindexed blocks converted per job, in (0, 1]")
	jobs := fs.Int("jobs", 8, "adaptive: jobs per phase; cache: identical jobs in the sequence")
	workloadName := fs.String("workload", "UserVisits", "adaptive/cache/dispatch/serve: workload (UserVisits or Synthetic)")
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
	modes := []struct {
		on     bool
		flag   string
		knobs  string
		run    func() (fmt.Stringer, error)
		figure string
	}{
		{*adaptiveMode, "adaptive", "workload jobs offer-rate",
			func() (fmt.Stringer, error) { return r.ExpAdaptive(w, *jobs, *offerRate) }, "FigAdaptive"},
		{*cacheMode, "cache", "workload jobs offer-rate",
			func() (fmt.Stringer, error) { return r.ExpCache(w, *jobs, *offerRate) }, "FigCache"},
		{*dispatchMode, "dispatch", "workload",
			func() (fmt.Stringer, error) { return r.ExpDispatch(w) }, "FigDispatch"},
		{*serveMode, "serve", "workload queries tenants",
			func() (fmt.Stringer, error) { return r.ExpServe(w, *serveQueries, *serveTenants) }, "FigServe"},
	}
	mode := -1 // figure mode
	for i, m := range modes {
		if !m.on {
			continue
		}
		if mode >= 0 {
			return fmt.Errorf("%w: -adaptive, -cache, -dispatch and -serve are mutually exclusive", errUsage)
		}
		mode = i
	}
	if mode >= 0 && *only != "" {
		return fmt.Errorf("%w: -only does not combine with the trajectory experiments", errUsage)
	}
	// A tuning flag set outside the active mode's knobs is a usage error
	// rather than silently ignored; figure mode takes none.
	knobs, in := "", "figure mode"
	if mode >= 0 {
		knobs, in = modes[mode].knobs, "-"+modes[mode].flag
	}
	var unaccepted []string
	for _, k := range strings.Fields("workload jobs offer-rate queries tenants") {
		if !slices.Contains(strings.Fields(knobs), k) {
			unaccepted = append(unaccepted, k)
		}
	}
	if stray := cliutil.Stray(fs, unaccepted...); len(stray) > 0 {
		return fmt.Errorf("%w: %s does not take %s", errUsage, in, strings.Join(stray, ", "))
	}
	if !(*offerRate > 0 && *offerRate <= 1) {
		return fmt.Errorf("%w: -offer-rate %v is not in (0, 1]", errUsage, *offerRate)
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
	ablations := []exp{
		{"AblationUnclustered", r.AblationUnclusteredIndex},
		{"AblationMultiLevel", func() (*experiments.Figure, error) { return r.AblationMultiLevelIndex(), nil }},
		{"AblationSplitting", r.AblationSplitting}, {"AblationLayout", r.AblationLayout},
		{"Section5FullText", r.Section5FullText},
	}

	// -only names experiments by their exact IDs; one that names none is
	// a usage error before any fixture is built, not an empty run.
	want := map[string]bool{}
	var unknown []string
	if *only != "" {
		all = append(all, ablations...)
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if !slices.ContainsFunc(all, func(e exp) bool { return e.id == id }) {
				unknown = append(unknown, strconv.Quote(id))
			}
			want[id] = true
		}
	}
	if len(unknown) > 0 {
		return fmt.Errorf("%w: -only: no such experiment: %s", errUsage, strings.Join(unknown, ", "))
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
