// Command hailquery runs an annotated MapReduce selection job against a
// HAIL filesystem directory created by hailload.
//
// Usage:
//
//	hailquery -fs /tmp/hailfs -name /logs/uv \
//	          -q '@HailQuery(filter="@3 between(1999-01-01,2000-01-01)", projection={@1})' \
//	          [-splitting] [-pack-scans] [-adaptive] [-offer-rate 0.25] [-adaptive-budget N] \
//	          [-stats] [-limit 20]
//	          [-trace out.json] [-metrics]
//
// The job uses the HailInputFormat: if some replica of each block carries
// a clustered index matching the filter attribute, the record reader
// performs an index scan on that replica; otherwise it falls back to a
// PAX column scan. Either way the candidate rows stream through the
// vectorized batch pipeline (selection-vector kernels, late
// materialization). -splitting enables the HailSplitting policy, and
// -pack-scans extends packing to the blocks HailSplitting leaves
// per-block: no-index scan blocks are grouped by a preferred alive
// replica node into per-node splits, removing the per-task dispatch bound
// from scan-heavy jobs. Packed splits keep failover correctness: when a
// pinned node dies mid-job, the engine re-resolves only the affected
// blocks' replicas via the namenode instead of rescanning the split
// wholesale.
//
// -adaptive enables query-time adaptive indexing: when no replica of a
// block is indexed on the filter attribute, up to -offer-rate of those
// blocks are sorted and indexed as a by-product of this very query, the
// new replicas are saved back into the filesystem directory, and repeated
// invocations converge to all-index-scan execution; -offer-rate 0
// observes demand and builds nothing. -adaptive-budget caps the extra
// bytes those conversions may store (0 = unlimited) as a working set: a
// conversion that would exceed it drops the coldest adaptive replicas of
// other columns (heat is kept in the manifest across invocations;
// least-recently-used goes first), unregistering them from the namenode so
// no reader ever routes to a dropped replica. A conversion is denied only
// when nothing can be dropped. Every -adaptive query saves once,
// incrementally: new replicas, the heat, and dropped replicas gone.
//
// A hailquery process runs one job, which reads each block once, so it
// keeps no result cache: the cache lives where jobs repeat, in haild and
// in hailbench -cache's trajectory.
//
// -trace records the query as a tree of timed spans (split planning,
// per-task scheduling/wait/execute, failover repacks, adaptive builds)
// and writes it as Chrome trace_event JSON — load the file in
// chrome://tracing or https://ui.perfetto.dev. -metrics prints the
// process metrics registry (engine counters, namenode directory ops,
// adaptive-indexer gauges, task-latency histograms) after the query.
// Both are nil-safe pass-throughs: without the flags the engine records
// nothing and the hot path allocates nothing extra.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/query"
)

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hailquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fsDir := fs.String("fs", "", "filesystem directory (required)")
	name := fs.String("name", "/data", "file inside the filesystem")
	annotation := fs.String("q", "", "HailQuery annotation (required)")
	splitting := fs.Bool("splitting", false, "enable the HailSplitting policy")
	packScans := fs.Bool("pack-scans", false, "pack no-index scan blocks into per-node splits")
	adaptiveMode := fs.Bool("adaptive", false, "build missing indexes as a by-product of this query")
	offerRate := fs.Float64("offer-rate", 0.25, "adaptive: fraction of unindexed blocks converted per query (0 = observe demand only, build nothing)")
	adaptiveBudget := fs.Int64("adaptive-budget", 0, "adaptive: cap on extra replica bytes adaptive builds may store, kept by evicting the coldest adaptive replicas of other columns (0 = unlimited)")
	stats := fs.Bool("stats", false, "print access-path statistics")
	tracePath := fs.String("trace", "", "write the query's trace as Chrome trace_event JSON to this path (load in chrome://tracing or ui.perfetto.dev)")
	metrics := fs.Bool("metrics", false, "print the process metrics registry (counters, gauges, latency histograms) after the query")
	limit := fs.Int("limit", 20, "max result rows to print (0 = all)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		// The flag package already printed the diagnostic and usage.
		return errUsage
	}

	if *fsDir == "" || *annotation == "" {
		fs.Usage()
		return fmt.Errorf("%w: missing required -fs or -q", errUsage)
	}
	if !*adaptiveMode {
		if stray := cliutil.Stray(fs, "offer-rate", "adaptive-budget"); len(stray) > 0 {
			return fmt.Errorf("%w: %s only applies with -adaptive", errUsage, strings.Join(stray, ", "))
		}
	}

	cluster, err := hdfs.Load(*fsDir)
	if err != nil {
		return fmt.Errorf("loading filesystem: %v", err)
	}
	sch, err := core.FileSchema(cluster, *name)
	if err != nil {
		return err
	}
	q, err := query.ParseAnnotation(sch, *annotation)
	if err != nil {
		return err
	}

	input := &core.InputFormat{Cluster: cluster, Query: q, Splitting: *splitting, PackScans: *packScans}
	engine := &mapred.Engine{Cluster: cluster}
	var idx *adaptive.Indexer
	if *adaptiveMode {
		// The indexer starts from the manifest's adaptive records (budget
		// charges, heat), so the budget accumulates across queries and
		// eviction can rank replicas the workload went cold on.
		idx = adaptive.New(cluster, *offerRate, *adaptiveBudget)
		input.Adaptive = idx
		engine.PostTask = idx.AfterTask
	}
	// Observability: -stats, -metrics and -trace all ride on the same
	// nil-safe handles — without them the engine's hot path records
	// nothing and allocates nothing.
	var reg *obs.Registry
	if *stats || *metrics || *tracePath != "" {
		reg = obs.NewRegistry()
		engine.Obs = reg
		cluster.NameNode().BindObs(reg)
		idx.BindObs(reg)
	}
	var tr *obs.Trace
	if *tracePath != "" {
		tr = obs.NewTrace("hailquery")
		idx.SetTrace(tr)
	}
	// The job is a passthrough (no map function), and its rows print as
	// the engine delivers them, up to -limit, each written straight from
	// its chunk's text.
	printed := 0
	w := bufio.NewWriter(stdout)
	res, err := engine.Stream(context.Background(), &mapred.Job{
		Name:  "hailquery",
		File:  *name,
		Input: input,
		Trace: tr,
	}, func(chunk mapred.Chunk) bool {
		for row := range chunk.All() {
			if *limit > 0 && printed == *limit {
				return false
			}
			w.WriteString(row)
			w.WriteByte('\n')
			printed++
		}
		return true
	})
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		return err
	}
	if printed < res.Rows {
		fmt.Fprintf(stdout, "... (%d more rows)\n", res.Rows-printed)
	}
	fmt.Fprintf(stdout, "-- %d rows, %d map tasks\n", res.Rows, len(res.Tasks))
	if *stats {
		st := res.TotalStats()
		// A replica that failed checksum verification was left for another:
		// the answer is whole, but a stored copy is bad and should be seen.
		failovers := ""
		if st.ChecksumFailovers > 0 {
			failovers = fmt.Sprintf(", %d checksum failovers", st.ChecksumFailovers)
		}
		fmt.Fprintf(stdout, "-- %d index scans, %d full scans, %.2f MB data read, %.1f KB index read, %d seeks%s\n",
			st.IndexScans, st.FullScans,
			float64(st.BytesRead)/1e6, float64(st.IndexBytesRead)/1e3, st.Seeks, failovers)
		// The split phase reads no block headers (§6.4.1) but does pay
		// namenode directory lookups — report them instead of hiding them.
		fmt.Fprintf(stdout, "-- split phase: %d namenode directory ops, 0 block-header reads\n",
			res.SplitPhase.NameNodeOps)
		// Uniform engine counters, sourced from the metrics registry (the
		// same numbers -metrics prints).
		fmt.Fprintf(stdout, "-- engine: %d tasks (%d node-local), %d repacked, %d blocks rerun, %d namenode ops total\n",
			reg.Counter("engine.tasks").Value(), reg.Counter("engine.tasks_local").Value(),
			reg.Counter("engine.tasks_repacked").Value(), reg.Counter("engine.blocks_rerun").Value(),
			reg.Counter("engine.namenode_ops").Value())
	}
	if idx != nil {
		plan := idx.LastJob()
		// Persist the new replicas (even when another block's build
		// failed) and the evictions, and the heat even when nothing was
		// built: an all-index-scan query is exactly what eviction ranks by.
		if err := cluster.Save(*fsDir); err != nil {
			return fmt.Errorf("saving adaptive indexes: %v", err)
		}
		if plan.File == "" {
			fmt.Fprintln(stdout, "-- adaptive: no filter column, nothing to index")
		} else {
			fmt.Fprintf(stdout, "-- adaptive: %d/%d blocks indexed on @%d, built %d this query (%d added, %d replaced)\n",
				plan.Indexed+plan.Built, plan.Indexed+plan.Missing, plan.Column+1,
				plan.Built, plan.ReplicasAdded, plan.ReplicasReplaced)
			if plan.Skipped > 0 {
				fmt.Fprintf(stdout, "-- adaptive: %d blocks skipped (no node can hold another replica)\n", plan.Skipped)
			}
			if plan.Evicted > 0 {
				fmt.Fprintf(stdout, "-- adaptive: evicted %d cold replica(s), %.1f KB reclaimed (extra storage %.1f KB at the %.1f KB budget)\n",
					plan.Evicted, float64(plan.EvictedBytes)/1e3,
					float64(idx.ExtraBytes())/1e3, float64(idx.BudgetBytes())/1e3)
			}
			if plan.BudgetDenied > 0 {
				fmt.Fprintf(stdout, "-- adaptive: %d builds denied (extra storage %.1f KB at the %.1f KB budget)\n",
					plan.BudgetDenied, float64(idx.ExtraBytes())/1e3, float64(idx.BudgetBytes())/1e3)
			}
		}
		if plan.Err != nil {
			return plan.Err
		}
	}
	if tr != nil {
		if err := tr.Validate(); err != nil {
			return err
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("writing trace: %v", err)
		}
		if err := tr.WriteChrome(f); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("writing trace: %v", err)
		}
		fmt.Fprintf(stdout, "-- trace: %d spans written to %s\n", len(tr.SpanInfos()), *tracePath)
	}
	if *metrics {
		fmt.Fprint(stdout, reg.String())
	}
	return nil
}

// errUsage marks usage errors, which exit with status 2 (the Unix
// convention, matching the previous flag.ExitOnError behaviour).
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil {
		return
	}
	if err != errUsage { // the bare sentinel means flag already reported it
		fmt.Fprintf(os.Stderr, "hailquery: %v\n", err)
	}
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}
