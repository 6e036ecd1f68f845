// Command bench is the repository's benchmark: three workloads over HAIL's
// public functions, every answer checked against a text-side oracle,
// end-to-end metrics from an un-traced run and per-layer metrics from a
// traced one. README.md has the metric glossary, the workload rationales
// and the repeatability rules; BENCHMARK.json at the repository root is
// the contract it is run under.
//
// Usage (from the repository root):
//
//	go run -C bench . -workload index-scan -seed 1                # un-traced, 36 s
//	go run -C bench . -workload index-scan -seed 1 -trace 1       # traced, fixed op count
//	go run -C bench . -workload upload -seed 1 -quick             # small fixture, 1 s
//	go run -C bench . -agree out/setA out/setB                    # compare two result sets
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// boolArg accepts "-trace 1" and "-trace 0" (how the driver passes it) as
// well as true/false; a flag.Bool would take the following argument for a
// positional one.
type boolArg bool

func (b *boolArg) String() string { return strconv.FormatBool(bool(*b)) }
func (b *boolArg) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = boolArg(v)
	return err
}

func main() {
	if err := realMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(1)
	}
}

func realMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: upload, index-scan or wide-scan")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 0, "length of the un-traced timed region (0 = 36, or 1 with -quick)")
	var traced boolArg
	fs.Var(&traced, "trace", "1 = traced run: fixed op count, per-layer metrics, Chrome trace in -out")
	quick := fs.Bool("quick", false, "5k-row fixture and 1 s regions, for smoke tests")
	outDir := fs.String("out", "out", "directory for result files, traces and temporary filesystems")
	repoRoot := fs.String("repo", "..", "repository root, where BENCHMARK.json and .git are")
	agreeMode := fs.Bool("agree", false, "compare two result sets (files or directories) against BENCHMARK.json's bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *agreeMode {
		if fs.NArg() != 2 {
			return fmt.Errorf("-agree takes two result sets, got %d arguments", fs.NArg())
		}
		return agree(filepath.Join(*repoRoot, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if err := checkEnv(); err != nil {
		return err
	}
	runtime.GOMAXPROCS(2) // min(nproc, 2): checkEnv refused nproc < 2

	r := &run{sc: fullScale, seed: *seed, seconds: *seconds, outDir: *outDir}
	if *quick {
		r.sc = quickScale
	}
	if r.seconds <= 0 {
		r.seconds = 36
		if *quick {
			r.seconds = 1
		}
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	res, runErr := r.execute(*name, bool(traced))
	if res == nil {
		return runErr
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "bench: first failure:", runErr)
	}
	res.Seed, res.Quick, res.Seconds = *seed, *quick, r.seconds
	res.Env = stamp(*repoRoot)

	defs := endToEnd
	suffix := ""
	if res.Traced {
		defs, suffix = perLayer, ".traced"
	}
	printTable(stdout, defs, res)
	if res.Raw != nil {
		fmt.Fprintf(stdout, "as measured: setup_s %.6g s, op_ms_p50 %.6g ms, ops_per_s %.6g, cpu_ms_per_op %.6g ms; yardstick %.4g ms (timings above are scaled to %.4g ms)\n",
			res.Raw.SetupS, res.Raw.OpMSP50, res.Raw.OpsPerS, res.Raw.CPUMSPerOp, res.Raw.YardstickMS, ms(yardNominal))
	}
	fmt.Fprintf(stdout, "env: nproc %d GOMAXPROCS %d %s kernel %s commit %s\n",
		res.Env.NProc, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Kernel, res.Env.Commit)
	file := filepath.Join(r.outDir, fmt.Sprintf("%s.s%d%s.json", res.Workload, res.Seed, suffix))
	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(file, append(full, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(contractLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// execute runs one workload and returns its result; the error is the
// first failed op (the result then says correct: false) or, with a nil
// result, the reason nothing could be measured.
func (r *run) execute(name string, traced bool) (*result, error) {
	known := false
	for _, w := range workloads {
		known = known || w.Name == name
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want upload, index-scan or wide-scan)", name)
	}
	if traced {
		return r.executeTraced(name)
	}
	m := make(map[string]float64)
	var t timed
	var opErr error
	extraAttempted, extraFailed := 0, 0 // checks outside the timed region
	switch name {
	case "upload":
		w, err := r.newUploadWorkload()
		if err != nil {
			return nil, err
		}
		t, opErr = loop(limit{seconds: r.seconds}, func(i int) (time.Duration, error) { return w.op(r, i) })
		// Read every query shape back from the last upload, so that what
		// it stored — not only its summary — is checked against the text.
		back, err := r.runEnginePass(w.last, w.qs, w.o.answers, len(w.qs))
		extraAttempted, extraFailed = back.attempted, back.failed
		if opErr == nil {
			opErr = err
		}
		m["stored_bytes_per_text_byte"] = storedRatio(w.last)
	case "index-scan", "wide-scan":
		w, err := r.newScanWorkload(name)
		if err != nil {
			return nil, err
		}
		t, opErr = loop(limit{seconds: r.seconds}, func(i int) (time.Duration, error) { return w.op(r, i) })
		m["stored_bytes_per_text_byte"] = storedRatio(w.fx)
	}
	wins, raw := t.endToEndMetrics(m)
	m["setup_s"], raw.SetupS = r.setupS, r.rawSetupS
	m["peak_rss_mb"] = peakRSSMB()
	metrics, err := fill(endToEnd, m)
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   t.failed+extraFailed == 0 && opErr == nil,
		Attempted: t.attempted + extraAttempted, Failed: t.failed + extraFailed,
		Metrics: metrics, Workload: name, Samples: len(t.durs), Windows: wins, Raw: &raw,
	}, opErr
}
