package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// checkEnv enforces the repeatability rules a process can check about
// itself: Go runtime defaults only, and a second core for the collector.
func checkEnv() error {
	for _, name := range []string{"GOGC", "GOMEMLIMIT", "GODEBUG"} {
		if v, ok := os.LookupEnv(name); ok {
			return fmt.Errorf("%s=%q is set; the benchmark runs with Go runtime defaults only", name, v)
		}
	}
	if n := runtime.NumCPU(); n < 2 {
		return fmt.Errorf("nproc is %d; the benchmark needs 2 (one for the load, one left free)", n)
	}
	return nil
}

// stamp reads the environment a result is stamped with. repoRoot is where
// .git is looked for; outside a git checkout the commit reads "unknown".
func stamp(repoRoot string) envStamp {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel,
		Commit:     gitCommit(repoRoot),
	}
}

// gitCommit resolves HEAD by reading .git directly, so no process is
// started and nothing outside the checkout is read.
func gitCommit(repoRoot string) string {
	gitDir := filepath.Join(repoRoot, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// mark is the cheap part of a usage snapshot, also taken at window
// boundaries.
type mark struct {
	at  time.Time
	cpu time.Duration // user + system
}

// usage is a snapshot of the process counters the end-to-end metrics are
// deltas of.
type usage struct {
	mark
	alloc  uint64 // runtime.MemStats.TotalAlloc
	allocs uint64 // runtime.MemStats.Mallocs
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func markNow() mark {
	ru := rusage()
	return mark{at: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

func snapshot() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{mark: markNow(), alloc: m.TotalAlloc, allocs: m.Mallocs}
}

// peakRSSMB is ru_maxrss, which Linux reports in KiB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// windows is how many equal parts an un-traced timed region is cut into,
// at op boundaries. Timings are scaled by the yardstick window by window,
// and ops_per_s and cpu_ms_per_op are the median window's (README.md, "Why
// a yardstick").
const windows = 24

// window is one part of a timed region.
type window struct {
	durs      []time.Duration // latency of every correct op that completed in it
	attempted int
	from, to  mark
	yards     []time.Duration // the yardstick's time per chunk after each op
	yardTotal time.Duration   // all the time the yardstick took
}

// windowStats is a window's timings as measured, and the yardstick's.
type windowStats struct {
	OpMSP50     float64 `json:"op_ms_p50"`
	OpsPerS     float64 `json:"ops_per_s"`
	CPUMSPerOp  float64 `json:"cpu_ms_per_op"`
	YardstickMS float64 `json:"yardstick_ms"`
}

// asMeasured is a run's timings before scaling, for the result file.
type asMeasured struct {
	SetupS float64 `json:"setup_s"`
	windowStats
}

// stats counts a window's ops against the time they spent inside the
// system, not against the wall: between two ops the harness checks the
// answer and runs the yardstick, and that is not the program's time. The
// yardstick is one thread that never waits, so its time is also its CPU.
func (w *window) stats() windowStats {
	return windowStats{
		OpMSP50:     ms(quantile(append([]time.Duration(nil), w.durs...), 0.5)),
		OpsPerS:     float64(len(w.durs)) / sum(w.durs).Seconds(),
		CPUMSPerOp:  ms(w.to.cpu-w.from.cpu-w.yardTotal) / float64(w.attempted),
		YardstickMS: ms(quantile(append([]time.Duration(nil), w.yards...), 0.5)),
	}
}

// timed is what one timed region measured.
type timed struct {
	durs      []time.Duration // latency of every correct op
	attempted int
	failed    int
	begin     usage
	end       usage
	wins      []window // the region cut by time; one window when the region is op-counted
}

// endToEndMetrics derives the op metrics of the table from a timed
// region; setup_s, peak_rss_mb and the storage ratio are the caller's.
// Allocation is taken over the whole region. Each timing is scaled, window
// by window, by yardNominal over the yardstick's time in that window, and
// the median is reported: of all ops for the latency, of the windows for
// throughput and CPU. The second result is the same medians unscaled.
func (t *timed) endToEndMetrics(m map[string]float64) (all []windowStats, raw asMeasured) {
	ops := float64(t.attempted)
	m["alloc_mb_per_op"] = float64(t.end.alloc-t.begin.alloc) / 1e6 / ops
	m["allocs_per_op"] = float64(t.end.allocs-t.begin.allocs) / ops
	var opMS, opsPerS, cpuMS, rawOpsPerS, rawCPUMS, yardMS []float64
	for i := range t.wins {
		w := &t.wins[i]
		if len(w.durs) == 0 || len(w.yards) == 0 {
			continue
		}
		ws := w.stats()
		all = append(all, ws)
		scale := ms(yardNominal) / ws.YardstickMS
		for _, d := range w.durs {
			opMS = append(opMS, ms(d)*scale)
		}
		opsPerS, rawOpsPerS = append(opsPerS, ws.OpsPerS/scale), append(rawOpsPerS, ws.OpsPerS)
		cpuMS, rawCPUMS = append(cpuMS, ws.CPUMSPerOp*scale), append(rawCPUMS, ws.CPUMSPerOp)
		yardMS = append(yardMS, ws.YardstickMS)
	}
	m["op_ms_p50"], m["ops_per_s"], m["cpu_ms_per_op"] = median(opMS), median(opsPerS), median(cpuMS)
	raw.windowStats = windowStats{
		OpMSP50:     ms(quantile(append([]time.Duration(nil), t.durs...), 0.5)),
		OpsPerS:     median(rawOpsPerS),
		CPUMSPerOp:  median(rawCPUMS),
		YardstickMS: median(yardMS),
	}
	return all, raw
}

// median of vs, which it sorts; 0 when there is none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
