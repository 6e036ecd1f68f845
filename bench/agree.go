package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// loadSet reads a result set: one result file, or every un-traced result
// in a directory.
func loadSet(path string) ([]result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var set []result
	for _, f := range files {
		if strings.HasSuffix(f, ".trace.json") || strings.HasSuffix(f, ".traced.json") {
			continue
		}
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		set = append(set, r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s holds no un-traced result", path)
	}
	return set, nil
}

// medians reduces a set to one value per workload and metric: the median
// over the set's runs of that workload.
func medians(set []result) map[string]map[string]float64 {
	vals := make(map[string]map[string][]float64)
	for _, r := range set {
		if vals[r.Workload] == nil {
			vals[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], v.Value)
		}
	}
	out := make(map[string]map[string]float64)
	for w, byMetric := range vals {
		out[w] = make(map[string]float64)
		for name, vs := range byMetric {
			sort.Float64s(vs)
			mid := vs[len(vs)/2]
			if len(vs)%2 == 0 {
				mid = (vs[len(vs)/2-1] + mid) / 2
			}
			out[w][name] = mid
		}
	}
	return out
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// agree compares result set B with result set A, metric by metric and in
// both directions, against the bounds in BENCHMARK.json: two sets of runs
// of the same code agree when neither is worse than the other by more
// than a metric's bound. It returns an error when any pair breaches.
func agree(benchmarkJSON, pathA, pathB string, w io.Writer) error {
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		return err
	}
	setA, err := loadSet(pathA)
	if err != nil {
		return err
	}
	setB, err := loadSet(pathB)
	if err != nil {
		return err
	}
	a, b := medians(setA), medians(setB)
	breaches := 0
	fmt.Fprintf(w, "%-11s %-27s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "B vs A", "bound")
	for _, wl := range bf.Workloads {
		ma, mb := a[wl.Name], b[wl.Name]
		if ma == nil || mb == nil {
			return fmt.Errorf("workload %s is missing from one of the sets", wl.Name)
		}
		for _, d := range bf.EndToEnd {
			va, okA := ma[d.Name]
			vb, okB := mb[d.Name]
			if !okA || !okB {
				return fmt.Errorf("%s: metric %s is missing from one of the sets", wl.Name, d.Name)
			}
			worse := worsening(d, va, vb)
			verdict := ""
			if worse > d.Bound || worsening(d, vb, va) > d.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-11s %-27s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n",
				wl.Name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric/workload pairs differ by more than their bound", breaches)
	}
	fmt.Fprintln(w, "the two sets agree within every bound")
	return nil
}
