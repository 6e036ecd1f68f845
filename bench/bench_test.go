package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

var workloadNames = func() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}()

// quickRun runs one workload at quick scale, as main would.
func quickRun(t *testing.T, name string, seed int64, traced bool) *result {
	t.Helper()
	r := &run{sc: quickScale, seed: seed, seconds: 1, outDir: t.TempDir()}
	res, err := r.execute(name, traced)
	if err != nil {
		t.Fatalf("%s (traced %v): %v", name, traced, err)
	}
	return res
}

// firstRuns holds one un-traced and one traced quick run of every
// workload, shared by the tests that only read results.
var firstRuns struct {
	once    sync.Once
	results map[string][2]*result // [un-traced, traced]
}

func smokeResults(t *testing.T) map[string][2]*result {
	firstRuns.once.Do(func() {
		firstRuns.results = make(map[string][2]*result)
		for _, name := range workloadNames {
			firstRuns.results[name] = [2]*result{quickRun(t, name, 1, false), quickRun(t, name, 1, true)}
		}
	})
	if len(firstRuns.results) != len(workloadNames) {
		t.Fatal("the smoke runs failed in an earlier test")
	}
	return firstRuns.results
}

// TestOracleMatchesEngine proves the text-side oracle and the engine give
// the same multiset of rows, through the expected access path, for every
// query shape the benchmark uses.
func TestOracleMatchesEngine(t *testing.T) {
	sc := quickScale
	lines := genLines(sc.fixtureRows, 7, sc)
	qs := append(scanQueries(7), wideQuery())
	qs = append(qs, hotQueries(7)...)
	cold := newColdStream(7, sc)
	for i := 0; i < 8; i++ {
		bq, err := cold.at(i)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, bq)
	}
	o := buildOracle(lines, qs, sc.blockSize)
	fx, _, err := upload(lines, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkUpload(fx, o); err != nil {
		t.Fatal(err)
	}
	if o.badRows == 0 || fx.sum.Blocks < 2 {
		t.Fatalf("fixture has %d bad rows and %d blocks; want some of each", o.badRows, fx.sum.Blocks)
	}
	r := &run{sc: sc, seed: 7}
	kinds := make(map[queryKind]int)
	for i, bq := range qs {
		if _, _, err := r.runQuery(fx, bq, o.answers[i]); err != nil {
			t.Errorf("query %d: %v", i, err)
		}
		if o.answers[i].count == 0 {
			t.Errorf("%s selects nothing; the check would be vacuous", bq.annotation)
		}
		if bq.kind == kindCold && o.coldCount(bq) != o.answers[i].count {
			t.Errorf("%s: duration histogram says %d rows, evaluation says %d", bq.annotation, o.coldCount(bq), o.answers[i].count)
		}
		kinds[bq.kind]++
	}
	if len(kinds) != 5 {
		t.Errorf("checked %d query shapes, want all 5", len(kinds))
	}
	// A wrong answer must be caught: the oracle's answer to another query.
	if _, _, err := r.runQuery(fx, qs[0], o.answers[1]); err == nil {
		t.Error("runQuery accepted another query's answer")
	}
}

func annotations(qs []benchQuery) []string {
	out := make([]string, len(qs))
	for i, bq := range qs {
		out[i] = bq.annotation
	}
	return out
}

func shapes(qs []benchQuery) map[queryKind]int {
	out := make(map[queryKind]int)
	for _, bq := range qs {
		out[bq.kind]++
	}
	return out
}

func requests(t *testing.T, seed int64, n int) []string {
	hot := hotQueries(seed)
	cold := newColdStream(seed, quickScale)
	var out []string
	for c := 0; c < clients; c++ {
		s := newRequestStream(seed, c, clients, hot, cold)
		for i := 0; i < n; i++ {
			rq, err := s.take()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rq.bq.annotation)
		}
	}
	return out
}

// TestInputsAreAFunctionOfTheSeed: same seed, same lines, query list and
// request stream; another seed, other constants in the same shapes.
func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	if !reflect.DeepEqual(genLines(2000, 3, quickScale), genLines(2000, 3, quickScale)) {
		t.Error("same seed gave different lines")
	}
	if reflect.DeepEqual(genLines(2000, 3, quickScale), genLines(2000, 4, quickScale)) {
		t.Error("different seeds gave the same lines")
	}
	a, b, other := scanQueries(3), scanQueries(3), scanQueries(4)
	if !reflect.DeepEqual(annotations(a), annotations(b)) {
		t.Error("same seed gave different query lists")
	}
	if reflect.DeepEqual(annotations(a), annotations(other)) {
		t.Error("different seeds gave the same query list")
	}
	want := map[queryKind]int{kindDate: 30, kindRevenue: 30, kindNeedle: 1}
	if !reflect.DeepEqual(shapes(a), want) || !reflect.DeepEqual(shapes(other), want) {
		t.Errorf("query shapes are %v and %v, want %v for every seed", shapes(a), shapes(other), want)
	}
	if !reflect.DeepEqual(requests(t, 3, 300), requests(t, 3, 300)) {
		t.Error("same seed gave different request streams")
	}
	reqs := requests(t, 3, 300)
	seen := make(map[string]bool)
	coldSeen, hotSeen := 0, 0
	for _, ann := range reqs {
		if strings.Contains(ann, "@9 between") {
			coldSeen++
			if seen[ann] {
				t.Errorf("cold request %s was sent twice", ann)
			}
			seen[ann] = true
		} else {
			hotSeen++
		}
	}
	if share := float64(coldSeen) / float64(len(reqs)); share < 0.18 || share > 0.32 {
		t.Errorf("cold share of the stream is %.2f, want about 0.25", share)
	}
}

// exactCounts are the metrics that must repeat exactly for one seed.
var exactCounts = []string{
	"pax.bytes_read_per_op", "core.index_scans_per_op", "core.full_scans_per_op",
	"core.rows_scanned_per_row_selected", "hdfs.namenode_ops_per_op", "mapred.kv_out_per_op",
	"index.bytes_per_block",
}

func TestExactCountsRepeat(t *testing.T) {
	first := smokeResults(t)
	for _, name := range workloadNames {
		again := quickRun(t, name, 1, true)
		for _, metric := range exactCounts {
			a, b := first[name][1].Metrics[metric].Value, again.Metrics[metric].Value
			if a != b {
				t.Errorf("%s: %s was %v, then %v", name, metric, a, b)
			}
		}
	}
	again := quickRun(t, "index-scan", 1, false)
	a := first["index-scan"][0].Metrics["stored_bytes_per_text_byte"].Value
	if b := again.Metrics["stored_bytes_per_text_byte"].Value; a != b {
		t.Errorf("stored_bytes_per_text_byte was %v, then %v", a, b)
	}
	if v := first["index-scan"][1].Metrics["core.full_scans_per_op"].Value; v != 0 {
		t.Errorf("index-scan made %v full scans per op, want 0", v)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload, traced and un-traced, and validates
// what they emit against the contract.
func TestSmoke(t *testing.T) {
	for name, pair := range smokeResults(t) {
		for i, res := range pair {
			defs := endToEnd
			if i == 1 {
				defs = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || res.Attempted < res.Failed {
				t.Errorf("%s traced=%v: correct %v, %d attempted, %d failed", name, i == 1, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, the table has %d", name, i == 1, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || v.Unit == "" {
					t.Errorf("%s: metric %s missing or with unit %q", name, d.Name, v.Unit)
				}
				if i == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", name, d.Name, v.Value)
				}
				if v.Value < 0 && !strings.HasPrefix(d.Name, "share.") && d.Name != "mapred.map_emit_ms_per_op" {
					t.Errorf("%s: %s is negative: %v", name, d.Name, v.Value)
				}
			}
		}
	}
	// The serve probe starts cold, so the hot set's first requests miss.
	if v := smokeResults(t)["index-scan"][1].Metrics["qcache.hot_hit_ratio"].Value; v < 0.8 {
		t.Errorf("the serve probe's hot hit ratio is %v; the hot set should stay cached", v)
	}
}

// TestLastLineIsTheContract runs main's path end to end and parses the
// last line of standard output.
func TestLastLineIsTheContract(t *testing.T) {
	if err := checkEnv(); err != nil {
		t.Skip(err)
	}
	out := t.TempDir()
	for _, traced := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "index-scan", "--seed", "5", "--seconds", "1", "--trace", traced, "-quick", "-out", out}
		if err := realMain(args, &stdout, &stderr); err != nil {
			t.Fatalf("%v\n%s", err, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
			t.Errorf("last line has keys %v, want %v", keys, want)
		}
	}
	for _, f := range []string{"index-scan.s5.json", "index-scan.s5.traced.json", "index-scan.trace.json"} {
		raw, err := os.ReadFile(filepath.Join(out, f))
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(raw) {
			t.Errorf("%s is not valid JSON", f)
		}
	}
	var stdout, stderr bytes.Buffer
	if err := realMain([]string{"-workload", "nope"}, &stdout, &stderr); err == nil {
		t.Error("an unknown workload was accepted")
	}
}

// TestTimingsAreScaledByTheYardstick: a region in which ops and yardstick
// alike ran twice as slowly reports the same timings, and reports them as
// measured when the yardstick ran at its nominal speed.
func TestTimingsAreScaledByTheYardstick(t *testing.T) {
	region := func(slow time.Duration) timed {
		var reg timed
		var at mark
		for w := 0; w < 4; w++ {
			win := window{from: at, attempted: 5}
			for i := 0; i < 5; i++ {
				d := time.Duration(10+i) * time.Millisecond * slow
				win.durs, reg.durs = append(win.durs, d), append(reg.durs, d)
				win.yards = append(win.yards, yardNominal*slow)
				win.yardTotal += yardNominal * slow
				at.cpu += d + yardNominal*slow
			}
			win.to = at
			reg.wins = append(reg.wins, win)
			reg.attempted += 5
		}
		return reg
	}
	quiet, slow := make(map[string]float64), make(map[string]float64)
	fast, slowed := region(1), region(2)
	_, raw := fast.endToEndMetrics(quiet)
	_, rawSlow := slowed.endToEndMetrics(slow)
	for _, name := range []string{"op_ms_p50", "ops_per_s", "cpu_ms_per_op"} {
		if math.Abs(quiet[name]-slow[name]) > 1e-9*quiet[name] || quiet[name] <= 0 {
			t.Errorf("%s is %v on the quiet box and %v on the slow one", name, quiet[name], slow[name])
		}
	}
	if quiet["op_ms_p50"] != 12 || raw.OpMSP50 != 12 || rawSlow.OpMSP50 != 24 {
		t.Errorf("op_ms_p50 is %v (as measured %v, %v when slow), want 12 (12, 24)", quiet["op_ms_p50"], raw.OpMSP50, rawSlow.OpMSP50)
	}
	if want := 12.0; math.Abs(quiet["cpu_ms_per_op"]-want) > 1e-9 {
		t.Errorf("cpu_ms_per_op is %v, want %v: the yardstick's own time is not the program's", quiet["cpu_ms_per_op"], want)
	}
}

func TestEnvGuard(t *testing.T) {
	for _, name := range []string{"GOGC", "GOMEMLIMIT", "GODEBUG"} {
		t.Run(name, func(t *testing.T) {
			t.Setenv(name, "1")
			if err := checkEnv(); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("checkEnv with %s set: %v", name, err)
			}
		})
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the metric table and
// against the limits of the contract it is written to.
func TestBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Workloads, workloads) {
		t.Error("workloads differ from the table in workloads.go")
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the table in metrics.go:\n%v\n%v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Error("per_layer differs from the table in metrics.go")
	}
	if len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 || len(bf.Workloads) < 2 || len(bf.Workloads) > 8 {
		t.Errorf("%d end-to-end, %d per-layer metrics, %d workloads: outside the contract", len(bf.EndToEnd), len(bf.PerLayer), len(bf.Workloads))
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds is %d", bf.RunSeconds)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("paths is %v, want [bench]", bf.Paths)
	}
	names := make(map[string]bool)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !nameRE.MatchString(d.Name) || names[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		names[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	for _, d := range bf.PerLayer {
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", d.Name)
		}
	}
	for _, w := range bf.Workloads {
		if !nameRE.MatchString(w.Name) || names[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: malformed name or why", w.Name)
		}
		names[w.Name] = true
	}
}

func TestAgree(t *testing.T) {
	write := func(dir string, scaleBy float64) {
		for _, name := range workloadNames {
			res := result{Workload: name, Correct: true, Attempted: 1, Metrics: make(map[string]value)}
			for _, d := range endToEnd {
				res.Metrics[d.Name] = value{Value: 100 * scaleBy, Unit: d.Unit}
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name+".s1.json"), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, same, off := t.TempDir(), t.TempDir(), t.TempDir()
	write(a, 1)
	write(same, 1.0005) // inside every bound, the tightest being 0.1%
	write(off, 1.08)    // outside the allocation and storage bounds, inside the timing ones
	benchmarkJSON := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if err := agree(benchmarkJSON, a, same, &out); err != nil {
		t.Errorf("sets within the bounds do not agree: %v\n%s", err, out.String())
	}
	out.Reset()
	err := agree(benchmarkJSON, a, off, &out)
	if err == nil {
		t.Fatalf("sets 8%% apart agree:\n%s", out.String())
	}
	if got := strings.Count(out.String(), "BREACH"); got != 3*len(workloadNames) {
		t.Errorf("%d breaches reported, want %d (alloc_mb, allocs and storage per workload)\n%s", got, 3*len(workloadNames), out.String())
	}
	// ops_per_s is better when higher: a drop is the worsening.
	if w := worsening(metricDef{Better: "higher"}, 100, 90); w != 0.1 {
		t.Errorf("a drop from 100 to 90 of a higher-is-better metric worsens by %v, want 0.1", w)
	}
}
