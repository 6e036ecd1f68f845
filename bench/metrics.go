package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// metricDef is one row of the benchmark's metric table. The table is the
// single source of truth: BENCHMARK.json is checked against it by
// TestBenchmarkJSONMatchesTable, results are printed from it, and -agree
// reads bounds and directions from BENCHMARK.json, which therefore equal
// these.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is the set a user of the system would see, the same for every
// workload. Bounds are relative worsening of the median; README.md holds
// the spread table they were derived from.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.03},
	{"allocs_per_op", "count", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"stored_bytes_per_text_byte", "ratio", "lower", 0.001},
}

// perLayer is the traced run's set; layers are the module names. A
// metric a workload does not exercise reads 0 there (counts and ratios
// only: every time is measured in every traced run, on the workload's own
// ops or on the read-back and serve probes).
var perLayer = []metricDef{
	{Name: "schema.parse_ns_per_line", Unit: "ns", Better: "lower"},
	{Name: "schema.format_ns_per_row", Unit: "ns", Better: "lower"},

	{Name: "pax.build_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "pax.unmarshal_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "pax.sort_string_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "pax.sort_float_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "pax.open_reader_us", Unit: "us", Better: "lower"},
	{Name: "pax.decode_fixed_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "pax.decode_string_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "pax.decode_selected_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "pax.bytes_read_per_op", Unit: "B", Better: "lower"},

	{Name: "index.build_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "index.unmarshal_us", Unit: "us", Better: "lower"},
	{Name: "index.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "index.bytes_per_block", Unit: "B", Better: "lower"},

	{Name: "hdfs.write_block_ms", Unit: "ms", Better: "lower"},
	{Name: "hdfs.read_block_us", Unit: "us", Better: "lower"},
	{Name: "hdfs.read_alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "hdfs.namenode_ops_per_op", Unit: "count", Better: "lower"},
	{Name: "hdfs.hosts_with_index_ns", Unit: "ns", Better: "lower"},
	{Name: "hdfs.save_ms", Unit: "ms", Better: "lower"},
	{Name: "hdfs.load_ms", Unit: "ms", Better: "lower"},

	{Name: "core.build_replica_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "core.parse_frame_us", Unit: "us", Better: "lower"},
	{Name: "core.split_phase_us", Unit: "us", Better: "lower"},
	{Name: "core.read_batches_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "core.index_scans_per_op", Unit: "count", Better: "higher"},
	{Name: "core.full_scans_per_op", Unit: "count", Better: "lower"},
	{Name: "core.rows_scanned_per_row_selected", Unit: "ratio", Better: "lower"},

	{Name: "query.parse_us", Unit: "us", Better: "lower"},
	{Name: "query.signature_us", Unit: "us", Better: "lower"},
	{Name: "query.filter_int_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "query.filter_string_ns_per_row", Unit: "ns", Better: "lower"},

	{Name: "mapred.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "mapred.schedule_ms", Unit: "ms", Better: "lower"},
	{Name: "mapred.map_ms", Unit: "ms", Better: "lower"},
	{Name: "mapred.assemble_ms", Unit: "ms", Better: "lower"},
	{Name: "mapred.map_emit_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "mapred.kv_out_per_op", Unit: "count", Better: "lower"},

	{Name: "qcache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "qcache.get_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "qcache.put_us", Unit: "us", Better: "lower"},
	{Name: "qcache.invalidate_us", Unit: "us", Better: "lower"},
	{Name: "qcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "qcache.hot_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "qcache.evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "qcache.resident_mb", Unit: "MB", Better: "lower"},

	{Name: "server.hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.miss_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.op_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "server.http_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "server.rejected_per_op", Unit: "count", Better: "lower"},

	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.spans_per_op", Unit: "count", Better: "lower"},

	// Each layer's share of the workload's traced op time (README.md
	// "Shares" says how each is measured). No direction is better; the
	// contract wants one, so "lower".
	{Name: "share.schema", Unit: "ratio", Better: "lower"},
	{Name: "share.pax", Unit: "ratio", Better: "lower"},
	{Name: "share.index", Unit: "ratio", Better: "lower"},
	{Name: "share.hdfs", Unit: "ratio", Better: "lower"},
	{Name: "share.core", Unit: "ratio", Better: "lower"},
	{Name: "share.mapred", Unit: "ratio", Better: "lower"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envStamp records where a result came from.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"git_commit"`
}

// result is one run of one workload: the contract's last-line object plus
// the stamp -agree and readers need. Samples is the op count the timings
// were taken over.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Traced   bool     `json:"traced"`
	Quick    bool     `json:"quick"`
	Seconds  float64  `json:"seconds"`
	Samples  int      `json:"samples"`
	Env      envStamp `json:"env"`
	// Windows holds the un-traced run's timings and the yardstick's,
	// window by window as measured; Raw their medians, unscaled.
	Windows []windowStats `json:"windows,omitempty"`
	Raw     *asMeasured   `json:"as_measured,omitempty"`
}

// contractLine is exactly what the driver reads from the last line.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// fill builds the metric map for defs from measured values; a metric the
// run did not set is an error, so a run can never silently drop one.
func fill(defs []metricDef, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(got) != len(defs) {
		for name := range got {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not in the table", name)
			}
		}
	}
	return out, nil
}

// printTable writes every metric by name with its unit, the sample count
// and (for end-to-end metrics) its bound.
func printTable(w io.Writer, defs []metricDef, r *result) {
	fmt.Fprintf(w, "workload %s seed %d traced %v: %d attempted, %d failed, %d samples\n",
		r.Workload, r.Seed, r.Traced, r.Attempted, r.Failed, r.Samples)
	for _, d := range defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %.3g (%s is better)", d.Bound, d.Better)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s%s\n", d.Name, r.Metrics[d.Name].Value, d.Unit, bound)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the p-quantile (nearest rank) of durations; it sorts
// its argument.
func quantile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(p*float64(len(ds))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
