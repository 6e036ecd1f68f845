// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each ExpXxx method on Runner corresponds to one figure
// or table; the DESIGN.md per-experiment index maps them.
//
// Methodology: the three systems (Hadoop, Hadoop++, HAIL) execute real
// uploads and real MapReduce jobs over a real in-process cluster at laptop
// scale — every result row is genuinely computed — while reported times
// come from the sim cost model fed with the measured byte/seek/record
// counts, scaled to the paper's data sizes (20 GB/node UserVisits,
// 13 GB/node Synthetic, 64 MB blocks, 10–100 nodes).
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/hadoop"
	"repro/internal/hdfs"
	"repro/internal/schema"
	"repro/internal/sim"
	"repro/internal/trojan"
	"repro/internal/workload"
)

// System identifies one of the compared systems.
type System int

// The three systems of §6.1.
const (
	Hadoop System = iota
	HadoopPP
	HAIL
)

// String returns the paper's name for the system.
func (s System) String() string {
	switch s {
	case Hadoop:
		return "Hadoop"
	case HadoopPP:
		return "Hadoop++"
	case HAIL:
		return "HAIL"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Point is one bar/cell of a figure: label → simulated seconds.
type Point struct {
	X       string
	Seconds float64
}

// Series is one system's line/bars in a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is the result of one experiment, printable as the paper's rows.
type Figure struct {
	ID     string // e.g. "Fig4a"
	Title  string
	Unit   string // "s" or "ms"
	Series []Series
}

// String renders the figure as an aligned table.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s [%s]\n", f.ID, f.Title, f.Unit)
	if len(f.Series) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-14s", "")
	for _, p := range f.Series[0].Points {
		fmt.Fprintf(&b, "%12s", p.X)
	}
	b.WriteByte('\n')
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-14s", s.Label)
		for _, p := range s.Points {
			if p.Seconds < 0 {
				fmt.Fprintf(&b, "%12s", "-")
			} else {
				fmt.Fprintf(&b, "%12.1f", p.Seconds)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Paper-scale constants (§6.1–6.2): 10 nodes by default, 20 GB UserVisits
// and 13 GB Synthetic per node, 64 MB blocks.
const (
	UVGBPerNode    = 20.0
	SynGBPerNode   = 13.0
	PaperBlockMB   = 64.0
	paperBlockText = PaperBlockMB * 1e6 * 1.048576 // 64 MiB in bytes
)

// Runner executes experiments. Its knobs trade laptop runtime against
// partition-granularity fidelity: more rows per block means the sparse
// index's 1,024-row partitions resolve selectivities more precisely.
type Runner struct {
	Profile sim.Profile
	// Real-execution sizes.
	UVRows       int // total UserVisits rows generated
	UVBlockRows  int // rows per block (× ~115 B/row = block text size)
	SynRows      int
	SynBlockRows int
	Seed         int64
	Nodes        int // real cluster size (also the simulated node count)
	// AdaptiveBudget caps the adaptive indexer's extra storage in the
	// adaptive, cache and lifecycle experiments (0 = unbounded for the
	// first two; ExpLifecycle auto-sizes a one-column budget instead),
	// mirroring the CLIs' -adaptive-budget flag.
	AdaptiveBudget int64
	// AdaptiveEvict enables the adaptive replica lifecycle manager's
	// eviction policy in ExpAdaptive (ExpLifecycle always runs with it):
	// builds that would exceed the budget retire the coldest adaptive
	// replicas instead of being denied, mirroring -adaptive-evict.
	AdaptiveEvict bool

	mu       sync.Mutex
	fixtures map[string]*fixture
}

// NewRunner returns a Runner with full-fidelity defaults: ~64 partitions
// per block so that index-scan fractions are within ~2% of paper-scale.
func NewRunner() *Runner {
	return &Runner{
		Profile:      sim.Physical,
		UVRows:       640_000,
		UVBlockRows:  64_000,
		SynRows:      640_000,
		SynBlockRows: 64_000,
		Seed:         2012,
		Nodes:        10,
	}
}

// NewQuickRunner returns a Runner sized for tests: small data, fewer
// partitions per block (coarser index pruning, same code paths).
func NewQuickRunner() *Runner {
	r := NewRunner()
	r.UVRows = 40_000
	r.UVBlockRows = 4_000
	r.SynRows = 40_000
	r.SynBlockRows = 4_000
	return r
}

// Workload identifies a benchmark dataset.
type Workload int

// The two datasets of §6.2.
const (
	UserVisits Workload = iota
	Synthetic
)

// String returns the dataset name.
func (w Workload) String() string {
	if w == UserVisits {
		return "UserVisits"
	}
	return "Synthetic"
}

// fixture is one uploaded dataset on one real cluster: the three systems
// each get their own cluster so placement is independent.
type fixture struct {
	workload Workload
	system   System
	cluster  *hdfs.Cluster
	file     string
	lines    []string
	scale    Scale

	// Upload measurements.
	hailSum   core.UploadSummary
	hadoopSum hadoop.UploadSummary
	trojanSum trojan.UploadSummary
	trojanSys *trojan.System
}

func (r *Runner) lines(w Workload) []string {
	if w == UserVisits {
		return workload.GenerateUserVisits(r.UVRows, r.Seed, workload.UserVisitsOptions{
			NeedleEvery: r.UVRows / 12,
		})
	}
	return workload.GenerateSynthetic(r.SynRows, r.Seed)
}

func (r *Runner) blockTextBytes(w Workload, lines []string) int {
	rows := r.UVBlockRows
	if w == Synthetic {
		rows = r.SynBlockRows
	}
	// Average line length × rows per block.
	var total int
	sample := lines
	if len(sample) > 2000 {
		sample = sample[:2000]
	}
	for _, l := range sample {
		total += len(l) + 1
	}
	avg := total / len(sample)
	return avg * rows
}

// hailConfig returns the paper's Bob layout for UserVisits (§6.4.1:
// indexes on visitDate, sourceIP, adRevenue) and attr1/attr2/attr3 for
// Synthetic (only attr1 is ever filtered; §6.2 notes HAIL cannot benefit
// from its other indexes there).
func hailConfig(w Workload, blockSize int) core.LayoutConfig {
	cols := []int{0, 1, 2}
	if w == UserVisits {
		cols = []int{workload.UVVisitDate, workload.UVSourceIP, workload.UVAdRevenue}
	}
	return core.LayoutConfig{Schema: schemaOf(w), SortColumns: cols, BlockSize: blockSize}
}

// schemaOf returns the workload's schema.
func schemaOf(w Workload) *schema.Schema {
	if w == UserVisits {
		return workload.UserVisitsSchema()
	}
	return workload.SyntheticSchema()
}

// trojanIndexColumn: Hadoop++ gets one index for the whole dataset:
// sourceIP for Bob's workload (§6.4.1), attr1 for Synthetic.
func trojanIndexColumn(w Workload) int {
	if w == UserVisits {
		return workload.UVSourceIP
	}
	return 0
}

// freshHAILFixture uploads w into a new cluster under the paper's HAIL
// layout. The fixture is private to the caller — the trajectory
// experiments mutate their cluster (adaptive conversions, evictions, node
// kills), so they must not share state with the memoized static-figure
// fixtures. blockSize picks the block size from the generated lines:
// r.blockTextBytes for the figures' granularity, r.dispatchBlockSize for
// the packing experiments' finer one.
func (r *Runner) freshHAILFixture(w Workload, blockSize func(Workload, []string) int) (*fixture, error) {
	lines := r.lines(w)
	cluster, err := hdfs.NewCluster(r.Nodes)
	if err != nil {
		return nil, err
	}
	client := &core.Client{Cluster: cluster, Config: hailConfig(w, blockSize(w, lines))}
	f := &fixture{workload: w, system: HAIL, cluster: cluster, file: "/" + w.String(), lines: lines}
	f.hailSum, err = client.Upload(f.file, lines)
	if err != nil {
		return nil, err
	}
	f.scale = r.newScale(w, f.hailSum.TextBytes, f.hailSum.Rows, f.hailSum.Blocks)
	return f, nil
}

func (r *Runner) fixture(w Workload, s System) (*fixture, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := fmt.Sprintf("%d-%d", w, s)
	if r.fixtures == nil {
		r.fixtures = make(map[string]*fixture)
	}
	if f, ok := r.fixtures[key]; ok {
		return f, nil
	}
	if s == HAIL {
		f, err := r.freshHAILFixture(w, r.blockTextBytes)
		if err != nil {
			return nil, err
		}
		r.fixtures[key] = f
		return f, nil
	}
	lines := r.lines(w)
	blockSize := r.blockTextBytes(w, lines)
	cluster, err := hdfs.NewCluster(r.Nodes)
	if err != nil {
		return nil, err
	}
	f := &fixture{workload: w, system: s, cluster: cluster, file: "/" + w.String(), lines: lines}

	switch s {
	case Hadoop:
		up := &hadoop.Uploader{Cluster: cluster, BlockSize: blockSize, Replication: 3}
		f.hadoopSum, err = up.Upload(f.file, lines)
		if err != nil {
			return nil, err
		}
		f.scale = r.newScale(w, f.hadoopSum.TextBytes, int64(len(lines)), f.hadoopSum.Blocks)
	case HadoopPP:
		sys := &trojan.System{
			Cluster: cluster, Schema: schemaOf(w), BlockSize: blockSize,
			Replication: 3, IndexColumn: trojanIndexColumn(w),
		}
		f.trojanSys = sys
		f.trojanSum, err = sys.Upload(f.file, lines)
		if err != nil {
			return nil, err
		}
		f.scale = r.newScale(w, f.trojanSum.Text.TextBytes, f.trojanSum.Rows, f.trojanSum.Blocks)
	}
	r.fixtures[key] = f
	return f, nil
}
