// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): Runner's figure methods (Fig4a, Table2a, …, the
// ablations) each return one, and its ExpXxx methods run the trajectory
// experiments beyond the paper (adaptive indexing, result cache,
// scan-split packing, resident server).
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
	"repro/internal/query"
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

// Paper-scale constants (§6.1–6.2): 10 nodes by default, 64 MB blocks;
// each dataset's size per node is in its spec.
const (
	PaperBlockMB   = 64.0
	paperBlockText = PaperBlockMB * 1e6 * 1.048576 // 64 MiB in bytes
)

// Runner executes experiments. Its knobs trade laptop runtime against
// partition-granularity fidelity: more rows per block means the sparse
// index's 1,024-row partitions resolve selectivities more precisely.
type Runner struct {
	Profile sim.Profile
	// Real-execution sizes, the same for both datasets.
	Rows      int // total rows generated
	BlockRows int // rows per block (× ~115 B/row = block text size)
	Seed      int64
	Nodes     int // real cluster size (also the simulated node count)

	mu       sync.Mutex
	fixtures map[string]*fixture
}

// NewRunner returns a Runner with full-fidelity defaults: ~64 partitions
// per block so that index-scan fractions are within ~2% of paper-scale.
func NewRunner() *Runner {
	return &Runner{
		Profile:   sim.Physical,
		Rows:      640_000,
		BlockRows: 64_000,
		Seed:      2012,
		Nodes:     10,
	}
}

// NewQuickRunner returns a Runner sized for tests: small data, fewer
// partitions per block (coarser index pruning, same code paths).
func NewQuickRunner() *Runner {
	r := NewRunner()
	r.Rows = 40_000
	r.BlockRows = 4_000
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
func (w Workload) String() string { return specs[w].name }

// spec is what the experiments know about one dataset.
type spec struct {
	name     string
	label    string // its workload's name in Fig9c
	schema   *schema.Schema
	generate func(rows int, seed int64) []string
	// gbPerNode is the paper-scale input per node (§6.2).
	gbPerNode float64
	// sortCols are HAIL's three replicas' sort columns; trojanCol is the
	// one index Hadoop++ gets for the whole dataset.
	sortCols  []int
	trojanCol int
	queries   func() []workload.BenchQuery
	// adaptive and shift filter on two attributes the static layout never
	// indexes: the adaptive trajectory's phases A and B.
	adaptive, shift *query.Query
	// hot are the serve storm's selections on statically indexed
	// attributes, beside adaptive.
	hot []string
}

// specs holds each dataset's spec, indexed by Workload. UserVisits is
// Bob's layout (§6.4.1: indexes on visitDate, sourceIP, adRevenue;
// Hadoop++ on sourceIP). Synthetic sorts on attr1..attr3 and Hadoop++
// indexes attr1: only attr1 is ever filtered, so §6.2 notes HAIL cannot
// benefit from its other indexes there.
var specs = [...]spec{
	UserVisits: {
		name: "UserVisits", label: "Bob", schema: workload.UserVisitsSchema(),
		generate: func(rows int, seed int64) []string {
			return workload.GenerateUserVisits(rows, seed, workload.UserVisitsOptions{NeedleEvery: rows / 12})
		},
		gbPerNode: 20,
		sortCols:  []int{workload.UVVisitDate, workload.UVSourceIP, workload.UVAdRevenue},
		trojanCol: workload.UVSourceIP,
		queries:   workload.BobQueries,
		adaptive:  annotated(workload.UserVisitsSchema(), `@HailQuery(filter="@9 between(100,199)", projection={@1})`), // duration
		shift:     annotated(workload.UserVisitsSchema(), `@HailQuery(filter="@8 between(h,n)", projection={@1})`),     // searchWord
		hot: []string{
			`@HailQuery(filter="@3 between(1999-01-01,2000-01-01)", projection={@1})`,
			`@HailQuery(filter="@3 between(1995-01-01,1996-06-30)", projection={@1,@4})`,
		},
	},
	Synthetic: {
		name: "Synthetic", label: "Synthetic", schema: workload.SyntheticSchema(),
		generate:  workload.GenerateSynthetic,
		gbPerNode: 13,
		sortCols:  []int{0, 1, 2},
		trojanCol: 0,
		queries:   workload.SynQueries,
		adaptive:  annotated(workload.SyntheticSchema(), `@HailQuery(filter="@10 between(0,1048576)", projection={@1})`),
		shift:     annotated(workload.SyntheticSchema(), `@HailQuery(filter="@9 between(0,1048576)", projection={@1})`),
		hot: []string{
			`@HailQuery(filter="@1 between(0,40000)", projection={@2})`,
			`@HailQuery(filter="@2 between(0,80000)", projection={@1,@3})`,
		},
	},
}

// annotated parses one of the specs' static annotations, panicking on
// error.
func annotated(s *schema.Schema, ann string) *query.Query {
	q, err := query.ParseAnnotation(s, ann)
	if err != nil {
		panic(err)
	}
	return q
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

// blockTextBytes is the text size of a block of rows lines, at the
// average line length of the first 2,000.
func blockTextBytes(lines []string, rows int) int {
	sample := lines[:min(len(lines), 2000)]
	total := 0
	for _, l := range sample {
		total += len(l) + 1
	}
	return total / len(sample) * rows
}

// freshHAILFixture uploads w into a new cluster, blockRows rows a block,
// with its replicas sorted on sortCols. The fixture is private to the
// caller — the trajectory experiments mutate their cluster (adaptive
// conversions, evictions, node kills), so they must not share state with
// the memoized static-figure fixtures.
func (r *Runner) freshHAILFixture(w Workload, blockRows int, sortCols []int) (*fixture, error) {
	s := &specs[w]
	lines := s.generate(r.Rows, r.Seed)
	cluster, err := hdfs.NewCluster(r.Nodes)
	if err != nil {
		return nil, err
	}
	client := &core.Client{Cluster: cluster, Config: core.LayoutConfig{
		Schema: s.schema, SortColumns: sortCols, BlockSize: blockTextBytes(lines, blockRows),
	}}
	f := &fixture{workload: w, system: HAIL, cluster: cluster, file: "/" + s.name, lines: lines}
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
		f, err := r.freshHAILFixture(w, r.BlockRows, specs[w].sortCols)
		if err != nil {
			return nil, err
		}
		r.fixtures[key] = f
		return f, nil
	}
	lines := specs[w].generate(r.Rows, r.Seed)
	blockSize := blockTextBytes(lines, r.BlockRows)
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
			Cluster: cluster, Schema: specs[w].schema, BlockSize: blockSize,
			Replication: 3, IndexColumn: specs[w].trojanCol,
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
