package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hadoop"
	"repro/internal/mapred"
	"repro/internal/pax"
	"repro/internal/sim"
	"repro/internal/trojan"
	"repro/internal/workload"
)

// SplitsPerNodePaper is HailSplitting's splits-per-tracker setting; with
// 10 nodes it yields the paper's 20 map tasks (§6.5: "from 3,200 ... to
// only 20").
const SplitsPerNodePaper = 2

// runQuery executes one benchmark query for real on a fixture. The
// experiments price a query by its stats; none reads its rows.
func (r *Runner) runQuery(f *fixture, bq workload.BenchQuery, splitting bool) (*mapred.JobResult, error) {
	return (&mapred.Engine{Cluster: f.cluster}).Stream(context.Background(), queryJob(f, bq, splitting), nil)
}

// queryJob is the job that runs bq on f's system: Hadoop's map splits,
// filters and projects each text line; HAIL's and Hadoop++'s readers
// deliver the rows filtered and projected, so their jobs are passthroughs.
func queryJob(f *fixture, bq workload.BenchQuery, splitting bool) *mapred.Job {
	job := &mapred.Job{Name: bq.Name, File: f.file}
	switch f.system {
	case Hadoop:
		job.Input = &hadoop.TextInputFormat{Cluster: f.cluster}
		job.MapBatch = hadoop.Map(specs[f.workload].schema, bq.Query)
	case HadoopPP:
		job.Input = &trojan.InputFormat{System: f.trojanSys, Query: bq.Query}
	case HAIL:
		job.Input = &core.InputFormat{
			Cluster: f.cluster, Query: bq.Query,
			Splitting: splitting, SplitsPerNode: SplitsPerNodePaper,
		}
	}
	return job
}

// queryCost is the scaled per-block and per-job cost decomposition of a
// measured query run.
type queryCost struct {
	perBlockIO     float64 // seeks + data bytes, seconds
	perBlockRRCPU  float64 // record-reader CPU: scan/deliver/reconstruct
	perBlockMapCPU float64 // user map-function CPU (Hadoop's string split)
	perBlockOut    float64 // replicated output write
	setup          float64 // job setup incl. split-phase I/O
}

// cost converts a measured JobResult into paper-scale per-block costs.
func (r *Runner) cost(f *fixture, res *mapred.JobResult) queryCost {
	p := r.Profile
	st := res.TotalStats()
	nb := float64(f.scale.RealBlocks)
	rs := f.scale.RowScale

	// Partition-bounded reads (PAX index scans) do not grow with block
	// size: a point lookup touches one 1,024-row partition at 4,000 rows
	// per block and at 500,000. Scale the data bytes of such reads by the
	// ratio of *partition counts*, with the measured partition count as a
	// floor; proportional reads (full scans, text scans) use RowScale.
	dataScale := rs
	if st.PartitionsScanned > 0 && st.Blocks > 0 {
		partsPerBlock := float64(st.PartitionsScanned) / float64(st.Blocks)
		realParts := math.Ceil(f.scale.RealRowsPerBlock / pax.PartitionSize)
		paperParts := f.scale.PaperRowsPerBlock / pax.PartitionSize
		if partsPerBlock < realParts {
			scaledParts := (partsPerBlock - 1) / realParts * paperParts
			if scaledParts < partsPerBlock {
				scaledParts = partsPerBlock
			}
			dataScale = scaledParts / partsPerBlock
		}
	}

	seeks := float64(st.Seeks) / nb
	bytes := float64(st.BytesRead)/nb*dataScale + float64(st.IndexBytesRead)/nb*rs
	io := seeks*p.SeekMS/1e3 + bytes/(p.DiskMBps*1e6)

	delivered := float64(st.RecordsDelivered) / nb * rs
	scanned := float64(st.RecordsScanned) / nb * rs
	attrs := float64(st.AttrsDelivered) / nb * rs
	textParsed := float64(st.TextBytesParsed) / nb * rs

	var rrCPU, mapCPU float64
	switch f.system {
	case Hadoop:
		rrCPU = textParsed/(sim.LineScanMBps*1e6) + delivered*sim.RecordDeliverHadoop
		mapCPU = delivered * sim.RecordSplitHadoop
	case HadoopPP:
		rrCPU = scanned * sim.RecordDeliverTrojan
	case HAIL:
		rrCPU = delivered*sim.RecordDeliverHAIL + attrs*sim.RecordReconstructHAIL
	}
	rrCPU /= p.CPUFactor
	mapCPU /= p.CPUFactor

	const outputReplication = 3
	out := float64(st.OutputBytes) / nb * rs * outputReplication / (p.DiskMBps * 1e6)

	// Split-phase I/O scales with the paper-scale block count (Hadoop++
	// reads every block header).
	blockScale := float64(f.scale.PaperBlocks) / nb
	sp := res.SplitPhase
	setup := sim.JobSetupSeconds +
		float64(sp.Seeks)*blockScale*p.SeekMS/1e3 +
		float64(sp.BytesRead)*blockScale*rs/(p.DiskMBps*1e6)

	return queryCost{
		perBlockIO:     io,
		perBlockRRCPU:  rrCPU,
		perBlockMapCPU: mapCPU,
		perBlockOut:    out,
		setup:          setup,
	}
}

// rrSeconds is the record-reader time of one map task (Figures 6(b),
// 7(b)): task setup plus the per-block read work, excluding the user map
// function and output writing.
func (c queryCost) rrSeconds(blocksPerTask float64) float64 {
	return sim.TaskFixedSeconds + blocksPerTask*(c.perBlockIO+c.perBlockRRCPU)
}

// taskSeconds is the full map-task duration.
func (c queryCost) taskSeconds(blocksPerTask float64) float64 {
	extra := 0.0
	if blocksPerTask > 1 {
		extra = blocksPerTask * sim.BlockOpenSeconds
	}
	return c.rrSeconds(blocksPerTask) + extra +
		blocksPerTask*(c.perBlockMapCPU+c.perBlockOut)
}

// jobTimes evaluates the end-to-end model for a measured query run.
// ideal follows the paper's definition (§6.4.1): T_ideal = #MapTasks /
// #ParallelMapTasks × Avg(T_RecordReader) — record-reader time only, no
// scheduling, map-function or output cost.
func (r *Runner) jobTimes(f *fixture, res *mapred.JobResult, splitting bool) (e2e, rr, ideal float64) {
	c := r.cost(f, res)
	nTasks := f.scale.PaperBlocks
	blocksPerTask := 1.0
	if splitting {
		nTasks = r.Nodes * SplitsPerNodePaper
		blocksPerTask = float64(f.scale.PaperBlocks) / float64(nTasks)
	}
	task := c.taskSeconds(blocksPerTask)
	spec := sim.JobSpec{NTasks: nTasks, TaskSeconds: task, SetupSeconds: c.setup}
	idealSpec := sim.JobSpec{NTasks: nTasks, TaskSeconds: c.rrSeconds(blocksPerTask)}
	return sim.JobTime(r.Profile, spec), c.rrSeconds(1), sim.IdealJobTime(r.Profile, idealSpec)
}

// mixedJobTimes is the end-to-end model for a job under HailSplitting
// whose splits are mixed: a scanFrac share of the file's blocks runs as
// per-block scan tasks, which scale with the paper-scale block count, and
// the rest is packed into packedTasks splits, whose count depends on the
// cluster, not the data (§4.3). A job of many per-block tasks is
// dominated by the per-task dispatch bound (the paper's framework
// overhead, §6.4.1), a packed one by the small per-block work. jobTimes
// cannot price it: it assumes every task of a splitting job is packed.
// It also reports the slot-parallel map-work component on its own, where
// a result cache's savings show, and the job's paper-scale task count.
func (r *Runner) mixedJobTimes(f *fixture, res *mapred.JobResult, scanFrac, packedTasks float64) (e2e, workSeconds, paperTasks float64) {
	c := r.cost(f, res)
	paperBlocks := float64(f.scale.PaperBlocks)
	scanTasks := scanFrac * paperBlocks
	packedBlocks := paperBlocks - scanTasks
	perBlock := c.perBlockIO + c.perBlockRRCPU + c.perBlockMapCPU + c.perBlockOut
	work := paperBlocks*perBlock +
		(scanTasks+packedTasks)*sim.TaskFixedSeconds +
		packedBlocks*sim.BlockOpenSeconds
	workSeconds = work / float64(r.Profile.Nodes*sim.SlotsPerNode)
	execute := max(workSeconds, (scanTasks+packedTasks)/sim.DispatchPerSecond)
	return c.setup + execute, workSeconds, scanTasks + packedTasks
}

// queryFigure runs all of a workload's queries on all three systems and
// reports one of three projections of the result: end-to-end runtime,
// record-reader time, or framework overhead.
type queryMetric int

const (
	metricEndToEnd queryMetric = iota
	metricRecordReader
	metricOverhead
)

func (r *Runner) queryFigure(id, title string, w Workload, m queryMetric, hailSplitting bool) (*Figure, error) {
	unit := "s"
	if m == metricRecordReader {
		unit = "ms"
	}
	fig := &Figure{ID: id, Title: title, Unit: unit}
	for _, sys := range []System{Hadoop, HadoopPP, HAIL} {
		f, err := r.fixture(w, sys)
		if err != nil {
			return nil, err
		}
		var pts []Point
		for _, bq := range specs[w].queries() {
			splitting := hailSplitting && sys == HAIL
			res, err := r.runQuery(f, bq, splitting)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %v", bq.Name, sys, err)
			}
			e2e, rr, ideal := r.jobTimes(f, res, splitting)
			var v float64
			switch m {
			case metricEndToEnd:
				v = e2e
			case metricRecordReader:
				v = rr * 1e3
			case metricOverhead:
				v = e2e - ideal
			}
			pts = append(pts, Point{bq.Name, v})
		}
		fig.Series = append(fig.Series, Series{Label: sys.String(), Points: pts})
	}
	return fig, nil
}

// Fig6a: end-to-end Bob query runtimes, HailSplitting disabled (§6.4.1).
func (r *Runner) Fig6a() (*Figure, error) {
	return r.queryFigure("Fig6a", "End-to-end job runtimes, Bob's workload (no HailSplitting)",
		UserVisits, metricEndToEnd, false)
}

// Fig6b: average record-reader times for Bob's workload.
func (r *Runner) Fig6b() (*Figure, error) {
	return r.queryFigure("Fig6b", "Record-reader runtimes, Bob's workload",
		UserVisits, metricRecordReader, false)
}

// Fig6c: Hadoop framework overhead (T_end-to-end − T_ideal) for Bob's
// workload.
func (r *Runner) Fig6c() (*Figure, error) {
	return r.queryFigure("Fig6c", "Framework overhead, Bob's workload",
		UserVisits, metricOverhead, false)
}

// Fig7a: end-to-end Synthetic query runtimes (no HailSplitting).
func (r *Runner) Fig7a() (*Figure, error) {
	return r.queryFigure("Fig7a", "End-to-end job runtimes, Synthetic workload (no HailSplitting)",
		Synthetic, metricEndToEnd, false)
}

// Fig7b: record-reader times for the Synthetic workload.
func (r *Runner) Fig7b() (*Figure, error) {
	return r.queryFigure("Fig7b", "Record-reader runtimes, Synthetic workload",
		Synthetic, metricRecordReader, false)
}

// Fig7c: framework overhead for the Synthetic workload.
func (r *Runner) Fig7c() (*Figure, error) {
	return r.queryFigure("Fig7c", "Framework overhead, Synthetic workload",
		Synthetic, metricOverhead, false)
}

// Fig9a: Bob queries with HailSplitting enabled (§6.5).
func (r *Runner) Fig9a() (*Figure, error) {
	return r.queryFigure("Fig9a", "End-to-end job runtimes, Bob's workload (HailSplitting on)",
		UserVisits, metricEndToEnd, true)
}

// Fig9b: Synthetic queries with HailSplitting enabled.
func (r *Runner) Fig9b() (*Figure, error) {
	return r.queryFigure("Fig9b", "End-to-end job runtimes, Synthetic workload (HailSplitting on)",
		Synthetic, metricEndToEnd, true)
}

// Fig9c: total workload runtimes — the sum over each workload's queries,
// with HailSplitting on for HAIL (the paper's 39× / 9× headline).
func (r *Runner) Fig9c() (*Figure, error) {
	fig := &Figure{ID: "Fig9c", Title: "Total workload runtimes (HailSplitting on for HAIL)", Unit: "s"}
	for _, sys := range []System{Hadoop, HadoopPP, HAIL} {
		var pts []Point
		for _, w := range []Workload{UserVisits, Synthetic} {
			f, err := r.fixture(w, sys)
			if err != nil {
				return nil, err
			}
			total := 0.0
			for _, bq := range specs[w].queries() {
				splitting := sys == HAIL
				res, err := r.runQuery(f, bq, splitting)
				if err != nil {
					return nil, err
				}
				e2e, _, _ := r.jobTimes(f, res, splitting)
				total += e2e
			}
			pts = append(pts, Point{specs[w].label, total})
		}
		fig.Series = append(fig.Series, Series{Label: sys.String(), Points: pts})
	}
	return fig, nil
}
