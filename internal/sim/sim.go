// Package sim models the cluster hardware of the paper's experiments
// (§6.1): a 10-node physical cluster and EC2 m1.large / m1.xlarge /
// cc1.4xlarge clusters of 10–100 nodes.
//
// The storage and MapReduce substrates in this repository execute real work
// on real bytes, but at laptop scale. sim converts their measured resource
// counts (bytes written, bytes read, seeks, records, CPU work) into
// simulated wall-clock seconds at paper scale, using per-profile hardware
// rates and a block scale factor. All reported experiment times are
// simulated seconds from this model; all query *results* are real.
//
// The upload model captures the paper's central pipelining claim (§2.3):
// the HDFS upload pipeline is I/O bound, so HAIL's extra CPU work (parsing
// to binary, sorting, index creation, checksum recomputation) mostly hides
// behind disk and network time. A node's upload time is
//
//	T = max(T_disk, T_net, T_cpu) + β·min(T_cpu, max(T_disk, T_net))
//
// where β is a small interference coefficient modelling the residual
// slowdown CPU work imposes on an I/O-bound pipeline (memory-bandwidth
// contention with DMA, deferred flushes waiting for sorts). β and the rate
// constants are calibrated once, in calibration.go, against the paper's
// Figure 4; every other figure uses the same constants.
package sim

import "fmt"

// Profile describes one cluster configuration.
type Profile struct {
	Name  string
	Nodes int // datanodes (the namenode/jobtracker are separate, §6.3.4)

	// CPU.
	Cores     int     // cores per node
	CPUFactor float64 // relative per-core speed, 1.0 = physical node

	// Disk. DiskMBps is the effective sequential bandwidth of the node's
	// disk array for large block I/O. StreamWriteEff discounts
	// packet-streamed HDFS writes, which interleave data and checksum
	// file appends in 64 KB packets; HAIL flushes whole sorted blocks and
	// writes at full rate (paper §3.2).
	DiskMBps       float64
	StreamWriteEff float64
	SeekMS         float64

	// Network.
	NetMBps float64
}

// The clusters of §6.1. EC2 rates are set relative to the physical node so
// that Table 2's scale-up speedups reproduce: m1.large nodes have weak CPUs
// (HAIL becomes CPU bound on UserVisits), cc1.4xlarge strong ones.
var (
	Physical = Profile{
		Name: "physical", Nodes: 10,
		Cores: 4, CPUFactor: 1.0,
		DiskMBps: 53, StreamWriteEff: 0.85, SeekMS: 5,
		NetMBps: 119,
	}
	EC2Large = Profile{
		Name: "m1.large", Nodes: 10,
		Cores: 2, CPUFactor: 0.45,
		DiskMBps: 50, StreamWriteEff: 0.85, SeekMS: 6,
		NetMBps: 80,
	}
	EC2XLarge = Profile{
		Name: "m1.xlarge", Nodes: 10,
		Cores: 4, CPUFactor: 0.55,
		DiskMBps: 71, StreamWriteEff: 0.85, SeekMS: 6,
		NetMBps: 100,
	}
	EC2Quad = Profile{
		Name: "cc1.4xlarge", Nodes: 10,
		Cores: 8, CPUFactor: 0.75,
		DiskMBps: 72, StreamWriteEff: 0.85, SeekMS: 5,
		NetMBps: 200,
	}
)

// WithNodes returns a copy of the profile with a different cluster size
// (scale-out experiments, §6.3.4).
func (p Profile) WithNodes(n int) Profile {
	p.Nodes = n
	return p
}

// UploadCost aggregates the per-node resource demand of an upload. The
// experiment harness fills it from real measured byte counts scaled to
// paper size.
type UploadCost struct {
	DiskReadBytes        int64 // source file bytes read from local disk
	DiskStreamWriteBytes int64 // bytes written via the packet-streamed path
	DiskBlockWriteBytes  int64 // bytes written as whole sorted blocks (HAIL)
	NetBytes             int64 // max of bytes in / bytes out over the NIC
	CPUCoreSeconds       float64
	// ExtraSeconds adds serial phases that overlap nothing (e.g. the
	// trojan-index MapReduce jobs' setup barriers).
	ExtraSeconds float64
}

// UploadTime evaluates the upload interference model for one node of p.
// All nodes are symmetric, so this is also the cluster upload time.
func UploadTime(p Profile, c UploadCost) float64 {
	disk := (float64(c.DiskReadBytes) +
		float64(c.DiskStreamWriteBytes)/p.StreamWriteEff +
		float64(c.DiskBlockWriteBytes)) / (p.DiskMBps * 1e6)
	net := float64(c.NetBytes) / (p.NetMBps * 1e6)
	cpu := c.CPUCoreSeconds / (float64(p.Cores) * p.CPUFactor)
	io := disk
	if net > io {
		io = net
	}
	t := io
	if cpu > t {
		t = cpu
	}
	lo := cpu
	if io < lo {
		lo = io
	}
	return t + InterferenceBeta*lo + c.ExtraSeconds
}

// JobSpec describes a MapReduce job for the end-to-end runtime model.
type JobSpec struct {
	NTasks       int
	TaskSeconds  float64 // average task duration (experiments' queryCost.taskSeconds)
	SetupSeconds float64 // job client split phase + submission
}

// Job scheduling constants (see calibration.go for how they were fixed).
const (
	// SlotsPerNode is the number of concurrent map tasks per TaskTracker
	// (Hadoop's default of 2 map slots, which the paper's overhead
	// analysis in §6.4.1 reflects).
	SlotsPerNode = 2

	// DispatchPerSecond is the global rate at which the JobTracker can
	// schedule, launch and commit tasks. The paper measures that "to
	// schedule a single task, Hadoop spends several seconds" (§6.4.1);
	// with heartbeat scheduling the JobTracker sustains only a few task
	// launches per second across the cluster, which is why 3,200-task
	// jobs take ~600 s even when each task runs for milliseconds.
	DispatchPerSecond = 5.35

	// InterferenceBeta is the upload model's CPU/I-O interference
	// coefficient.
	InterferenceBeta = 0.20

	// ExpirySeconds is the failure-detection interval used in the
	// fault-tolerance experiment (§6.4.3 sets it to 30 s).
	ExpirySeconds = 30
)

// JobTime evaluates the end-to-end job runtime model. Execution proceeds in
// waves of up to nodes×SlotsPerNode concurrent tasks, and in parallel the
// JobTracker can dispatch at most DispatchPerSecond tasks per second; the
// job ends when the slower of the two finishes. For 3,200 short tasks the
// dispatch bound dominates — the paper's framework-overhead observation
// (§6.4.1) and the reason Figure 6(a)'s HAIL bars are flat across queries.
func JobTime(p Profile, j JobSpec) float64 {
	if j.NTasks == 0 {
		return j.SetupSeconds
	}
	slots := p.Nodes * SlotsPerNode
	waves := (j.NTasks + slots - 1) / slots
	execute := float64(waves) * j.TaskSeconds
	dispatch := float64(j.NTasks) / DispatchPerSecond
	if dispatch > execute {
		execute = dispatch
	}
	return j.SetupSeconds + execute
}

// IdealJobTime is the paper's T_ideal (§6.4.1): the time to read all input
// and run the map functions at full slot parallelism, with no framework
// overhead: #MapTasks/#ParallelMapTasks × Avg(T_RecordReader).
func IdealJobTime(p Profile, j JobSpec) float64 {
	slots := float64(p.Nodes * SlotsPerNode)
	waves := float64(j.NTasks) / slots
	if waves < 1 {
		waves = 1
	}
	return waves * j.TaskSeconds
}

// String implements fmt.Stringer for profiles.
func (p Profile) String() string {
	return fmt.Sprintf("%s×%d", p.Name, p.Nodes)
}
