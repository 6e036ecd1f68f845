package sim

import (
	"testing"
	"testing/quick"
)

const gb = int64(1) << 30

func TestUploadTimeIOBoundPipeline(t *testing.T) {
	// The paper's win-win claim: CPU work below the I/O time adds only the
	// interference fraction β, not its full duration.
	base := UploadCost{DiskReadBytes: 20 * gb, DiskStreamWriteBytes: 60 * gb, NetBytes: 40 * gb}
	t0 := UploadTime(Physical, base)
	withCPU := base
	withCPU.CPUCoreSeconds = 400 // well below I/O time when spread over 4 cores
	t1 := UploadTime(Physical, withCPU)
	if t1 <= t0 {
		t.Error("CPU work should cost something (interference)")
	}
	cpuWall := 400.0 / 4
	if t1-t0 > InterferenceBeta*cpuWall+1e-9 {
		t.Errorf("hidden CPU cost %v exceeds β×wall %v", t1-t0, InterferenceBeta*cpuWall)
	}
}

func TestUploadTimeCPUBoundCrossover(t *testing.T) {
	// On weak CPUs the same work dominates: Table 2(a)'s m1.large case.
	c := UploadCost{
		DiskReadBytes:       20 * gb,
		DiskBlockWriteBytes: 60 * gb,
		NetBytes:            40 * gb,
		CPUCoreSeconds:      8000,
	}
	strong := UploadTime(Physical, c)
	weak := UploadTime(EC2Large, c)
	if weak <= strong {
		t.Errorf("m1.large (%v s) should be slower than physical (%v s)", weak, strong)
	}
	// On m1.large (2 × 0.45 cores) the CPU wall time is 8000/0.9 ≈ 8889 s,
	// far above its disk time; the result must be CPU-dominated.
	if weak < 8000/(2*0.45) {
		t.Errorf("m1.large time %v below its CPU wall time", weak)
	}
}

func TestUploadTimeMonotonicity(t *testing.T) {
	f := func(readGB, writeGB, netGB uint8, cpu uint16) bool {
		c := UploadCost{
			DiskReadBytes:        int64(readGB) * gb,
			DiskStreamWriteBytes: int64(writeGB) * gb,
			NetBytes:             int64(netGB) * gb,
			CPUCoreSeconds:       float64(cpu),
		}
		t0 := UploadTime(Physical, c)
		c2 := c
		c2.DiskStreamWriteBytes += gb
		c3 := c
		c3.CPUCoreSeconds += 100
		c4 := c
		c4.ExtraSeconds += 5
		return UploadTime(Physical, c2) >= t0 && UploadTime(Physical, c3) >= t0 &&
			UploadTime(Physical, c4) > t0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStreamWritesSlowerThanBlockWrites(t *testing.T) {
	stream := UploadCost{DiskStreamWriteBytes: 60 * gb}
	block := UploadCost{DiskBlockWriteBytes: 60 * gb}
	if UploadTime(Physical, stream) <= UploadTime(Physical, block) {
		t.Error("packet-streamed writes should be slower than whole-block flushes")
	}
}

func TestJobTimeDispatchLimited(t *testing.T) {
	// Short tasks: the JobTracker's dispatch rate dominates, which is the
	// paper's core observation in §6.4.1 — Figure 6(a)'s HAIL times are
	// flat across queries despite very different record-reader times.
	fast := JobSpec{NTasks: 3200, TaskSeconds: 0.5, SetupSeconds: 5}
	slow := JobSpec{NTasks: 3200, TaskSeconds: 2.5, SetupSeconds: 5}
	tf := JobTime(Physical, fast)
	ts := JobTime(Physical, slow)
	if ts-tf > 0.05*tf {
		t.Errorf("dispatch-limited jobs should be nearly flat: %v vs %v", tf, ts)
	}
	wantMin := 3200 / DispatchPerSecond
	if tf < wantMin {
		t.Errorf("JobTime %v below dispatch bound %v", tf, wantMin)
	}
}

func TestJobTimeSlotLimited(t *testing.T) {
	// Long tasks: slot capacity dominates (Hadoop full scans).
	j := JobSpec{NTasks: 3200, TaskSeconds: 7, SetupSeconds: 5}
	got := JobTime(Physical, j)
	want := 5 + 160*7.0 // 160 waves of 20 slots
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("JobTime = %v, want %v", got, want)
	}
}

func TestJobTimeFewTasks(t *testing.T) {
	// HailSplitting's 20-task jobs: dominated by setup + one task.
	j := JobSpec{NTasks: 20, TaskSeconds: 8, SetupSeconds: 4}
	got := JobTime(Physical, j)
	if got != 4+8 { // one wave of 20 tasks on 20 slots
		t.Errorf("JobTime(20 tasks) = %v, want 12", got)
	}
	if JobTime(Physical, JobSpec{SetupSeconds: 3}) != 3 {
		t.Error("zero-task job should cost setup only")
	}
}

func TestIdealJobTime(t *testing.T) {
	j := JobSpec{NTasks: 3200, TaskSeconds: 2}
	got := IdealJobTime(Physical, j)
	want := 3200.0 / 20 * 2
	if got != want {
		t.Errorf("IdealJobTime = %v, want %v", got, want)
	}
	// T_ideal must be far below T_end-to-end for short tasks (Fig. 6c).
	e2e := JobTime(Physical, JobSpec{NTasks: 3200, TaskSeconds: 0.5, SetupSeconds: 5})
	ideal := IdealJobTime(Physical, JobSpec{NTasks: 3200, TaskSeconds: 0.5})
	if ideal > e2e/3 {
		t.Errorf("framework overhead should dominate: ideal=%v e2e=%v", ideal, e2e)
	}
	if half := IdealJobTime(Physical, JobSpec{NTasks: 10, TaskSeconds: 2}); half != 2 {
		t.Errorf("sub-wave job ideal = %v, want one task time", half)
	}
}

func TestWithNodes(t *testing.T) {
	p := EC2Quad.WithNodes(100)
	if p.Nodes != 100 || EC2Quad.Nodes != 10 {
		t.Error("WithNodes must copy, not mutate")
	}
	// Scale-out: more nodes = more slots = faster slot-limited jobs.
	j := JobSpec{NTasks: 3200, TaskSeconds: 20}
	if JobTime(p, j) >= JobTime(EC2Quad, j) {
		t.Error("100 nodes not faster than 10 for slot-limited job")
	}
}

func TestCalibrationFigure4aShape(t *testing.T) {
	// Smoke-check the calibrated constants against Figure 4(a)'s shape:
	// uploading 20 GB/node of UserVisits with replication 3.
	// Real byte ratios come from the workload package; here we use the
	// approximate ratio binary≈text for UserVisits.
	text := int64(20) * gb
	bin := int64(float64(text) * 1.05)
	hadoop := UploadTime(Physical, UploadCost{
		DiskReadBytes:        text,
		DiskStreamWriteBytes: 3 * text,
		NetBytes:             2 * text,
		CPUCoreSeconds:       float64(3*text) / (ChecksumMBps * 1e6),
	})
	hailCost := func(indexes int) UploadCost {
		cpu := float64(text)/(ParseMBps*1e6) +
			float64(indexes)*float64(bin)/(SortIndexMBps*1e6) +
			float64(3*bin)/(SerializeMBps*1e6) +
			float64(3*bin)/(ChecksumMBps*1e6)
		return UploadCost{
			DiskReadBytes:       text,
			DiskBlockWriteBytes: 3 * bin,
			NetBytes:            2 * bin,
			CPUCoreSeconds:      cpu,
		}
	}
	hail0 := UploadTime(Physical, hailCost(0))
	hail3 := UploadTime(Physical, hailCost(3))

	// Shape assertions from the paper: HAIL-0 within ~5% of Hadoop,
	// HAIL-3 overhead under ~20%, and both in the right order.
	if ratio := hail0 / hadoop; ratio < 0.90 || ratio > 1.10 {
		t.Errorf("HAIL-0/Hadoop = %.3f, want ≈1 (paper: 1.02)", ratio)
	}
	if ratio := hail3 / hadoop; ratio < 0.95 || ratio > 1.25 {
		t.Errorf("HAIL-3/Hadoop = %.3f, want ≈1.1 (paper: 1.14)", ratio)
	}
	if hail3 <= hail0 {
		t.Error("indexes must not be free")
	}
	// And absolute scale: the paper's Hadoop upload is 1,398 s; stay in
	// the same ballpark so reported numbers are recognizable.
	if hadoop < 1000 || hadoop > 2100 {
		t.Errorf("Hadoop UserVisits upload = %.0f s, want ~1400 s", hadoop)
	}
}
