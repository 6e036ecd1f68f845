package experiments

import "testing"

func TestExpServeQuick(t *testing.T) {
	r := NewQuickRunner()
	rep, err := r.ExpServe(UserVisits, 64, 4)
	if err != nil {
		t.Fatalf("ExpServe: %v (report: %+v)", err, rep)
	}
	if rep.Queries != 64 {
		t.Errorf("queries = %d, want 64", rep.Queries)
	}
	if rep.Mismatches != 0 || rep.Errors != 0 || rep.Rejected != 0 {
		t.Errorf("storm not clean: %+v", rep)
	}
	if rep.P50Ms <= 0 || rep.P99Ms <= 0 || rep.P99Ms < rep.P50Ms {
		t.Errorf("bad latency quantiles: p50=%v p99=%v", rep.P50Ms, rep.P99Ms)
	}
	if rep.ThroughputQPS <= 0 {
		t.Errorf("throughput = %v", rep.ThroughputQPS)
	}
	if rep.CacheHits == 0 {
		t.Error("storm produced no shared-cache hits")
	}
	if rep.AdaptiveReplicas == 0 {
		t.Error("warmup built no adaptive replicas")
	}
	if rep.ColdLane == 0 {
		t.Error("storm had no cold lane")
	}
}
