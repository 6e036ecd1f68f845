package core

import (
	"testing"

	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// TestStatsDeterministic is the regression test for map-iteration-order
// leakage in the I/O accounting: emitRange used to read the needed
// columns in Go map order, so the seek count of an identical job varied
// run to run (a read is a "seek" when not adjacent to the previous one).
// Columns are now read in ascending order; repeated identical jobs must
// report identical stats — which is also what lets the equivalence
// tests compare runs byte for byte.
func TestStatsDeterministic(t *testing.T) {
	cluster, _, _, _ := uvFixture(t, 4000, workload.UserVisitsOptions{})
	// Filter on one column, project two others: three distinct columns
	// in the needed-set, enough for map order to have scrambled reads.
	q := &query.Query{
		Filter: []query.Predicate{query.Between(workload.UVVisitDate,
			schema.DateVal(schema.MustDate("1999-01-01")),
			schema.DateVal(schema.MustDate("2000-01-01")))},
		Projection: []int{workload.UVSourceIP, workload.UVAdRevenue},
	}
	var first mapred.TaskStats
	for i := 0; i < 10; i++ {
		engine := &mapred.Engine{Cluster: cluster, Parallelism: 1}
		res, err := engine.Run(&mapred.Job{
			Name: "stats-determinism", File: "/uv",
			Input: &InputFormat{Cluster: cluster, Query: q},
			Map:   workload.PassthroughMap,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := res.TotalStats()
		if i == 0 {
			first = st
			if st.Seeks == 0 || st.BytesRead == 0 {
				t.Fatalf("implausible baseline stats: %+v", st)
			}
			continue
		}
		if st != first {
			t.Fatalf("run %d stats diverged:\n%+v\nvs baseline\n%+v", i, st, first)
		}
	}
}
