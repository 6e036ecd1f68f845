package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/server"
)

// ExpServe measures the resident query server (haild) under a concurrent
// multi-tenant storm: hundreds of in-flight queries over a hot/cold cache
// mix, all sharing ONE result cache and ONE adaptive indexer, with every
// response checked against an isolated serial reference run.
//
// Phases:
//
//  1. upload the workload and save it as a filesystem directory; compute
//     each query shape's reference rows serially on a private cluster
//     with no cache and no adaptive indexer;
//  2. boot a server.Server over the directory and run the adaptive query
//     serially until it converges to all-index-scan execution, so the
//     storm runs over a static replica topology;
//  3. fire `queries` concurrent POST /query requests over real HTTP —
//     several query shapes, `tenants` tenants, a NoCache cold lane, and
//     mixed splitting/pack-scans knobs — and require every response to be
//     byte-equivalent (as a sorted row multiset) to its reference;
//  4. report latency quantiles from the server's own
//     server.query_seconds obs histogram, plus throughput and the shared
//     cache/indexer counters.
//
// Unlike the simulated figures, the reported milliseconds here are real
// wall-clock numbers on real laptop-scale data — the experiment is about
// the server's concurrency behavior, not paper-scale projection.

// ServeReport is the result of the server storm experiment
// (BENCH_serve.json).
type ServeReport struct {
	Workload    string `json:"workload"`
	Queries     int    `json:"queries"` // successful (HTTP 200) queries
	Tenants     int    `json:"tenants"`
	MaxInFlight int    `json:"max_in_flight"`
	WarmupJobs  int    `json:"warmup_jobs"` // serial adaptive jobs to convergence
	// Mismatches counts storm responses whose sorted rows differed from
	// the serial reference (the run fails unless 0).
	Mismatches int   `json:"mismatches"`
	Rejected   int64 `json:"rejected"`  // 429s (storm sizing should keep this 0)
	Errors     int   `json:"errors"`    // non-200, non-429 responses
	ColdLane   int   `json:"cold_lane"` // NoCache queries in the storm

	// Latency quantiles from the server's own obs histogram
	// (server.query_seconds: execution time of admitted queries).
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	// QueueWaitP99Ms is the p99 of time spent waiting for an admission
	// slot (server.queue_wait_seconds).
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`
	// ThroughputQPS is successful queries over the storm's wall-clock.
	ThroughputQPS float64 `json:"throughput_qps"`
	WallMs        float64 `json:"wall_ms"`

	// Shared-state counters after the storm.
	CacheHits        int64 `json:"cache_hits"`
	CacheEntries     int   `json:"cache_entries"`
	AdaptiveReplicas int   `json:"adaptive_replicas"`
}

// ExpServe runs the storm: `queries` concurrent requests (≥ 16) across
// `tenants` tenants (≥ 1). The returned error is non-nil if any response
// failed or diverged from the serial reference — the report is returned
// alongside for diagnosis.
func (r *Runner) ExpServe(w Workload, queries, tenants int) (*ServeReport, error) {
	if queries < 16 {
		return nil, fmt.Errorf("serve: need at least 16 queries, got %d", queries)
	}
	if tenants < 1 {
		tenants = 1
	}

	// Phase 1: a private fixture. The in-memory cluster computes the
	// serial references; its saved directory is what the server loads —
	// the two share no state, so reference rows cannot be contaminated by
	// the storm's cache entries or adaptive builds.
	f, err := r.freshHAILFixture(w, r.BlockRows, specs[w].sortCols)
	if err != nil {
		return nil, err
	}
	cluster, file := f.cluster, f.file
	dir, err := os.MkdirTemp("", "hail-serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := cluster.Save(dir); err != nil {
		return nil, err
	}

	// The storm's shapes: two hot selections on statically indexed
	// attributes plus the adaptive-territory selection.
	adaptiveAnn := specs[w].adaptive.String()
	shapes := append(append([]string(nil), specs[w].hot...), adaptiveAnn)
	refRows := make(map[string]map[string]int, len(shapes))
	for _, ann := range shapes {
		q, err := query.ParseAnnotation(specs[w].schema, ann)
		if err != nil {
			return nil, fmt.Errorf("serve: %v", err)
		}
		if refRows[ann], err = reference(f, q); err != nil {
			return nil, err
		}
	}

	// Phase 2: the server, plus serial adaptive warmup to convergence so
	// the storm measures a steady-state topology.
	const maxInFlight = 32
	srv, err := server.New(server.Config{
		FSDir:        dir,
		MaxInFlight:  maxInFlight,
		QueueTimeout: 2 * time.Minute, // storms queue, they must not 429
		OfferRate:    1.0,
		Parallelism:  2, // many concurrent engines; keep each one narrow
		Logger:       slog.New(slog.DiscardHandler),
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close() //lint:allow errsink best-effort teardown after the experiment's results are gathered
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(req server.QueryRequest) (*server.QueryResponse, int, error) {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, resp.StatusCode, nil
		}
		var qr server.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			return nil, resp.StatusCode, err
		}
		return &qr, resp.StatusCode, nil
	}

	rep := &ServeReport{
		Workload:    w.String(),
		Tenants:     tenants,
		MaxInFlight: maxInFlight,
	}
	for i := 0; i < 20; i++ {
		qr, code, err := post(server.QueryRequest{File: file, Query: adaptiveAnn, Adaptive: true})
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("serve: warmup job %d: status %d, err %v", i, code, err)
		}
		rep.WarmupJobs++
		if qr.FullScans == 0 {
			break
		}
	}

	// Phase 3: the storm. Every request is checked against its reference.
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		firstDiag string
	)
	start := time.Now()
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ann := shapes[i%len(shapes)]
			req := server.QueryRequest{
				Tenant:    fmt.Sprintf("tenant-%d", i%tenants),
				File:      file,
				Query:     ann,
				Splitting: i%2 == 0,
				PackScans: i%3 == 0,
				Adaptive:  ann == adaptiveAnn,
				NoCache:   i%5 == 4, // the cold lane: recompute, don't warm
			}
			qr, code, err := post(req)
			mu.Lock()
			defer mu.Unlock()
			if req.NoCache {
				rep.ColdLane++
			}
			if err != nil || code != http.StatusOK {
				if code == http.StatusTooManyRequests {
					rep.Rejected++
				} else {
					rep.Errors++
				}
				if firstDiag == "" {
					firstDiag = fmt.Sprintf("query %d: status %d, err %v", i, code, err)
				}
				return
			}
			rep.Queries++
			got := make(map[string]int, len(qr.Rows))
			for _, row := range qr.Rows {
				got[row]++
			}
			if !maps.Equal(got, refRows[ann]) {
				rep.Mismatches++
				if firstDiag == "" {
					firstDiag = fmt.Sprintf("query %d (%s): %d rows differ from the serial reference", i, ann, len(qr.Rows))
				}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	rep.WallMs = float64(wall) / 1e6
	if wall > 0 {
		rep.ThroughputQPS = float64(rep.Queries) / wall.Seconds()
	}

	// Phase 4: latency from the server's own histograms, shared-state
	// counters from the stack.
	for _, m := range srv.Registry().Snapshot() {
		switch m.Name {
		case "server.query_seconds":
			rep.P50Ms, rep.P95Ms, rep.P99Ms, rep.MeanMs = m.P50Ms, m.P95Ms, m.P99Ms, m.MeanMs
		case "server.queue_wait_seconds":
			rep.QueueWaitP99Ms = m.P99Ms
		}
	}
	st := srv.CacheStats()
	rep.CacheHits = st.Hits
	rep.CacheEntries = st.Entries
	rep.AdaptiveReplicas = len(srv.Indexer().Replicas())

	if rep.Mismatches > 0 || rep.Errors > 0 || rep.Rejected > 0 {
		return rep, fmt.Errorf("serve: %d mismatches, %d errors, %d rejected (first: %s)",
			rep.Mismatches, rep.Errors, rep.Rejected, firstDiag)
	}
	return rep, nil
}

// String renders the report as the bench's aligned summary.
func (rep *ServeReport) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "FigServe — resident server storm [%s, %d tenants, %d in-flight slots]\n",
		rep.Workload, rep.Tenants, rep.MaxInFlight)
	fmt.Fprintf(&b, "  %d queries (%d cold lane) in %.0f ms → %.1f q/s, all byte-equivalent to serial\n",
		rep.Queries, rep.ColdLane, rep.WallMs, rep.ThroughputQPS)
	fmt.Fprintf(&b, "  latency  p50 %.2f ms   p95 %.2f ms   p99 %.2f ms   mean %.2f ms   queue-wait p99 %.2f ms\n",
		rep.P50Ms, rep.P95Ms, rep.P99Ms, rep.MeanMs, rep.QueueWaitP99Ms)
	fmt.Fprintf(&b, "  shared state: %d cache hits (%d entries), %d adaptive replicas after %d warmup jobs\n",
		rep.CacheHits, rep.CacheEntries, rep.AdaptiveReplicas, rep.WarmupJobs)
	return b.String()
}
