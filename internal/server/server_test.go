package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// makeFS builds a small HAIL filesystem directory: replica 0 indexed on
// column a, replica 1 unsorted PAX (so column c is adaptive territory).
func makeFS(t *testing.T, n int) string {
	t.Helper()
	return makeFSBlocks(t, n, 2048)
}

func makeFSBlocks(t *testing.T, n, blockSize int) string {
	t.Helper()
	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.MustNew(
		schema.Field{Name: "a", Type: schema.Int32},
		schema.Field{Name: "b", Type: schema.String},
		schema.Field{Name: "c", Type: schema.Int32},
	)
	var lines []string
	for i := 0; i < n; i++ {
		lines = append(lines, fmt.Sprintf("%d,word-%d,%d", i%7, i, i%13))
	}
	client := &core.Client{
		Cluster: cluster,
		Config:  core.LayoutConfig{Schema: sch, SortColumns: []int{0, -1}, BlockSize: blockSize},
	}
	if _, err := client.Upload("/t", lines); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "fs")
	if err := cluster.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// referenceRows runs a query serially on an independent cluster instance
// loaded from the same directory — no cache, no adaptive, no sharing.
func referenceRows(t *testing.T, dir, file, annotation string) []string {
	t.Helper()
	cluster, err := hdfs.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	sch := fsSchema(t, cluster, file)
	q, err := query.ParseAnnotation(sch, annotation)
	if err != nil {
		t.Fatal(err)
	}
	engine := &mapred.Engine{Cluster: cluster}
	res, err := engine.Run(&mapred.Job{
		Name:     "reference",
		File:     file,
		Input:    &core.InputFormat{Cluster: cluster, Query: q},
		MapBatch: workload.PassthroughMapBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, 0, len(res.Output))
	for _, kv := range res.Output {
		rows = append(rows, kv.Key)
	}
	sort.Strings(rows)
	return rows
}

func fsSchema(t *testing.T, cluster *hdfs.Cluster, file string) *schema.Schema {
	t.Helper()
	srv := &Server{cluster: cluster, schemas: map[string]*schema.Schema{}}
	sch, err := srv.fileSchema(file)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func newTestServer(t *testing.T, dir string, cfg Config) *Server {
	t.Helper()
	cfg.FSDir = dir
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func postQuery(t *testing.T, ts *httptest.Server, req QueryRequest) (*QueryResponse, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	return postBody(t, ts, body)
}

// postBody posts a raw /query body — what a client that does not share
// this package's QueryRequest type sends.
func postBody(t *testing.T, ts *httptest.Server, body []byte) (*QueryResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var sb strings.Builder
		if _, err := fmt.Fprint(&sb, resp.Status, ": "); err == nil {
			buf := make([]byte, 512)
			n, _ := resp.Body.Read(buf)
			sb.Write(buf[:n])
		}
		return &QueryResponse{Rows: []string{sb.String()}}, resp.StatusCode
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

func sorted(rows []string) []string {
	out := append([]string(nil), rows...)
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %q, want %q", label, i, got[i], want[i])
		}
	}
}

const indexedQ = `@HailQuery(filter="@1 = 3", projection={@2})`
const adaptiveQ = `@HailQuery(filter="@3 between(2,5)", projection={@1})`

func TestServeQueryMatchesReference(t *testing.T) {
	dir := makeFS(t, 700)
	want := referenceRows(t, dir, "/t", indexedQ)
	s := newTestServer(t, dir, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, code := postQuery(t, ts, QueryRequest{File: "/t", Query: indexedQ, Splitting: true})
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, resp.Rows)
	}
	if resp.RowCount != len(want) {
		t.Fatalf("row_count = %d, want %d", resp.RowCount, len(want))
	}
	sameRows(t, "first", sorted(resp.Rows), want)
	if resp.IndexScans == 0 {
		t.Error("expected index scans on the indexed column")
	}

	// Second run: the shared cache answers the blocks.
	resp2, _ := postQuery(t, ts, QueryRequest{File: "/t", Query: indexedQ, Splitting: true})
	sameRows(t, "cached", sorted(resp2.Rows), want)
	if resp2.BlocksFromCache == 0 {
		t.Error("second identical query served no blocks from the shared cache")
	}

	// Bad requests surface as 4xx, not 500.
	if _, code := postQuery(t, ts, QueryRequest{File: "/t", Query: "not an annotation"}); code != http.StatusBadRequest {
		t.Errorf("bad query → status %d, want 400", code)
	}
	if _, code := postQuery(t, ts, QueryRequest{File: "/missing", Query: indexedQ}); code != http.StatusNotFound {
		t.Errorf("missing file → status %d, want 404", code)
	}
}

// TestRetiredRowPathFieldSharesCache: "row_path" used to select a second,
// slower reader whose byte-identical results were cached under their own
// keys — any tenant could fill the shared cache with duplicates. There is
// one scan path now, so an old client still sending the field gets the
// same bytes from the same cache entries as everyone else.
func TestRetiredRowPathFieldSharesCache(t *testing.T) {
	dir := makeFS(t, 700)
	want := referenceRows(t, dir, "/t", indexedQ)
	s := newTestServer(t, dir, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	query, _ := json.Marshal(indexedQ)
	old, code := postBody(t, ts, []byte(`{"file":"/t","splitting":true,"row_path":true,"query":`+string(query)+`}`))
	if code != http.StatusOK {
		t.Fatalf("request carrying the retired field: status %d: %v", code, old.Rows)
	}
	sameRows(t, "with row_path", sorted(old.Rows), want)
	warm := s.CacheStats()
	if warm.Entries == 0 {
		t.Fatal("first query admitted nothing into the shared cache")
	}

	resp, _ := postQuery(t, ts, QueryRequest{File: "/t", Query: indexedQ, Splitting: true})
	sameRows(t, "without row_path", sorted(resp.Rows), want)
	if resp.BlocksFromCache == 0 {
		t.Error("the same query without the retired field missed the cache the first one warmed")
	}
	if st := s.CacheStats(); st.Entries != warm.Entries {
		t.Errorf("cache holds %d entries after the second query, want the first query's %d (one entry set, not two)",
			st.Entries, warm.Entries)
	}
}

func TestAdmissionBackpressure429(t *testing.T) {
	dir := makeFS(t, 700)
	s := newTestServer(t, dir, Config{MaxInFlight: 2, QueueTimeout: 30 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fill both slots so the next request must queue and time out.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	_, code := postQuery(t, ts, QueryRequest{File: "/t", Query: indexedQ})
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", code)
	}
	if got := s.reg.Counter("server.rejected").Value(); got != 1 {
		t.Errorf("server.rejected = %d, want 1", got)
	}
	// Free a slot: the same request is admitted again, twice, the second
	// time from the cache.
	<-s.sem
	var blocks int
	for i := 0; i < 2; i++ {
		resp, code := postQuery(t, ts, QueryRequest{File: "/t", Query: indexedQ})
		if code != http.StatusOK {
			t.Fatalf("after freeing a slot: status %d, want 200", code)
		}
		blocks = resp.IndexScans + resp.FullScans + resp.BlocksFromCache
	}
	<-s.sem
	// The tenant's ledger counts the refusal and the blocks its two
	// queries read, half of them from the cache.
	rep := tenantReports(t, ts)["default"]
	if rep.Rejected != 1 || rep.Queries != 2 || rep.Blocks != int64(2*blocks) || rep.BlocksFromCache != int64(blocks) {
		t.Errorf("default tenant: %+v, want 1 rejected, 2 queries, %d blocks, %d from the cache", rep, 2*blocks, blocks)
	}
}

// TestBodyIsReadBeforeAdmission: with one slot, a client whose body stalls
// halfway holds no slot — a second query completes meanwhile — and an
// oversized body gets 413 at once, without touching the semaphore or
// server.rejected.
func TestBodyIsReadBeforeAdmission(t *testing.T) {
	dir := makeFS(t, 700)
	s := newTestServer(t, dir, Config{MaxInFlight: 1, QueueTimeout: 2 * time.Second})
	entered := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Stall") != "" {
			close(entered)
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	body, stall := io.Pipe()
	defer stall.Close() // before ts.Close, which waits for the handler reading it
	stalled := make(chan int, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", body)
		if err != nil {
			stalled <- 0
			return
		}
		req.Header.Set("X-Stall", "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			stalled <- 0
			return
		}
		resp.Body.Close()
		stalled <- resp.StatusCode
	}()
	if _, err := stall.Write([]byte(`{"file":"/t",`)); err != nil {
		t.Fatal(err)
	}
	<-entered
	if resp, code := postQuery(t, ts, QueryRequest{File: "/t", Query: indexedQ}); code != http.StatusOK {
		t.Fatalf("query beside a stalled body: status %d: %v", code, resp.Rows)
	}
	q, _ := json.Marshal(indexedQ)
	if _, err := stall.Write([]byte(`"query":` + string(q) + `}`)); err != nil {
		t.Fatal(err)
	}
	stall.Close()
	if code := <-stalled; code != http.StatusOK {
		t.Fatalf("the stalled query, once its body arrived: status %d", code)
	}

	s.sem <- struct{}{} // the one slot is taken: any admission would wait
	defer func() { <-s.sem }()
	big := []byte(`{"file":"` + strings.Repeat("a", maxBodyBytes+1024) + `"}`)
	start := time.Now()
	if _, code := postBody(t, ts, big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", code)
	}
	if wait := time.Since(start); wait >= s.cfg.QueueTimeout {
		t.Errorf("oversized body answered after %v, the queue timeout", wait)
	}
	if got := s.reg.Counter("server.rejected").Value(); got != 0 || len(s.sem) != 1 {
		t.Errorf("after the oversized body: server.rejected = %d, %d slots taken; want 0, 1", got, len(s.sem))
	}
}

func TestTenantCacheBudget(t *testing.T) {
	dir := makeFS(t, 700)
	s := newTestServer(t, dir, Config{
		Tenants: map[string]TenantLimits{"capped": {CacheBytes: 1}},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postQuery(t, ts, QueryRequest{Tenant: "capped", File: "/t", Query: indexedQ})
	if st := s.CacheStats(); st.Entries != 0 {
		t.Fatalf("capped tenant admitted %d entries into the shared cache", st.Entries)
	}
	// The free tenant warms the cache; the capped tenant still gets hits
	// from it (reads are never budget-gated).
	postQuery(t, ts, QueryRequest{Tenant: "free", File: "/t", Query: indexedQ})
	if st := s.CacheStats(); st.Entries == 0 {
		t.Fatal("free tenant admitted nothing")
	}
	resp, _ := postQuery(t, ts, QueryRequest{Tenant: "capped", File: "/t", Query: indexedQ})
	if resp.BlocksFromCache == 0 {
		t.Error("capped tenant should read the shared cache")
	}

	byName := tenantReports(t, ts)
	if byName["capped"].CacheDenied == 0 {
		t.Error("capped tenant shows no cache denials")
	}
	if byName["free"].CacheCharged == 0 {
		t.Error("free tenant shows no cache charges")
	}
}

// tenantReports fetches /tenants, by tenant name.
func tenantReports(t *testing.T, ts *httptest.Server) map[string]TenantReport {
	t.Helper()
	r, err := http.Get(ts.URL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var reports []TenantReport
	if err := json.NewDecoder(r.Body).Decode(&reports); err != nil {
		t.Fatal(err)
	}
	byName := map[string]TenantReport{}
	for _, rep := range reports {
		byName[rep.Tenant] = rep
	}
	return byName
}

// TestTenantLedgersAreBounded: a request may name any tenant, but the
// server keeps a ledger and histograms for at most maxOtherTenants names
// its config does not give, and charges every further one to a single
// overflow ledger; a configured tenant keeps its own past the bound. Each
// response keeps the name its request gave.
func TestTenantLedgersAreBounded(t *testing.T) {
	dir := makeFS(t, 700)
	s := newTestServer(t, dir, Config{Tenants: map[string]TenantLimits{"named": {}}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const extra = 5
	names := []string{"named"}
	for i := 0; i < maxOtherTenants+extra; i++ {
		names = append(names, fmt.Sprintf("t%03d", i))
	}
	names = append(names, "named")
	for _, name := range names {
		resp, code := postQuery(t, ts, QueryRequest{Tenant: name, File: "/t", Query: indexedQ})
		if code != http.StatusOK || resp.Tenant != name {
			t.Fatalf("tenant %q: status %d, response names %q", name, code, resp.Tenant)
		}
	}

	reports := tenantReports(t, ts)
	if len(reports) != maxOtherTenants+2 {
		t.Errorf("%d ledgers, want %d: %d others, the overflow and the named one", len(reports), maxOtherTenants+2, maxOtherTenants)
	}
	if over := reports[""]; !over.Overflow || over.Queries != extra {
		t.Errorf("overflow ledger: %+v, want the last %d tenants' queries", over, extra)
	}
	if named := reports["named"]; named.Overflow || named.Queries != 2 {
		t.Errorf("named tenant: %+v, want its own ledger with 2 queries", named)
	}
	if _, ok := reports[fmt.Sprintf("t%03d", maxOtherTenants)]; ok {
		t.Error("a tenant past the bound got its own ledger")
	}

	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics []struct {
		Name  string `json:"name"`
		Count int64  `json:"count"`
	}
	err = json.NewDecoder(m.Body).Decode(&metrics)
	m.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	hists := map[string]int{}
	for _, met := range metrics {
		if strings.HasPrefix(met.Name, "server.tenant") {
			hists[met.Name[strings.LastIndexByte(met.Name, '.')+1:]]++
		}
		if met.Name == overflowMetrics+"query_seconds" && met.Count != extra {
			t.Errorf("%s counts %d queries, want %d", met.Name, met.Count, extra)
		}
	}
	for _, h := range []string{"query_seconds", "queue_wait_seconds"} {
		if hists[h] != maxOtherTenants+2 {
			t.Errorf("%d per-tenant %s histograms, want %d", hists[h], h, maxOtherTenants+2)
		}
	}
}

// TestShapeLedgersAreBounded: /shapes reports a row per query shape —
// the signature's hash each query's log line carries — with its count and
// total time, the largest total first. Past maxShapes shapes every further
// one is charged to one overflow row, and a shape seen again is charged to
// its own row, whichever tenant sends it.
func TestShapeLedgersAreBounded(t *testing.T) {
	dir := makeFS(t, 700)
	s := newTestServer(t, dir, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const extra = 5
	shape := func(i int) string { return fmt.Sprintf(`@HailQuery(filter="@1 = %d", projection={@2})`, i) }
	for i := 0; i < maxShapes+extra; i++ {
		if _, code := postQuery(t, ts, QueryRequest{Tenant: "a", File: "/t", Query: shape(i)}); code != http.StatusOK {
			t.Fatalf("shape %d: status %d", i, code)
		}
	}
	if _, code := postQuery(t, ts, QueryRequest{Tenant: "b", File: "/t", Query: shape(0)}); code != http.StatusOK {
		t.Fatalf("shape 0 again: status %d", code)
	}

	r, err := http.Get(ts.URL + "/shapes")
	if err != nil {
		t.Fatal(err)
	}
	var reports []ShapeReport
	err = json.NewDecoder(r.Body).Decode(&reports)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != maxShapes+1 {
		t.Fatalf("%d shape rows, want %d: %d shapes and the overflow", len(reports), maxShapes+1, maxShapes)
	}
	var queries, overflows, twice int64
	for i, rep := range reports {
		if i > 0 && rep.TotalMS > reports[i-1].TotalMS {
			t.Errorf("row %d (%.3f ms) outweighs row %d (%.3f ms): not sorted by total time", i, rep.TotalMS, i-1, reports[i-1].TotalMS)
		}
		if rep.TotalMS <= 0 {
			t.Errorf("row %+v has no time", rep)
		}
		queries += rep.Queries
		switch {
		case rep.Overflow:
			overflows++
			if rep.Shape != "" || rep.Queries != extra {
				t.Errorf("overflow row %+v, want the last %d shapes' queries and no shape", rep, extra)
			}
		case len(rep.Shape) != 16:
			t.Errorf("row %+v: the shape is not a signature hash", rep)
		case rep.Queries == 2:
			twice++
		case rep.Queries != 1:
			t.Errorf("row %+v, want 1 query", rep)
		}
	}
	if queries != maxShapes+extra+1 || overflows != 1 || twice != 1 {
		t.Errorf("%d queries in %d overflow rows and %d rows of 2; want %d, 1 and 1", queries, overflows, twice, maxShapes+extra+1)
	}
}

// TestPackedQueryChargesItsTenantOnce: packing changes how many tasks a
// query runs as, not what it leaves in the cache or what its tenant pays
// for it — the same query packed and unpacked, each on a fresh server,
// charges the same bytes and leaves the same bytes resident.
func TestPackedQueryChargesItsTenantOnce(t *testing.T) {
	dir := makeFS(t, 3000)
	run := func(pack bool) (tasks int, charged, resident int64) {
		s := newTestServer(t, dir, Config{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resp, code := postQuery(t, ts, QueryRequest{Tenant: "a", File: "/t", Query: adaptiveQ, PackScans: pack})
		if code != http.StatusOK {
			t.Fatalf("pack=%v: status %d: %v", pack, code, resp.Rows)
		}
		return resp.Tasks, tenantReports(t, ts)["a"].CacheCharged, s.CacheStats().Bytes
	}
	tasks, charged, resident := run(false)
	packedTasks, packedCharged, packedResident := run(true)
	if packedTasks >= tasks {
		t.Fatalf("packed query ran %d tasks, unpacked %d: nothing was packed", packedTasks, tasks)
	}
	if charged == 0 || packedCharged != charged || packedResident != resident {
		t.Errorf("packed query charged %d B and left %d B resident, unpacked %d B and %d B; want equal",
			packedCharged, packedResident, charged, resident)
	}
}

// TestTenantNotChargedForRejectedEntry: an entry the cache refuses (larger
// than its whole budget) is resident nowhere, so it costs its tenant
// nothing — the allowance is still there for the next, smaller query.
func TestTenantNotChargedForRejectedEntry(t *testing.T) {
	const wideQ = `@HailQuery(filter="@1 between(0,6)")`
	dir := makeFSBlocks(t, 3000, 1<<20) // one block
	post := func(ts *httptest.Server, q string) {
		t.Helper()
		if resp, code := postQuery(t, ts, QueryRequest{Tenant: "a", File: "/t", Query: q}); code != http.StatusOK {
			t.Fatalf("status %d: %v", code, resp.Rows)
		}
	}
	// What the wide block costs, from a cache big enough to hold it.
	s := newTestServer(t, dir, Config{})
	ts := httptest.NewServer(s.Handler())
	post(ts, wideQ)
	wideCost := tenantReports(t, ts)["a"].CacheCharged
	ts.Close()
	const budget = 32 << 10
	if st := s.CacheStats(); st.Entries != 1 || wideCost <= budget {
		t.Fatalf("fixture: %d entries costing %d B, want one block over %d B", st.Entries, wideCost, budget)
	}

	// An allowance of exactly that, against a cache too small for it.
	s = newTestServer(t, dir, Config{
		CacheBudget: budget,
		Tenants:     map[string]TenantLimits{"a": {CacheBytes: wideCost}},
	})
	ts = httptest.NewServer(s.Handler())
	defer ts.Close()
	post(ts, wideQ)
	if st, rep := s.CacheStats(), tenantReports(t, ts)["a"]; st.Rejected != 1 || st.Entries != 0 || rep.CacheCharged != 0 {
		t.Fatalf("after the over-budget block: %d rejected, %d entries, tenant charged %d B; want 1, 0, 0",
			st.Rejected, st.Entries, rep.CacheCharged)
	}
	post(ts, indexedQ)
	if st, rep := s.CacheStats(), tenantReports(t, ts)["a"]; st.Entries != 1 || rep.CacheCharged != st.Bytes || rep.CacheDenied != 0 {
		t.Errorf("after the small query: %d entries / %d B resident, tenant charged %d B, denied %d; want it admitted and charged",
			st.Entries, st.Bytes, rep.CacheCharged, rep.CacheDenied)
	}
}

func TestTenantAdaptiveBudget(t *testing.T) {
	dir := makeFS(t, 700)
	s := newTestServer(t, dir, Config{
		OfferRate: 1.0,
		Tenants:   map[string]TenantLimits{"capped": {AdaptiveBytes: 1}},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First adaptive query is admitted (nothing charged yet) and builds.
	resp, _ := postQuery(t, ts, QueryRequest{Tenant: "capped", File: "/t", Query: adaptiveQ, Adaptive: true})
	if resp.AdaptiveBuilt == 0 {
		t.Fatal("first adaptive query built nothing")
	}
	// Its build volume exceeds the 1-byte allowance, so the next adaptive
	// query runs with adaptive indexing disabled.
	resp2, _ := postQuery(t, ts, QueryRequest{Tenant: "capped", File: "/t", Query: adaptiveQ, Adaptive: true})
	if !resp2.AdaptiveDenied {
		t.Fatal("second adaptive query was not denied")
	}
	if resp2.AdaptiveBuilt != 0 {
		t.Fatalf("denied query still built %d replicas", resp2.AdaptiveBuilt)
	}
	// It still benefits from the replicas already built.
	if resp2.IndexScans == 0 {
		t.Error("denied query should still use indexes built before the cap")
	}
}

// TestZeroOfferRateObservesOnly: OfferRate 0 is observe-only, as
// hailquery's -offer-rate 0 is — an adaptive query builds nothing, so a
// repeat of it still full-scans.
func TestZeroOfferRateObservesOnly(t *testing.T) {
	dir := makeFS(t, 700)
	s := newTestServer(t, dir, Config{OfferRate: 0})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for n := 1; n <= 2; n++ {
		resp, code := postQuery(t, ts, QueryRequest{File: "/t", Query: adaptiveQ, Adaptive: true, NoCache: true})
		if code != http.StatusOK {
			t.Fatalf("query %d: status %d: %v", n, code, resp.Rows)
		}
		if resp.AdaptiveBuilt != 0 || resp.FullScans == 0 || resp.IndexScans != 0 {
			t.Fatalf("query %d: built %d, %d full scans, %d index scans; want nothing built and full scans only",
				n, resp.AdaptiveBuilt, resp.FullScans, resp.IndexScans)
		}
	}
	if reps := s.Indexer().Replicas(); len(reps) != 0 {
		t.Errorf("observe-only server registered %d adaptive replicas", len(reps))
	}
}

func TestPersistAcrossRestart(t *testing.T) {
	dir := makeFS(t, 700)
	want := referenceRows(t, dir, "/t", adaptiveQ)
	s := newTestServer(t, dir, Config{OfferRate: 1.0})
	ts := httptest.NewServer(s.Handler())
	resp, code := postQuery(t, ts, QueryRequest{File: "/t", Query: adaptiveQ, Adaptive: true})
	if code != http.StatusOK || resp.AdaptiveBuilt == 0 {
		t.Fatalf("warmup query: status %d, built %d", code, resp.AdaptiveBuilt)
	}
	sameRows(t, "warmup", sorted(resp.Rows), want)
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if persists, timed := s.reg.Counter("server.persists").Value(), s.reg.Histogram("server.persist_seconds").Count(); persists != 1 || timed != persists {
		t.Errorf("after Close: %d persists, %d of them timed in server.persist_seconds; want the one, timed", persists, timed)
	}
	reps := s.Indexer().Replicas()
	if len(reps) == 0 {
		t.Fatal("no adaptive replica registered after the warmup")
	}
	for _, r := range reps {
		if r.LastTouch == 0 || r.Touches == 0 {
			t.Errorf("replica %d/%d has no heat stamp", r.Block, r.Column)
		}
	}
	// A fresh server starts from the records the save committed — the
	// same replicas, charges and heat — and the query is all-index-scan
	// with no further builds.
	s2 := newTestServer(t, dir, Config{OfferRate: 1.0})
	if got := s2.Indexer().Replicas(); !slices.Equal(got, reps) {
		t.Fatalf("restarted server's registry:\n%+v\nwant the closed one's\n%+v", got, reps)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp2, _ := postQuery(t, ts2, QueryRequest{File: "/t", Query: adaptiveQ, Adaptive: true})
	sameRows(t, "restart", sorted(resp2.Rows), want)
	if resp2.AdaptiveBuilt != 0 {
		t.Errorf("restarted server rebuilt %d replicas it should have adopted", resp2.AdaptiveBuilt)
	}
	if resp2.FullScans != 0 {
		t.Errorf("restarted server still full-scans %d blocks", resp2.FullScans)
	}
}

func TestMetricsAndTraceEndpoints(t *testing.T) {
	dir := makeFS(t, 700)
	s := newTestServer(t, dir, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postQuery(t, ts, QueryRequest{File: "/t", Query: indexedQ, Trace: true})
	if resp.TraceID == 0 {
		t.Fatal("traced query returned no trace id")
	}
	r, err := http.Get(fmt.Sprintf("%s/trace?id=%d", ts.URL, resp.TraceID))
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	err = json.NewDecoder(r.Body).Decode(&chrome)
	r.Body.Close()
	if err != nil || len(chrome.TraceEvents) == 0 {
		t.Fatalf("trace endpoint: %d events, err %v", len(chrome.TraceEvents), err)
	}

	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics []struct {
		Name  string `json:"name"`
		Count int64  `json:"count"`
	}
	err = json.NewDecoder(m.Body).Decode(&metrics)
	m.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, met := range metrics {
		if met.Name == "server.query_seconds" && met.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Error("metrics snapshot missing server.query_seconds")
	}
}

// TestConcurrentQueriesByteEquivalent is the daemon-shaped -race stress
// test: many concurrent queries across tenants and query shapes run
// through ONE shared cache, ONE shared adaptive indexer and ONE obs
// registry, and every response must be byte-equivalent (as a sorted row
// set) to serial execution without any shared state.
func TestConcurrentQueriesByteEquivalent(t *testing.T) {
	dir := makeFS(t, 700)
	queries := []string{
		indexedQ,
		`@HailQuery(filter="@1 = 5", projection={@2})`,
		`@HailQuery(filter="@1 between(1,2)", projection={@2, @3})`,
		adaptiveQ,
	}
	want := make(map[string][]string, len(queries))
	for _, q := range queries {
		want[q] = referenceRows(t, dir, "/t", q)
	}

	s := newTestServer(t, dir, Config{OfferRate: 0.5, MaxInFlight: 64, QueueTimeout: 30 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Converge the adaptive column first so the storm runs over a static
	// replica topology (builds mid-storm would still be correct, but this
	// also pins down AdaptiveBuilt expectations).
	for i := 0; i < 4; i++ {
		postQuery(t, ts, QueryRequest{File: "/t", Query: adaptiveQ, Adaptive: true})
	}

	const n = 120
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := queries[i%len(queries)]
			req := QueryRequest{
				Tenant:    fmt.Sprintf("tenant-%d", i%5),
				File:      "/t",
				Query:     q,
				Splitting: i%2 == 0,
				PackScans: i%3 == 0,
				Adaptive:  q == adaptiveQ,
				NoCache:   i%7 == 0,
			}
			resp, code := postQuery(t, ts, req)
			if code != http.StatusOK {
				errs <- fmt.Sprintf("query %d: status %d: %v", i, code, resp.Rows)
				return
			}
			got := sorted(resp.Rows)
			exp := want[q]
			if len(got) != len(exp) {
				errs <- fmt.Sprintf("query %d (%s): %d rows, want %d", i, q, len(got), len(exp))
				return
			}
			for j := range got {
				if got[j] != exp[j] {
					errs <- fmt.Sprintf("query %d (%s): row %d = %q, want %q", i, q, j, got[j], exp[j])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := s.reg.Counter("server.queries").Value(); got < n {
		t.Errorf("server.queries = %d, want ≥ %d", got, n)
	}
	if s.CacheStats().Hits == 0 {
		t.Error("storm produced no shared-cache hits")
	}
}

// TestQueryPanicIsA500NotACrash: a panic on an engine worker — here a nil
// dereference in the cache probe under the task loop — fails that query
// with a 500 naming where it happened; the daemon keeps its admission slot
// count, its goroutines and its ability to answer the next query.
func TestQueryPanicIsA500NotACrash(t *testing.T) {
	dir := makeFS(t, 700)
	s := newTestServer(t, dir, Config{MaxInFlight: 2, Parallelism: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	want := referenceRows(t, dir, "/t", indexedQ)

	// One healthy query first, so the baseline already counts the HTTP
	// client's and server's connection goroutines.
	if _, code := postQuery(t, ts, QueryRequest{File: "/t", Query: indexedQ, NoCache: true}); code != http.StatusOK {
		t.Fatalf("warm-up: status %d", code)
	}
	baseline := runtime.NumGoroutine()

	cache := s.cache
	s.cache = nil
	resp, code := postQuery(t, ts, QueryRequest{File: "/t", Query: indexedQ})
	s.cache = cache
	if code != http.StatusInternalServerError || !strings.Contains(resp.Rows[0], "panicked: runtime error") ||
		!strings.Contains(resp.Rows[0], "mapred: task ") {
		t.Fatalf("panicking query: status %d, body %q; want a 500 naming the task", code, resp.Rows)
	}
	if got := s.reg.Counter("engine.task_panics").Value(); got == 0 {
		t.Error("engine.task_panics not bumped")
	}
	if len(s.sem) != 0 {
		t.Errorf("%d admission slot(s) still held after the panic", len(s.sem))
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the panicking query", runtime.NumGoroutine(), baseline)
		}
	}

	next, code := postQuery(t, ts, QueryRequest{File: "/t", Query: indexedQ})
	if code != http.StatusOK {
		t.Fatalf("query after the panic: status %d", code)
	}
	sameRows(t, "query after the panic", sorted(next.Rows), want)
}

// TestLimitSizesRowsByTheLimit: a limited query's response holds the rows
// it returns, not a slot per row the query matched — `limit: 10` over a
// large file used to allocate (and keep, while encoding) the full-size
// slice to fill ten entries. The rows are the unlimited answer's prefix.
func TestLimitSizesRowsByTheLimit(t *testing.T) {
	s := newTestServer(t, makeFS(t, 700), Config{})
	all, err := s.runQuery(context.Background(), &QueryRequest{File: "/t", Query: adaptiveQ}, &queryLog{})
	if err != nil {
		t.Fatal(err)
	}
	if all.RowCount < 100 || len(all.Rows) != all.RowCount || cap(all.Rows) != all.RowCount {
		t.Fatalf("unlimited: row_count %d, %d rows, cap %d", all.RowCount, len(all.Rows), cap(all.Rows))
	}
	for _, limit := range []int{1, 10, all.RowCount, all.RowCount + 5} {
		got, err := s.runQuery(context.Background(), &QueryRequest{File: "/t", Query: adaptiveQ, Limit: limit}, &queryLog{})
		if err != nil {
			t.Fatal(err)
		}
		want := min(limit, all.RowCount)
		if got.RowCount != all.RowCount || cap(got.Rows) != want {
			t.Errorf("limit %d: row_count %d (want %d), cap(rows) %d (want %d)", limit, got.RowCount, all.RowCount, cap(got.Rows), want)
		}
		sameRows(t, fmt.Sprintf("limit %d", limit), got.Rows, all.Rows[:want])
	}
}

// lockedBuffer is a log sink the handlers write to while the test reads.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// lines decodes every JSON log line written so far.
func (l *lockedBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []map[string]any
	dec := json.NewDecoder(bytes.NewReader(l.b.Bytes()))
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// postForID posts a query and returns the reply's X-Query-Id and status.
func postForID(t *testing.T, ts *httptest.Server, req QueryRequest) (string, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return "", 0
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.Header.Get(queryIDHeader), resp.StatusCode
}

// TestQueryIDs: concurrent queries get distinct ids in their X-Query-Id
// header; a 429 and a 400 carry one too; each query's log line has its
// header's id, tenant and status; and a traced query's /trace entry is
// keyed by its id.
func TestQueryIDs(t *testing.T) {
	var logs lockedBuffer
	s := newTestServer(t, makeFS(t, 700), Config{MaxInFlight: 4, QueueTimeout: 30 * time.Millisecond,
		Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	statusOf := map[string]int{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, code := postForID(t, ts, QueryRequest{Tenant: "t1", File: "/t", Query: indexedQ, NoCache: i%2 == 0})
			mu.Lock()
			defer mu.Unlock()
			if _, dup := statusOf[id]; dup || id == "" {
				t.Errorf("query id %q is empty or was given twice", id)
			}
			statusOf[id] = code
		}()
	}
	wg.Wait()

	for range cap(s.sem) {
		s.sem <- struct{}{}
	}
	id, code := postForID(t, ts, QueryRequest{Tenant: "t2", File: "/t", Query: indexedQ})
	for range cap(s.sem) {
		<-s.sem
	}
	if code != http.StatusTooManyRequests || id == "" {
		t.Fatalf("refused query: status %d, id %q; want 429 with an id", code, id)
	}
	statusOf[id] = code
	id, code = postForID(t, ts, QueryRequest{File: "/t"})
	if code != http.StatusBadRequest || id == "" {
		t.Fatalf("query without an annotation: status %d, id %q; want 400 with an id", code, id)
	}
	statusOf[id] = code

	traced, code := postForID(t, ts, QueryRequest{File: "/t", Query: indexedQ, Trace: true})
	if code != http.StatusOK {
		t.Fatalf("traced query: status %d", code)
	}
	statusOf[traced] = code
	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var list []storedTrace
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list) != 1 || fmt.Sprint(list[0].QueryID) != traced {
		t.Errorf("/trace lists %+v (%v), want one entry for query %s", list, err, traced)
	}

	lines := logs.lines(t)
	if len(lines) != len(statusOf) {
		t.Fatalf("%d log lines for %d queries", len(lines), len(statusOf))
	}
	for _, l := range lines {
		id := fmt.Sprint(l["id"])
		want, ok := statusOf[id]
		if !ok || fmt.Sprint(l["status"]) != fmt.Sprint(want) {
			t.Errorf("log line %v: status %v, the reply with that id had %d", l, l["status"], want)
		}
		if want == http.StatusOK && (l["tenant"] == "" || l["sig"] == "" || l["blocks"] == float64(0)) {
			t.Errorf("log line of a finished query lacks its tenant, signature or blocks: %v", l)
		}
		if want == http.StatusTooManyRequests && l["tenant"] != "t2" {
			t.Errorf("refusal logged for tenant %v, want t2", l["tenant"])
		}
	}
}
