// Package server implements haild's resident query service: one process
// owning one hdfs.Cluster, one shared qcache.Cache and one shared
// adaptive.Indexer, serving concurrent HTTP queries on top of them.
//
// Shared-state ownership is deliberately asymmetric. The cluster, cache,
// indexer and metrics registry are process-wide singletons — every query
// of every tenant reads and warms the same cache and benefits from (and
// pays for) the same adaptive replicas. Everything with per-job state is
// constructed fresh per query: the core.InputFormat (split-phase stats
// are per call), the mapred.Engine value (its Cache/PostTask wiring is
// per-tenant), and the optional obs.Trace. Admission control bounds the
// queries in flight (a bounded semaphore with a queue timeout; excess
// load gets 429 instead of an unbounded goroutine pile-up), and
// per-tenant ledgers cap how many bytes each tenant may admit into the
// shared cache and trigger as adaptive storage.
//
// The filesystem is persisted periodically and on Close by one
// hdfs.Cluster.Save, whose manifest carries the adaptive records (budget
// charges, heat), so a restarted server resumes where its last save left.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"os"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// Config configures a Server.
type Config struct {
	// FSDir is the HAIL filesystem directory (hailload's output).
	FSDir string

	// MaxInFlight bounds concurrently executing queries; further requests
	// queue up to QueueTimeout and are then rejected with 429. 0 defaults
	// to 32.
	MaxInFlight int
	// QueueTimeout is how long an admitted-over-capacity request may wait
	// for a slot. 0 defaults to 2s.
	QueueTimeout time.Duration

	// CacheBudget is the shared result cache's byte budget (0 defaults to
	// qcache.DefaultBudget).
	CacheBudget int64
	// OfferRate is the shared adaptive indexer's offer rate: the fraction
	// of a query's unindexed blocks it converts. 0 (or less) means
	// observe-only: demand is counted, nothing is built. Queries opt into
	// adaptive execution per request.
	OfferRate float64
	// AdaptiveBudget is the indexer's global extra-storage cap (0 =
	// unlimited); a build that would exceed it evicts the coldest adaptive
	// replicas of other columns first.
	AdaptiveBudget int64

	// PersistEvery is the period of the background persistence loop (one
	// cluster Save); 0 disables periodic persistence (Close still persists
	// once).
	PersistEvery time.Duration

	// Parallelism is each query's engine task parallelism (0 =
	// GOMAXPROCS).
	Parallelism int

	// Tenants maps tenant names to their budgets; tenants not listed get
	// DefaultLimits (zero value: unlimited).
	Tenants       map[string]TenantLimits
	DefaultLimits TenantLimits

	// TraceBuffer is how many opt-in query traces /trace retains (ring
	// buffer; 0 defaults to 16).
	TraceBuffer int

	// Logger gets one line per /query (see queryLog); nil logs text to
	// stderr.
	Logger *slog.Logger
}

// Server is the resident query service. Create with New, serve Handler(),
// Close to persist and stop background work.
type Server struct {
	cfg     Config
	cluster *hdfs.Cluster
	cache   *qcache.Cache
	idx     *adaptive.Indexer
	reg     *obs.Registry
	tenants *tenantTable
	shapes  *shapeTable
	mux     *http.ServeMux

	sem       chan struct{} // admission semaphore: buffered to MaxInFlight
	lastQuery atomic.Int64  // the last query id minted

	schemaMu sync.Mutex
	schemas  map[string]*schema.Schema

	traceMu   sync.Mutex
	traces    []storedTrace
	nextTrace int

	persistMu sync.Mutex // serializes persist() against itself
	stop      chan struct{}
	loopDone  chan struct{}
	closeOnce sync.Once
	closeErr  error
}

type storedTrace struct {
	ID      int    `json:"id"`
	QueryID int64  `json:"query_id"`
	Tenant  string `json:"tenant"`
	File    string `json:"file"`
	Query   string `json:"query"`
	Spans   int    `json:"spans"`
	tr      *obs.Trace
}

// New loads the filesystem, builds the shared stack (cache, indexer,
// metrics registry), and starts the periodic persistence loop.
func New(cfg Config) (*Server, error) {
	if cfg.FSDir == "" {
		return nil, fmt.Errorf("server: FSDir is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 32
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 2 * time.Second
	}
	if cfg.CacheBudget <= 0 {
		cfg.CacheBudget = qcache.DefaultBudget
	}
	if cfg.TraceBuffer <= 0 {
		cfg.TraceBuffer = 16
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	cluster, err := hdfs.Load(cfg.FSDir)
	if err != nil {
		return nil, fmt.Errorf("server: loading filesystem: %v", err)
	}
	s := &Server{
		cfg:      cfg,
		cluster:  cluster,
		cache:    qcache.New(cfg.CacheBudget),
		idx:      adaptive.New(cluster, cfg.OfferRate, cfg.AdaptiveBudget),
		reg:      obs.NewRegistry(),
		tenants:  newTenantTable(cfg.Tenants, cfg.DefaultLimits),
		shapes:   newShapeTable(),
		sem:      make(chan struct{}, cfg.MaxInFlight),
		schemas:  make(map[string]*schema.Schema),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	// Replica changes (adaptive builds/evictions, node loss) purge the
	// affected cache entries.
	cluster.NameNode().SetReplicaChangeHook(s.cache.InvalidateBlock)

	cluster.NameNode().BindObs(s.reg)
	s.cache.BindObs(s.reg)
	s.idx.BindObs(s.reg)
	s.reg.SetGaugeFunc("server.in_flight", func() int64 { return int64(len(s.sem)) })

	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /trace", s.handleTrace)
	mux.HandleFunc("GET /tenants", s.handleTenants)
	mux.HandleFunc("GET /shapes", s.handleShapes)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux = mux

	go s.persistLoop()
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's process-wide metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Indexer returns the shared adaptive indexer (for reports and tests).
func (s *Server) Indexer() *adaptive.Indexer { return s.idx }

// CacheStats returns the shared result cache's counters.
func (s *Server) CacheStats() qcache.Stats { return s.cache.Stats() }

// persistLoop periodically saves the cluster, so a crash loses at most one
// period of lifecycle state. Saves are incremental (dirty-block tracking
// in hdfs) and commit by one rename, so the loop is safe to run while
// queries execute and adaptive builds land.
func (s *Server) persistLoop() {
	defer close(s.loopDone)
	if s.cfg.PersistEvery <= 0 {
		<-s.stop
		return
	}
	t := time.NewTicker(s.cfg.PersistEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.persist(); err != nil {
				s.reg.Counter("server.persist_errors").Inc()
			}
		case <-s.stop:
			return
		}
	}
}

// persist saves the cluster: new and dropped replicas, and the adaptive
// records with their heat.
func (s *Server) persist() error {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	start := time.Now()
	if err := s.cluster.Save(s.cfg.FSDir); err != nil {
		return fmt.Errorf("server: saving filesystem: %v", err)
	}
	s.reg.Histogram("server.persist_seconds").Observe(time.Since(start))
	s.reg.Counter("server.persists").Inc()
	return nil
}

// Close stops the persistence loop and performs a final persist. Safe to
// call more than once; callers should drain HTTP traffic first
// (http.Server.Shutdown).
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		<-s.loopDone
		s.closeErr = s.persist()
	})
	return s.closeErr
}

// QueryRequest is the POST /query body.
type QueryRequest struct {
	// Tenant attributes the query to a budget ledger; empty means the
	// "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// File is the HAIL file to query; Query is the @HailQuery annotation.
	File  string `json:"file"`
	Query string `json:"query"`
	// Execution knobs, mirroring hailquery's flags. The result cache is
	// on by default (it is the point of a resident server); NoCache opts
	// one query out. Adaptive indexing is opt-in per query and runs
	// against the shared indexer.
	Splitting bool `json:"splitting,omitempty"`
	PackScans bool `json:"pack_scans,omitempty"`
	Adaptive  bool `json:"adaptive,omitempty"`
	NoCache   bool `json:"no_cache,omitempty"`
	// Trace records this query's span tree into the /trace ring buffer.
	Trace bool `json:"trace,omitempty"`
	// Limit caps the rows returned (0 = all).
	Limit int `json:"limit,omitempty"`
}

// tenant is the ledger the request is charged to.
func (r *QueryRequest) tenant() string {
	if r.Tenant == "" {
		return "default"
	}
	return r.Tenant
}

// QueryResponse is the POST /query result.
type QueryResponse struct {
	Tenant          string   `json:"tenant"`
	Rows            []string `json:"rows"`
	RowCount        int      `json:"row_count"`
	Tasks           int      `json:"tasks"`
	IndexScans      int      `json:"index_scans"`
	FullScans       int      `json:"full_scans"`
	BlocksFromCache int      `json:"blocks_from_cache"`
	BytesRead       int64    `json:"bytes_read"`
	NameNodeOps     int      `json:"namenode_ops"`
	AdaptiveBuilt   int      `json:"adaptive_built,omitempty"`
	AdaptiveDenied  bool     `json:"adaptive_denied,omitempty"`
	TraceID         int      `json:"trace_id,omitempty"`
	LatencyMS       float64  `json:"latency_ms"`
}

// httpError is a handler error with a status code.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// maxBodyBytes bounds a POST /query body. A request is a file name, an
// annotation and a few flags, so this is generous; a larger body gets 413.
const maxBodyBytes = 1 << 20

// queryIDHeader carries a /query's id on every reply, whatever its status,
// so a client can find its query in /trace and in the server's log. The
// JSON body does not carry it.
const queryIDHeader = "X-Query-Id"

// queryLog is the one log line each /query writes: its id, who sent it and
// what it asked (the signature's hash, once the query parsed), how it
// ended, how long it queued and, if it ran, what it read and how long it
// took. Status 0 means the client left before a reply.
type queryLog struct {
	id        int64
	tenant    string
	sigHash   string
	status    int
	queueWait time.Duration
	stats     mapred.TaskStats
	latency   time.Duration
}

func (s *Server) logQuery(l *queryLog) {
	s.cfg.Logger.Info("query",
		"id", l.id,
		"tenant", l.tenant,
		"sig", l.sigHash,
		"status", l.status,
		"queue_wait_ms", float64(l.queueWait)/1e6,
		"blocks", l.stats.Blocks,
		"blocks_from_cache", l.stats.BlocksFromCache,
		"index_scans", l.stats.IndexScans,
		"full_scans", l.stats.FullScans,
		"checksum_failovers", l.stats.ChecksumFailovers,
		"latency_ms", float64(l.latency)/1e6,
	)
}

// handleQuery mints the query's id, reads and decodes the request body,
// then admits the request through the bounded in-flight semaphore and
// executes it. The body comes first, under maxBodyBytes, so a client that
// sends slowly or too much never holds a slot. Over capacity, the request
// waits up to QueueTimeout for a slot and is rejected with 429 otherwise —
// backpressure instead of an unbounded pile-up. Every reply carries the id
// in its X-Query-Id header, and every request writes one log line. A
// client that hangs up cancels its query: the engine stops claiming tasks,
// the slot frees within one block per worker, and the query counts as
// abandoned, as one that left while queued does.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ql := queryLog{id: s.lastQuery.Add(1)}
	defer s.logQuery(&ql)
	w.Header().Set(queryIDHeader, strconv.FormatInt(ql.id, 10))
	fail := func(msg string, status int) {
		ql.status = status
		http.Error(w, msg, status)
	}

	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			fail(fmt.Sprintf("request body over %d bytes", maxBodyBytes), http.StatusRequestEntityTooLarge)
			return
		}
		fail("bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	ql.tenant = req.tenant()
	ts := s.tenants.get(ql.tenant)

	waitStart := time.Now() //lint:allow wallclock the queue wait is logged per query as well as observed
	timer := time.NewTimer(s.cfg.QueueTimeout)
	select {
	case s.sem <- struct{}{}:
		timer.Stop()
	case <-timer.C:
		ql.queueWait = time.Since(waitStart) //lint:allow wallclock logged with the refusal
		s.reg.Counter("server.rejected").Inc()
		ts.rejected.Add(1)
		fail("server at capacity, retry later", http.StatusTooManyRequests)
		return
	case <-r.Context().Done():
		timer.Stop()
		s.reg.Counter("server.abandoned").Inc()
		return
	}
	ql.queueWait = time.Since(waitStart) //lint:allow wallclock logged per query as well as observed
	s.reg.Histogram("server.queue_wait_seconds").Observe(ql.queueWait)
	s.reg.Histogram(ts.metrics + "queue_wait_seconds").Observe(ql.queueWait)
	defer func() { <-s.sem }()

	resp, err := s.runQuery(r.Context(), &req, &ql)
	if err != nil && r.Context().Err() != nil {
		s.reg.Counter("server.abandoned").Inc()
		return
	}
	if err != nil {
		status := http.StatusInternalServerError
		if he, ok := err.(*httpError); ok {
			status = he.status
		}
		s.reg.Counter("server.query_errors").Inc()
		fail(err.Error(), status)
		return
	}
	ql.status = http.StatusOK
	writeJSON(w, resp)
}

// fileSchema reads (and caches) a file's schema from its first block —
// every HAIL block carries the schema in its metadata.
func (s *Server) fileSchema(file string) (*schema.Schema, error) {
	s.schemaMu.Lock()
	sch, ok := s.schemas[file]
	s.schemaMu.Unlock()
	if ok {
		return sch, nil
	}
	sch, err := core.FileSchema(s.cluster, file)
	if errors.Is(err, hdfs.ErrNoSuchFile) {
		return nil, &httpError{http.StatusNotFound, err.Error()}
	}
	if err != nil {
		return nil, err
	}
	s.schemaMu.Lock()
	s.schemas[file] = sch
	s.schemaMu.Unlock()
	return sch, nil
}

// adaptiveTap records which (file, column) stream this query's split
// phase observed, so the query's adaptive build volume can be read back
// from the shared indexer's per-stream plan and charged to the tenant.
type adaptiveTap struct {
	inner core.AdaptiveObserver
	mu    sync.Mutex
	file  string
	col   int
	seen  bool
}

func (t *adaptiveTap) ObserveJob(file string, column int, indexed, missing []hdfs.BlockID) {
	t.mu.Lock()
	t.file, t.col, t.seen = file, column, true
	t.mu.Unlock()
	t.inner.ObserveJob(file, column, indexed, missing)
}

// runQuery executes one admitted query on a fresh engine + input format
// over the shared stack until ctx is done, and fills in ql what the
// query's log line says about it. The job runs under the profiler labels
// tenant, query (the id) and sig (the signature's hash), which the
// engine's workers inherit, so a CPU profile of the daemon splits by them.
func (s *Server) runQuery(ctx context.Context, req *QueryRequest, ql *queryLog) (*QueryResponse, error) {
	if req.File == "" || req.Query == "" {
		return nil, &httpError{http.StatusBadRequest, "file and query are required"}
	}
	tenant := req.tenant()
	ts := s.tenants.get(tenant)
	ts.queries.Add(1)

	sch, err := s.fileSchema(req.File)
	if err != nil {
		return nil, err
	}
	q, err := query.ParseAnnotation(sch, req.Query)
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}
	sig := fnv.New64a()
	sig.Write([]byte(q.Signature()))
	ql.sigHash = fmt.Sprintf("%016x", sig.Sum64())

	// Fresh per query: the input format (split-phase stats live on the
	// call, but Adaptive wiring is per-request) and the engine value (Cache
	// and PostTask are per-tenant / per-request).
	// Shared: cluster, cache, indexer, registry.
	input := &core.InputFormat{
		Cluster:   s.cluster,
		Query:     q,
		Splitting: req.Splitting,
		PackScans: req.PackScans,
	}
	engine := &mapred.Engine{
		Cluster:     s.cluster,
		Parallelism: s.cfg.Parallelism,
		Obs:         s.reg,
	}
	if !req.NoCache {
		engine.Cache = tenantCache{Cache: s.cache, ts: ts}
	}
	var tap *adaptiveTap
	adaptiveDenied := false
	if req.Adaptive {
		if ts.adaptiveAllowed() {
			tap = &adaptiveTap{inner: s.idx}
			input.Adaptive = tap
			engine.PostTask = s.idx.AfterTask
		} else {
			adaptiveDenied = true
			ts.adaptiveDenied.Add(1)
			s.reg.Counter("server.adaptive_denied").Inc()
		}
	}
	// The trace rides on the job (split planning, tasks, cache probes).
	// The shared indexer's trace hook is deliberately NOT wired: it is a
	// process-wide setter, and two concurrent traced queries would clobber
	// each other's span sinks mid-build.
	var tr *obs.Trace
	if req.Trace {
		tr = obs.NewTrace("haild:" + tenant)
	}

	// The response keeps the answer's first Limit rows (all of them when
	// Limit is 0), copied from the chunks as the engine delivers them into a
	// buffer that doubles, then once into an exactly-sized slice; row_count
	// is the whole answer's.
	var rows []string
	keep := func(chunk []mapred.KV) bool {
		for _, kv := range chunk {
			if req.Limit > 0 && len(rows) == req.Limit {
				return false
			}
			if len(rows) == cap(rows) {
				rows = slices.Grow(rows, max(len(rows), 64))
			}
			rows = append(rows, kv.Key)
		}
		return true
	}
	job := &mapred.Job{
		Name:     "haild:" + tenant,
		File:     req.File,
		Input:    input,
		MapBatch: workload.PassthroughMapBatch,
		MapSig:   workload.PassthroughMapSig,
		Trace:    tr,
	}
	start := time.Now() //lint:allow wallclock query latency is reported to the tenant (LatencyMS), not just observed
	var res *mapred.JobResult
	labels := pprof.Labels("tenant", tenant, "query", strconv.FormatInt(ql.id, 10), "sig", ql.sigHash)
	pprof.Do(ctx, labels, func(ctx context.Context) {
		res, err = engine.Stream(ctx, job, keep)
	})
	if err != nil {
		return nil, err
	}
	dur := time.Since(start) //lint:allow wallclock feeds both histograms and the client-visible LatencyMS
	s.reg.Counter("server.queries").Inc()
	s.reg.Histogram("server.query_seconds").Observe(dur)
	s.reg.Histogram(ts.metrics + "query_seconds").Observe(dur)
	s.shapes.record(ql.sigHash, dur)

	resp := &QueryResponse{
		Tenant:         tenant,
		Rows:           make([]string, len(rows)),
		RowCount:       res.Rows,
		Tasks:          len(res.Tasks),
		NameNodeOps:    res.SplitPhase.NameNodeOps,
		AdaptiveDenied: adaptiveDenied,
		LatencyMS:      float64(dur) / 1e6,
	}
	copy(resp.Rows, rows)
	st := res.TotalStats()
	ql.stats, ql.latency = st, dur
	ts.blocks.Add(int64(st.Blocks))
	ts.blocksFromCache.Add(int64(st.BlocksFromCache))
	resp.IndexScans = st.IndexScans
	resp.FullScans = st.FullScans
	resp.BlocksFromCache = st.BlocksFromCache
	resp.BytesRead = st.BytesRead

	if tap != nil {
		tap.mu.Lock()
		file, col, seen := tap.file, tap.col, tap.seen
		tap.mu.Unlock()
		if seen {
			if plan, ok := s.idx.Plan(file, col); ok {
				resp.AdaptiveBuilt = plan.Built
				// Charge the stream's build volume to this tenant. Under
				// concurrent same-(file, column) queries from different
				// tenants the per-stream plan is shared, so attribution is
				// approximate — bounded by one job's builds either way.
				if plan.StoredBytes > 0 {
					ts.adaptiveCharged.Add(plan.StoredBytes)
				}
				if plan.Err != nil {
					s.reg.Counter("server.adaptive_errors").Inc()
				}
			}
		}
	}
	if tr != nil {
		resp.TraceID = s.storeTrace(tr, ql.id, tenant, req)
	}
	return resp, nil
}

// storeTrace appends a finished query trace to the /trace ring buffer and
// returns its id.
func (s *Server) storeTrace(tr *obs.Trace, queryID int64, tenant string, req *QueryRequest) int {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	s.nextTrace++
	st := storedTrace{
		ID:      s.nextTrace,
		QueryID: queryID,
		Tenant:  tenant,
		File:    req.File,
		Query:   req.Query,
		Spans:   len(tr.SpanInfos()),
		tr:      tr,
	}
	s.traces = append(s.traces, st)
	if len(s.traces) > s.cfg.TraceBuffer {
		s.traces = s.traces[len(s.traces)-s.cfg.TraceBuffer:]
	}
	return st.ID
}

// handleMetrics serves the process registry: JSON snapshot by default,
// the human-readable table with ?format=text.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, s.reg.String())
		return
	}
	writeJSON(w, s.reg.Snapshot())
}

// handleTrace lists the retained query traces, or serves one as Chrome
// trace_event JSON with ?id=N (load in chrome://tracing / ui.perfetto.dev).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	idStr := r.URL.Query().Get("id")
	if idStr == "" {
		s.traceMu.Lock()
		list := append([]storedTrace(nil), s.traces...)
		s.traceMu.Unlock()
		writeJSON(w, list)
		return
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		http.Error(w, "bad trace id", http.StatusBadRequest)
		return
	}
	var tr *obs.Trace
	s.traceMu.Lock()
	for _, st := range s.traces {
		if st.ID == id {
			tr = st.tr
			break
		}
	}
	s.traceMu.Unlock()
	if tr == nil {
		http.Error(w, "trace not found (evicted from ring buffer?)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := tr.WriteChrome(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.tenants.reports())
}

func (s *Server) handleShapes(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.shapes.reports())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
