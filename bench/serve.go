package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/hdfs"
	"repro/internal/obs"
	"repro/internal/server"
)

// served is fixture F behind a resident server on a loopback listener.
type served struct {
	dir    string
	srv    *server.Server
	http   *http.Server
	url    string
	done   chan error // Serve's return
	blocks int        // blocks of the served file
	o      *oracle    // answers the cold filters' row counts
	hot    []benchQuery
	hotAns []answer // hotAns[i] belongs to hot[i]
	cold   *coldStream
	stream []*requestStream // one per client, continued across regions

	closeOnce sync.Once
	closeErr  error
}

const clients = 2

// serve saves fx, loads it into a server.Server and serves it; it returns
// the time Save took.
func (r *run) serve(fx *fixture, o *oracle, hot []benchQuery, hotAns []answer) (*served, time.Duration, error) {
	dir, err := os.MkdirTemp(r.outDir, "fs-")
	if err != nil {
		return nil, 0, err
	}
	sp := r.span("hdfs", "Cluster.Save")
	start := time.Now()
	err = fx.cluster.Save(dir)
	saveDur := time.Since(start)
	sp.End()
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	cfg := server.Config{
		FSDir:       dir,
		CacheBudget: r.sc.cacheBudget,
		Parallelism: 1,
		Tenants:     map[string]server.TenantLimits{"a": {}, "b": {}},
	}
	sp = r.span("server", "New")
	srv, err := server.New(cfg)
	sp.End()
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, 0, err
	}
	s := &served{
		dir: dir, srv: srv, blocks: fx.sum.Blocks, o: o, hot: hot, hotAns: hotAns,
		http: &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		cold: newColdStream(r.seed, r.sc),
	}
	for c := 0; c < clients; c++ {
		s.stream = append(s.stream, newRequestStream(r.seed, c, clients, hot, s.cold))
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, saveDur, nil
}

// close stops the listener, waits for Serve to return, closes the server
// and removes the saved filesystem. Later calls return the first one's
// error, so a deferred close can back up an explicit one.
func (s *served) close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.closeErr = s.http.Shutdown(ctx)
		<-s.done
		if err := s.srv.Close(); s.closeErr == nil {
			s.closeErr = err
		}
		if err := os.RemoveAll(s.dir); s.closeErr == nil {
			s.closeErr = err
		}
	})
	return s.closeErr
}

// reply is one request's outcome as the client saw it.
type reply struct {
	ok       bool          // false when the request failed
	dur      time.Duration // round trip
	overhead time.Duration // round trip minus the server's own latency_ms
	hot      bool
	cached   bool // every block came from the cache
}

// servedRegion is what a region of requests measured.
type servedRegion struct {
	timed
	replies []reply
}

// post sends one request on the client's own keep-alive connection and
// checks status and row_count.
func (s *served) post(c *http.Client, tenant string, rq request, trace bool) (reply, error) {
	body, err := json.Marshal(server.QueryRequest{
		Tenant: tenant, File: fileName, Query: rq.bq.annotation, Limit: 50, Trace: trace,
	})
	if err != nil {
		return reply{}, err
	}
	start := time.Now()
	resp, err := c.Post(s.url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dur := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("%s: HTTP %d: %s", rq.bq.annotation, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return reply{}, err
	}
	want := s.hotAns[rq.idx].count
	if !rq.hot {
		want = s.o.coldCount(rq.bq)
	}
	if qr.RowCount != want {
		return reply{}, fmt.Errorf("%s: row_count %d, oracle says %d", rq.bq.annotation, qr.RowCount, want)
	}
	return reply{
		ok:       true,
		dur:      dur,
		overhead: dur - time.Duration(qr.LatencyMS*1e6),
		hot:      rq.hot,
		cached:   qr.BlocksFromCache == s.blocks,
	}, nil
}

// region drives both closed-loop clients for ops requests between them
// and merges what they saw.
func (r *run) region(s *served, ops int, trace bool) (servedRegion, error) {
	type clientOut struct {
		replies []reply // failed requests are zero replies
		err     error
	}
	outs := make([]clientOut, clients)
	var reg servedRegion
	var wg sync.WaitGroup
	runtime.GC()
	reg.begin = snapshot()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			defer hc.CloseIdleConnections()
			tenant := string(rune('a' + c))
			for i := 0; i < ops/clients; i++ {
				rq, err := s.stream[c].take()
				if err != nil {
					out.err = err
					return
				}
				sp := r.tr.StartSpan("server.POST /query", "server", c+1, obs.Span{})
				rep, err := s.post(hc, tenant, rq, trace)
				sp.End()
				if err != nil && out.err == nil {
					out.err = err
				}
				out.replies = append(out.replies, rep)
			}
		}(c)
	}
	wg.Wait()
	reg.end = snapshot()

	var firstErr error
	for _, out := range outs {
		if firstErr == nil {
			firstErr = out.err
		}
		for _, rep := range out.replies {
			reg.attempted++
			if !rep.ok {
				reg.failed++
				continue
			}
			reg.durs = append(reg.durs, rep.dur)
			reg.replies = append(reg.replies, rep)
		}
	}
	return reg, firstErr
}

// serverSpansPerOp is the mean span count of the traces the server kept
// of its latest traced queries.
func (s *served) serverSpansPerOp() (float64, error) {
	resp, err := http.Get(s.url + "/trace")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var kept []struct {
		Spans int `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&kept); err != nil {
		return 0, err
	}
	if len(kept) == 0 {
		return 0, fmt.Errorf("the server kept no trace")
	}
	total := 0
	for _, k := range kept {
		total += k.Spans
	}
	return float64(total) / float64(len(kept)), nil
}

// loadTime times hdfs.Load of a saved filesystem.
func (r *run) loadTime(dir string) (time.Duration, error) {
	sp := r.span("hdfs", "Load")
	start := time.Now()
	_, err := hdfs.Load(dir)
	d := time.Since(start)
	sp.End()
	return d, err
}
