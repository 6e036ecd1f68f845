package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checksLeft is a context that reports itself cancelled once its Err has
// been asked n times: the engine asks before every claim and before and
// after every block, so the cancel lands at a chosen point of the map
// phase, the same one every run.
type checksLeft struct {
	context.Context
	n    atomic.Int32
	once sync.Once
	done chan struct{}
}

func cancelAfterChecks(n int32) *checksLeft {
	c := &checksLeft{Context: context.Background(), done: make(chan struct{})}
	c.n.Store(n)
	return c
}

func (c *checksLeft) Err() error {
	if c.n.Add(-1) >= 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

func (c *checksLeft) Done() <-chan struct{} { return c.done }

// TestCancelledQueryFreesItsSlot: a client that hangs up while its query
// is in the map phase — here after the first block, at Parallelism 1 —
// gets no reply; the query frees its admission slot, counts as abandoned
// and not as an error, and the next query answers in full.
func TestCancelledQueryFreesItsSlot(t *testing.T) {
	s := newTestServer(t, makeFS(t, 700), Config{MaxInFlight: 1, Parallelism: 1})
	body, _ := json.Marshal(QueryRequest{File: "/t", Query: adaptiveQ, NoCache: true})
	ctx := cancelAfterChecks(5) // claim, block 0, after block 0, claim, block 1: cancelled
	rec := httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)).WithContext(ctx))
	if rec.Body.Len() != 0 {
		t.Errorf("the cancelled query replied %d %q", rec.Code, rec.Body.String())
	}
	if len(s.sem) != 0 {
		t.Errorf("%d admission slot(s) held after the cancel", len(s.sem))
	}
	if got := s.reg.Counter("server.abandoned").Value(); got != 1 {
		t.Errorf("server.abandoned = %d, want 1", got)
	}
	if got := s.reg.Counter("server.query_errors").Value() + s.reg.Counter("server.queries").Value(); got != 0 {
		t.Errorf("the cancelled query counted %d times as an error or an answer", got)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, code := postQuery(t, ts, QueryRequest{File: "/t", Query: adaptiveQ, NoCache: true})
	if code != http.StatusOK || resp.RowCount != len(referenceRows(t, s.cfg.FSDir, "/t", adaptiveQ)) {
		t.Fatalf("the next query: status %d, %d rows", code, resp.RowCount)
	}
}

// TestProfileLabelsEachTenant: the engine's workers run a query under the
// labels /query sets, so a CPU profile taken during a two-tenant storm
// names both tenants. The storm is repeated, a profile per round, until
// both labels appear or 20 s have passed.
func TestProfileLabelsEachTenant(t *testing.T) {
	s := newTestServer(t, makeFSBlocks(t, 6000, 8192), Config{Parallelism: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tenants := []string{"tenant-label-alpha", "tenant-label-beta"}

	found := map[string]bool{}
	for deadline := time.Now().Add(20 * time.Second); len(found) < len(tenants); {
		if time.Now().After(deadline) {
			t.Fatalf("no profile within 20 s names every tenant; found %v", found)
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			t.Skipf("CPU profiler busy: %v", err)
		}
		var wg sync.WaitGroup
		stop := time.Now().Add(300 * time.Millisecond)
		for _, tenant := range tenants {
			body, _ := json.Marshal(QueryRequest{Tenant: tenant, File: "/t", Query: adaptiveQ, NoCache: true})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stop) {
					resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("tenant %s: status %d, %v", tenant, resp.StatusCode, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		pprof.StopCPUProfile()
		zr, err := gzip.NewReader(&prof)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		// A label's value enters the profile's string table only when a
		// sample carries it.
		for _, tenant := range tenants {
			if bytes.Contains(raw, []byte(tenant)) {
				found[tenant] = true
			}
		}
	}
}
