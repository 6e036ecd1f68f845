package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/query.golden from this run")

// goldenRequests are the shapes the other server tests send: indexed and
// full scans, cold and from the cache, packed and split, adaptive, traced,
// uncached, with a limit below, at and above the row count and without
// one, and the two client errors.
var goldenRequests = []QueryRequest{
	{File: "/t", Query: indexedQ, Splitting: true},
	{File: "/t", Query: indexedQ, Splitting: true},
	{File: "/t", Query: indexedQ, Limit: 5},
	{File: "/t", Query: adaptiveQ, NoCache: true},
	{File: "/t", Query: adaptiveQ, Limit: 7},
	{File: "/t", Query: adaptiveQ, Limit: 100000},
	{Tenant: "t2", File: "/t", Query: adaptiveQ, Adaptive: true, Limit: 3},
	{Tenant: "t2", File: "/t", Query: adaptiveQ, Adaptive: true},
	{File: "/t", Query: indexedQ, Splitting: true, PackScans: true, Trace: true},
	{File: "/t", Query: `@HailQuery(filter="@1 between(1,2)", projection={@2, @3})`, PackScans: true, Limit: 1},
	{File: "/t", Query: "not an annotation"},
	{File: "/missing", Query: indexedQ},
}

// The two fields of a reply that differ from run to run.
var (
	latencyField = regexp.MustCompile(`"latency_ms":[0-9.e+-]+`)
	traceField   = regexp.MustCompile(`"trace_id":[0-9]+`)
)

// TestQueryResponsesGolden holds /query's replies to testdata/query.golden
// byte for byte — status, content type and body, with latency_ms and
// trace_id zeroed — over goldenRequests sent in order to one server. A
// change that moves a reply on purpose regenerates the file with
//
//	go test -run TestQueryResponsesGolden ./internal/server -update
func TestQueryResponsesGolden(t *testing.T) {
	s := newTestServer(t, makeFS(t, 700), Config{OfferRate: 0.5})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var got bytes.Buffer
	for i, req := range goldenRequests {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		reply = latencyField.ReplaceAll(reply, []byte(`"latency_ms":0`))
		reply = traceField.ReplaceAll(reply, []byte(`"trace_id":0`))
		fmt.Fprintf(&got, "== %d %s\n%d %s\n%s", i, body, resp.StatusCode, resp.Header.Get("Content-Type"), reply)
	}

	path := filepath.Join("testdata", "query.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("reply differs from %s at line %d:\n got %.300s\nwant %.300s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("reply has %d lines, %s %d", len(gl), path, len(wl))
	}
}
