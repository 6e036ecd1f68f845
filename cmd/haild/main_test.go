package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/schema"
	"repro/internal/server"
)

func makeFS(t *testing.T, n int) string {
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
		Config:  core.LayoutConfig{Schema: sch, SortColumns: []int{0, -1}, BlockSize: 2048},
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

// TestServeSmoke boots the daemon on an ephemeral port, runs queries over
// HTTP (including an adaptive one), shuts it down with SIGTERM, and
// checks the graceful path persisted the adaptive replicas with their
// records.
func TestServeSmoke(t *testing.T) {
	dir := makeFS(t, 700)
	var out, errb bytes.Buffer
	ready := make(chan string, 1)
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-fs", dir, "-addr", "127.0.0.1:0",
			"-offer-rate", "1", "-persist-every", "0",
			"-tenant", "capped:4096:0",
		}, &out, &errb, ready, sig)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v (stderr: %s)", err, errb.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	post := func(req server.QueryRequest) *server.QueryResponse {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s", resp.Status)
		}
		var qr server.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		return &qr
	}

	r1 := post(server.QueryRequest{File: "/t", Query: `@HailQuery(filter="@1 = 3", projection={@2})`})
	if r1.RowCount != 100 {
		t.Fatalf("row_count = %d, want 100", r1.RowCount)
	}
	r2 := post(server.QueryRequest{File: "/t", Query: `@HailQuery(filter="@1 = 3", projection={@2})`})
	if r2.BlocksFromCache == 0 {
		t.Error("second identical query hit no cache")
	}
	ra := post(server.QueryRequest{File: "/t", Query: `@HailQuery(filter="@3 = 4", projection={@1})`, Adaptive: true})
	if ra.AdaptiveBuilt == 0 {
		t.Error("adaptive query built nothing at offer-rate 1")
	}

	hz, err := http.Get(base + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, hz)
	}
	hz.Body.Close()

	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v (stderr: %s)", err, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never shut down")
	}
	if !strings.Contains(out.String(), "haild: stopped") {
		t.Errorf("missing shutdown log, got:\n%s", out.String())
	}
	loaded, err := hdfs.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reps := adaptive.New(loaded, 0, 0).Replicas(); len(reps) == 0 {
		t.Fatal("the manifest after shutdown carries no adaptive replica")
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, &out, &errb, nil, nil); err == nil {
		t.Fatal("missing -fs accepted")
	}
	if err := run([]string{"-fs", "x", "-tenant", "nope"}, &out, &errb, nil, nil); err == nil {
		t.Fatal("malformed -tenant accepted")
	}
	if err := run([]string{"-fs", "x", "-tenant", ":1:2"}, &out, &errb, nil, nil); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	// Retired flags are unknown flags, not silently ignored ones: the
	// namenode directory has one layout (-nn-shards), the adaptive budget
	// is always kept by eviction (-adaptive-evict), and eviction ranks by
	// the logical heat clock alone (-heat-decay).
	for flag, args := range map[string][]string{
		"-nn-shards":      {"-nn-shards", "8"},
		"-adaptive-evict": {"-adaptive-evict"},
		"-heat-decay":     {"-heat-decay", "1h"},
	} {
		errb.Reset()
		if err := run(append([]string{"-fs", "x"}, args...), &out, &errb, nil, nil); err != errUsage {
			t.Fatalf("%s: err = %v, want the usage error", flag, err)
		}
		if !strings.Contains(errb.String(), "flag provided but not defined: "+flag) {
			t.Fatalf("%s: stderr does not name the unknown flag:\n%s", flag, errb.String())
		}
	}
}

// TestPprofOnItsOwnListener: -pprof serves the profiler's endpoints on the
// address it names and nowhere else; -addr does not serve them.
func TestPprofOnItsOwnListener(t *testing.T) {
	dir := makeFS(t, 100)
	var out, errb bytes.Buffer
	ready := make(chan string, 1)
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-fs", dir, "-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0", "-persist-every", "0"},
			&out, &errb, ready, sig)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v (stderr: %s)", err, errb.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	m := regexp.MustCompile(`haild: pprof on (\S+)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no pprof address in the output:\n%s", out.String())
	}
	for url, want := range map[string]int{
		"http://" + m[1] + "/debug/pprof/cmdline": http.StatusOK,
		"http://" + addr + "/debug/pprof/cmdline": http.StatusNotFound,
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", url, resp.StatusCode, want)
		}
	}
	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never shut down")
	}
}
