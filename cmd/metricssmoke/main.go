// Command metricssmoke is the CI gate for the metrics surface: it
// boots the daemon's server in-process on a random port with a session
// store in a temporary directory, drives a small federation, a query
// and a restore over HTTP, scrapes GET /metrics in both
// content negotiations, and fails on malformed Prometheus exposition
// or a JSON snapshot missing the expected fields. Exit status is the
// verdict; output is only diagnostic.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "metricssmoke:", err)
		os.Exit(1)
	}
	fmt.Println("metricssmoke: ok")
}

func run() error {
	srv := server.New(server.DefaultConfig())
	dir, err := os.MkdirTemp("", "metricssmoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := srv.OpenStore(dir); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	// One inline source, federated, queried: enough traffic that every
	// metric family (query latency, per-source fetches, cache layers)
	// has real samples.
	if err := post(base+"/sources", map[string]any{
		"name": "Library",
		"tables": []map[string]any{{
			"name":    "books",
			"columns": []string{"isbn!pk", "title", "price:float"},
			"rows": [][]any{
				{"1", "Dataspaces", 30.0},
				{"2", "Schema Matching", 45.5},
			},
		}},
	}, http.StatusCreated); err != nil {
		return err
	}
	if err := post(base+"/federate", map[string]any{}, http.StatusCreated); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if err := post(base+"/query", map[string]any{"query": "count(<<library_books>>)"}, http.StatusOK); err != nil {
			return err
		}
	}

	// One restore on top of the autosaves above, so the write-path
	// families (bytes written, save and restore time) have samples too.
	if err := post(base+"/sessions/default/restore", nil, http.StatusOK); err != nil {
		return err
	}

	// Prometheus exposition must parse and carry the core families.
	text, ct, err := get(base+"/metrics", "")
	if err != nil {
		return err
	}
	if !strings.HasPrefix(ct, "text/plain") {
		return fmt.Errorf("GET /metrics content type = %q, want text/plain exposition", ct)
	}
	if err := obs.ValidateExposition(text); err != nil {
		return fmt.Errorf("invalid Prometheus exposition: %w\n%s", err, text)
	}
	for _, want := range []string{
		"automed_queries_total 3",
		"automed_query_duration_seconds_bucket",
		`automed_source_fetches_total{source="Library",kind="relational"}`,
		`automed_cache_hits_total{layer="plan"}`,
		`automed_cache_misses_total{layer="join_index"}`,
		"automed_session_snapshots_total 2",
		"automed_snapshot_bytes_total ",
		"automed_snapshot_duration_seconds_count 2",
		"automed_restore_duration_seconds_count 1",
	} {
		if !bytes.Contains(text, []byte(want)) {
			return fmt.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}

	// Both JSON negotiations must serve the legacy snapshot shape.
	for _, u := range []struct{ url, accept string }{
		{base + "/metrics?format=json", ""},
		{base + "/metrics", "application/json"},
	} {
		body, ct, err := get(u.url, u.accept)
		if err != nil {
			return err
		}
		if !strings.HasPrefix(ct, "application/json") {
			return fmt.Errorf("GET %s content type = %q, want application/json", u.url, ct)
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			return fmt.Errorf("GET %s: decoding JSON metrics: %w", u.url, err)
		}
		for _, field := range []string{"queries_total", "query_latency", "plan_cache", "join_index_cache", "sources",
			"snapshot_bytes_total", "snapshot_latency", "restore_latency"} {
			if _, ok := m[field]; !ok {
				return fmt.Errorf("GET %s: JSON metrics lack %q", u.url, field)
			}
		}
		if n, ok := m["queries_total"].(float64); !ok || n != 3 {
			return fmt.Errorf("GET %s: queries_total = %v, want 3", u.url, m["queries_total"])
		}
		if n, ok := m["snapshot_bytes_total"].(float64); !ok || n <= 0 {
			return fmt.Errorf("GET %s: snapshot_bytes_total = %v after two autosaves", u.url, m["snapshot_bytes_total"])
		}
	}
	return nil
}

func post(url string, body any, want int) error {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return err
		}
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s = %d, want %d (%s)", url, resp.StatusCode, want, data)
	}
	return nil
}

func get(url, accept string) ([]byte, string, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, "", err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s = %d (%s)", url, resp.StatusCode, body)
	}
	return body, resp.Header.Get("Content-Type"), nil
}
