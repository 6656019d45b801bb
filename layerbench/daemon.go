package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"wlpa/internal/server"
	"wlpa/internal/store"
	"wlpa/pta"
)

// Daemon settings: the defaults of `wlpad serve`, flag for flag.
const (
	wlpadTimeout     = 2 * time.Minute
	wlpadMaxInflight = 2
	wlpadBaselineCap = 8
	wlpadWorkers     = 0 // GOMAXPROCS
)

// daemon is an in-process wlpad: the internal/server handler behind a
// real loopback HTTP listener, configured as `wlpad serve` with no
// flags (memory-only store, text request log).
type daemon struct {
	hs     *http.Server
	base   string
	done   chan error
	client *http.Client
}

func startDaemon() (*daemon, error) {
	st, err := store.Open("", store.DefaultMemBudget)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Store:       st,
		Options:     pta.Options{Workers: wlpadWorkers, Timeout: wlpadTimeout},
		MaxInflight: wlpadMaxInflight,
		BaselineCap: wlpadBaselineCap,
		// wlpad formats a text log line per request; keep the cost,
		// drop the bytes.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		hs: &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      wlpadTimeout + 30*time.Second,
		},
		base:   "http://" + ln.Addr().String(),
		done:   make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the daemon down and waits for its serve loop to exit.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

func (d *daemon) analyze(entry, src string) (*server.AnalyzeResponse, error) {
	var resp server.AnalyzeResponse
	err := d.post("/analyze", server.AnalyzeRequest{Files: map[string]string{entry: src}, Entry: entry}, &resp)
	return &resp, err
}

func (d *daemon) queryPost(entry, src string, sites []pta.QuerySite) (*server.QueryResponse, error) {
	req := server.QueryRequest{Files: map[string]string{entry: src}, Entry: entry}
	for _, s := range sites {
		req.Queries = append(req.Queries, server.SiteQuery{Proc: s.Proc, Line: s.Line, Expr: s.Expr})
	}
	var resp server.QueryResponse
	err := d.post("/query", req, &resp)
	return &resp, err
}

func (d *daemon) queryGet(entry string, s pta.QuerySite) (*server.QueryResponse, error) {
	q := url.Values{"entry": {entry}, "proc": {s.Proc}, "line": {strconv.Itoa(s.Line)}, "expr": {s.Expr}}
	var resp server.QueryResponse
	err := d.do(http.MethodGet, "/query?"+q.Encode(), nil, &resp)
	return &resp, err
}

func (d *daemon) metrics() (*server.MetricsSnapshot, error) {
	var m server.MetricsSnapshot
	err := d.do(http.MethodGet, "/metrics", nil, &m)
	return &m, err
}

func (d *daemon) post(path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return d.do(http.MethodPost, path, data, out)
}

func (d *daemon) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}
