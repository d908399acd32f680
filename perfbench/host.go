package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tbwf/internal/serve"
	"tbwf/internal/shard"
)

// reqIDHeader carries the benchmark's request id, so the server-side span
// of a request joins the generator's span of the same request.
const reqIDHeader = "X-Perfbench-Req"

// reqTimeout bounds every request. A request that outlives it failed.
const reqTimeout = 3 * time.Second

// host runs one serve.Server in-process behind the benchmark's own
// http.Server on loopback, speaking cleartext HTTP/2 so that in-flight
// requests multiplex over at most nproc connections.
type host struct {
	srv     *serve.Server
	hs      *http.Server
	base    string
	clients []*http.Client
	served  chan struct{} // closed when hs.Serve returns

	// ctx is cancelled by close, which ends every outstanding request;
	// inflight counts the request goroutines close waits for.
	ctx      context.Context
	cancel   context.CancelFunc
	inflight sync.WaitGroup
	nextID   atomic.Uint64

	// tr is the tracer of the leg in progress; nil while untraced.
	tr atomic.Pointer[tracer]
}

// startHost deploys cfg and returns once every replica, and every shard
// of a sharded deploy, has served one read; setup is the time that took
// from serve.New on.
func startHost(cfg serve.Config) (h *host, setup time.Duration, err error) {
	t0 := time.Now()
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Stop()
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	var protos http.Protocols
	protos.SetUnencryptedHTTP2(true)
	h = &host{srv: srv, base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	h.ctx, h.cancel = context.WithCancel(context.Background())
	h.hs = &http.Server{
		Handler:   h,
		Protocols: &protos,
		// Streams, not connections, carry the offered load.
		HTTP2: &http.HTTP2Config{MaxConcurrentStreams: 4096},
	}
	go func() {
		defer close(h.served)
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	for i := 0; i < runtime.NumCPU(); i++ {
		h.clients = append(h.clients, &http.Client{Transport: &http.Transport{Protocols: &protos}})
	}
	if err := h.probeAll(cfg); err != nil {
		h.close()
		return nil, 0, err
	}
	return h, time.Since(t0), nil
}

// probeAll reads once through every replica (and every shard × replica)
// concurrently, retrying each probe until it succeeds.
func (h *host) probeAll(cfg serve.Config) error {
	var probes []request
	for p := 0; p < cfg.N; p++ {
		probes = append(probes, request{kind: "read", replica: p})
	}
	for _, key := range shardKeys(cfg.Shards) {
		for p := 0; p < cfg.N; p++ {
			probes = append(probes, request{kind: "get", key: key, replica: p})
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	errs := make(chan error, len(probes))
	for _, pr := range probes {
		go func() {
			for {
				r := &record{request: pr}
				r.id = h.nextID.Add(1)
				h.send(r)
				if r.ok {
					errs <- nil
					return
				}
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("setup: probe %+v never served (status %d)", pr, r.status)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	var first error
	for range probes {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// shardKeys returns one key per shard of an s-shard keyspace.
func shardKeys(s int) []string {
	keys := make([]string, s)
	left := s
	for i := 0; left > 0; i++ {
		k := "probe" + strconv.Itoa(i)
		if sh := shard.KeyShard(k, s); keys[sh] == "" {
			keys[sh] = k
			left--
		}
	}
	return keys
}

// close ends every outstanding request, waits for their goroutines, and
// stops the HTTP server and the service.
func (h *host) close() error {
	h.cancel()
	h.inflight.Wait()
	for _, c := range h.clients {
		c.CloseIdleConnections()
	}
	_ = h.hs.Close() // Close reports only listener errors, and the listener is ours
	<-h.served
	return h.srv.Stop()
}

// ServeHTTP is the benchmark's middleware around serve.Server.ServeHTTP.
// On a traced leg it records the handler span and the moment the handler
// began its response, which closes the request's pipeline interval.
func (h *host) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.srv.ServeHTTP(w, r)
		return
	}
	id, _ := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64) // 0 for untagged requests
	sw := &stampWriter{ResponseWriter: w}
	start := time.Now()
	h.srv.ServeHTTP(sw, r)
	end := time.Now()
	tr.add(span{Name: "serve.ServeHTTP", ID: id, Parent: "loadgen.request", Start: tr.at(start), End: tr.at(end)})
	if !sw.at.IsZero() {
		tr.add(span{Name: "serve.respond", ID: id, Parent: "serve.ServeHTTP", Start: tr.at(sw.at), End: tr.at(sw.at)})
	}
}

// stampWriter records when the wrapped handler first wrote its response.
type stampWriter struct {
	http.ResponseWriter
	at time.Time
}

func (w *stampWriter) WriteHeader(code int) {
	if w.at.IsZero() {
		w.at = time.Now()
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *stampWriter) Write(b []byte) (int, error) {
	if w.at.IsZero() {
		w.at = time.Now()
	}
	return w.ResponseWriter.Write(b)
}

// wireResp is what the benchmark reads of an invoke response, unkeyed or
// keyed.
type wireResp struct {
	OK   bool `json:"ok"`
	Resp struct {
		Prev int64 `json:"prev"`
	} `json:"resp"`
	LatencyUS float64 `json:"latency_us"`
}

// send issues r and fills in its outcome. It never returns an error: a
// failure is the record's status (0 when no response arrived).
func (h *host) send(r *record) {
	ctx, cancel := context.WithTimeout(h.ctx, reqTimeout)
	defer cancel()
	path := "/v1/invoke"
	if r.key != "" {
		path = "/v1/kv/invoke"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(r.body()))
	if err != nil {
		panic(err) // the URL and method are the benchmark's own constants
	}
	req.Header.Set(reqIDHeader, strconv.FormatUint(r.id, 10))
	r.sent = time.Now()
	resp, err := h.clients[r.id%uint64(len(h.clients))].Do(req)
	if err == nil {
		var data []byte
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
		if err == nil && resp.StatusCode == http.StatusOK {
			var wr wireResp
			if json.Unmarshal(data, &wr) == nil && wr.OK {
				r.ok = true
				r.prev, r.latencyUS = wr.Resp.Prev, wr.LatencyUS
			}
		}
	}
	r.done = time.Now()
	if tr := h.tr.Load(); tr != nil {
		tr.add(span{Name: "loadgen.request", ID: r.id, Start: tr.at(r.sent), End: tr.at(r.done)})
	}
}

// post sends a JSON body outside the measured traffic (the fault retune).
func (h *host) post(path string, body any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := h.clients[0].Post(h.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, msg)
	}
	return nil
}

// report reads /v1/metrics by calling the server's handler directly.
func (h *host) report() (serve.MetricsReport, error) {
	rec := httptest.NewRecorder()
	h.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var rep serve.MetricsReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("decode /v1/metrics: %w", err)
	}
	return rep, nil
}
