package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphreorder/internal/server"
)

// spanHeader carries "op:span" from a client span to the server-side
// span it causes.
const spanHeader = "X-Bench-Span"

// httpClient is one closed-loop client on one keep-alive connection.
type httpClient struct {
	base string
	hc   *http.Client
	tr   *http.Transport
	buf  bytes.Buffer
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpClient{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *httpClient) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole reply. The body is valid until
// the next call.
func (c *httpClient) do(method, path string, body []byte, spanRef string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if spanRef != "" {
		req.Header.Set(spanHeader, spanRef)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *httpClient) get(path string) (int, []byte, error) { return c.do("GET", path, nil, "") }

// getJSON fetches path and decodes a 200 reply into out.
func (c *httpClient) getJSON(path string, out any) error {
	status, body, err := c.get(path)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

// traced sends a request inside a root span of the given name; the
// server-side middleware hangs its span below it.
func (c *httpClient) traced(rec *recorder, name, method, path string, body []byte) (int, []byte, error) {
	if !rec.active() {
		return c.do(method, path, body, "")
	}
	op := rec.newOp()
	id := rec.begin(0, op, name)
	status, reply, err := c.do(method, path, body, strconv.FormatInt(op, 10)+":"+strconv.FormatInt(id, 10))
	rec.end(id)
	return status, reply, err
}

// middleware records one "server.handler" span per request that names a
// parent; it is installed on traced runs only.
func (r *recorder) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ref := req.Header.Get(spanHeader)
		if ref == "" || !r.active() {
			h.ServeHTTP(w, req)
			return
		}
		opStr, parentStr, _ := strings.Cut(ref, ":")
		op, _ := strconv.ParseInt(opStr, 10, 64)
		parent, _ := strconv.ParseInt(parentStr, 10, 64)
		id := r.begin(parent, op, "server.handler")
		h.ServeHTTP(w, req)
		r.end(id)
	})
}

// listener serves a handler on a loopback port.
type listener struct {
	url string
	hs  *http.Server
}

func listenLoopback(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return &listener{url: "http://" + ln.Addr().String(), hs: hs}, nil
}

func (l *listener) close() { l.hs.Close() }

// stopServer ends a graphd's own goroutines (mutation pipelines, builds).
func stopServer(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// memWriter is the in-memory response recorder of everything that calls a
// handler without a socket. It is reused across requests, so recording
// costs no allocation once the buffer has grown.
type memWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}
func (w *memWriter) WriteHeader(status int) { w.status = status }

// serve runs one GET through the handler and returns the status; the body
// is in w.body until the next call.
func (w *memWriter) serve(h http.Handler, path string) (int, error) {
	req, err := http.NewRequest("GET", path, nil)
	if err != nil {
		return 0, err
	}
	w.header, w.status, w.body = make(http.Header), http.StatusOK, w.body[:0]
	h.ServeHTTP(w, req)
	return w.status, nil
}

// sampledReply is a verification read's reply, checked after the phase.
type sampledReply struct {
	client, index int
	op            pointOp
	body          []byte
}

// pointPhase is the result of one point-read phase.
type pointPhase struct {
	wall     time.Duration
	done     int // reads completed
	failed   []string
	lat      []time.Duration // per read, all clients pooled
	rates    []float64       // reads per second, one sample per chunk
	verified []sampledReply
}

// pointChunk is the number of reads per client behind one throughput
// sample: a phase yields one sample per chunk, not one total, so that a
// burst of interference from the host spoils a few samples and the median
// over all of them stands (rule N2).
const pointChunk = 1000

// chunkRates turns the clients' chunk-boundary times into throughput
// samples: for each chunk index, the sum over clients of chunk reads over
// the time that client took for them. Clients run the same list lengths
// side by side, so equal indices are (nearly) concurrent.
func chunkRates(marks [][]time.Time, chunk int) []float64 {
	n := -1
	for _, m := range marks {
		if n < 0 || len(m)-1 < n {
			n = len(m) - 1
		}
	}
	var rates []float64
	for j := 0; j < n; j++ {
		sum := 0.0
		for _, m := range marks {
			if d := m[j+1].Sub(m[j]).Seconds(); d > 0 {
				sum += float64(chunk) / d
			}
		}
		rates = append(rates, sum)
	}
	return rates
}

// runPointPhase has every client issue its list once, closed loop, and
// returns when the last one finishes. stop, when non-nil, makes the phase
// open-ended instead: each client cycles through its list until stop is
// set (the reader beside a writer).
func runPointPhase(clients []*httpClient, paths [][]string, ops [][]pointOp, rec *recorder, stop *atomic.Bool) pointPhase {
	type result struct {
		lat      []time.Duration
		failed   []string
		verified []sampledReply
	}
	results := make([]result, len(clients))
	marks := make([][]time.Time, len(clients))
	chunk := max(1, min(pointChunk, len(paths[0])/2)) // short lists (tests) still yield samples
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, res := clients[c], &results[c]
			res.lat = make([]time.Duration, 0, len(paths[c]))
			for i := 0; ; i++ {
				if len(res.lat)%chunk == 0 {
					marks[c] = append(marks[c], time.Now())
				}
				if stop != nil {
					if stop.Load() {
						return
					}
					i %= len(paths[c])
				} else if i == len(paths[c]) {
					return
				}
				t0 := time.Now()
				status, body, err := cl.traced(rec, "client.point", "GET", paths[c][i], nil)
				res.lat = append(res.lat, time.Since(t0))
				switch {
				case err != nil:
					res.failed = append(res.failed, fmt.Sprintf("GET %s: %v", paths[c][i], err))
				case status != http.StatusOK:
					res.failed = append(res.failed, fmt.Sprintf("GET %s: status %d", paths[c][i], status))
				case ops[c][i].Verify && stop == nil:
					res.verified = append(res.verified, sampledReply{
						client: c, index: i, op: ops[c][i], body: append([]byte(nil), body...),
					})
				}
			}
		}(c)
	}
	wg.Wait()
	ph := pointPhase{wall: time.Since(start), rates: chunkRates(marks, chunk)}
	for _, res := range results {
		ph.done += len(res.lat)
		ph.lat = append(ph.lat, res.lat...)
		ph.failed = append(ph.failed, res.failed...)
		ph.verified = append(ph.verified, res.verified...)
	}
	if len(ph.rates) == 0 && ph.done > 0 {
		// A reader stopped before its first chunk was full (a short write
		// phase on a slow host): the phase's total is the one sample.
		ph.rates = []float64{float64(ph.done) / ph.wall.Seconds()}
	}
	return ph
}

// renderPaths turns operation lists into request paths. A verification
// read names a member of the verification set; target maps it to the
// vertex to ask for.
func renderPaths(ops [][]pointOp, target func(pointOp) string) [][]string {
	paths := make([][]string, len(ops))
	for c, list := range ops {
		paths[c] = make([]string, len(list))
		for i, op := range list {
			paths[c][i] = target(op)
		}
	}
	return paths
}

// ssspReply is the summary a cold SSSP returns.
type ssspReply struct {
	Cached      bool  `json:"cached"`
	Stale       bool  `json:"stale"`
	Rounds      int   `json:"rounds"`
	Reached     int   `json:"reached"`
	Unreachable int   `json:"unreachable"`
	MaxDistance int64 `json:"max_distance"`
}

// scanSample is one cold SSSP: its source, latency and reply.
type scanSample struct {
	src   uint32
	lat   time.Duration
	reply ssspReply
	body  []byte
}

// scanPhase is the result of one cold-SSSP phase.
type scanPhase struct {
	wall    time.Duration
	samples []scanSample // successful scans, client-major
	failed  []string
	queueUs []float64 // from ?debug=trace on every 8th scan of a traced unit
	compMs  []float64
}

// debugTraceEvery asks every 8th cold SSSP of a traced unit for the
// server's own span breakdown.
const debugTraceEvery = 8

// runScanPhase has every client run its cold SSSP sources in order.
// serverSpans adds ?debug=trace to every 8th scan of a traced unit.
func runScanPhase(clients []*httpClient, sources [][]uint32, rec *recorder, serverSpans bool) scanPhase {
	type result struct {
		samples []scanSample
		failed  []string
		queueUs []float64
		compMs  []float64
	}
	results := make([]result, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, res := clients[c], &results[c]
			for i, src := range sources[c] {
				path := "/v1/query/sssp?src=" + strconv.FormatUint(uint64(src), 10)
				debug := serverSpans && rec.active() && i%debugTraceEvery == 0
				if debug {
					path += "&debug=trace"
				}
				t0 := time.Now()
				status, body, err := cl.traced(rec, "client.scan", "GET", path, nil)
				lat := time.Since(t0)
				if err != nil || status != http.StatusOK {
					res.failed = append(res.failed, fmt.Sprintf("GET %s: status %d err %v", path, status, err))
					continue
				}
				var reply ssspReply
				if debug {
					var env struct {
						Trace struct {
							Spans []struct {
								Name  string  `json:"name"`
								DurUs float64 `json:"dur_us"`
							} `json:"spans"`
						} `json:"trace"`
						Response json.RawMessage `json:"response"`
					}
					if err = json.Unmarshal(body, &env); err == nil && env.Response != nil {
						err = json.Unmarshal(env.Response, &reply)
						for _, sp := range env.Trace.Spans {
							switch sp.Name {
							case "queue":
								res.queueUs = append(res.queueUs, sp.DurUs)
							case "compute":
								res.compMs = append(res.compMs, sp.DurUs/1000)
							}
						}
					} else if err == nil {
						err = json.Unmarshal(body, &reply)
					}
				} else {
					err = json.Unmarshal(body, &reply)
				}
				switch {
				case err != nil:
					res.failed = append(res.failed, fmt.Sprintf("GET %s: bad reply: %v", path, err))
				case reply.Cached || reply.Stale:
					res.failed = append(res.failed, fmt.Sprintf("GET %s: answered from a cache (cached=%v stale=%v), not cold", path, reply.Cached, reply.Stale))
				default:
					res.samples = append(res.samples, scanSample{src: src, lat: lat, reply: reply, body: append([]byte(nil), body...)})
				}
			}
		}(c)
	}
	wg.Wait()
	ph := scanPhase{wall: time.Since(start)}
	for _, res := range results {
		ph.samples = append(ph.samples, res.samples...)
		ph.failed = append(ph.failed, res.failed...)
		ph.queueUs = append(ph.queueUs, res.queueUs...)
		ph.compMs = append(ph.compMs, res.compMs...)
	}
	return ph
}

// splitSources deals count sources per client from a flat list.
func splitSources(all []uint32, clients, perClient, unit int) [][]uint32 {
	out := make([][]uint32, clients)
	base := unit * clients * perClient
	for c := range out {
		lo := base + c*perClient
		hi := lo + perClient
		if hi > len(all) {
			hi = len(all)
		}
		if lo > hi {
			lo = hi
		}
		out[c] = all[lo:hi]
	}
	return out
}
