package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distsearch"
)

// httpServer is one loopback HTTP server owned by the benchmark; stop
// returns once its serving goroutine has exited.
type httpServer struct {
	addr string
	srv  *http.Server
	wg   sync.WaitGroup
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &httpServer{addr: ln.Addr().String(), srv: &http.Server{Handler: h}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.srv.Serve(ln) // always http.ErrServerClosed after stop
	}()
	return s, nil
}

func (s *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	s.wg.Wait()
}

// fleet is a set of in-process search workers on loopback listeners.
type fleet struct {
	servers []*httpServer
}

// fleetSize and workerParallelism fix the fit-dist fleet: two workers of
// one scoring thread each, so the fleet never uses more threads than the
// two cores the benchmark is specified for.
const (
	fleetSize         = 2
	workerParallelism = 1
)

// startFleet starts fleetSize fresh WorkerServers. wrap, when non-nil,
// wraps each worker's handler (the traced run's middleware).
func startFleet(wrap func(http.Handler) http.Handler) (*fleet, error) {
	f := &fleet{}
	for range fleetSize {
		var h http.Handler = (&distsearch.WorkerServer{Parallelism: workerParallelism}).Handler()
		if wrap != nil {
			h = wrap(h)
		}
		s, err := startHTTP(h)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.servers = append(f.servers, s)
	}
	return f, nil
}

func (f *fleet) addrs() []string {
	out := make([]string, len(f.servers))
	for i, s := range f.servers {
		out[i] = s.addr
	}
	return out
}

// healthy probes every worker's health route.
func (f *fleet) healthy(c *http.Client) error {
	for _, s := range f.servers {
		resp, err := c.Get("http://" + s.addr + "/v1/healthz")
		if err != nil {
			return fmt.Errorf("worker %s: %w", s.addr, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("worker %s: health status %d", s.addr, resp.StatusCode)
		}
	}
	return nil
}

func (f *fleet) stop() {
	for _, s := range f.servers {
		s.stop()
	}
}

// tap is the traced run's HTTP middleware: it records a span per request
// around the wrapped handler (worker- or server-side time) and counts the
// request and response bytes that crossed the wire.
type tap struct {
	tr *tracer
	// ids returns the parent span and trace id a request belongs to.
	ids   func(r *http.Request) (parent, trace int)
	name  func(r *http.Request) string
	bytes atomic.Int64
}

func (t *tap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		parent, trace := t.ids(r)
		body := &countingReader{r: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: rw}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		t.tr.record(0, parent, trace, t.name(r), start, end)
		in := body.n
		if r.ContentLength > in {
			in = r.ContentLength
		}
		t.bytes.Add(in + cw.n)
	})
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// distTap routes worker requests to the fit currently running: the fit
// loop publishes its trace id and reserved search span before each fit.
type distTap struct {
	tap
	trace, search atomic.Int64
}

func newDistTap(tr *tracer) *distTap {
	d := &distTap{}
	d.tap = tap{
		tr:  tr,
		ids: func(*http.Request) (int, int) { return int(d.search.Load()), int(d.trace.Load()) },
		name: func(r *http.Request) string {
			switch r.URL.Path {
			case "/v1/job":
				return "distsearch.install"
			case "/v1/score":
				return "distsearch.shard"
			}
			return "distsearch.other"
		},
	}
	return d
}
