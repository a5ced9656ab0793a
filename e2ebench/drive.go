package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

type phase int

const (
	phaseWarm phase = iota
	phaseWindow
	phaseProbe
)

// sample is one HTTP request as the client saw it. Bodies are kept once per
// distinct content (route-hot repeats a few hundred answers thousands of
// times) and decoded and checked after the server has stopped, off the timed
// path.
type sample struct {
	phase  phase
	kind   reqKind
	req    request // reads
	batch  int     // index into plan.batches (writes)
	start  time.Time
	end    time.Time
	status int    // 0 = transport error
	body   uint64 // key into client.bodies
}

// client drives one fedserver over at most conns keep-alive connections.
type client struct {
	http *http.Client
	base string

	mu      sync.Mutex
	samples []sample
	bodies  map[uint64][]byte
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{
		http:   &http.Client{Transport: tr, Timeout: 60 * time.Second},
		base:   base,
		bodies: make(map[uint64][]byte),
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and records it.
func (c *client) do(s sample, method, path string, body []byte) sample {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	s.start = time.Now()
	req, err := http.NewRequest(method, c.base+path, rd)
	if err == nil {
		var resp *http.Response
		resp, err = c.http.Do(req)
		if err == nil {
			var b []byte
			b, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			s.end = time.Now()
			if err == nil {
				s.status = resp.StatusCode
				h := fnv.New64a()
				h.Write(b)
				s.body = h.Sum64()
				c.mu.Lock()
				if _, ok := c.bodies[s.body]; !ok {
					c.bodies[s.body] = b
				}
				c.mu.Unlock()
			}
		}
	}
	if s.end.IsZero() {
		s.end = time.Now()
	}
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.mu.Unlock()
	return s
}

// readSource hands out reads in plan order across connections.
type readSource struct {
	next atomic.Int64
	get  func(i int) (request, bool)
}

func (r *readSource) take() (request, bool) { return r.get(int(r.next.Add(1) - 1)) }

// closedLoop runs conns workers that each issue their next read as soon as
// the previous one returns, until the deadline; a read started before the
// deadline is allowed to finish. read(w, r) issues r on worker w's
// connection or session.
func closedLoop(ctx context.Context, conns int, until time.Time, src *readSource, read func(w int, r request)) error {
	var wg sync.WaitGroup
	var exhausted atomic.Bool
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(until) && ctx.Err() == nil {
				r, ok := src.take()
				if !ok {
					exhausted.Store(true)
					return
				}
				read(w, r)
			}
		}(w)
	}
	wg.Wait()
	if exhausted.Load() {
		return fmt.Errorf("read plan exhausted: raise planPerSec")
	}
	return ctx.Err()
}

// touchAll issues every read of set once over conns workers.
func touchAll(conns int, set []request, read func(w int, r request)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(set); i = int(next.Add(1) - 1) {
				read(w, set[i])
			}
		}(w)
	}
	wg.Wait()
}

// httpRead returns a read function that sends reads over HTTP in phase ph.
func (c *client) httpRead(ph phase) func(int, request) {
	return func(_ int, r request) {
		c.do(sample{phase: ph, kind: r.kind, req: r}, http.MethodGet, r.path(), nil)
	}
}

// postBatch posts plan batch j.
func (c *client) postBatch(ph phase, p *plan, j int) sample {
	body, err := json.Marshal(p.batches[j])
	if err != nil {
		panic(err) // a []update always marshals
	}
	return c.do(sample{phase: ph, kind: kindTraffic, batch: j}, http.MethodPost, "/traffic", body)
}
