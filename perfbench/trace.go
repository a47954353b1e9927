package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point. Spans of one request or frame share a trace ID; a
// child names its parent span.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. Recording is switched on
// and off around phases, so one run can compare a traced phase against an
// untraced one.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations in ms of every recorded span with the name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// dump writes the spans as JSON lines, after a header line naming the run.
func (t *tracer) dump(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanHeader carries a request span's ID from the router's transport to the
// node's handler, so the server-side span names its client-side parent.
const spanHeader = "Bench-Span"

// capturedBody is one /ingest request body as the router sent it.
type capturedBody struct {
	host string
	body []byte
}

// tracingTransport wraps the router's h2c transport: it records one
// cluster.http.post span per request and keeps a copy of every /ingest body
// for the codec and monitor replays.
type tracingTransport struct {
	inner http.RoundTripper
	t     *tracer

	mu     sync.Mutex
	bodies []capturedBody
}

// captured returns the /ingest bodies recorded so far.
func (tt *tracingTransport) captured() []capturedBody {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return tt.bodies
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.on.Load() {
		return tt.inner.RoundTrip(req)
	}
	if req.Body != nil && req.URL.Path == "/ingest" {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("perfbench: capturing request body: %w", err)
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		tt.mu.Lock()
		tt.bodies = append(tt.bodies, capturedBody{host: req.URL.Host, body: body})
		tt.mu.Unlock()
	}
	id := tt.t.newID()
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	start := tt.t.now()
	resp, err := tt.inner.RoundTrip(req)
	tt.t.record(span{Name: "cluster.http.post", Trace: id, ID: id, Start: start, End: tt.t.now()})
	return resp, err
}

// tracingHandler wraps a node's handler with one server-side span per
// request: cluster.node.handle for /ingest (decode, dedup and admission) and
// cluster.node.alerts_get for /alerts.
type tracingHandler struct {
	inner http.Handler
	t     *tracer
}

func (th tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !th.t.on.Load() {
		th.inner.ServeHTTP(w, r)
		return
	}
	name := ""
	switch r.URL.Path {
	case "/ingest":
		name = "cluster.node.handle"
	case "/alerts":
		name = "cluster.node.alerts_get"
	default:
		th.inner.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	id := th.t.newID()
	trace := parent
	if trace == 0 {
		trace = id
	}
	start := th.t.now()
	th.inner.ServeHTTP(w, r)
	th.t.record(span{Name: name, Trace: trace, ID: id, Parent: parent, Start: start, End: th.t.now()})
}
