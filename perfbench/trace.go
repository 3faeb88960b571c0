package main

// Tracing for the per-layer run. Spans come only from the benchmark's own
// wrappers around each layer's public calls: the client RoundTripper,
// middleware around the replica and gateway handlers, a storage.Device
// wrapper, and timed calls to the wire codec, the executor, core.Merge* and
// the maintainers. Spans are kept in memory and written once at the end.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcn"
	"mcn/internal/storage"
)

// Headers the benchmark's client sets so the replica middleware can attach
// its span to the request that caused it. The gateway does not forward
// them, so gateway legs carry neither and are nested by time instead.
const (
	hdrRequest = "X-Bench-Request"
	hdrParent  = "X-Bench-Span"
)

// span is one timed call at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for none
	Req    int64  `json:"req"`    // request id, 0 when unknown
	// body is a gateway leg's response, kept to time the merge.
	body []byte
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans while on; every wrapper is a no-op while it is off.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index, or -1 while tracing is off.
func (t *tracer) begin(name string, req int64, parent int) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span i (a no-op for -1).
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// endWithBody closes span i and keeps body with it.
func (t *tracer) endWithBody(i int, body []byte) {
	if i < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.spans[i].body = body
	t.mu.Unlock()
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// byName returns the indices of the spans called name.
func (t *tracer) byName(name string) []int {
	var out []int
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, i)
		}
	}
	return out
}

// meanUS is the mean duration of the named spans in microseconds.
func (t *tracer) meanUS(name string) float64 {
	idx := t.byName(name)
	if len(idx) == 0 {
		return 0
	}
	var sum time.Duration
	for _, i := range idx {
		sum += t.spans[i].dur()
	}
	return float64(sum) / float64(len(idx)) / 1e3
}

// sumDur is the total duration of the named spans.
func (t *tracer) sumDur(name string) time.Duration {
	var sum time.Duration
	for _, i := range t.byName(name) {
		sum += t.spans[i].dur()
	}
	return sum
}

// nestByTime gives every child-named span without a parent the
// parent-named span whose interval contains it. It is exact while one
// client drives the system, as the traced run does.
func (t *tracer) nestByTime(parentName, childName string) {
	parents := t.byName(parentName)
	p := 0
	for _, c := range t.byName(childName) {
		cs := &t.spans[c]
		if cs.Parent >= 0 {
			continue
		}
		for p < len(parents) && t.spans[parents[p]].End < cs.Start {
			p++
		}
		if p < len(parents) && t.spans[parents[p]].Start <= cs.Start && cs.End <= t.spans[parents[p]].End {
			cs.Parent = parents[p]
		}
	}
}

// children maps each span index to the indices of its named children.
func (t *tracer) children(name string) map[int][]int {
	out := make(map[int][]int)
	for _, c := range t.byName(name) {
		if p := t.spans[c].Parent; p >= 0 {
			out[p] = append(out[p], c)
		}
	}
	return out
}

// roundTripper is the client-side span source: one span per HTTP round
// trip, tagged with the request id so server spans can name it as parent.
type roundTripper struct {
	tr   *tracer
	next http.RoundTripper
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := strconv.ParseInt(req.Header.Get(hdrRequest), 10, 64)
	parent, _ := strconv.Atoi(req.Header.Get(hdrParent))
	if req.Header.Get(hdrParent) == "" {
		parent = -1
	}
	i := rt.tr.begin("http.roundtrip", id, parent)
	if i >= 0 {
		req = req.Clone(req.Context())
		req.Header.Set(hdrParent, strconv.Itoa(i))
	}
	resp, err := rt.next.RoundTrip(req)
	rt.tr.end(i)
	return resp, err
}

// middleware wraps a replica or gateway handler with one span per request.
// With keepBody set it also keeps the response body, so the merge of
// gateway legs can be timed on the legs' own parts.
func middleware(tr *tracer, name string, keepBody bool, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseInt(r.Header.Get(hdrRequest), 10, 64)
		parent := -1
		if raw := r.Header.Get(hdrParent); raw != "" {
			parent, _ = strconv.Atoi(raw)
		}
		i := tr.begin(name, id, parent)
		if !keepBody {
			next.ServeHTTP(w, r)
			tr.end(i)
			return
		}
		tw := &teeWriter{ResponseWriter: w}
		next.ServeHTTP(tw, r)
		tr.endWithBody(i, tw.buf.Bytes())
	})
}

// teeWriter copies a response body as it is written.
type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

// tracedDevice is the benchmark-owned storage.Device wrapper: one span per
// page read.
type tracedDevice struct {
	mcn.Device
	tr *tracer
}

func (d *tracedDevice) ReadPage(id storage.PageID, buf []byte) error {
	i := d.tr.begin("storage.read", 0, -1)
	err := d.Device.ReadPage(id, buf)
	d.tr.end(i)
	return err
}

// timed runs fn inside a span.
func timed(tr *tracer, name string, req int64, parent int, fn func()) {
	i := tr.begin(name, req, parent)
	fn()
	tr.end(i)
}

// tracePath is where a traced run writes its spans, inside the checkout's
// build directory.
func tracePath(workload string, seed int64) string {
	return filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
