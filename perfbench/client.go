package main

// The closed-loop HTTP client. Each client owns one keep-alive connection
// and sends its next request only after the previous answer is fully read.
// Every answer is checked: an answer byte-identical (latency field aside)
// to one already checked for the same query and codec passes at once,
// anything else is decoded and compared with the oracle.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mcn/internal/core"
	"mcn/internal/wire"
)

// surface is the way a request reaches the server.
type surface int

const (
	surfBinary surface = iota // POST /v1/query, binary frames both ways
	surfJSON                  // POST /v1/query, JSON both ways
	surfGET                   // the GET endpoint of the query kind
)

func (s surface) String() string {
	return [...]string{"binary", "json", "get"}[s]
}

// mismatch is an answer the oracle rejects. It ends the run.
type mismatch struct {
	what string
	err  error
}

func (m *mismatch) Error() string { return m.what + ": " + m.err.Error() }

// verKey identifies an answer already checked: query, codec and body hash.
type verKey struct {
	q      int
	binary bool
	h      uint64
}

var hashSeed = maphash.MakeSeed()

// workSums accumulates the work stats carried by decoded answers.
type workSums struct {
	answers, intervals, periodAnswers int
	stats                             core.Stats
}

func (w *workSums) add(s core.Stats) {
	w.stats.Pops += s.Pops
	w.stats.NodeExpansions += s.NodeExpansions
	w.stats.PrunedNodes += s.PrunedNodes
	w.stats.Tracked += s.Tracked
}

// client is one closed-loop sender.
type client struct {
	hc       *http.Client
	base     string
	qs       []query
	tr       *tracer
	full     bool // decode and check every answer (the traced run)
	verified map[verKey]bool
	buf      bytes.Buffer
	nextID   int64

	lat      []time.Duration
	done     []time.Duration // completion offsets from the loop's start
	start    time.Time
	attempts int
	failed   int
	work     workSums
	// reqQuery maps traced request ids to query indices.
	reqQuery map[int64]int
}

// newClient builds a client whose traced request ids start above idBase.
func newClient(base string, qs []query, tr *tracer, idBase int64) *client {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.MaxIdleConnsPerHost = 1
	tp.MaxConnsPerHost = 1
	return &client{
		hc:       &http.Client{Transport: &roundTripper{tr: tr, next: tp}},
		base:     base,
		qs:       qs,
		tr:       tr,
		verified: make(map[verKey]bool),
		nextID:   idBase,
		reqQuery: make(map[int64]int),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends query qi over surf and checks the answer. It returns a
// *mismatch for a wrong answer and any other error for a failed request.
func (c *client) do(qi int, surf surface) error {
	q := &c.qs[qi]
	c.nextID++
	id := c.nextID
	root := c.tr.begin("client.request", id, -1)
	if root >= 0 {
		c.reqQuery[id] = qi
	}
	req, err := c.build(q, surf, id, root)
	if err != nil {
		c.tr.end(root)
		return err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	elapsed := time.Since(start)
	c.tr.end(root)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", surf, q.req.URI(), resp.StatusCode, c.buf.Bytes())
	}
	c.lat = append(c.lat, elapsed)
	c.done = append(c.done, time.Since(c.start))
	return c.check(qi, q, surf, c.buf.Bytes(), id, root)
}

// build renders q as an HTTP request on surf.
func (c *client) build(q *query, surf surface, id int64, root int) (*http.Request, error) {
	var req *http.Request
	var err error
	switch surf {
	case surfGET:
		req, err = http.NewRequest(http.MethodGet, c.base+q.req.URI(), nil)
	case surfJSON:
		var body []byte
		if body, err = json.Marshal(&q.req); err != nil {
			return nil, err
		}
		req, err = http.NewRequest(http.MethodPost, c.base+"/v1/query", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", wire.ContentTypeJSON)
		}
	case surfBinary:
		var body []byte
		timed(c.tr, "wire.encode", id, root, func() { body, err = wire.EncodeRequest(&q.req) })
		if err != nil {
			return nil, err
		}
		req, err = http.NewRequest(http.MethodPost, c.base+"/v1/query", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", wire.ContentTypeBinary)
			req.Header.Set("Accept", wire.ContentTypeBinary)
		}
	}
	if err != nil {
		return nil, err
	}
	if root >= 0 {
		req.Header.Set(hdrRequest, strconv.FormatInt(id, 10))
		req.Header.Set(hdrParent, strconv.Itoa(root))
	}
	return req, nil
}

// check verifies one answer body against the oracle.
func (c *client) check(qi int, q *query, surf surface, body []byte, id int64, root int) error {
	binary := surf == surfBinary
	var key verKey
	if !c.full {
		key = verKey{q: qi, binary: binary, h: maphash.Bytes(hashSeed, stripLatency(body, binary))}
		if c.verified[key] {
			return nil
		}
	}
	var res *wire.Result
	var per *wire.PeriodResult
	if binary {
		var dec *wire.Response
		var err error
		timed(c.tr, "wire.decode", id, root, func() {
			var payload []byte
			if payload, err = wire.ReadFrame(bytes.NewReader(body), wire.MaxResponseFrame); err == nil {
				dec, err = wire.DecodeResponse(payload)
			}
		})
		if err != nil {
			return &mismatch{describe(q, surf), fmt.Errorf("undecodable frame: %w", err)}
		}
		res, per = dec.Result, dec.Period
	} else if q.period != nil {
		per = new(wire.PeriodResult)
		if err := json.Unmarshal(body, per); err != nil {
			return &mismatch{describe(q, surf), fmt.Errorf("undecodable JSON: %w", err)}
		}
	} else {
		res = new(wire.Result)
		if err := json.Unmarshal(body, res); err != nil {
			return &mismatch{describe(q, surf), fmt.Errorf("undecodable JSON: %w", err)}
		}
	}
	var err error
	switch {
	case q.period != nil && per != nil:
		err = q.period.check(per.Intervals)
		c.work.periodAnswers++
		c.work.intervals += len(per.Intervals)
		for _, iv := range per.Intervals {
			c.work.add(iv.Stats)
		}
	case q.period == nil && res != nil:
		err = q.ans.check(res.Facilities)
		c.work.add(res.Stats)
	default:
		err = errors.New("answer envelope does not match the query kind")
	}
	c.work.answers++
	if err != nil {
		return &mismatch{describe(q, surf), err}
	}
	if !c.full {
		c.verified[key] = true
	}
	return nil
}

// stripLatency cuts the per-response latency field off an answer body, the
// one part that legitimately differs between identical answers.
func stripLatency(body []byte, binary bool) []byte {
	if binary {
		if len(body) < 4 {
			return body
		}
		return body[:len(body)-4]
	}
	if i := bytes.LastIndex(body, []byte(`"latency_ms":`)); i >= 0 {
		return body[:i]
	}
	return body
}

func describe(q *query, surf surface) string {
	return fmt.Sprintf("%s %s", surf, q.req.URI())
}

// loopResult is what one closed-loop window measured.
type loopResult struct {
	lat       []time.Duration
	done      []time.Duration
	completed int
	attempted int
	failed    int
	wall      time.Duration
	work      workSums
	firstErr  error
	mismatch  error
}

// runLoop drives every client in a closed loop for dur, or, when count is
// above 0, until each client has sent count requests. pick chooses the n-th
// request of client c. The loop stops early on an oracle mismatch.
func runLoop(clients []*client, dur time.Duration, count int, pick func(c, n int) (int, surface)) loopResult {
	start := time.Now()
	deadline := start.Add(dur)
	if count > 0 {
		deadline = start.Add(time.Hour)
	}
	var stop sync.Once
	stopped := make(chan struct{})
	var mu sync.Mutex
	var out loopResult
	var wg sync.WaitGroup
	for ci, cl := range clients {
		cl.start = start
		cl.attempts, cl.failed, cl.work = 0, 0, workSums{}
		wg.Add(1)
		go func(ci int, cl *client) {
			defer wg.Done()
			for n := 0; (count == 0 || n < count) && time.Now().Before(deadline); n++ {
				select {
				case <-stopped:
					return
				default:
				}
				qi, surf := pick(ci, n)
				cl.attempts++
				err := cl.do(qi, surf)
				var mm *mismatch
				switch {
				case errors.As(err, &mm):
					mu.Lock()
					if out.mismatch == nil {
						out.mismatch = err
					}
					mu.Unlock()
					stop.Do(func() { close(stopped) })
					return
				case err != nil:
					cl.failed++
					mu.Lock()
					if out.firstErr == nil {
						out.firstErr = err
					}
					mu.Unlock()
				}
			}
		}(ci, cl)
	}
	wg.Wait()
	out.wall = time.Since(start)
	for _, cl := range clients {
		out.lat = append(out.lat, cl.lat...)
		out.done = append(out.done, cl.done...)
		cl.lat, cl.done = nil, nil // the samples live on in out only
		out.attempted += cl.attempts
		out.failed += cl.failed
		out.work.answers += cl.work.answers
		out.work.intervals += cl.work.intervals
		out.work.periodAnswers += cl.work.periodAnswers
		out.work.add(cl.work.stats)
	}
	out.completed = len(out.lat)
	return out
}
