package main

// serve-zipf: one replica (internal/serve over mcn.FromGraph) with the
// result cache on. Two closed-loop clients send Zipfian requests over a key
// space four times the cache's capacity, as binary POST, JSON POST and GET
// in equal shares, while one writer inserts and deletes facilities at a
// fixed rate through maintainers on the hottest query edges, invalidating
// the cached entries there.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"mcn"
	"mcn/internal/serve"
	"mcn/internal/wire"
)

var zipfSpec = netSpec{nodes: 6000, facilities: 2500, d: 3}

const (
	zipfExponent = 1.0 // classic Zipf, as in internal/bench's cache experiment
	zipfClients  = 2
	writeRate    = 100 // maintainer writes per second
	maintainers  = 4
	zipfWarmup   = 12000 // requests per client before measuring
	zipfSetups   = 15    // set-ups per run; setup_s is the fastest
	execSamples  = 2000  // direct executor calls in the traced run
)

// zipfDeploy is one stood-up serve-zipf replica.
type zipfDeploy struct {
	net   *mcn.Network
	srv   *serve.Server
	http  *httpServer
	maint []*mcn.Maintainer
}

// setupZipf is the timed set-up: graph in hand to ready to serve.
func setupZipf(g *mcn.Graph, hot []mcn.Location, tr *tracer) (*zipfDeploy, time.Duration, error) {
	start := time.Now()
	d := &zipfDeploy{net: mcn.FromGraph(g)}
	d.net.EnableResultCache(mcn.CacheOptions{})
	d.srv = serve.New(d.net, serve.Config{})
	var err error
	if d.http, err = startHTTP(middleware(tr, "serve.handler", false, d.srv.Handler())); err != nil {
		return nil, 0, err
	}
	for _, loc := range hot {
		m, err := d.net.Maintain(context.Background(), loc)
		if err != nil {
			d.close()
			return nil, 0, err
		}
		d.maint = append(d.maint, m)
	}
	return d, time.Since(start), nil
}

func (d *zipfDeploy) close() {
	d.http.close()
	for _, m := range d.maint {
		m.Close() //nolint:errcheck // Close is idempotent and never fails
	}
}

// writer inserts and deletes facilities through the maintainers at a fixed
// rate, alternating insert and delete so the facility count stays put, and
// checks every inserted facility's costs against the oracle.
type writer struct {
	tr    *tracer
	maint []*mcn.Maintainer
	locs  []mcn.Location
	dists [][][]float64 // per maintainer, per cost type: node costs
	og    *oracleGraph
	rng   *rand.Rand
	n     int
	held  mcn.Handle

	lat               []time.Duration
	attempted, failed int
	mismatch          error
}

// step performs write n: even writes insert on a hot edge, odd ones delete
// the facility the previous write inserted.
func (w *writer) step() {
	mi := (w.n / 2) % len(w.maint)
	m, loc := w.maint[mi], w.locs[mi]
	w.attempted++
	var err error
	if w.n%2 == 0 {
		t := w.rng.Float64()
		var h mcn.Handle
		start := time.Now()
		timed(w.tr, "dynamic.insert", 0, -1, func() { h, err = m.Insert(loc.Edge, t) })
		w.lat = append(w.lat, time.Since(start))
		if err == nil {
			w.held = h
			w.checkInsert(mi, h, t)
		}
	} else {
		start := time.Now()
		timed(w.tr, "dynamic.delete", 0, -1, func() { err = m.Delete(w.held) })
		w.lat = append(w.lat, time.Since(start))
	}
	if err != nil {
		w.failed++
		fmt.Fprintf(os.Stderr, "perfbench: write %d: %v\n", w.n, err)
	}
	w.n++
}

func (w *writer) checkInsert(mi int, h mcn.Handle, t float64) {
	e, ok := w.maint[mi].Entry(h)
	if !ok {
		w.mismatch = fmt.Errorf("inserted facility %d has no entry", h)
		return
	}
	for i, c := range e.Costs {
		want := w.og.pointCost(w.dists[mi][i], w.og.base, i, w.locs[mi], int(e.Edge), t)
		if !near(c, want) {
			w.mismatch = fmt.Errorf("insert at edge %d t=%g: cost %d is %g, oracle says %g", e.Edge, t, i, c, want)
		}
	}
}

// run writes at writeRate until stop closes or the oracle rejects an insert.
func (w *writer) run(stop <-chan struct{}) {
	w.lat = w.lat[:0]
	w.attempted, w.failed = 0, 0
	tick := time.NewTicker(time.Second / writeRate)
	defer tick.Stop()
	for w.mismatch == nil {
		select {
		case <-stop:
			return
		case <-tick.C:
			w.step()
		}
	}
}

// zipfPhase runs the clients (as runLoop does) and the writer side by side
// until the clients are done.
func zipfPhase(clients []*client, w *writer, dur time.Duration, count int, pick func(c, n int) (int, surface)) loopResult {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		w.run(stop)
	}()
	lr := runLoop(clients, dur, count, pick)
	close(stop)
	<-done
	return lr
}

func runServeZipf(cfg config) (*outcome, error) {
	t0 := time.Now()
	g, err := makeGraph(zipfSpec)
	if err != nil {
		return nil, err
	}
	og, err := newOracleGraph(g)
	if err != nil {
		return nil, err
	}
	qs, locs := zipfInputs(g, og, cfg.seed)
	nv := zipfVariants(g.D())
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	perm := rng.Perm(len(qs)) // Zipf rank → key
	ranks := newZipf(len(qs), zipfExponent)
	var hot []mcn.Location
	seen := make(map[int]bool)
	for _, key := range perm {
		if li := key / nv; !seen[li] {
			seen[li] = true
			hot = append(hot, locs[li])
			if len(hot) == maintainers {
				break
			}
		}
	}
	w := &writer{locs: hot, og: og, rng: rand.New(rand.NewSource(cfg.seed + 2))}
	s := newDijkstra(og)
	for _, loc := range hot {
		var per [][]float64
		for i := 0; i < g.D(); i++ {
			per = append(per, s.nodeCosts(og.base, i, loc))
		}
		w.dists = append(w.dists, per)
	}

	logPhase("inputs", t0)
	t0 = time.Now()
	tr := newTracer()
	heapBase := liveHeap()
	dep, setupS, err := measureSetup(zipfSetups, func() (*zipfDeploy, time.Duration, error) {
		return setupZipf(g, hot, tr)
	}, (*zipfDeploy).close)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	logPhase("setup", t0)
	w.maint, w.tr = dep.maint, tr

	nClients := zipfClients
	if cfg.trace {
		nClients = 1 // legs and spans nest by request without ambiguity
	}
	var clients []*client
	var draws []*rand.Rand
	for c := 0; c < nClients; c++ {
		cl := newClient(dep.http.url, qs, tr, int64(c)<<40)
		defer cl.close()
		clients = append(clients, cl)
		draws = append(draws, rand.New(rand.NewSource(cfg.seed*1000+int64(c))))
	}
	pick := func(c, n int) (int, surface) {
		return perm[ranks.draw(draws[c])], surface(n % 3)
	}

	if m := zipfPhase(clients, w, 0, zipfWarmup, pick).mismatch; m != nil || w.mismatch != nil {
		return failOutcome(m, w.mismatch), nil
	}
	heap := heapGrowth(heapBase)
	keepAlive(g, og, s, locs, hot)
	window := time.Duration(cfg.seconds) * time.Second

	out := &outcome{}
	if !cfg.trace {
		lr := zipfPhase(clients, w, window, 0, pick)
		out.metrics = endToEnd(lr, setupS, heap)
		out.ops = []opCount{{"read", lr.attempted, lr.failed}, {"write", w.attempted, w.failed}}
		out.mismatch = firstErr(lr.mismatch, w.mismatch)
		reportErr(lr.firstErr)
		return out, nil
	}

	// Traced run: an untraced half, then a traced half with full decoding,
	// then the executor called directly on the same mix.
	plain := zipfPhase(clients, w, window/2, 0, pick)
	writes := sortDurations(w.lat)
	ops := []opCount{{"read", plain.attempted, plain.failed}, {"write", w.attempted, w.failed}}
	for _, cl := range clients {
		cl.full = true
	}
	before, _ := dep.net.ResultCacheStats()
	tr.on.Store(true)
	traced := zipfPhase(clients, w, window/2, 0, pick)
	after, _ := dep.net.ResultCacheStats()
	ops = append(ops, opCount{"read", traced.attempted, traced.failed}, opCount{"write", w.attempted, w.failed})
	tracedWrites := w.attempted
	execErr := directExec(dep, qs, tr, func(n int) int { k, _ := pick(0, n); return k })
	tr.on.Store(false)
	ops = append(ops, opCount{"read", execSamples, 0})

	vals := map[string]float64{
		"wire.decode_us":       tr.meanUS("wire.decode"),
		"wire.encode_us":       tr.meanUS("wire.encode"),
		"serve.handler_us":     tr.meanUS("serve.handler"),
		"serve.transport_us":   transportUS(tr, "serve.handler"),
		"engine.exec_us":       tr.meanUS("engine.exec"),
		"dynamic.insert_us":    tr.meanUS("dynamic.insert"),
		"dynamic.delete_us":    tr.meanUS("dynamic.delete"),
		"dynamic.write_p50_ms": ms(quantile(writes, 0.50)),
		"dynamic.write_p99_ms": ms(quantile(writes, 0.99)),
	}
	d := after
	d.Hits -= before.Hits
	d.Misses -= before.Misses
	d.Coalesced -= before.Coalesced
	d.Evicted -= before.Evicted
	d.Invalidated -= before.Invalidated
	vals["rescache.hit_ratio"] = d.HitRate()
	vals["rescache.evicted_per_kreq"] = 1000 * perQuery(int(d.Evicted), int(d.Lookups()))
	vals["rescache.invalidated_per_write"] = perQuery(int(d.Invalidated), tracedWrites)
	workLayers(vals, traced.work)
	runLayers(vals, plain, traced, tr)
	out.metrics = layerMetrics(vals)
	out.ops = mergeOps(ops)
	out.mismatch = firstErr(plain.mismatch, traced.mismatch, w.mismatch, execErr)
	reportErr(firstErr(plain.firstErr, traced.firstErr))
	return out, tr.write(tracePath("serve-zipf", cfg.seed))
}

// directExec calls the replica's executor directly on the same request mix,
// timing each call, and checks the answers.
func directExec(dep *zipfDeploy, qs []query, tr *tracer, pick func(n int) int) error {
	ex := dep.srv.Executor()
	for n := 0; n < execSamples; n++ {
		q := &qs[pick(n)]
		req := batchRequest(&q.req)
		var resp mcn.BatchResponse
		timed(tr, "engine.exec", 0, -1, func() { resp = ex.Do(context.Background(), req) })
		if resp.Err != nil {
			return &mismatch{"executor " + q.req.URI(), resp.Err}
		}
		if err := q.ans.check(wire.FromFacilities(resp.Result.Facilities)); err != nil {
			return &mismatch{"executor " + q.req.URI(), err}
		}
	}
	return nil
}

// batchRequest is the executor form of a single-location wire request, as
// the replica builds it (CEA for the engine-selecting kinds).
func batchRequest(r *wire.Request) mcn.BatchRequest {
	loc := mcn.Location{Edge: mcn.EdgeID(r.Edge), T: r.T}
	cea := mcn.WithEngine(mcn.CEA)
	switch r.Kind {
	case wire.KindSkyline:
		return mcn.SkylineRequest(loc, cea)
	case wire.KindTopK:
		return mcn.TopKRequest(loc, mcn.WeightedSum(r.Weights...), r.K, cea)
	case wire.KindNearest:
		return mcn.NearestRequest(loc, r.Cost, r.K)
	}
	return mcn.WithinRequest(loc, mcn.Of(r.Budget...), cea)
}

// mergeOps sums counts of the same operation kind.
func mergeOps(ops []opCount) []opCount {
	var out []opCount
	idx := make(map[string]int)
	for _, op := range ops {
		i, ok := idx[op.kind]
		if !ok {
			idx[op.kind] = len(out)
			out = append(out, opCount{kind: op.kind})
			i = len(out) - 1
		}
		out[i].attempted += op.attempted
		out[i].failed += op.failed
	}
	return out
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func failOutcome(errs ...error) *outcome {
	return &outcome{metrics: map[string]metric{}, mismatch: firstErr(errs...)}
}

// reportErr prints the first failed request, if any, for diagnosis.
func reportErr(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first failed request: %v\n", err)
	}
}
