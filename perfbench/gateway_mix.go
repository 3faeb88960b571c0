package main

// gateway-mix: the internal/cluster gateway in front of two in-process
// replicas that serve the same network plus a time-dependent view, caches
// off. Two closed-loop clients send GET and binary POST requests: proxied
// single-location queries, multisource skyline and top-k over two or three
// nearby sources, and skyline and top-k period queries, which the gateway
// splits across the replicas and seam-fuses.

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"time"

	"mcn"
	"mcn/internal/cluster"
	"mcn/internal/core"
	"mcn/internal/serve"
	"mcn/internal/wire"
)

var gatewaySpec = netSpec{nodes: 6000, facilities: 2500, d: 3}

const (
	gwClients  = 2
	gwReplicas = 2
	gwWarmup   = 600 // requests per client before measuring
	gwSetups   = 9   // set-ups per run; setup_s is the fastest
)

// gwDeploy is one stood-up gateway with its replicas.
type gwDeploy struct {
	replicas []*httpServer
	gateway  *httpServer
	compile  []float64 // seconds each replica's first timedep query took
}

// setupGateway is the timed set-up: per replica the network, the
// time-dependent view with its profiles and the overlay compile (forced by
// a first instant query), the server; then the membership and gateway.
func setupGateway(g *mcn.Graph, ps profiles, edges []mcn.EdgeID, tr *tracer) (*gwDeploy, time.Duration, error) {
	start := time.Now()
	d := &gwDeploy{}
	var urls []string
	for r := 0; r < gwReplicas; r++ {
		net := mcn.FromGraph(g)
		tn := mcn.TimeDependent(g)
		for _, e := range edges {
			if err := tn.SetProfile(e, mcn.TimeProfile{Times: rushInstants, Mult: ps[e]}); err != nil {
				d.close()
				return nil, 0, err
			}
		}
		c0 := time.Now()
		if _, err := tn.NearestAt(context.Background(), mcn.Location{Edge: 0, T: 0.5}, 0, 1, 0, mcn.QueryOptions()); err != nil {
			d.close()
			return nil, 0, err
		}
		d.compile = append(d.compile, time.Since(c0).Seconds())
		srv := serve.New(net, serve.Config{TimeNet: tn})
		hs, err := startHTTP(middleware(tr, "serve.handler", true, srv.Handler()))
		if err != nil {
			d.close()
			return nil, 0, err
		}
		d.replicas = append(d.replicas, hs)
		urls = append(urls, hs.url)
	}
	m, err := cluster.NewMembership(urls, 0)
	if err != nil {
		d.close()
		return nil, 0, err
	}
	gw := cluster.NewGateway(m, cluster.PolicyHash, 0)
	if d.gateway, err = startHTTP(middleware(tr, "cluster.gateway", false, gw.Handler())); err != nil {
		d.close()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

func (d *gwDeploy) close() {
	if d.gateway != nil {
		d.gateway.close()
	}
	for _, r := range d.replicas {
		r.close()
	}
}

func runGatewayMix(cfg config) (*outcome, error) {
	t0 := time.Now()
	g, err := makeGraph(gatewaySpec)
	if err != nil {
		return nil, err
	}
	og, err := newOracleGraph(g)
	if err != nil {
		return nil, err
	}
	ps := makeProfiles(g, cfg.seed+3)
	edges := make([]mcn.EdgeID, 0, len(ps))
	for e := range ps {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	qs := gatewayInputs(g, og, ps, cfg.seed)

	logPhase("inputs", t0)
	t0 = time.Now()
	tr := newTracer()
	var compile []float64
	heapBase := liveHeap()
	dep, setupS, err := measureSetup(gwSetups, func() (*gwDeploy, time.Duration, error) {
		d, took, err := setupGateway(g, ps, edges, tr)
		if err == nil {
			compile = append(compile, d.compile...)
		}
		return d, took, err
	}, (*gwDeploy).close)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	logPhase("setup", t0)

	nClients := gwClients
	if cfg.trace {
		nClients = 1 // gateway legs nest under their gateway span by time
	}
	var clients []*client
	for c := 0; c < nClients; c++ {
		cl := newClient(dep.gateway.url, qs, tr, int64(c)<<40)
		defer cl.close()
		clients = append(clients, cl)
	}
	pick := func(c, n int) (int, surface) {
		qi := (c*len(qs)/nClients + n) % len(qs)
		if n%2 == 0 {
			return qi, surfGET
		}
		return qi, surfBinary
	}

	if m := runLoop(clients, 0, gwWarmup, pick).mismatch; m != nil {
		return failOutcome(m), nil
	}
	heap := heapGrowth(heapBase)
	keepAlive(g, og, ps, edges)
	window := time.Duration(cfg.seconds) * time.Second

	out := &outcome{}
	if !cfg.trace {
		lr := runLoop(clients, window, 0, pick)
		out.metrics = endToEnd(lr, setupS, heap)
		out.ops = []opCount{{"read", lr.attempted, lr.failed}}
		out.mismatch = lr.mismatch
		reportErr(lr.firstErr)
		return out, nil
	}

	plain := runLoop(clients, window/2, 0, pick)
	for _, cl := range clients {
		cl.full = true
	}
	tr.on.Store(true)
	traced := runLoop(clients, window/2, 0, pick)
	tr.on.Store(false)

	tr.nestByTime("cluster.gateway", "serve.handler")
	legs := tr.children("serve.handler")
	gws := tr.byName("cluster.gateway")
	var nLegs int
	var self time.Duration
	for _, gi := range gws {
		nLegs += len(legs[gi])
		self += tr.spans[gi].dur() - covered(tr, legs[gi])
	}
	mergeErr := timeMerges(tr, clients[0], gws, legs)
	vals := map[string]float64{
		"wire.decode_us":              tr.meanUS("wire.decode"),
		"wire.encode_us":              tr.meanUS("wire.encode"),
		"serve.transport_us":          transportUS(tr, "cluster.gateway"),
		"cluster.legs_per_query":      perQuery(nLegs, len(gws)),
		"cluster.leg_us":              tr.meanUS("serve.handler"),
		"core.merge_us":               tr.meanUS("core.merge"),
		"timedep.intervals_per_query": perQuery(traced.work.intervals, traced.work.periodAnswers),
		"timedep.compile_s":           median(compile),
	}
	if len(gws) > 0 {
		vals["cluster.gateway_self_us"] = us(self) / float64(len(gws))
	}
	workLayers(vals, traced.work)
	runLayers(vals, plain, traced, tr)
	out.metrics = layerMetrics(vals)
	out.ops = mergeOps([]opCount{{"read", plain.attempted, plain.failed}, {"read", traced.attempted, traced.failed}})
	out.mismatch = firstErr(plain.mismatch, traced.mismatch, mergeErr)
	reportErr(firstErr(plain.firstErr, traced.firstErr))
	return out, tr.write(tracePath("gateway-mix", cfg.seed))
}

// covered is the time the spans idx cover together (their union).
func covered(tr *tracer, idx []int) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, len(idx))
	for i, s := range idx {
		ivs[i] = iv{tr.spans[s].Start, tr.spans[s].End}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// timeMerges re-runs the gateway's merge on each multisource request's leg
// answers, timing core.MergeSkylines and core.MergeTopK, and checks the
// merged answer against the oracle.
func timeMerges(tr *tracer, cl *client, gws []int, legs map[int][]int) error {
	tr.on.Store(true)
	defer tr.on.Store(false)
	for _, gi := range gws {
		qi, ok := cl.reqQuery[tr.spans[gi].Req]
		if !ok {
			continue
		}
		q := &cl.qs[qi]
		if !q.req.Scatter() {
			continue
		}
		var parts []*core.Result
		for _, li := range legs[gi] {
			res, err := decodeLeg(tr.spans[li].body)
			if err != nil {
				return &mismatch{"gateway leg of " + q.req.URI(), err}
			}
			parts = append(parts, &core.Result{Facilities: wire.ToFacilities(res.Facilities), Stats: res.Stats})
		}
		var merged *core.Result
		timed(tr, "core.merge", tr.spans[gi].Req, gi, func() {
			if q.req.Kind == wire.KindMultiSourceTopK {
				merged = core.MergeTopK(q.req.K, parts...)
			} else {
				merged = core.MergeSkylines(parts...)
			}
		})
		if err := q.ans.check(wire.FromFacilities(merged.Facilities)); err != nil {
			return &mismatch{"merged legs of " + q.req.URI(), err}
		}
	}
	return nil
}

// decodeLeg parses one leg's answer: a binary frame or a JSON envelope.
func decodeLeg(body []byte) (*wire.Result, error) {
	if payload, err := wire.ReadFrame(bytes.NewReader(body), wire.MaxResponseFrame); err == nil {
		if resp, err := wire.DecodeResponse(payload); err == nil && resp.Result != nil {
			return resp.Result, nil
		}
	}
	var res wire.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	return &res, nil
}
