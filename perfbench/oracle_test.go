package main

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mcn"
	"mcn/internal/core"
	"mcn/internal/flat"
	"mcn/internal/vec"
	"mcn/internal/wire"
)

// smallGraphs returns small random networks: synthetic road networks and
// dense random graphs with several facilities per edge.
func smallGraphs(t *testing.T) []*mcn.Graph {
	t.Helper()
	var out []*mcn.Graph
	for s := int64(1); s <= 4; s++ {
		g, err := mcn.Synthetic(mcn.SyntheticConfig{Nodes: 200, Facilities: 80, D: 3, Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	for s := int64(1); s <= 4; s++ {
		rng := rand.New(rand.NewSource(s))
		d := 2 + int(s%3)
		b := mcn.NewBuilder(d, false)
		n := 30
		for v := 0; v < n; v++ {
			b.AddNode(rng.Float64(), rng.Float64())
		}
		edges := 0
		for v := 1; v < n; v++ { // a spanning tree keeps it connected
			w := make(mcn.Costs, d)
			for i := range w {
				w[i] = 1 + 9*rng.Float64()
			}
			b.AddEdge(mcn.NodeID(rng.Intn(v)), mcn.NodeID(v), w)
			edges++
		}
		for j := 0; j < 25; j++ {
			w := make(mcn.Costs, d)
			for i := range w {
				w[i] = 1 + 9*rng.Float64()
			}
			u, v := rng.Intn(n), rng.Intn(n-1)
			if v >= u {
				v++ // no self-loops
			}
			b.AddEdge(mcn.NodeID(u), mcn.NodeID(v), w)
			edges++
		}
		for f := 0; f < 40; f++ {
			b.AddFacility(mcn.EdgeID(rng.Intn(edges)), rng.Float64())
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	return out
}

func TestOracleAgreesWithNaive(t *testing.T) {
	for gi, g := range smallGraphs(t) {
		og, err := newOracleGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		src := flat.Compile(g)
		s := newDijkstra(og)
		rng := rand.New(rand.NewSource(int64(gi)))
		for qi := 0; qi < 25; qi++ {
			loc := randomLocation(rng, g)
			if qi%5 == 0 { // a query on a facility's own edge
				f := g.Facility(mcn.FacilityID(rng.Intn(g.NumFacilities())))
				loc.Edge = f.Edge
			}
			vs := s.costVectors(og.base, loc)

			sky, err := core.NaiveSkyline(src, loc, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := skylineAnswer(vs)
			if err := want.check(wire.FromFacilities(sky.Facilities)); err != nil {
				t.Fatalf("graph %d query %v: naive skyline rejected: %v", gi, loc, err)
			}
			if n := len(sky.Facilities); n != len(want.cands) {
				t.Fatalf("graph %d query %v: naive skyline has %d facilities, oracle %d", gi, loc, n, len(want.cands))
			}

			w := randomWeights(rng, g.D())
			k := 1 + rng.Intn(6)
			top, err := core.NaiveTopK(src, loc, vec.NewWeighted(w...), k, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := rankedAnswer(vs, weighted(w), k).check(wire.FromFacilities(top.Facilities)); err != nil {
				t.Fatalf("graph %d query %v: naive top-%d rejected: %v", gi, loc, k, err)
			}
		}
	}
}

// TestOracleAgreesWithEngines checks the kinds the naive baselines do not
// cover against the program's engines.
func TestOracleAgreesWithEngines(t *testing.T) {
	for gi, g := range smallGraphs(t) {
		og, err := newOracleGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		net := mcn.FromGraph(g)
		s := newDijkstra(og)
		rng := rand.New(rand.NewSource(100 + int64(gi)))
		for qi := 0; qi < 15; qi++ {
			loc := randomLocation(rng, g)
			vs := s.costVectors(og.base, loc)
			cost := rng.Intn(g.D())
			col := make([]float64, vs.len())
			budget := make([]float64, g.D())
			for f := range col {
				col[f] = vs.at(f)[cost]
			}
			for i := range budget {
				budget[i] = 5 + 20*rng.Float64()
			}
			near, err := net.Nearest(context.Background(), loc, cost, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := nearestAnswer(col, g.D(), cost, 3).check(wire.FromFacilities(near)); err != nil {
				t.Fatalf("graph %d: nearest rejected: %v", gi, err)
			}
			in, err := net.Within(context.Background(), loc, mcn.Of(budget...))
			if err != nil {
				t.Fatal(err)
			}
			if err := withinAnswer(vs, budget).check(wire.FromFacilities(in.Facilities)); err != nil {
				t.Fatalf("graph %d: within rejected: %v", gi, err)
			}
			locs := []mcn.Location{loc, randomLocation(rng, g)}
			ms, err := net.MultiSourceSkyline(context.Background(), cost, locs)
			if err != nil {
				t.Fatal(err)
			}
			msv := columns([][]float64{s.facilityCosts(og.base, cost, locs[0]), s.facilityCosts(og.base, cost, locs[1])})
			if err := skylineAnswer(msv).check(wire.FromFacilities(ms.Facilities)); err != nil {
				t.Fatalf("graph %d: multisource skyline rejected: %v", gi, err)
			}
		}
	}
}

func TestOracleRejectsPerturbedAnswers(t *testing.T) {
	g := smallGraphs(t)[0]
	og, err := newOracleGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	src := flat.Compile(g)
	s := newDijkstra(og)
	loc := mcn.Location{Edge: 3, T: 0.4}
	vs := s.costVectors(og.base, loc)
	sky, err := core.NaiveSkyline(src, loc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.2, 0.3, 0.5}
	top, err := core.NaiveTopK(src, loc, vec.NewWeighted(w...), 4, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	skyAns, topAns := skylineAnswer(vs), rankedAnswer(vs, weighted(w), 4)
	if len(sky.Facilities) < 2 {
		t.Fatalf("skyline too small to perturb: %d", len(sky.Facilities))
	}

	// A facility outside the skyline: dominated by some member.
	inSky := make(map[int]bool)
	for _, f := range sky.Facilities {
		inSky[int(f.ID)] = true
	}
	outside := -1
	for f := 0; f < vs.len() && outside < 0; f++ {
		if !inSky[f] {
			outside = f
		}
	}

	perturb := map[string]func(fs []wire.Facility) []wire.Facility{
		"cost off by 1e-3": func(fs []wire.Facility) []wire.Facility {
			fs[0].Costs = append(wire.Costs(nil), fs[0].Costs...)
			fs[0].Costs[0] *= 1.001
			return fs
		},
		"member dropped": func(fs []wire.Facility) []wire.Facility { return fs[1:] },
		"member listed twice": func(fs []wire.Facility) []wire.Facility {
			return append(fs, fs[0])
		},
		"dominated facility added": func(fs []wire.Facility) []wire.Facility {
			return append(fs, wire.Facility{ID: mcn.FacilityID(outside), Costs: wire.Costs(clone(vs.at(outside)))})
		},
	}
	for name, p := range perturb {
		fs := p(append([]wire.Facility(nil), wire.FromFacilities(sky.Facilities)...))
		if skyAns.check(fs) == nil {
			t.Errorf("skyline with %s accepted", name)
		}
		tfs := p(append([]wire.Facility(nil), wire.FromFacilities(top.Facilities)...))
		if name == "dominated facility added" {
			tfs = append(wire.FromFacilities(top.Facilities)[:3], tfs[len(tfs)-1])
			tfs[3].Score = weighted(w)(vs.at(outside))
		}
		if topAns.check(tfs) == nil {
			t.Errorf("top-k with %s accepted", name)
		}
	}
	swapped := wire.FromFacilities(top.Facilities)
	swapped[0], swapped[3] = swapped[3], swapped[0]
	if topAns.check(swapped) == nil {
		t.Error("top-k out of rank order accepted")
	}
	narrowed := wire.FromFacilities(top.Facilities)
	for i := range narrowed {
		narrowed[i].Score = float64(float32(narrowed[i].Score))
		c := make(wire.Costs, len(narrowed[i].Costs))
		for j, x := range narrowed[i].Costs {
			c[j] = float64(float32(x))
		}
		narrowed[i].Costs = c
	}
	if err := topAns.check(narrowed); err != nil {
		t.Errorf("float32-narrowed top-k rejected: %v", err)
	}
}

func TestPeriodCheckTiling(t *testing.T) {
	ans := &answer{kind: ansSet, cands: []cand{{id: 1, costs: []float64{1, 2}, must: true}}}
	p := &periodAnswer{from: 5, to: 20, breaks: rushInstants, surf: []*answer{ans, ans, ans, ans, ans}}
	fac := []wire.Facility{{ID: 1, Costs: wire.Costs{1, 2}}}
	good := []wire.Interval{{From: 5, To: 12, Facilities: fac}, {From: 12, To: 20, Facilities: fac}}
	if err := p.check(good); err != nil {
		t.Fatalf("valid tiling rejected: %v", err)
	}
	for name, ivs := range map[string][]wire.Interval{
		"gap":         {{From: 5, To: 11, Facilities: fac}, {From: 12, To: 20, Facilities: fac}},
		"short":       {{From: 5, To: 19, Facilities: fac}},
		"late start":  {{From: 6, To: 20, Facilities: fac}},
		"empty":       {},
		"wrong set":   {{From: 5, To: 20, Facilities: []wire.Facility{{ID: 2, Costs: wire.Costs{1, 2}}}}},
		"wrong costs": {{From: 5, To: 20, Facilities: []wire.Facility{{ID: 1, Costs: wire.Costs{1, math.Nextafter(2.1, 3)}}}}},
	} {
		if p.check(ivs) == nil {
			t.Errorf("period answer with %s accepted", name)
		}
	}
}
