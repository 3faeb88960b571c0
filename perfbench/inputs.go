package main

// Input generation: every query list, key space and profile table is a pure
// function of the run's seed, and every query carries the oracle's answer,
// computed here before the program is set up.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"mcn"
	"mcn/internal/wire"
)

// query is one request the benchmark sends, with the oracle's answer to it.
type query struct {
	req    wire.Request
	ans    *answer       // single-result kinds
	period *periodAnswer // period kinds
}

// periodAnswer holds the oracle's answer on every cost surface a period
// query can touch: surf[s] is valid from breaks[s-1] (or -Inf) to breaks[s].
type periodAnswer struct {
	from, to float64
	breaks   []float64
	surf     []*answer
}

// surfaceAt is the index of the cost surface in effect at instant t.
func (p *periodAnswer) surfaceAt(t float64) int {
	return sort.Search(len(p.breaks), func(i int) bool { return p.breaks[i] > t })
}

// check verifies a period answer: the intervals tile [from, to) in order,
// every interval equals the oracle at its start instant, and its facility
// set also holds at every surface change inside it (so a wrongly fused seam
// shows too).
func (p *periodAnswer) check(ivs []wire.Interval) error {
	if len(ivs) == 0 {
		return fmt.Errorf("no intervals for [%g, %g)", p.from, p.to)
	}
	if ivs[0].From != p.from || ivs[len(ivs)-1].To != p.to {
		return fmt.Errorf("intervals span [%g, %g), want [%g, %g)", ivs[0].From, ivs[len(ivs)-1].To, p.from, p.to)
	}
	for i, iv := range ivs {
		if !(iv.From < iv.To) || (i > 0 && ivs[i-1].To != iv.From) {
			return fmt.Errorf("interval %d [%g, %g) does not continue the tiling", i, iv.From, iv.To)
		}
		instants := []float64{iv.From}
		for _, b := range p.breaks {
			if b > iv.From && b < iv.To {
				instants = append(instants, b)
			}
		}
		for j, t := range instants {
			a := p.surf[p.surfaceAt(t)]
			check := a.checkIDs
			if j == 0 {
				check = a.check
			}
			if err := check(iv.Facilities); err != nil {
				return fmt.Errorf("interval [%g, %g) at instant %g: %w", iv.From, iv.To, t, err)
			}
		}
	}
	return nil
}

// netSpec sizes a generated network.
type netSpec struct {
	nodes, facilities, d int
}

// netSeed fixes each workload's network. The run's seed varies everything
// sent to it (query locations, weights, key order, profiles), so runs on
// different seeds measure one network under different traffic; a network
// drawn per seed moved paper-disk's throughput by 2x between seeds.
const netSeed = 1

func makeGraph(spec netSpec) (*mcn.Graph, error) {
	return mcn.Synthetic(mcn.SyntheticConfig{
		Nodes:      spec.nodes,
		Facilities: spec.facilities,
		D:          spec.d,
		Dist:       "anti-correlated",
		Seed:       netSeed,
	})
}

// oracleWorkers bounds the goroutines that precompute answers.
var oracleWorkers = min(2, runtime.NumCPU())

// parallel runs fn(s, i) for i in [0, n) on oracleWorkers goroutines, each
// with its own Dijkstra state s.
func parallel(g *oracleGraph, n int, fn func(s *dijkstra, i int)) {
	var wg sync.WaitGroup
	for w := 0; w < oracleWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := newDijkstra(g)
			for i := w; i < n; i += oracleWorkers {
				fn(s, i)
			}
		}(w)
	}
	wg.Wait()
}

// costVectors is every facility's full cost vector from loc over w.
func (s *dijkstra) costVectors(w []float64, loc mcn.Location) vectors {
	cols := make([][]float64, s.g.d)
	for i := range cols {
		cols[i] = s.facilityCosts(w, i, loc)
	}
	return columns(cols)
}

// randomWeights draws a weight vector on the simplex; no two draws are
// positive multiples of each other, so the result cache never rescales.
func randomWeights(rng *rand.Rand, m int) []float64 {
	w := make([]float64, m)
	sum := 0.0
	for i := range w {
		w[i] = 0.05 + rng.Float64()
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

func randomLocation(rng *rand.Rand, g *mcn.Graph) mcn.Location {
	return mcn.Location{Edge: mcn.EdgeID(rng.Intn(g.NumEdges())), T: rng.Float64()}
}

// kthSmallest returns the r-th smallest value of xs (1-based), copying.
func kthSmallest(xs []float64, r int) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c[min(r, len(c))-1]
}

// ---- serve-zipf --------------------------------------------------------

// Key space of serve-zipf: zipfLocations query locations times
// zipfVariants request shapes per location, 16384 keys in all — four times
// the result cache's default 4096-entry capacity.
const (
	zipfLocations = 1024
	zipfTopK      = 8 // top-k weight vectors per location
	zipfBudgets   = 4 // within budgets per location
	zipfK         = 4
)

var zipfBudgetRanks = [zipfBudgets]int{8, 16, 32, 64}

// zipf draws Zipf(s) ranks in [0, n) by inverse CDF over the cumulative
// rank weights 1/rank^s. math/rand's Zipf needs s > 1, and serve-zipf uses
// the classic s = 1.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	total := 0.0
	for r := range z.cum {
		total += math.Pow(float64(r+1), -s)
		z.cum[r] = total
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cum, rng.Float64()*z.cum[len(z.cum)-1]), len(z.cum)-1)
}

// zipfVariants is the number of request shapes per location at d cost
// types: skyline, the top-k weight vectors, nearest per cost type, and the
// within budgets.
func zipfVariants(d int) int { return 1 + zipfTopK + d + zipfBudgets }

// zipfInputs builds the serve-zipf key space. Key i is location i/variants,
// shape i%variants.
func zipfInputs(g *mcn.Graph, og *oracleGraph, seed int64) ([]query, []mcn.Location) {
	rng := rand.New(rand.NewSource(seed))
	d := g.D()
	locs := make([]mcn.Location, zipfLocations)
	for i := range locs {
		locs[i] = randomLocation(rng, g)
	}
	weights := make([][]float64, zipfTopK)
	for i := range weights {
		weights[i] = randomWeights(rng, d)
	}
	nv := zipfVariants(d)
	qs := make([]query, zipfLocations*nv)
	parallel(og, zipfLocations, func(s *dijkstra, li int) {
		loc := locs[li]
		vs := s.costVectors(og.base, loc)
		out := qs[li*nv : (li+1)*nv]
		base := wire.Request{Edge: int(loc.Edge), T: loc.T}
		v := 0
		out[v] = query{req: withKind(base, wire.KindSkyline), ans: skylineAnswer(vs)}
		v++
		for _, w := range weights {
			r := withKind(base, wire.KindTopK)
			r.K, r.Weights = zipfK, w
			out[v] = query{req: r, ans: rankedAnswer(vs, weighted(w), zipfK)}
			v++
		}
		cols := make([][]float64, d)
		for i := range cols {
			cols[i] = make([]float64, vs.len())
			for f := range cols[i] {
				cols[i][f] = vs.at(f)[i]
			}
		}
		for i := 0; i < d; i++ {
			r := withKind(base, wire.KindNearest)
			r.K, r.Cost = zipfK, i
			out[v] = query{req: r, ans: nearestAnswer(cols[i], d, i, zipfK)}
			v++
		}
		sorted := make([][]float64, d)
		for i := range sorted {
			sorted[i] = append([]float64(nil), cols[i]...)
			sort.Float64s(sorted[i])
		}
		for _, rank := range zipfBudgetRanks {
			budget := make([]float64, d)
			for i := range budget {
				budget[i] = sorted[i][min(rank, len(sorted[i]))-1]
			}
			r := withKind(base, wire.KindWithin)
			r.Budget = budget
			out[v] = query{req: r, ans: withinAnswer(vs, budget)}
			v++
		}
	})
	return qs, locs
}

func withKind(r wire.Request, kind string) wire.Request {
	r.Kind = kind
	return r
}

// ---- paper-disk --------------------------------------------------------

// paper-disk's fixed query list: CEA skyline and CEA top-k (k = 4, random
// weights) at each of diskLocations locations, in turn. The list is longer
// than a run gets through, so a run's tail quantiles come from thousands of
// distinct queries.
const (
	diskLocations = 2048
	diskK         = 4
)

func diskInputs(g *mcn.Graph, og *oracleGraph, seed int64) []query {
	rng := rand.New(rand.NewSource(seed))
	locs := make([]mcn.Location, diskLocations)
	weights := make([][]float64, diskLocations)
	for i := range locs {
		locs[i] = randomLocation(rng, g)
		weights[i] = randomWeights(rng, g.D())
	}
	qs := make([]query, 2*diskLocations)
	parallel(og, diskLocations, func(s *dijkstra, i int) {
		vs := s.costVectors(og.base, locs[i])
		base := wire.Request{Edge: int(locs[i].Edge), T: locs[i].T}
		qs[2*i] = query{req: withKind(base, wire.KindSkyline), ans: skylineAnswer(vs)}
		r := withKind(base, wire.KindTopK)
		r.K, r.Weights = diskK, weights[i]
		qs[2*i+1] = query{req: r, ans: rankedAnswer(vs, weighted(weights[i]), diskK)}
	})
	return qs
}

// ---- gateway-mix -------------------------------------------------------

// rushInstants is the small shared set of instants every rush-hour profile
// breaks at: morning rush, midday, evening rush, night. Sharing them keeps
// the time axis at five elementary intervals however many edges carry a
// profile.
var rushInstants = []float64{7, 10, 16, 19}

// profileShare is the fraction of edges that carry a rush-hour profile.
const profileShare = 0.25

// profiles is the benchmark's time-dependent cost table: per profiled edge,
// one multiplier vector per rush instant.
type profiles map[mcn.EdgeID][]mcn.Costs

func makeProfiles(g *mcn.Graph, seed int64) profiles {
	rng := rand.New(rand.NewSource(seed))
	ps := make(profiles)
	for e := 0; e < g.NumEdges(); e++ {
		if rng.Float64() >= profileShare {
			continue
		}
		mult := make([]mcn.Costs, len(rushInstants))
		for k := range mult {
			m := make(mcn.Costs, g.D())
			for i := range m {
				m[i] = 0.5 + 2.5*rng.Float64()
			}
			mult[k] = m
		}
		ps[mcn.EdgeID(e)] = mult
	}
	return ps
}

// surfaces returns the oracle's weight table for each elementary interval:
// surface 0 is the base costs, surface k the costs from rushInstants[k-1].
func (ps profiles) surfaces(og *oracleGraph) [][]float64 {
	out := make([][]float64, len(rushInstants)+1)
	out[0] = og.base
	for k := 1; k < len(out); k++ {
		w := append([]float64(nil), og.base...)
		for e, mult := range ps {
			for i, m := range mult[k-1] {
				w[int(e)*og.d+i] *= m
			}
		}
		out[k] = w
	}
	return out
}

// gateway-mix's query list gives equal shares to its five request classes:
// single-location queries (skyline, top-k, nearest, within in turn),
// multisource skyline, multisource top-k, skyline over a period and top-k
// over a period.
const (
	gwQueries = 1200
	gwK       = 4
)

func gatewayInputs(g *mcn.Graph, og *oracleGraph, ps profiles, seed int64) []query {
	rng := rand.New(rand.NewSource(seed))
	d := g.D()
	surf := ps.surfaces(og)
	qs := make([]query, gwQueries)
	type plan struct {
		locs    []mcn.Location
		weights []float64
		cost    int
		budgetR int
	}
	plans := make([]plan, gwQueries)
	for i := range qs {
		p := &plans[i]
		loc := randomLocation(rng, g)
		r := wire.Request{Edge: int(loc.Edge), T: loc.T}
		switch slot := i % 20; {
		case slot < 4:
			r.Kind = []string{wire.KindSkyline, wire.KindTopK, wire.KindNearest, wire.KindWithin}[slot]
			p.locs = []mcn.Location{loc}
			switch r.Kind {
			case wire.KindTopK:
				r.K, r.Weights = gwK, randomWeights(rng, d)
			case wire.KindNearest:
				r.K, r.Cost = gwK, rng.Intn(d)
			case wire.KindWithin:
				p.budgetR = zipfBudgetRanks[rng.Intn(zipfBudgets)]
			}
		case slot < 12:
			r = wire.Request{Kind: wire.KindMultiSourceSkyline, Cost: rng.Intn(d)}
			if slot >= 8 {
				r.Kind = wire.KindMultiSourceTopK
			}
			p.locs = nearbySources(rng, g, loc, 2+rng.Intn(2))
			for _, l := range p.locs {
				r.Edges = append(r.Edges, int(l.Edge))
				r.Ts = append(r.Ts, l.T)
			}
			if r.Kind == wire.KindMultiSourceTopK {
				r.K, r.Weights = gwK, randomWeights(rng, len(p.locs))
			}
		default:
			r.Kind = wire.KindSkylinePeriod
			if slot >= 16 {
				r.Kind = wire.KindTopKPeriod
				r.K, r.Weights = gwK, randomWeights(rng, d)
			}
			r.From = 5 + 0.25*float64(rng.Intn(12))
			r.To = 17 + 0.25*float64(rng.Intn(16))
			p.locs = []mcn.Location{loc}
		}
		p.cost = r.Cost
		qs[i].req = r
	}
	parallel(og, gwQueries, func(s *dijkstra, i int) {
		q, p := &qs[i], &plans[i]
		switch q.req.Kind {
		case wire.KindMultiSourceSkyline, wire.KindMultiSourceTopK:
			cols := make([][]float64, len(p.locs))
			for j, l := range p.locs {
				cols[j] = s.facilityCosts(og.base, p.cost, l)
			}
			vs := columns(cols)
			if q.req.Kind == wire.KindMultiSourceSkyline {
				q.ans = skylineAnswer(vs)
			} else {
				q.ans = rankedAnswer(vs, weighted(q.req.Weights), q.req.K)
			}
		case wire.KindSkylinePeriod, wire.KindTopKPeriod:
			pa := &periodAnswer{from: q.req.From, to: q.req.To, breaks: rushInstants}
			for _, w := range surf {
				vs := s.costVectors(w, p.locs[0])
				if q.req.Kind == wire.KindSkylinePeriod {
					pa.surf = append(pa.surf, skylineAnswer(vs))
				} else {
					pa.surf = append(pa.surf, rankedAnswer(vs, weighted(q.req.Weights), q.req.K))
				}
			}
			q.period = pa
		default:
			vs := s.costVectors(og.base, p.locs[0])
			switch q.req.Kind {
			case wire.KindSkyline:
				q.ans = skylineAnswer(vs)
			case wire.KindTopK:
				q.ans = rankedAnswer(vs, weighted(q.req.Weights), q.req.K)
			case wire.KindNearest:
				col := make([]float64, vs.len())
				for f := range col {
					col[f] = vs.at(f)[q.req.Cost]
				}
				q.ans = nearestAnswer(col, d, q.req.Cost, q.req.K)
			case wire.KindWithin:
				budget := make([]float64, d)
				for i := range budget {
					col := make([]float64, vs.len())
					for f := range col {
						col[f] = vs.at(f)[i]
					}
					budget[i] = kthSmallest(col, p.budgetR)
				}
				q.req.Budget = budget
				q.ans = withinAnswer(vs, budget)
			}
		}
	})
	return qs
}

// Meeting-point sources lie a random walk of sourceHopsMin to sourceHopsMax
// hops from the first source.
const (
	sourceHopsMin = 4
	sourceHopsMax = 16
)

// nearbySources picks m query locations for a meeting-point query: loc
// itself and, for each other source, a point on the last edge of a random
// walk from one of loc's end nodes.
func nearbySources(rng *rand.Rand, g *mcn.Graph, loc mcn.Location, m int) []mcn.Location {
	out := []mcn.Location{loc}
	e := g.Edge(loc.Edge)
	for len(out) < m {
		at, last := e.U, loc.Edge
		if rng.Intn(2) == 1 {
			at = e.V
		}
		for h := sourceHopsMin + rng.Intn(sourceHopsMax-sourceHopsMin+1); h > 0; h-- {
			arcs := g.Arcs(at)
			a := arcs[rng.Intn(len(arcs))]
			at, last = a.Neighbor, a.Edge
		}
		out = append(out, mcn.Location{Edge: last, T: math.Round(rng.Float64()*1000) / 1000})
	}
	return out
}
