package main

// The oracle: the benchmark's own answer to every query it sends, computed
// from the graph's public accessors with a plain Dijkstra per cost type and
// brute-force preference operators. It shares no code with the program
// under test, so a fault in the engines, the serving stack or the gateway
// shows up as a mismatch here.
//
// Comparisons tolerate only what the wire legitimately changes: the binary
// codec narrows response costs and scores to float32, and the program may
// sum path costs in another order than the oracle. Both are covered by a
// relative tolerance of 1e-6; near-ties inside that tolerance may resolve
// either way, and nothing else is forgiven.

import (
	"fmt"
	"math"
	"sort"

	"mcn"
	"mcn/internal/wire"
)

// relTol is the relative tolerance of every cost and score comparison.
const relTol = 1e-6

// near reports whether a and b agree within the tolerance.
func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))+1e-9
}

// slack is the tolerance band around x.
func slack(x float64) float64 { return relTol*math.Abs(x) + 1e-9 }

// oracleGraph is the oracle's own compact copy of an undirected network: a
// CSR adjacency and, per cost surface, a flat |E|×d weight table.
type oracleGraph struct {
	d, n    int
	off     []int32 // adjacency offsets per node (len n+1)
	nbr     []int32 // neighbour per adjacency slot
	adjEdge []int32 // edge per adjacency slot
	eu, ev  []int32 // edge endpoints
	base    []float64
	facEdge []int32
	facT    []float64
}

func newOracleGraph(g *mcn.Graph) (*oracleGraph, error) {
	if g.Directed() {
		return nil, fmt.Errorf("oracle: directed networks are not supported")
	}
	o := &oracleGraph{d: g.D(), n: g.NumNodes()}
	ne := g.NumEdges()
	o.eu, o.ev = make([]int32, ne), make([]int32, ne)
	o.base = make([]float64, ne*o.d)
	deg := make([]int32, o.n+1)
	for e := 0; e < ne; e++ {
		ed := g.Edge(mcn.EdgeID(e))
		o.eu[e], o.ev[e] = int32(ed.U), int32(ed.V)
		copy(o.base[e*o.d:], ed.W)
		deg[ed.U]++
		deg[ed.V]++
	}
	o.off = make([]int32, o.n+1)
	for v := 0; v < o.n; v++ {
		o.off[v+1] = o.off[v] + deg[v]
	}
	o.nbr = make([]int32, o.off[o.n])
	o.adjEdge = make([]int32, o.off[o.n])
	fill := append([]int32(nil), o.off[:o.n]...)
	for e := 0; e < ne; e++ {
		u, v := o.eu[e], o.ev[e]
		o.nbr[fill[u]], o.adjEdge[fill[u]] = v, int32(e)
		fill[u]++
		o.nbr[fill[v]], o.adjEdge[fill[v]] = u, int32(e)
		fill[v]++
	}
	nf := g.NumFacilities()
	o.facEdge, o.facT = make([]int32, nf), make([]float64, nf)
	for f := 0; f < nf; f++ {
		fa := g.Facility(mcn.FacilityID(f))
		o.facEdge[f], o.facT[f] = int32(fa.Edge), fa.T
	}
	return o, nil
}

// dijkstra is reusable single-source shortest-path state over one graph.
type dijkstra struct {
	g    *oracleGraph
	dist []float64
	heap []heapItem
}

type heapItem struct {
	d float64
	v int32
}

func newDijkstra(g *oracleGraph) *dijkstra {
	return &dijkstra{g: g, dist: make([]float64, g.n)}
}

// run fills s.dist with the cost under cost type i from loc to every node,
// over the weight table w (|E|×d).
func (s *dijkstra) run(w []float64, i int, loc mcn.Location) {
	g, d := s.g, s.g.d
	for v := range s.dist {
		s.dist[v] = math.Inf(1)
	}
	s.heap = s.heap[:0]
	le := int(loc.Edge)
	lw := w[le*d+i]
	s.push(g.eu[le], loc.T*lw)
	s.push(g.ev[le], (1-loc.T)*lw)
	for len(s.heap) > 0 {
		top := s.pop()
		if top.d > s.dist[top.v] {
			continue
		}
		for a := g.off[top.v]; a < g.off[top.v+1]; a++ {
			s.push(g.nbr[a], top.d+w[int(g.adjEdge[a])*d+i])
		}
	}
}

// facilityCosts returns the cost under cost type i from loc to every
// facility, over the weight table w.
func (s *dijkstra) facilityCosts(w []float64, i int, loc mcn.Location) []float64 {
	s.run(w, i, loc)
	out := make([]float64, len(s.g.facEdge))
	for f, e := range s.g.facEdge {
		out[f] = s.g.pointCost(s.dist, w, i, loc, int(e), s.g.facT[f])
	}
	return out
}

// nodeCosts returns a copy of the per-node costs under cost type i from loc.
func (s *dijkstra) nodeCosts(w []float64, i int, loc mcn.Location) []float64 {
	s.run(w, i, loc)
	return append([]float64(nil), s.dist...)
}

// pointCost is the cost from loc to the point at fraction t of edge e,
// given the per-node costs dist from loc: through either end node, or
// directly along the edge when loc lies on it too.
func (g *oracleGraph) pointCost(dist, w []float64, i int, loc mcn.Location, e int, t float64) float64 {
	we := w[e*g.d+i]
	c := math.Min(dist[g.eu[e]]+t*we, dist[g.ev[e]]+(1-t)*we)
	if e == int(loc.Edge) {
		c = math.Min(c, math.Abs(t-loc.T)*we)
	}
	return c
}

func (s *dijkstra) push(v int32, d float64) {
	if d >= s.dist[v] {
		return
	}
	s.dist[v] = d
	s.heap = append(s.heap, heapItem{d, v})
	for j := len(s.heap) - 1; j > 0; {
		p := (j - 1) / 2
		if s.heap[p].d <= s.heap[j].d {
			break
		}
		s.heap[p], s.heap[j] = s.heap[j], s.heap[p]
		j = p
	}
}

func (s *dijkstra) pop() heapItem {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for j := 0; ; {
		l, r, m := 2*j+1, 2*j+2, j
		if l < len(h) && h[l].d < h[m].d {
			m = l
		}
		if r < len(h) && h[r].d < h[m].d {
			m = r
		}
		if m == j {
			break
		}
		h[j], h[m] = h[m], h[j]
		j = m
	}
	s.heap = h
	return top
}

// vectors is one cost vector per facility, m components each, row-major.
type vectors struct {
	m int
	v []float64
}

func (vs vectors) at(f int) []float64 { return vs.v[f*vs.m : (f+1)*vs.m] }
func (vs vectors) len() int           { return len(vs.v) / vs.m }

// columns assembles per-component cost slices into facility vectors.
func columns(cols [][]float64) vectors {
	m, n := len(cols), len(cols[0])
	vs := vectors{m: m, v: make([]float64, n*m)}
	for j, c := range cols {
		for f, x := range c {
			vs.v[f*m+j] = x
		}
	}
	return vs
}

// cand is one facility an answer may (or, with must set, has to) contain.
type cand struct {
	id    int
	score float64
	costs []float64 // NaN components are not checked
	must  bool
}

// Answer kinds.
const (
	ansSet    = iota // skyline: an unordered set
	ansRanked        // top-k and nearest: ascending score, then id
	ansByID          // within: ascending id
)

// answer is the oracle's expected result of one query in the compact form
// the checks need: the facilities it must or may contain, and for ranked
// answers the expected length and score sequence.
type answer struct {
	kind  int
	want  int // ranked: expected length
	cands []cand
}

// skylineAnswer derives the skyline over vs. Facilities not dominated
// even with tolerance are required; facilities only dominated within the
// tolerance are allowed.
func skylineAnswer(vs vectors) *answer {
	n := vs.len()
	order := make([]int, n)
	sum := make([]float64, n)
	for f := range order {
		order[f] = f
		for _, x := range vs.at(f) {
			sum[f] += x
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if sum[order[a]] != sum[order[b]] {
			return sum[order[a]] < sum[order[b]]
		}
		return order[a] < order[b]
	})
	// A facility can only be dominated, even loosely, by one with a smaller
	// component sum (up to the tolerance), so a sorted sweep against the
	// loose window suffices.
	var window []int
	ans := &answer{kind: ansSet}
	for _, f := range order {
		fv := vs.at(f)
		strictly, loosely := false, false
		for _, g := range window {
			gv := vs.at(g)
			if looseDominates(gv, fv) {
				loosely = true
				if strictDominates(gv, fv) {
					strictly = true
					break
				}
			}
		}
		if strictly {
			continue
		}
		window = append(window, f)
		ans.cands = append(ans.cands, cand{id: f, costs: clone(fv), must: !loosely})
	}
	// A later facility can loosely dominate an earlier one only at equal
	// sums within the tolerance; clear must on such pairs.
	for i := range ans.cands {
		for j := range ans.cands {
			if i != j && ans.cands[i].must && looseDominates(ans.cands[j].costs, ans.cands[i].costs) {
				ans.cands[i].must = false
			}
		}
	}
	return ans
}

// strictDominates: a is no worse than b beyond the tolerance anywhere and
// better by more than the tolerance somewhere.
func strictDominates(a, b []float64) bool {
	better := false
	for i := range a {
		if a[i] > b[i]+slack(b[i]) {
			return false
		}
		if a[i] < b[i]-slack(b[i]) {
			better = true
		}
	}
	return better
}

// looseDominates: a is no worse than b beyond the tolerance anywhere.
func looseDominates(a, b []float64) bool {
	for i := range a {
		if a[i] > b[i]+slack(b[i]) {
			return false
		}
	}
	return true
}

// rankedAnswer ranks facilities by score, keeping the first k plus every
// facility tied with the k-th within the tolerance.
func rankedAnswer(vs vectors, score func([]float64) float64, k int) *answer {
	scores := make([]float64, vs.len())
	for f := range scores {
		scores[f] = score(vs.at(f))
	}
	return ranked(scores, k, func(f int) []float64 { return clone(vs.at(f)) })
}

// ranked builds a ranked answer from per-facility scores; costs renders a
// candidate's cost vector.
func ranked(scores []float64, k int, costs func(f int) []float64) *answer {
	want := min(k, len(scores))
	ans := &answer{kind: ansRanked, want: want}
	if want == 0 {
		return ans
	}
	// The k smallest scores by insertion, then everything within the
	// tolerance of the k-th.
	best := make([]float64, 0, want)
	for _, x := range scores {
		if len(best) == want && x >= best[want-1] {
			continue
		}
		if len(best) < want {
			best = append(best, x)
		} else {
			best[want-1] = x
		}
		for j := len(best) - 1; j > 0 && best[j] < best[j-1]; j-- {
			best[j], best[j-1] = best[j-1], best[j]
		}
	}
	limit := best[want-1] + slack(best[want-1])
	for f, x := range scores {
		if x <= limit {
			ans.cands = append(ans.cands, cand{id: f, score: x})
		}
	}
	sort.Slice(ans.cands, func(a, b int) bool {
		if ans.cands[a].score != ans.cands[b].score {
			return ans.cands[a].score < ans.cands[b].score
		}
		return ans.cands[a].id < ans.cands[b].id
	})
	for i := range ans.cands {
		ans.cands[i].costs = costs(ans.cands[i].id)
	}
	return ans
}

// weighted is the weighted-sum score the program's top-k uses.
func weighted(w []float64) func([]float64) float64 {
	return func(c []float64) float64 {
		s := 0.0
		for i, a := range w {
			if a != 0 {
				s += a * c[i]
			}
		}
		return s
	}
}

// nearestAnswer ranks facilities by one cost component; the other
// components are unknown on the wire and stay unchecked.
func nearestAnswer(costs []float64, d, costIdx, k int) *answer {
	return ranked(costs, k, func(f int) []float64 {
		row := make([]float64, d)
		for i := range row {
			row[i] = math.NaN()
		}
		row[costIdx] = costs[f]
		return row
	})
}

// withinAnswer lists the facilities whose whole vector fits the budget.
func withinAnswer(vs vectors, budget []float64) *answer {
	ans := &answer{kind: ansByID}
	for f := 0; f < vs.len(); f++ {
		fv := vs.at(f)
		fits, surely := true, true
		for i, b := range budget {
			if fv[i] > b+slack(b) {
				fits = false
				break
			}
			if fv[i] > b-slack(b) {
				surely = false
			}
		}
		if fits {
			ans.cands = append(ans.cands, cand{id: f, costs: clone(fv), must: surely})
		}
	}
	return ans
}

// check compares a served answer with the oracle's.
func (a *answer) check(got []wire.Facility) error {
	byID := make(map[int]*cand, len(a.cands))
	for i := range a.cands {
		byID[a.cands[i].id] = &a.cands[i]
	}
	seen := make(map[int]bool, len(got))
	for i, f := range got {
		id := int(f.ID)
		if seen[id] {
			return fmt.Errorf("facility %d listed twice", id)
		}
		seen[id] = true
		c := byID[id]
		if c == nil {
			return fmt.Errorf("facility %d (position %d) does not belong in the answer", id, i)
		}
		if len(f.Costs) != len(c.costs) {
			return fmt.Errorf("facility %d has %d costs, want %d", id, len(f.Costs), len(c.costs))
		}
		for j, x := range f.Costs {
			if !math.IsNaN(x) && !math.IsNaN(c.costs[j]) && !near(x, c.costs[j]) {
				return fmt.Errorf("facility %d cost %d is %g, oracle says %g", id, j, x, c.costs[j])
			}
		}
		switch a.kind {
		case ansRanked:
			if i >= len(a.cands) || !near(f.Score, a.cands[i].score) || !near(f.Score, c.score) {
				return fmt.Errorf("facility %d at rank %d scores %g, oracle says %g", id, i, f.Score, c.score)
			}
		case ansByID:
			if i > 0 && got[i-1].ID >= f.ID {
				return fmt.Errorf("within answer not in ascending id order at position %d", i)
			}
		}
	}
	if a.kind == ansRanked && len(got) != a.want {
		return fmt.Errorf("got %d facilities, want %d", len(got), a.want)
	}
	for _, c := range a.cands {
		if c.must && !seen[c.id] {
			return fmt.Errorf("facility %d is missing", c.id)
		}
	}
	return nil
}

// checkIDs compares only the facility set of a served answer with the
// oracle's: a period interval keeps the costs of its start instant, and
// only its set must stay right at the later instants it was fused over.
func (a *answer) checkIDs(got []wire.Facility) error {
	seen := make(map[int]bool, len(got))
	for _, f := range got {
		seen[int(f.ID)] = true
	}
	inCands := 0
	for _, c := range a.cands {
		if seen[c.id] {
			inCands++
		} else if c.must {
			return fmt.Errorf("facility %d is missing", c.id)
		}
	}
	if inCands != len(got) {
		return fmt.Errorf("answer holds facilities outside the oracle's set")
	}
	if a.kind == ansRanked && len(got) != a.want {
		return fmt.Errorf("got %d facilities, want %d", len(got), a.want)
	}
	return nil
}

// clone copies a cost vector out of a large facility table, so an answer
// does not keep the whole table alive.
func clone(c []float64) []float64 { return append([]float64(nil), c...) }
