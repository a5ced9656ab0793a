package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/graph"
)

// workload is one read mix against one fedserver configuration.
type workload struct {
	name string
	// flags are the fedserver flags beyond the shared deployment shape.
	flags []string
	// setupReps is how many times set-up is timed; the last launch serves
	// the run. The witness build of route-read takes tens of seconds, so it
	// is timed once.
	setupReps int
	// hot draws reads Zipf-skewed from a working set warmed before timing.
	hot bool
	// warm is how long reads run before the timed window.
	warm time.Duration
	// probeArcs is the arc count of each idle write batch posted after the
	// window, so every workload reports the update latency of its own index.
	probeArcs int
}

// Shared deployment shape of every launch.
var baseFlags = []string{"-dataset", datasetName, "-silos", "3", "-protocol", "-mesh-tcp", "-prepool", "4096", "-seed", "1"}

const (
	datasetName = "CAL-S"
	silos       = 3
	serverSeed  = 1 // fedserver -seed: congestion seed is serverSeed+1

	readers      = 2 // closed-loop read connections: one per core of the measured host
	knnK         = 10
	knnEvery     = 10 // every 10th read is a /knn?k=10
	hopGroups    = 5
	hotPairs     = 128
	hotKNN       = 12
	zipfS        = 0.8
	probeBatches = 4
	hopSources   = 64  // sources whose hop depths seed the route pairs
	planPerSec   = 120 // read plan entries per second of run, above any measured rate
	planReserve  = 600
)

var workloads = []workload{
	{name: "route-read", setupReps: 1, warm: 2 * time.Second, probeArcs: 1},
	{name: "route-hot", flags: []string{"-customize"}, setupReps: 5, hot: true, warm: time.Second, probeArcs: 10},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

type reqKind int

const (
	kindRoute reqKind = iota
	kindKNN
	kindTraffic
)

func (k reqKind) String() string { return [...]string{"route", "knn", "traffic"}[k] }

// request is one generated read.
type request struct {
	kind reqKind
	s, t graph.Vertex
}

func (r request) path() string {
	if r.kind == kindKNN {
		return fmt.Sprintf("/knn?s=%d&k=%d", r.s, knnK)
	}
	return fmt.Sprintf("/route?s=%d&t=%d", r.s, r.t)
}

// update is one arc change of a traffic batch.
type update struct {
	Silo     int       `json:"silo"`
	Arc      graph.Arc `json:"arc"`
	TravelMs int64     `json:"travel_ms"`
}

// plan is everything a run sends, generated from the seed alone.
type plan struct {
	reads   []request // cold reads in issue order (route-read)
	hotSet  []request // route-hot working set: routes, then knn sources
	hotCDF  []float64 // cumulative Zipf weights over hot routes
	knnCDF  []float64 // cumulative Zipf weights over hot knn sources
	seed    uint64
	batches [][]update // probe batches, posted in order after the window
}

// hotRead returns the i-th read of the route-hot sequence: a deterministic
// function of the seed and i, so every run issues the same reads in the same
// order however fast it goes.
func (p *plan) hotRead(i int) request {
	u := float64(splitmix(p.seed^uint64(i)*0x9e3779b97f4a7c15)>>11) / (1 << 53)
	if i%knnEvery == knnEvery-1 {
		return p.hotSet[hotPairs+sort.SearchFloat64s(p.knnCDF, u)]
	}
	return p.hotSet[sort.SearchFloat64s(p.hotCDF, u)]
}

// source hands out the plan's reads in order: the cold list, or the
// route-hot sequence.
func (p *plan) source() *readSource {
	if p.hotSet != nil {
		return &readSource{get: func(i int) (request, bool) { return p.hotRead(i), true }}
	}
	return &readSource{get: func(i int) (request, bool) {
		if i >= len(p.reads) {
			return request{}, false
		}
		return p.reads[i], true
	}}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), zipfS)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// makePlan generates a run's reads and writes. siloW are the silos' weights
// at traffic version 0; they are not modified.
func makePlan(wl workload, seed uint64, seconds int, g *graph.Graph, w0 graph.Weights, siloW []graph.Weights) *plan {
	rng := rand.New(rand.NewPCG(seed, 0xfed0ad))
	p := &plan{seed: seed}
	pairs := newPairSource(rng, g, w0)
	if wl.hot {
		for i := 0; i < hotPairs; i++ {
			p.hotSet = append(p.hotSet, pairs.next(i%hopGroups))
		}
		for i := 0; i < hotKNN; i++ {
			p.hotSet = append(p.hotSet, request{kind: kindKNN, s: pairs.knnSource()})
		}
		p.hotCDF, p.knnCDF = zipfCDF(hotPairs), zipfCDF(hotKNN)
	} else {
		n := planPerSec*seconds + planReserve
		for i := 0; i < n; i++ {
			if i%knnEvery == knnEvery-1 {
				p.reads = append(p.reads, request{kind: kindKNN, s: pairs.knnSource()})
			} else {
				p.reads = append(p.reads, pairs.next(i%hopGroups))
			}
		}
	}
	cur := make([]graph.Weights, len(siloW))
	for i, w := range siloW {
		cur[i] = append(graph.Weights(nil), w...)
	}
	for i := 0; i < probeBatches; i++ {
		p.batches = append(p.batches, makeBatch(rng, g, cur, wl.probeArcs))
	}
	return p
}

// makeBatch draws n distinct arcs, each with a random silo, and gives each a
// new travel time that differs from the silo's current one (an unchanged
// weight costs no Fed-SAC and would hide the update path). cur is advanced.
func makeBatch(rng *rand.Rand, g *graph.Graph, cur []graph.Weights, n int) []update {
	seen := make(map[graph.Arc]bool, n)
	batch := make([]update, 0, n)
	for len(batch) < n {
		a := graph.Arc(rng.IntN(g.NumArcs()))
		if seen[a] {
			continue
		}
		seen[a] = true
		s := rng.IntN(len(cur))
		old := cur[s][a]
		// Jam or clear the arc by 30-150%, always moving the weight.
		f := 0.3 + 1.2*rng.Float64()
		if rng.IntN(2) == 0 {
			f = 1 / (1 + f)
		} else {
			f = 1 + f
		}
		nw := int64(float64(old) * f)
		if nw == old {
			nw = old + 1
		}
		if nw < 1 {
			nw = 1
		}
		if nw >= graph.MaxWeight {
			nw = graph.MaxWeight - 1
		}
		if nw == old {
			nw = old - 1
		}
		cur[s][a] = nw
		batch = append(batch, update{Silo: s, Arc: a, TravelMs: nw})
	}
	return batch
}

// pairSource draws distinct route pairs spread over hop-distance groups of
// the static network, and distinct kNN sources.
type pairSource struct {
	rng     *rand.Rand
	n       int
	sources []graph.Vertex
	byGroup [][][]graph.Vertex // [source][group] → targets
	used    map[[2]graph.Vertex]bool
	knn     []graph.Vertex // permutation of vertices; knnSource pops from it
}

func newPairSource(rng *rand.Rand, g *graph.Graph, w0 graph.Weights) *pairSource {
	n := g.NumVertices()
	ps := &pairSource{rng: rng, n: n, used: make(map[[2]graph.Vertex]bool)}
	depths := make([][]int, hopSources)
	maxDepth := 0
	for i := range depths {
		s := graph.Vertex(rng.IntN(n))
		ps.sources = append(ps.sources, s)
		depths[i] = hopDepths(g, w0, s)
		for _, d := range depths[i] {
			if d > maxDepth {
				maxDepth = d
			}
		}
	}
	step := max(1, maxDepth*8/10/hopGroups)
	ps.byGroup = make([][][]graph.Vertex, hopSources)
	for i, dep := range depths {
		ps.byGroup[i] = make([][]graph.Vertex, hopGroups)
		for v, d := range dep {
			if d < 1 {
				continue
			}
			gi := min(d/step, hopGroups-1)
			ps.byGroup[i][gi] = append(ps.byGroup[i][gi], graph.Vertex(v))
		}
	}
	for _, v := range rng.Perm(n) {
		ps.knn = append(ps.knn, graph.Vertex(v))
	}
	return ps
}

// next draws an unused pair whose static shortest path has a hop count in
// group gi.
func (ps *pairSource) next(gi int) request {
	for {
		i := ps.rng.IntN(len(ps.sources))
		cands := ps.byGroup[i][gi]
		if len(cands) == 0 {
			continue
		}
		key := [2]graph.Vertex{ps.sources[i], cands[ps.rng.IntN(len(cands))]}
		if ps.used[key] {
			continue
		}
		ps.used[key] = true
		return request{kind: kindRoute, s: key[0], t: key[1]}
	}
}

func (ps *pairSource) knnSource() graph.Vertex {
	v := ps.knn[0]
	ps.knn = ps.knn[1:]
	return v
}

// hopDepths returns the hop count of every vertex's static shortest path
// from s, or -1 when unreachable.
func hopDepths(g *graph.Graph, w0 graph.Weights, s graph.Vertex) []int {
	res := graph.Dijkstra(g, w0, s)
	depth := make([]int, g.NumVertices())
	for v := range depth {
		depth[v] = -2
	}
	depth[s] = 0
	var walk func(v graph.Vertex) int
	walk = func(v graph.Vertex) int {
		if depth[v] != -2 {
			return depth[v]
		}
		p := res.Parent[v]
		if p == graph.NoVertex {
			depth[v] = -1
			return -1
		}
		d := walk(p)
		if d >= 0 {
			d++
		}
		depth[v] = d
		return d
	}
	for v := range depth {
		walk(graph.Vertex(v))
	}
	return depth
}
