package main

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// oracle checks answers against plaintext Dijkstra on the joint weights
// (the sum of the silos' weights) at the traffic version each answer names.
// Version v is the initial congestion plus the first v applied batches: the
// benchmark is the only writer and posts its batches one at a time.
type oracle struct {
	g     *graph.Graph
	joint []graph.Weights // by traffic version
	dist  map[[2]int64][]int64
}

func newOracle(g *graph.Graph, siloW []graph.Weights, applied [][]update) *oracle {
	cur := make([]graph.Weights, len(siloW))
	for i, w := range siloW {
		cur[i] = append(graph.Weights(nil), w...)
	}
	joint := graph.JointWeights(cur)
	o := &oracle{g: g, joint: []graph.Weights{joint}, dist: make(map[[2]int64][]int64)}
	for _, b := range applied {
		joint = append(graph.Weights(nil), joint...)
		for _, u := range b {
			joint[u.Arc] += u.TravelMs - cur[u.Silo][u.Arc]
			cur[u.Silo][u.Arc] = u.TravelMs
		}
		o.joint = append(o.joint, joint)
	}
	return o
}

func (o *oracle) distances(ver uint64, s graph.Vertex) ([]int64, graph.Weights, error) {
	if ver >= uint64(len(o.joint)) {
		return nil, nil, fmt.Errorf("answer at traffic version %d, but only %d batches were applied", ver, len(o.joint)-1)
	}
	key := [2]int64{int64(ver), int64(s)}
	d, ok := o.dist[key]
	if !ok {
		d = graph.Dijkstra(o.g, o.joint[ver], s).Dist
		o.dist[key] = d
	}
	return d, o.joint[ver], nil
}

// checkPath verifies that path runs from s to its last vertex at exactly the
// shortest joint distance, and that the reported mean travel time matches.
func (o *oracle) checkPath(d []int64, w graph.Weights, s graph.Vertex, path []graph.Vertex, meanSec float64) (graph.Vertex, error) {
	if len(path) == 0 || path[0] != s {
		return 0, fmt.Errorf("path does not start at %d", s)
	}
	t := path[len(path)-1]
	cost, err := graph.PathCost(o.g, w, path)
	if err != nil {
		return 0, err
	}
	if cost != d[t] {
		return 0, fmt.Errorf("path %d->%d costs %d, shortest is %d", s, t, cost, d[t])
	}
	want := float64(cost) / silos / 1000
	if math.Abs(meanSec-want) > 1e-6*math.Max(1, want) {
		return 0, fmt.Errorf("mean_travel_sec %v, want %v", meanSec, want)
	}
	return t, nil
}

func (o *oracle) checkRoute(r request, resp *routeResp) error {
	d, w, err := o.distances(resp.TrafficVersion, r.s)
	if err != nil {
		return err
	}
	if d[r.t] >= graph.InfCost {
		if resp.Found {
			return fmt.Errorf("route %d->%d found, but %d is unreachable", r.s, r.t, r.t)
		}
		return nil
	}
	if !resp.Found {
		return fmt.Errorf("route %d->%d not found", r.s, r.t)
	}
	if resp.Segments != len(resp.Path)-1 {
		return fmt.Errorf("route %d->%d: segments %d for %d vertices", r.s, r.t, resp.Segments, len(resp.Path))
	}
	t, err := o.checkPath(d, w, r.s, resp.Path, resp.MeanTravelSec)
	if err != nil {
		return fmt.Errorf("route %d->%d at version %d: %w", r.s, r.t, resp.TrafficVersion, err)
	}
	if t != r.t {
		return fmt.Errorf("route %d->%d ends at %d", r.s, r.t, t)
	}
	return nil
}

// checkKNN verifies that the answer lists k distinct vertices, nearest first,
// whose distances are exactly the k smallest (ties may pick any vertex).
func (o *oracle) checkKNN(r request, resp *knnResp) error {
	d, w, err := o.distances(resp.TrafficVersion, r.s)
	if err != nil {
		return err
	}
	var reach []int64
	for _, x := range d {
		if x < graph.InfCost {
			reach = append(reach, x)
		}
	}
	slices.Sort(reach)
	want := min(knnK, len(reach))
	if len(resp.Results) != want {
		return fmt.Errorf("knn %d: %d results, want %d", r.s, len(resp.Results), want)
	}
	seen := make(map[graph.Vertex]bool, want)
	for i, nb := range resp.Results {
		if !nb.Found {
			return fmt.Errorf("knn %d: result %d not found", r.s, i)
		}
		t, err := o.checkPath(d, w, r.s, nb.Path, nb.MeanTravelSec)
		if err != nil {
			return fmt.Errorf("knn %d result %d at version %d: %w", r.s, i, resp.TrafficVersion, err)
		}
		if seen[t] {
			return fmt.Errorf("knn %d: vertex %d listed twice", r.s, t)
		}
		seen[t] = true
		if d[t] != reach[i] {
			return fmt.Errorf("knn %d: result %d at distance %d, want %d", r.s, i, d[t], reach[i])
		}
	}
	return nil
}
