package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/graph"
)

// endToEnd and perLayer are the metric names printed on the result line
// without and with -trace 1; they match BENCHMARK.json.
var endToEnd = []string{
	"setup_s", "route_p50_ms", "route_p90_ms", "knn_p50_ms", "route_qps",
	"route_model_net_ms", "server_cpu_ms_per_req", "server_peak_rss_mb",
}

var perLayer = []string{
	"fedserver.outside_search_ms_p50", "fedserver.outside_search_ms_p90", "fedserver.traffic_apply_ms_p50",
	"admit.shed",
	"cache.hit_ratio", "cache.hit_us_p50",
	"core.search_ms_p50", "core.queue_ms_mean", "core.relax_ms_mean", "core.sac_wait_ms_mean",
	"core.settled_per_route", "lb.heuristic_evals_per_route", "pq.secure_compares_per_route",
	"mpc.fed_sacs_per_route", "mpc.rounds_per_route", "mpc.bytes_per_route", "mpc.fed_sacs_per_knn",
	"mpc.compare_us_mean", "mpc.pool_hit_ratio", "mpc.dealer_us_per_compare",
	"transport.msgs_per_route", "transport.bytes_per_route", "transport.recv_wait_ms_per_route",
	"transport.reconnects", "transport.heartbeat_misses",
	"ch.build_s", "ch.build_fed_sacs", "ch.build_mpc_rounds", "ch.shortcuts",
	"ch.update_ms_p50", "ch.update_fed_sacs_per_batch", "ch.reverified_per_batch",
	"graph.setup_s",
	"trace.route_p50_ms", "trace.overhead_us_per_req", "trace.unattributed_share_p50",
	"trace.self_ms.admit", "trace.self_ms.cache", "trace.self_ms.session",
	"trace.self_ms.core", "trace.self_ms.pq", "trace.self_ms.mpc",
}

// cost is the per-query cost block of /route and /knn responses.
type cost struct {
	FedSACs   int64 `json:"fed_sacs"`
	Rounds    int64 `json:"mpc_rounds"`
	Bytes     int64 `json:"mpc_bytes"`
	Settled   int64 `json:"settled_vertices"`
	HeurEvals int64 `json:"heuristic_evals"`
	LocalUs   int64 `json:"local_us"`
	QueueUs   int64 `json:"queue_us"`
	SACWaitUs int64 `json:"sac_wait_us"`
	RelaxUs   int64 `json:"relax_us"`
	NetUs     int64 `json:"simulated_network_us"`
}

// routeResp, neighbor and knnResp mirror fedserver's response bodies; the
// traced replay builds and encodes them the way fedserver does.
type routeResp struct {
	Found          bool           `json:"found"`
	Path           []graph.Vertex `json:"path,omitempty"`
	Segments       int            `json:"segments"`
	MeanTravelSec  float64        `json:"mean_travel_sec"`
	TrafficVersion uint64         `json:"traffic_version"`
	Cached         string         `json:"cached,omitempty"`
	cost
}

type neighbor struct {
	Found         bool           `json:"found"`
	Path          []graph.Vertex `json:"path,omitempty"`
	Segments      int            `json:"segments"`
	MeanTravelSec float64        `json:"mean_travel_sec"`
}

type knnResp struct {
	Results        []neighbor `json:"results"`
	Stats          cost       `json:"stats"`
	TrafficVersion uint64     `json:"traffic_version"`
	Cached         string     `json:"cached,omitempty"`
}

type trafficResp struct {
	Applied int `json:"applied"`
	Index   *struct {
		Reverified int   `json:"reverified_vertices"`
		FedSACs    int64 `json:"fed_sacs"`
		UpdateUs   int64 `json:"update_us"`
	} `json:"index_update"`
}

// analysis carries the counts the result line needs.
type analysis struct {
	attempted, failed int
}

// analyze decodes every response, checks it with the oracle and fills the
// report's timings, invariants and metrics. It runs after the server has
// stopped, so none of it is on the timed path.
func analyze(wl workload, o options, p *plan, hr *httpRun, g *graph.Graph, siloW []graph.Weights, rep *report) analysis {
	var a analysis
	window := time.Duration(o.seconds) * time.Second
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	fail := func(format string, args ...any) {
		if len(rep.Errors) < 20 {
			rep.Errors = append(rep.Errors, fmt.Sprintf(format, args...))
		}
	}
	check := func(name string, ok bool, note string) {
		rep.Invariants = append(rep.Invariants, invariant{Name: name, OK: ok, Note: note})
	}

	orc := newOracle(g, siloW, p.batches)

	var (
		statuses                            []int
		routeLat, knnLat, trafficLat        []float64
		outside, search, applyMs            []float64
		routeCached                         []string
		routeNet                            []int64
		routes, knns                        int
		routeCost, knnCost                  cost
		routeAt, knnAt                      []time.Duration // window start offsets
		routeDoneAt                         []time.Duration
		doneInPart                          = make([]float64, subWindows)
		batchSACs, batchReverified, batches float64
		minBatchSACs                        int64 = -1
	)
	for _, s := range hr.samples {
		statuses = append(statuses, s.status)
		inWindow := s.phase == phaseWindow
		lat := ms(s.end.Sub(s.start))
		if k := part(s.end.Sub(hr.windowStart), window, subWindows); inWindow && !failed(s.status) && k >= 0 {
			doneInPart[k]++
		}
		if failed(s.status) {
			fail("%s %s: status %d", s.kind, describe(s), s.status)
			continue
		}
		body := hr.bodies[s.body]
		switch s.kind {
		case kindRoute:
			var r routeResp
			if err := json.Unmarshal(body, &r); err != nil {
				fail("route %s: %v", describe(s), err)
				continue
			}
			if err := orc.checkRoute(s.req, &r); err != nil {
				fail("%v", err)
				continue
			}
			if inWindow {
				routeLat = append(routeLat, lat)
				routeAt = append(routeAt, s.start.Sub(hr.windowStart))
				if !s.end.After(hr.windowEnd) {
					routeDoneAt = append(routeDoneAt, s.end.Sub(hr.windowStart))
				}
			}
			routeCached = append(routeCached, r.Cached)
			routeNet = append(routeNet, r.NetUs)
			if computed(r.Cached) {
				routes++
				addCost(&routeCost, r.cost)
				search = append(search, float64(r.LocalUs)/1000)
				outside = append(outside, lat-float64(r.LocalUs)/1000)
			}
		case kindKNN:
			var r knnResp
			if err := json.Unmarshal(body, &r); err != nil {
				fail("knn %s: %v", describe(s), err)
				continue
			}
			if err := orc.checkKNN(s.req, &r); err != nil {
				fail("%v", err)
				continue
			}
			if inWindow {
				knnLat = append(knnLat, lat)
				knnAt = append(knnAt, s.start.Sub(hr.windowStart))
			}
			if computed(r.Cached) {
				knns++
				addCost(&knnCost, r.Stats)
			}
		case kindTraffic:
			var r trafficResp
			if err := json.Unmarshal(body, &r); err != nil || r.Index == nil {
				fail("traffic batch %d: bad response (%v)", s.batch, err)
				continue
			}
			trafficLat = append(trafficLat, lat)
			applyMs = append(applyMs, float64(r.Index.UpdateUs)/1000)
			batches++
			batchSACs += float64(r.Index.FedSACs)
			batchReverified += float64(r.Index.Reverified)
			if minBatchSACs < 0 || r.Index.FedSACs < minBatchSACs {
				minBatchSACs = r.Index.FedSACs
			}
		}
	}
	a.attempted = len(statuses)
	for _, st := range statuses {
		if failed(st) {
			a.failed++
		}
	}

	setups := make([]float64, len(hr.setups))
	for i, d := range hr.setups {
		setups[i] = d.Seconds()
	}
	rl, kl := summarize(routeLat), summarize(knnLat)
	rep.Timings["route"], rep.Timings["knn"], rep.Timings["traffic"] = rl, kl, summarize(trafficLat)
	rep.Timings["outside_search"] = summarize(outside)

	put("setup_s", summarize(setups).P50, "s")
	// Gated window metrics are medians over sub-windows; the whole-window
	// distributions are in rep.Timings.
	put("route_p50_ms", subPercentile(routeAt, routeLat, window, subWindows, 50), "ms")
	put("route_p90_ms", subPercentile(routeAt, routeLat, window, subWindows, 90), "ms")
	put("route_p99_ms", rl.P99, "ms")
	put("knn_p50_ms", subPercentile(knnAt, knnLat, window, subWindows, 50), "ms")
	put("knn_p90_ms", kl.P90, "ms")
	put("route_qps", medianRate(routeDoneAt, window, subWindows), "1/s")
	put("route_model_net_ms", modelNetMs(routeCached, routeNet), "ms")
	put("fail_ratio", failRatio(statuses), "ratio")
	cpuInPart := make([]float64, subWindows)
	for k := range cpuInPart {
		cpuInPart[k] = ms(hr.cpuMarks[k+1] - hr.cpuMarks[k])
	}
	put("server_cpu_ms_per_req", subRatio(cpuInPart, doneInPart), "ms")
	put("server_peak_rss_mb", hr.rssMB, "MB")

	// Per-layer counters from response fields and /metrics deltas. Response
	// counters cover every computed answer of the run (route-hot computes
	// only while warming); /metrics deltas cover the run after set-up.
	nr, nk := float64(routes), float64(knns)
	put("fedserver.outside_search_ms_p50", percentile(rep.Timings["outside_search"].sorted, 50), "ms")
	put("fedserver.outside_search_ms_p90", percentile(rep.Timings["outside_search"].sorted, 90), "ms")
	put("fedserver.traffic_apply_ms_p50", summarize(applyMs).P50, "ms")
	put("admit.shed", delta(hr.mBuild, hr.mEnd, "fedserver_shed_total"), "count")
	hits := delta(hr.mW0, hr.mW1, "fedroad_cache_hits_total")
	lookups := hits + delta(hr.mW0, hr.mW1, "fedroad_cache_misses_total") + delta(hr.mW0, hr.mW1, "fedroad_cache_coalesced_total")
	hitRatio := ratio(hits, lookups)
	put("cache.hit_ratio", hitRatio, "ratio")
	put("core.search_ms_p50", summarize(search).P50, "ms")
	put("core.queue_ms_mean", ratio(float64(routeCost.QueueUs), nr)/1000, "ms")
	put("core.relax_ms_mean", ratio(float64(routeCost.RelaxUs), nr)/1000, "ms")
	put("core.sac_wait_ms_mean", ratio(float64(routeCost.SACWaitUs), nr)/1000, "ms")
	put("core.settled_per_route", ratio(float64(routeCost.Settled), nr), "count")
	put("lb.heuristic_evals_per_route", ratio(float64(routeCost.HeurEvals), nr), "count")
	put("mpc.fed_sacs_per_route", ratio(float64(routeCost.FedSACs), nr), "count")
	put("mpc.rounds_per_route", ratio(float64(routeCost.Rounds), nr), "count")
	put("mpc.bytes_per_route", ratio(float64(routeCost.Bytes), nr), "B")
	put("mpc.fed_sacs_per_knn", ratio(float64(knnCost.FedSACs), nk), "count")
	put("mpc.compare_us_mean", ratio(float64(routeCost.SACWaitUs), float64(routeCost.FedSACs)), "us")
	// Reads only: from set-up to the end of the window, before any probe
	// batch. Every computed answer of that span counts in nr, nk.
	poolHits := delta(hr.mBuild, hr.mW1, "fedroad_prepool_hits_total")
	put("mpc.pool_hit_ratio", ratio(poolHits, poolHits+delta(hr.mBuild, hr.mW1, "fedroad_prepool_misses_total")), "ratio")
	put("transport.msgs_per_route", ratio(delta(hr.mBuild, hr.mW1, "fedroad_mesh_messages_sent_total"), nr), "count")
	put("transport.bytes_per_route", ratio(delta(hr.mBuild, hr.mW1, "fedroad_mesh_bytes_sent_total"), nr), "B")
	put("transport.reconnects", delta(hr.mBuild, hr.mEnd, "fedroad_mesh_reconnects_total"), "count")
	put("transport.heartbeat_misses", delta(hr.mBuild, hr.mEnd, "fedroad_mesh_heartbeat_misses_total"), "count")
	put("ch.build_fed_sacs", hr.mBuild["fedroad_mpc_compares_total"], "count")
	put("ch.build_mpc_rounds", hr.mBuild["fedroad_mpc_rounds_total"], "count")
	put("ch.shortcuts", hr.shortcuts, "count")
	put("ch.update_fed_sacs_per_batch", ratio(batchSACs, batches), "count")
	put("ch.reverified_per_batch", ratio(batchReverified, batches), "count")

	// Each workload's own invariants.
	if wl.hot {
		check("cache.hit_ratio≈1", hitRatio >= 0.99, fmt.Sprintf("hit ratio %.4f over %.0f window lookups", hitRatio, lookups))
	} else {
		check("cache.hit_ratio=0", hits == 0, fmt.Sprintf("%.0f hits over %.0f window lookups", hits, lookups))
	}
	if batches > 0 {
		check("every batch changed a weight", minBatchSACs > 0,
			fmt.Sprintf("%.0f batches, fewest Fed-SACs in one batch: %d (an unchanged weight costs none)", batches, minBatchSACs))
	}
	check("fail_ratio=0", a.failed == 0, fmt.Sprintf("%d of %d requests failed", a.failed, a.attempted))
	check("no mesh reconnects or heartbeat misses",
		rep.Metrics["transport.reconnects"].Value == 0 && rep.Metrics["transport.heartbeat_misses"].Value == 0, "")
	return a
}

func addCost(dst *cost, c cost) {
	dst.FedSACs += c.FedSACs
	dst.Rounds += c.Rounds
	dst.Bytes += c.Bytes
	dst.Settled += c.Settled
	dst.HeurEvals += c.HeurEvals
	dst.LocalUs += c.LocalUs
	dst.QueueUs += c.QueueUs
	dst.SACWaitUs += c.SACWaitUs
	dst.RelaxUs += c.RelaxUs
	dst.NetUs += c.NetUs
}

func describe(s sample) string {
	if s.kind == kindTraffic {
		return fmt.Sprintf("batch %d", s.batch)
	}
	return s.req.path()
}
