package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	fedroad "repro"
	"repro/internal/admit"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/transport"
)

// span is one timed interval of one request. Spans the benchmark times
// around calls into a layer have measured bounds; spans inside the search
// are derived from the durations the library itself reports (Stats.WallTime,
// Phases, and the party-0 Recv wait), laid end to end inside their parent.
type span struct {
	Name    string `json:"name"`
	Req     int64  `json:"req"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for the request's root
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	nextID atomic.Int64
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// reqSpans builds the spans of one request.
type reqSpans struct {
	t     *tracer
	req   int64
	spans []span
}

func (t *tracer) request() *reqSpans {
	// A computed read records 10 spans.
	return &reqSpans{t: t, req: t.nextID.Add(1), spans: make([]span, 0, 10)}
}

func (r *reqSpans) add(name string, parent int, start, end time.Time, derived bool) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Req: r.req, ID: id, Parent: parent,
		Start: r.t.ns(start), End: r.t.ns(end), Derived: derived})
	return id
}

func (r *reqSpans) commit() {
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, r.spans...)
	r.t.mu.Unlock()
}

// recvTimer wraps party 0's transport endpoint of one session and adds the
// time it spends blocked in Recv to wait.
type recvTimer struct {
	transport.Conn
	wait *atomic.Int64
}

func (c recvTimer) Recv(from int) ([]byte, error) {
	start := time.Now()
	b, err := c.Conn.Recv(from)
	c.wait.Add(int64(time.Since(start)))
	return b, err
}

// tracedRun is the in-process replay's observations.
type tracedRun struct {
	tr         *tracer
	graphSetup time.Duration
	build      time.Duration
	dealerUs   float64
	overheadUs float64
	window     time.Duration
	routeReqs  []reqOutcome
	applyMs    []float64
	errs       []string
}

// reqOutcome is what one traced read needs for the per-layer numbers.
type reqOutcome struct {
	kind     reqKind
	window   bool
	outcome  string // cache outcome: miss, hit or coalesced
	spans    []span
	queueCmp int64
	recv     time.Duration // party 0's time blocked in Recv
}

// worker is one replay connection: its own session, as fedserver's session
// pool gives each in-flight request one, and its session's Recv wait.
type worker struct {
	sess *fedroad.Session
	wait *atomic.Int64
}

// runTraced replays the plan in-process through the composition fedserver
// uses per request: parameter parsing, QueryCache, on a miss admit.Gate →
// Session → ShortestPathAt / NearestNeighborsAt, then response assembly and
// JSON encoding; probe writes go through Federation.ApplyTraffic.
func runTraced(ctx context.Context, o options, wl workload, p *plan, deadline time.Time) (*tracedRun, error) {
	tr := &tracedRun{tr: &tracer{origin: time.Now()}}
	var (
		wrapMu  sync.Mutex
		collect *atomic.Int64
	)
	cfg := fedroad.Config{
		Seed:              serverSeed,
		Mode:              fedroad.ModeProtocol,
		MeshTCP:           true,
		PreprocessPool:    4096,
		PreprocessWorkers: 1,
		TransportWrap: func(party int, c transport.Conn) transport.Conn {
			wrapMu.Lock()
			defer wrapMu.Unlock()
			if party != 0 || collect == nil {
				return c
			}
			return recvTimer{Conn: c, wait: collect}
		},
	}

	start := time.Now()
	g, w0, _ := graph.GenerateDataset(datasetName)
	siloW := fedroad.SimulateCongestion(w0, silos, fedroad.Moderate, serverSeed+1)
	// The federation keeps the weight slices it is given and ApplyTraffic
	// writes into them; the oracle needs version 0 intact.
	initial := make([]graph.Weights, len(siloW))
	for i, w := range siloW {
		initial[i] = slices.Clone(w)
	}
	fed, err := fedroad.New(g, w0, siloW, cfg)
	if err != nil {
		return nil, err
	}
	defer fed.Close()
	tr.graphSetup = time.Since(start)

	start = time.Now()
	if slices.Contains(wl.flags, "-customize") {
		if err := fed.BuildSkeleton(fedroad.IndexParams{}); err != nil {
			return nil, err
		}
		err = fed.BuildIndexWith(fedroad.IndexParams{CustomizeOnly: true})
	} else {
		err = fed.BuildIndexWith(fedroad.IndexParams{})
	}
	if err != nil {
		return nil, err
	}
	tr.build = time.Since(start)

	gate := admit.New(0, func() int { return int(fed.PoolStats().Buffered) })
	qc := fed.NewQueryCache(4096)
	workers := make([]*worker, readers)
	for i := range workers {
		w := &worker{wait: new(atomic.Int64)}
		wrapMu.Lock()
		collect = w.wait
		wrapMu.Unlock()
		w.sess = fed.Session()
		wrapMu.Lock()
		collect = nil
		wrapMu.Unlock()
		defer w.sess.Close()
		workers[i] = w
	}

	var mu sync.Mutex
	var applied [][]update
	orcAnswers := make([]func(*oracle) error, 0, 1024)
	record := func(oc reqOutcome, check func(*oracle) error) {
		mu.Lock()
		tr.routeReqs = append(tr.routeReqs, oc)
		if check != nil {
			orcAnswers = append(orcAnswers, check)
		}
		mu.Unlock()
	}

	read := func(w *worker, r request, window bool) {
		rs := tr.tr.request()
		var (
			admitSpans               [][2]time.Time // acquire, release
			computeStart, computeEnd time.Time
			sessStart, sessEnd       time.Time
			stats                    fedroad.Stats
			recv                     time.Duration
			out                      fedroad.CacheOutcome
			resp                     any
			check                    func(*oracle) error
		)
		reqStart := time.Now()
		src, dst, err := parseRead(r.path(), g.NumVertices())
		// compute is the miss path fedserver's handler hands the cache:
		// admission around one session query.
		compute := func(query func()) error {
			computeStart = time.Now()
			defer func() { computeEnd = time.Now() }()
			t0 := time.Now()
			err := gate.Acquire()
			admitSpans = append(admitSpans, [2]time.Time{t0, time.Now()})
			if err != nil {
				return err
			}
			before := w.wait.Load()
			sessStart = time.Now()
			query()
			sessEnd = time.Now()
			recv = time.Duration(w.wait.Load() - before)
			t0 = time.Now()
			gate.Release()
			admitSpans = append(admitSpans, [2]time.Time{t0, time.Now()})
			return nil
		}
		var cacheStart, cacheEnd time.Time
		if err == nil && r.kind == kindRoute {
			var route fedroad.Route
			var ver uint64
			cacheStart = time.Now()
			route, stats, ver, out, err = qc.ShortestPath(src, dst, fedroad.QueryOptions{}, func() (rt fedroad.Route, st fedroad.Stats, v uint64, qerr error) {
				if aerr := compute(func() { rt, st, v, qerr = w.sess.ShortestPathAt(src, dst) }); aerr != nil {
					return rt, st, v, aerr
				}
				return rt, st, v, qerr
			})
			cacheEnd = time.Now()
			if err == nil {
				rr := routeResp{Found: route.Found, TrafficVersion: ver, Cached: out.String(), cost: costOf(stats)}
				if route.Found {
					rr.Path = route.Path
					rr.Segments = len(route.Path) - 1
					rr.MeanTravelSec = float64(fedroad.JointCost(route)) / silos / 1000
				}
				resp = &rr
				check = func(o *oracle) error { return o.checkRoute(r, &rr) }
			}
		} else if err == nil {
			var routes []fedroad.Route
			var ver uint64
			cacheStart = time.Now()
			routes, stats, ver, out, err = qc.NearestNeighbors(src, knnK, fedroad.QueryOptions{}, func() (rts []fedroad.Route, st fedroad.Stats, v uint64, qerr error) {
				if aerr := compute(func() { rts, st, v, qerr = w.sess.NearestNeighborsAt(src, knnK) }); aerr != nil {
					return rts, st, v, aerr
				}
				return rts, st, v, qerr
			})
			cacheEnd = time.Now()
			if err == nil {
				kr := knnResp{Stats: costOf(stats), TrafficVersion: ver, Cached: out.String()}
				for _, rt := range routes {
					nb := neighbor{Found: rt.Found}
					if rt.Found {
						nb.Path = rt.Path
						nb.Segments = len(rt.Path) - 1
						nb.MeanTravelSec = float64(fedroad.JointCost(rt)) / silos / 1000
					}
					kr.Results = append(kr.Results, nb)
				}
				resp = &kr
				check = func(o *oracle) error { return o.checkKNN(r, &kr) }
			}
		}
		if err == nil {
			// fedserver's writeJSON: one encoder straight onto the response.
			err = json.NewEncoder(io.Discard).Encode(resp)
		}
		reqEnd := time.Now()
		if err != nil {
			mu.Lock()
			tr.errs = append(tr.errs, fmt.Sprintf("%s: %v", r.path(), err))
			mu.Unlock()
			return
		}
		root := rs.add("request", -1, reqStart, reqEnd, false)
		cache := rs.add("cache", root, cacheStart, cacheEnd, false)
		if out.String() == "miss" {
			cmp := rs.add("compute", cache, computeStart, computeEnd, false)
			for _, as := range admitSpans {
				rs.add("admit", cmp, as[0], as[1], false)
			}
			sess := rs.add("session", cmp, sessStart, sessEnd, false)
			coreStart := sessEnd.Add(-stats.WallTime)
			core := rs.add("core", sess, coreStart, sessEnd, true)
			pqDur := max(0, stats.Phases.Queue-stats.Phases.SACWait)
			rs.add("pq", core, coreStart, coreStart.Add(pqDur), true)
			mpcStart := coreStart.Add(pqDur)
			mpcSpan := rs.add("mpc", core, mpcStart, mpcStart.Add(stats.Phases.SACWait), true)
			rs.add("transport", mpcSpan, mpcStart, mpcStart.Add(min(recv, stats.Phases.SACWait)), true)
		} else {
			check = nil // a hit or coalesced answer is the checked computed one
		}
		rs.commit()
		record(reqOutcome{kind: r.kind, window: window, outcome: out.String(), spans: rs.spans,
			queueCmp: stats.Queue.Total(), recv: recv}, check)
	}

	write := func(j int) {
		rs := tr.tr.request()
		b := p.batches[j]
		ups := make([]fedroad.TrafficUpdate, len(b))
		for i, u := range b {
			ups[i] = fedroad.TrafficUpdate{Silo: u.Silo, Arc: u.Arc, TravelMs: u.TravelMs}
		}
		start := time.Now()
		_, err := fed.ApplyTraffic(ups)
		end := time.Now()
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			tr.errs = append(tr.errs, fmt.Sprintf("batch %d: %v", j, err))
			return
		}
		applied = append(applied, b)
		tr.applyMs = append(tr.applyMs, ms(end.Sub(start)))
		rs.add("ch.apply_traffic", -1, start, end, false)
		rs.commit()
	}

	// The same phases as the HTTP run, over the same plan.
	src := p.source()
	readOn := func(window bool) func(int, request) {
		return func(w int, r request) { read(workers[w], r, window) }
	}
	if wl.hot {
		touchAll(len(workers), p.hotSet, readOn(false))
	}
	if err := closedLoop(ctx, len(workers), time.Now().Add(wl.warm), src, readOn(false)); err != nil {
		return nil, err
	}
	tr.window = tracedWindow(time.Duration(o.seconds)*time.Second, time.Until(deadline))
	if err := closedLoop(ctx, len(workers), time.Now().Add(tr.window), src, readOn(true)); err != nil {
		return nil, err
	}
	for j := range p.batches {
		write(j)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	orc := newOracle(g, initial, applied)
	for _, c := range orcAnswers {
		if err := c(orc); err != nil && len(tr.errs) < 20 {
			tr.errs = append(tr.errs, err.Error())
		}
	}
	tr.dealerUs = dealerMicros()
	tr.overheadUs = spanOverheadMicros()

	if err := os.MkdirAll(filepath.Join(o.out, "traces"), 0o755); err != nil {
		return nil, err
	}
	b, err := json.Marshal(tr.tr.spans)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s-seed%d.json", wl.name, o.seed)
	if err := os.WriteFile(filepath.Join(o.out, "traces", name), b, 0o644); err != nil {
		return nil, err
	}
	return tr, nil
}

// parseRead reads a request's parameters back out of its path, as fedserver's
// handlers do: s, then t for /route or k for /knn, each range-checked.
func parseRead(path string, n int) (src, dst graph.Vertex, err error) {
	u, err := url.Parse(path)
	if err != nil {
		return 0, 0, err
	}
	q := u.Query()
	param := func(name string, limit int) (int, error) {
		v, err := strconv.Atoi(q.Get(name))
		if err != nil || v < 0 || v >= limit {
			return 0, fmt.Errorf("parameter %q out of range [0,%d)", name, limit)
		}
		return v, nil
	}
	s, err := param("s", n)
	if err != nil {
		return 0, 0, err
	}
	if u.Path == "/knn" {
		if _, err := param("k", n+1); err != nil {
			return 0, 0, err
		}
		return graph.Vertex(s), 0, nil
	}
	t, err := param("t", n)
	return graph.Vertex(s), graph.Vertex(t), err
}

// costOf is fedserver's per-query cost block.
func costOf(st fedroad.Stats) cost {
	return cost{
		FedSACs: st.SAC.Compares, Rounds: st.SAC.Rounds, Bytes: st.SAC.Bytes,
		Settled: int64(st.SettledVertices), HeurEvals: int64(st.HeuristicEvals),
		LocalUs: st.WallTime.Microseconds(), QueueUs: st.Phases.Queue.Microseconds(),
		SACWaitUs: st.Phases.SACWait.Microseconds(), RelaxUs: st.Phases.Relax.Microseconds(),
		NetUs: st.SAC.SimNet.Microseconds(),
	}
}

// tracedWindow shortens the replay's timed window when the run would
// otherwise overrun its time limit: route-read builds its witness index
// twice with tracing on, once in fedserver and once in-process.
func tracedWindow(want, left time.Duration) time.Duration {
	const probeAllowance, floor = 10 * time.Second, 2 * time.Second
	return max(floor, min(want, left-probeAllowance))
}

// dealerMicros times mpc.Dealer.CmpTuples at 3 parties: the median over
// blocks of the per-comparison time of generating one comparison's
// correlated randomness.
func dealerMicros() float64 {
	const blocks, per = 7, 2000
	d := mpc.NewDealer(silos, 1)
	var each []float64
	for b := 0; b < blocks; b++ {
		start := time.Now()
		for i := 0; i < per; i++ {
			_ = d.CmpTuples()
		}
		each = append(each, float64(time.Since(start).Microseconds())/per)
	}
	return summarize(each).P50
}

// spanOverheadMicros estimates what tracing adds to one computed read: the
// clock reads and span appends the replay makes per request, run with no
// work between them.
func spanOverheadMicros() float64 {
	t := &tracer{origin: time.Now()}
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		rs := t.request()
		var ts [12]time.Time
		for k := range ts {
			ts[k] = time.Now()
		}
		root := rs.add("request", -1, ts[0], ts[11], false)
		c := rs.add("cache", root, ts[1], ts[10], false)
		cmp := rs.add("compute", c, ts[2], ts[9], false)
		rs.add("admit", cmp, ts[3], ts[4], false)
		rs.add("admit", cmp, ts[7], ts[8], false)
		s := rs.add("session", cmp, ts[5], ts[6], false)
		k := rs.add("core", s, ts[5], ts[6], true)
		rs.add("pq", k, ts[5], ts[6], true)
		m := rs.add("mpc", k, ts[5], ts[6], true)
		rs.add("transport", m, ts[5], ts[6], true)
		rs.commit()
	}
	return float64(time.Since(start).Nanoseconds()) / n / 1000
}

// selfTimes returns each span's duration minus its children's.
func selfTimes(spans []span) map[string]time.Duration {
	self := make(map[string]time.Duration, len(spans))
	for _, s := range spans {
		self[s.Name] += s.dur()
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= s.dur()
		}
	}
	return self
}

// unattributed is the time of a request that no layer span accounts for: the
// self time of the request root (parameter parsing, response assembly, JSON
// encoding) and of the miss closure (fedserver's glue around admission and
// the session query).
func unattributed(self map[string]time.Duration) time.Duration {
	return self["request"] + self["compute"]
}

// layers are the spans whose mean self time per computed route is reported.
var layers = []string{"admit", "cache", "session", "core", "pq", "mpc"}

// report adds the traced per-layer metrics.
func (tr *tracedRun) report(rep *report) {
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	for _, e := range tr.errs {
		if len(rep.Errors) < 20 {
			rep.Errors = append(rep.Errors, "traced: "+e)
		}
	}
	var (
		hitUs, reqMs, unattr []float64
		selfSum              = map[string]float64{}
		computedRoutes       float64
		queueCmp             float64
		recvMs               float64
	)
	for _, oc := range tr.routeReqs {
		if oc.kind != kindRoute {
			continue
		}
		self := selfTimes(oc.spans)
		root := oc.spans[0].dur()
		if oc.window {
			reqMs = append(reqMs, ms(root))
			unattr = append(unattr, ratio(float64(unattributed(self)), float64(root)))
		}
		if oc.outcome == "hit" {
			hitUs = append(hitUs, float64(oc.spans[1].dur().Nanoseconds())/1000)
		}
		if oc.outcome != "miss" {
			continue
		}
		computedRoutes++
		queueCmp += float64(oc.queueCmp)
		recvMs += ms(oc.recv)
		for _, n := range layers {
			selfSum[n] += ms(self[n])
		}
	}
	put("graph.setup_s", tr.graphSetup.Seconds(), "s")
	put("ch.build_s", tr.build.Seconds(), "s")
	put("ch.update_ms_p50", summarize(tr.applyMs).P50, "ms")
	put("cache.hit_us_p50", summarize(hitUs).P50, "us")
	put("pq.secure_compares_per_route", ratio(queueCmp, computedRoutes), "count")
	put("mpc.dealer_us_per_compare", tr.dealerUs, "us")
	put("transport.recv_wait_ms_per_route", ratio(recvMs, computedRoutes), "ms")
	put("trace.route_p50_ms", summarize(reqMs).P50, "ms")
	rep.TracedWindowS = tr.window.Seconds()
	put("trace.overhead_us_per_req", tr.overheadUs, "us")
	put("trace.unattributed_share_p50", summarize(unattr).P50, "ratio")
	for _, n := range layers {
		put("trace.self_ms."+n, ratio(selfSum[n], computedRoutes), "ms")
	}
}
