package fedroad

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/transport"
)

// chaosFederation builds a small protocol-mode federation whose sessions can
// be armed to route one party's transport through a FaultConn. Arming after
// New keeps calibration clean; every session forked while armed is faulty.
func chaosFederation(t *testing.T, plan transport.FaultPlan, party int, opts Config) (*Federation, *Graph, []Weights, *atomic.Bool) {
	t.Helper()
	g, w0 := GenerateGridNetwork(5, 5, 51)
	silos := SimulateCongestion(w0, 3, Moderate, 52)
	armed := new(atomic.Bool)
	cfg := opts
	cfg.Mode = ModeProtocol
	cfg.Seed = 53
	cfg.TransportWrap = func(p int, c transport.Conn) transport.Conn {
		if !armed.Load() || p != party {
			return c
		}
		return transport.NewFaultConn(c, plan)
	}
	f, err := New(g, w0, silos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, g, silos, armed
}

// jointDijkstra computes the plaintext joint-cost answer the secure query
// must reproduce.
func jointDijkstra(g *Graph, silos []Weights, src, dst Vertex) int64 {
	joint := make(Weights, g.NumArcs())
	for _, s := range silos {
		for a, w := range s {
			joint[a] += w
		}
	}
	cost, _ := graph.DijkstraTo(g, joint, src, dst)
	return cost
}

func TestChaosKilledPartyFailsQueryCleanly(t *testing.T) {
	// The acceptance scenario: one party's endpoint is killed mid-query. The
	// query must surface a wrapped transport error promptly — no hang, no
	// panic — the session must be poisoned, and a fresh session on the same
	// federation must answer correctly.
	const roundTimeout = 150 * time.Millisecond
	plan := transport.FaultPlan{After: 40, Script: []transport.FaultKind{transport.FaultClose}}
	f, g, silos, armed := chaosFederation(t, plan, 1, Config{RoundTimeout: roundTimeout})

	armed.Store(true)
	sess := f.Session()
	start := time.Now()
	_, _, err := sess.ShortestPath(0, 24)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query against a killed party succeeded")
	}
	if !errors.Is(err, ErrSessionPoisoned) {
		t.Fatalf("error does not wrap ErrSessionPoisoned: %v", err)
	}
	if elapsed > 10*roundTimeout+2*time.Second {
		t.Fatalf("killed-party query took %v, round timeout is %v", elapsed, roundTimeout)
	}
	if !sess.Poisoned() {
		t.Fatal("session not marked poisoned after transport failure")
	}
	// Reusing the poisoned session fails fast instead of touching the
	// desynchronized transport again.
	start = time.Now()
	if _, _, err := sess.ShortestPath(0, 24); !errors.Is(err, ErrSessionPoisoned) {
		t.Fatalf("reused poisoned session: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("poisoned session did not fail fast")
	}
	sess.Close()

	// The federation itself stays healthy: a fresh session answers, and
	// answers correctly.
	armed.Store(false)
	fresh := f.Session()
	defer fresh.Close()
	route, _, err := fresh.ShortestPath(0, 24)
	if err != nil {
		t.Fatalf("fresh session after poisoning: %v", err)
	}
	if want := jointDijkstra(g, silos, 0, 24); JointCost(route) != want {
		t.Fatalf("fresh session cost %d, want %d", JointCost(route), want)
	}
}

func TestChaosSilentPartyTimesOut(t *testing.T) {
	// A party that stops sending (frames silently dropped) must not hang the
	// query: its peers' round timeouts fire and the error classifies as a
	// timeout, which the server layer maps to 504.
	const roundTimeout = 150 * time.Millisecond
	script := make([]transport.FaultKind, 4096)
	for i := range script {
		script[i] = transport.FaultDrop
	}
	plan := transport.FaultPlan{After: 30, Script: script}
	f, _, _, armed := chaosFederation(t, plan, 2, Config{RoundTimeout: roundTimeout})

	armed.Store(true)
	sess := f.Session()
	defer sess.Close()
	start := time.Now()
	_, _, err := sess.ShortestPath(0, 24)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query against a silent party succeeded")
	}
	if !errors.Is(err, ErrSessionPoisoned) || !IsTimeout(err) {
		t.Fatalf("silent-party error classification: %v", err)
	}
	if elapsed > 10*roundTimeout+2*time.Second {
		t.Fatalf("silent-party query took %v, round timeout is %v", elapsed, roundTimeout)
	}
}

func TestChaosRetryAbsorbsTransientFault(t *testing.T) {
	// A single transient transport fault inside a query is absorbed by the
	// configured Fed-SAC retry budget: the query succeeds with the correct
	// joint cost and the session stays healthy.
	plan := transport.FaultPlan{After: 30, Script: []transport.FaultKind{transport.FaultError}}
	f, g, silos, armed := chaosFederation(t, plan, 0, Config{
		RoundTimeout:    150 * time.Millisecond,
		SACRetries:      2,
		SACRetryBackoff: time.Millisecond,
	})

	armed.Store(true)
	sess := f.Session()
	defer sess.Close()
	route, _, err := sess.ShortestPath(0, 24)
	if err != nil {
		t.Fatalf("retry did not absorb the transient fault: %v", err)
	}
	if want := jointDijkstra(g, silos, 0, 24); JointCost(route) != want {
		t.Fatalf("faulty-but-retried query cost %d, want %d", JointCost(route), want)
	}
	if sess.Poisoned() {
		t.Fatal("session poisoned by a recovered fault")
	}
}

// breakOnSend counts party 0's sends across every engine of a federation
// and, once armed, breaks the 0–1 mesh link just before the send that
// reaches the trigger count.
type breakOnSend struct {
	transport.Conn
	armed   *atomic.Bool
	sends   *atomic.Int64
	trigger int64
	brk     func()
}

func (c breakOnSend) Send(to int, data []byte) error {
	if c.armed.Load() && c.sends.Add(1) == c.trigger {
		c.brk()
	}
	return c.Conn.Send(to, data)
}

func TestChaosBuildLinkBreakMidStep(t *testing.T) {
	// A witness build keeps 8 contractions in flight, their Fed-SACs
	// coalesced into one CompareBatch per step over the mux mesh. Breaking a
	// mesh link in the middle of a step must wake every parked proposal: the
	// build returns the poisoned error promptly, leaks no goroutine, and the
	// previous index keeps serving once the mesh has redialed.
	g, w0 := GenerateGridNetwork(8, 8, 91)
	silos := SimulateCongestion(w0, 3, Moderate, 92)
	armed := new(atomic.Bool)
	sends := new(atomic.Int64)
	var f *Federation
	cfg := Config{Mode: ModeProtocol, Seed: 93, MeshTCP: true, RoundTimeout: 500 * time.Millisecond}
	cfg.TransportWrap = func(p int, c transport.Conn) transport.Conn {
		if p != 0 {
			return c
		}
		// Early in the first contraction round, which holds far more than 8
		// mutually non-adjacent vertices, so every step carries 8 proposals.
		return breakOnSend{Conn: c, armed: armed, sends: sends, trigger: 150, brk: func() { f.BreakMeshLink(0, 1) }}
	}
	f, err := New(g, w0, silos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if err := f.BuildIndexWith(IndexParams{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	before := f.IndexStats()
	src, dst := Vertex(0), Vertex(g.NumVertices()-1)
	want := jointDijkstra(g, silos, src, dst)
	if route, _, err := f.ShortestPath(src, dst); err != nil || JointCost(route) != want {
		t.Fatalf("query before chaos: cost %d, err %v; want cost %d", JointCost(route), err, want)
	}
	baseline := runtime.NumGoroutine()

	armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- f.BuildIndexWith(IndexParams{Workers: 8}) }()
	select {
	case err = <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("build across a broken link still running after 15s — a proposal in flight never woke")
	}
	armed.Store(false)
	if sends.Load() < 150 {
		t.Fatalf("the build made only %d sends; the link break never fired", sends.Load())
	}
	if !errors.Is(err, ErrSessionPoisoned) {
		t.Fatalf("build across a broken link returned %v, want the poisoned error", err)
	}

	// The previous index is still installed and answers correctly once the
	// mesh has redialed the broken link.
	if got := f.IndexStats(); got.Shortcuts != before.Shortcuts || got.SAC != before.SAC {
		t.Fatalf("failed build disturbed the serving index: %+v, was %+v", got, before)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		route, _, err := f.ShortestPath(src, dst)
		if err == nil {
			if JointCost(route) != want {
				t.Fatalf("query after failed build: cost %d, want %d", JointCost(route), want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no query succeeded after the failed build: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// No proposal goroutine of the failed build is left behind.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed build, %d before it", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
