package mpc

import (
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// waitForBuffer polls until the pool has buffered randomness for at least
// want comparisons.
func waitForBuffer(t *testing.T, p *Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Buffered < want {
		if time.Now().After(deadline) {
			t.Fatalf("pool never buffered %d comparisons (stats %+v)", want, p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolReplenishes(t *testing.T) {
	// Capacity counts comparisons and rounds up to whole slab sets: 65
	// comparisons need two sets.
	const want = 2 * SlabLanes
	p := NewPool(3, SlabLanes+1, 2, 11)
	defer p.Close()
	waitForBuffer(t, p, want)
	st := p.Stats()
	if st.Produced < want {
		t.Fatalf("produced %d, want >= %d", st.Produced, want)
	}
	if st.Buffered != want {
		t.Fatalf("buffered %d, want %d (channel full)", st.Buffered, want)
	}
}

func TestPoolTupleConsistency(t *testing.T) {
	// Pool-dealt slabs must satisfy the same dealer invariants as on-demand
	// ones in every lane: R reconstructs from the bit shares, and the Beaver
	// triples hold.
	p := NewPool(3, 4, 1, 12)
	defer p.Close()
	waitForBuffer(t, p, 1)
	set := p.TakeSlabs()
	if set == nil {
		t.Fatal("TakeSlabs returned nil on a non-empty pool")
	}
	if len(set) != 3 {
		t.Fatalf("slab set for %d parties, want 3", len(set))
	}
	checkSlabSet(t, set)
}

func TestPoolHitsAndMisses(t *testing.T) {
	p := NewPool(2, 2, 1, 13)
	defer p.Close()
	waitForBuffer(t, p, 2)

	if set := p.TakeSlabs(); set == nil {
		t.Fatal("expected a pool hit")
	}
	if st := p.Stats(); st.Hits != SlabLanes {
		t.Fatalf("hits %d, want %d (one slab set)", st.Hits, SlabLanes)
	}

	// Drain faster than one worker can refill: eventually a miss.
	sawMiss := false
	for i := 0; i < 10000 && !sawMiss; i++ {
		sawMiss = p.TakeSlabs() == nil
	}
	if !sawMiss {
		t.Fatal("pool never reported a miss under a hard drain")
	}
	if st := p.Stats(); st.Misses < 1 {
		t.Fatalf("misses %d, want >= 1", st.Misses)
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(3, 4, 2, 14)
	p.Close()
	p.Close() // must not panic or deadlock
	// Buffered slab sets stay takeable after Close.
	if p.Stats().Buffered > 0 && p.TakeSlabs() == nil {
		t.Fatal("buffered slab sets lost on Close")
	}
}

func TestPoolConcurrentTake(t *testing.T) {
	p := NewPool(3, 64, 2, 15)
	defer p.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if set := p.TakeSlabs(); set != nil && len(set) != 3 {
					t.Errorf("slab set of size %d", len(set))
					return
				}
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Hits+st.Misses != 8*200*SlabLanes {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*200*SlabLanes)
	}
}

func TestEngineWithPoolCorrect(t *testing.T) {
	// Protocol-mode comparisons must stay correct when their correlated
	// randomness comes from the pool instead of the engine's own dealer.
	p := NewPool(3, 32, 1, 16)
	defer p.Close()
	e, err := NewEngine(Params{Parties: 3, Mode: ModeProtocol, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AttachPool(p); err != nil {
		t.Fatal(err)
	}
	waitForBuffer(t, p, 8)
	cases := []struct {
		diffs []int64
		want  bool
	}{
		{[]int64{-5, 2, 2}, true},
		{[]int64{5, -2, -2}, false},
		{[]int64{0, 0, 0}, false},
		{[]int64{1 << 30, -(1 << 30), -1}, true},
	}
	for _, c := range cases {
		got, err := e.Compare(c.diffs)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("Compare(%v) = %v, want %v", c.diffs, got, c.want)
		}
	}
	if p.Stats().Hits == 0 {
		t.Fatal("engine never drew from the attached pool")
	}
}

func TestAttachPoolPartyMismatch(t *testing.T) {
	p := NewPool(4, 4, 1, 18)
	defer p.Close()
	e, err := NewEngine(Params{Parties: 3, Mode: ModeProtocol, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AttachPool(p); err == nil {
		t.Fatal("attached a 4-party pool to a 3-party engine")
	}
}

func TestEngineForkIndependence(t *testing.T) {
	root, err := NewEngine(Params{Parties: 3, Mode: ModeProtocol, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := root.Fork(), root.Fork()
	defer f1.Close()
	defer f2.Close()

	// Forks share the root's calibration without re-running it.
	rb, _, _ := root.PerCompareCost()
	fb, _, _ := f1.PerCompareCost()
	if rb == 0 || rb != fb {
		t.Fatalf("fork calibration %d, root %d", fb, rb)
	}

	// Stats are per-engine.
	if _, err := f1.Compare([]int64{-1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if f1.Stats().Compares != 1 || f2.Stats().Compares != 0 || root.Stats().Compares != 0 {
		t.Fatalf("stats leaked across forks: root=%d f1=%d f2=%d",
			root.Stats().Compares, f1.Stats().Compares, f2.Stats().Compares)
	}
}

func TestEngineForksConcurrent(t *testing.T) {
	// Many forks run full protocol comparisons in parallel; all must agree
	// with the plaintext sign. This is the core guarantee behind concurrent
	// query sessions.
	root, err := NewEngine(Params{Parties: 3, Mode: ModeProtocol, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := root.Fork()
			defer e.Close()
			for i := 0; i < 25; i++ {
				d := int64((w*25+i)%7) - 3
				got, err := e.Compare([]int64{d, int64(w), -int64(w)})
				if err != nil {
					t.Error(err)
					return
				}
				if got != (d < 0) {
					t.Errorf("fork %d: Compare sign wrong for d=%d", w, d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestRealDelaySlowsProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	fast, err := NewEngine(Params{Parties: 2, Mode: ModeProtocol, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	slow := fast.Fork()
	defer slow.Close()
	slow.netm = NetworkModel{Latency: 3 * time.Millisecond, Bandwidth: 1e9}
	slow.SetRealDelay(true)

	start := time.Now()
	if _, err := slow.Compare([]int64{-1, 0}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// The protocol needs multiple sequential rounds; with 3ms one-way latency
	// a comparison cannot complete in under one round trip.
	if elapsed < 3*time.Millisecond {
		t.Fatalf("real-delay comparison took %v, want >= 3ms", elapsed)
	}

	start = time.Now()
	if _, err := fast.Compare([]int64{-1, 0}); err != nil {
		t.Fatal(err)
	}
	if fastElapsed := time.Since(start); fastElapsed > elapsed {
		t.Fatalf("delay-free comparison (%v) slower than delayed one (%v)", fastElapsed, elapsed)
	}
}

func TestPoolCloseSemantics(t *testing.T) {
	// A capacity of 8 comparisons rounds up to one whole slab set.
	p := NewPool(3, 8, 2, 16)
	waitForBuffer(t, p, SlabLanes)
	p.Close()
	p.Close() // double close must not panic or deadlock

	// Every slab set buffered before Close stays takeable after it.
	buffered := p.Stats().Buffered
	if buffered != SlabLanes {
		t.Fatalf("buffered after close = %d, want %d", buffered, SlabLanes)
	}
	for i := 0; i < buffered/SlabLanes; i++ {
		if set := p.TakeSlabs(); len(set) != 3 {
			t.Fatalf("take %d after close: slab set of size %d", i, len(set))
		}
	}

	// Once dry, TakeSlabs reports a miss immediately — it must never block,
	// even with the replenishers gone.
	done := make(chan []Slab, 1)
	go func() { done <- p.TakeSlabs() }()
	select {
	case set := <-done:
		if set != nil {
			t.Fatalf("dry closed pool returned a slab set of size %d", len(set))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("TakeSlabs blocked on a dry closed pool")
	}
	st := p.Stats()
	if st.Hits != int64(buffered) || st.Misses != SlabLanes {
		t.Fatalf("stats after drain = %+v, want %d hits / %d misses", st, buffered, SlabLanes)
	}
	p.Close() // close after drain is still safe
}

// TestPoolEnginesNeverShareSlabs: two engines drawing from one pool at the
// same time never spend the same lane. Party 1 inputs 0 everywhere, so each
// round-1 opening is its bare mask share: a repeated word would mean a slab
// reached both engines (or one engine twice).
func TestPoolEnginesNeverShareSlabs(t *testing.T) {
	pool := NewPool(3, 4*SlabLanes, 1, 71)
	defer pool.Close()
	waitForBuffer(t, pool, 4*SlabLanes)
	var mu sync.Mutex
	var recs []*recordingConn
	wrap := func(p int, c transport.Conn) transport.Conn {
		if p != 1 {
			return c
		}
		r := &recordingConn{Conn: c}
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
		return r
	}
	root, err := NewEngine(Params{Parties: 3, Mode: ModeProtocol, Seed: 72, Wrap: wrap})
	if err != nil {
		t.Fatal(err)
	}
	if err := root.AttachPool(pool); err != nil {
		t.Fatal(err)
	}
	batch := make([][]int64, SlabLanes)
	for i := range batch {
		batch[i] = []int64{int64(i) - 32, 0, 0}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		e := root.Fork()
		defer e.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				if _, err := e.CompareBatch(batch); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 40; i++ {
					if _, err := e.Compare([]int64{int64(i) - 20, 0, 0}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if pool.Stats().Hits == 0 {
		t.Fatal("engines never drew from the shared pool")
	}
	seen := make(map[uint64]bool)
	for _, r := range recs {
		// Every run sends n−1 = 2 frames per round; the first of each run's
		// pair of round-1 frames carries its masked openings.
		for f := 0; f < len(r.sent); f += 2 * RoundsPerCompare {
			open := r.sent[f]
			for i := 0; i+8 <= len(open); i += 8 {
				m := getU64(open[i:])
				if seen[m] {
					t.Fatal("a mask share was spent twice across engines sharing one pool")
				}
				seen[m] = true
			}
		}
	}
	if want := 2 * 3 * (SlabLanes + 40); len(seen) != want {
		t.Fatalf("checked %d openings, want %d", len(seen), want)
	}
}
