package mpc

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool is a bounded preprocessing pool of correlated randomness: background
// replenisher goroutines run dealers ahead of demand so the online phase of
// a comparison never has to deal its randomness on the critical path. It
// mirrors the paper's offline/online split (§II-B) at the systems level —
// the dealer's offline material is produced while queries are idle or other
// queries are blocked on network rounds, and consumed by the online phase.
//
// A Pool is safe for concurrent use by any number of engines. Each element
// of the channel is one slab set: every party's slab for SlabLanes
// comparisons, handed to exactly one taker. When the pool runs dry,
// TakeSlabs returns nil and the caller falls back to its own dealer (the
// online phase degrades gracefully instead of blocking). Capacity and every
// PoolStats field count comparisons, SlabLanes per slab set.
type Pool struct {
	parties int
	out     chan []Slab
	quit    chan struct{}
	stop    sync.Once
	wg      sync.WaitGroup

	produced atomic.Int64
	hits     atomic.Int64
	misses   atomic.Int64
}

// PoolStats reports preprocessing pool activity in comparisons.
type PoolStats struct {
	Produced int64 // comparisons' randomness dealt by the replenishers
	Hits     int64 // comparisons' randomness handed out by the pool
	Misses   int64 // comparisons' randomness takers had to deal themselves
	Buffered int   // comparisons' randomness currently ready
}

// NewPool starts a preprocessing pool for n-party comparisons holding
// randomness for up to capacity comparisons, rounded up to whole slab sets,
// replenished by the given number of background workers (minimum 1). Each
// worker owns an independent deterministic dealer stream derived from seed.
// Close releases the workers.
func NewPool(parties, capacity, workers int, seed uint64) *Pool {
	if parties < 2 {
		panic(fmt.Sprintf("mpc: pool needs at least 2 parties, got %d", parties))
	}
	sets := max(1, (capacity+SlabLanes-1)/SlabLanes)
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		parties: parties,
		out:     make(chan []Slab, sets),
		quit:    make(chan struct{}),
	}
	for w := 0; w < workers; w++ {
		d := NewDealer(parties, seed+uint64(w+1)*0x9e3779b97f4a7c15)
		p.wg.Add(1)
		go p.replenish(d)
	}
	return p
}

// Parties returns the party count the pool's slabs are dealt for.
func (p *Pool) Parties() int { return p.parties }

// replenish deals slab sets until the pool is closed. The bounded channel
// provides backpressure: a full pool parks the worker.
func (p *Pool) replenish(d *Dealer) {
	defer p.wg.Done()
	for {
		// Check quit before generating so Close isn't delayed by a fill.
		select {
		case <-p.quit:
			return
		default:
		}
		set := make([]Slab, p.parties)
		d.Fill(set)
		select {
		case p.out <- set:
			p.produced.Add(SlabLanes)
		case <-p.quit:
			return
		}
	}
}

// TakeSlabs returns one pre-dealt slab set, indexed by party, or nil when
// the pool is momentarily dry (the caller should fall back to its dealer).
// The set now belongs to the caller alone. Never blocks.
func (p *Pool) TakeSlabs() []Slab {
	select {
	case set := <-p.out:
		p.hits.Add(SlabLanes)
		return set
	default:
		p.misses.Add(SlabLanes)
		return nil
	}
}

// Stats returns a snapshot of pool activity.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Produced: p.produced.Load(),
		Hits:     p.hits.Load(),
		Misses:   p.misses.Load(),
		Buffered: len(p.out) * SlabLanes,
	}
}

// Close stops the replenishers and waits for them to exit. Idempotent.
// Buffered slab sets remain takeable after Close.
func (p *Pool) Close() {
	p.stop.Do(func() {
		close(p.quit)
		p.wg.Wait()
	})
}
