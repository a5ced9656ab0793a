package mpc

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// ErrPoisoned is returned (wrapped) by every comparison after the engine has
// suffered an unrecoverable transport failure. A poisoned engine's transport
// streams are in an unknown state — possibly desynchronized mid-round — so
// continuing could produce silently wrong comparison bits; the engine
// instead fails fast and its owner must discard it (sessions: close the
// session and open a fresh one).
var ErrPoisoned = errors.New("mpc: engine poisoned by unrecoverable transport failure")

// Mode selects how the engine executes comparisons.
type Mode int

const (
	// ModeIdeal evaluates the ideal functionality directly (same outputs as
	// the protocol, no messages) and accounts communication analytically:
	// the protocols are data-oblivious, so their wire cost is an exact
	// closed-form function of (parties, batch size, frame layout) — see
	// batchWireCost. The benchmark harness uses this mode so that large
	// parameter sweeps stay tractable while byte, round and message counts
	// remain exact.
	ModeIdeal Mode = iota
	// ModeProtocol runs the full secret-sharing protocol between party
	// goroutines over an in-process network. Tests, examples and
	// (optionally) benchmarks use this mode.
	ModeProtocol
)

// NetworkModel carries the parameters of the paper's communication cost
// model for a secure operation: R·(L + S/B) with R rounds, S bytes per round
// per party, latency L and bandwidth B (§VIII-B).
type NetworkModel struct {
	Latency   time.Duration // one-way latency L
	Bandwidth float64       // bytes per second B
}

// DefaultLAN mirrors the paper's testbed: ~0.2 ms LAN latency, 1 GB/s links.
func DefaultLAN() NetworkModel {
	return NetworkModel{Latency: 200 * time.Microsecond, Bandwidth: 1e9}
}

// RetryPolicy bounds protocol-round retries after transient transport
// failures (timeouts, injected faults). The zero value disables retry.
type RetryPolicy struct {
	// Attempts is how many times a failed protocol run is retried (so a
	// comparison executes at most Attempts+1 times).
	Attempts int
	// Backoff is the sleep before the first retry; it doubles per retry.
	Backoff time.Duration
}

// Params configures an Engine.
type Params struct {
	Parties int
	Mode    Mode
	Seed    uint64 // deterministic randomness for dealer and parties
	Net     NetworkModel
	// RealDelay applies Net as actual delivery delays on the in-process
	// transport (protocol mode): every message is receivable only after the
	// modeled latency plus serialization time, so wall-clock measurements
	// reflect the paper's cost model and concurrent engine forks overlap
	// their network waits.
	RealDelay bool

	// NoPack selects the unpacked byte-per-bit batched protocol instead of
	// the word-packed default. Results and round counts are identical; the
	// flag exists so the differential oracle and the chaos/race CI matrix
	// can exercise both wire layouts. The FEDROAD_MPC_NOPACK environment
	// variable (any non-empty value but "0") forces it on.
	NoPack bool

	// RoundTimeout bounds how long any party waits for a single frame during
	// a protocol round (protocol mode; 0 = wait forever). With it set, a
	// slow or dead peer turns into a clean wrapped transport.ErrRoundTimeout
	// instead of a goroutine blocked for the life of the process.
	RoundTimeout time.Duration

	// Retry re-runs a protocol round after a transient failure (see
	// transport.Transient). Non-transient failures — and transient ones that
	// outlive the retry budget — poison the engine.
	Retry RetryPolicy

	// Wrap, when set, wraps every party endpoint the engine creates (root
	// and forks). Chaos tests install transport.FaultConn here to drive the
	// protocols through drops, delays, duplicates, errors and mid-round
	// closes without touching protocol code.
	Wrap func(party int, c transport.Conn) transport.Conn

	// Dial, when set, supplies the engine's party endpoints instead of the
	// default in-process Mem network (protocol mode). NewEngine and every
	// Fork call it once to obtain a session-private ConnSet — e.g.
	// multiplexed lanes over a real TCP/mTLS mesh (transport.LocalMesh) —
	// so each fork's rounds travel an actual socket instead of a channel.
	// A Fork whose dial fails starts pre-poisoned (Fork cannot return an
	// error); callers observe the standard ErrPoisoned fast-fail and retry
	// on a fresh session.
	Dial func() (ConnSet, error)

	// Instr, when set, mirrors the engine's cost counters into a process-wide
	// metrics registry, shared by the whole fork family. Per-engine Stats
	// stay authoritative for per-query accounting; Instr feeds the /metrics
	// trajectory across all engines.
	Instr *Instruments
}

// ConnSet is one session-private set of party endpoints produced by a
// Params.Dial factory: conns[p] belongs to party p. Drain, when non-nil,
// discards every in-flight frame of the set (e.g. by rotating multiplexed
// lanes) and is invoked between protocol-retry attempts so a replayed round
// never reads stale frames of the aborted one. A set with a nil Drain is
// not retry-safe: the engine poisons on the first transport failure instead
// of replaying against possibly desynchronized streams.
type ConnSet struct {
	Conns []transport.Conn
	Drain func()
}

// Instruments is the MPC layer's hookup into a metrics registry: global
// monotonic counters aggregated across every engine of a fork family. The
// counter names follow the paper's cost model — compares is the Fed-SAC
// invocation count, rounds and bytes are the R and S of R·(L + S/B).
type Instruments struct {
	Compares   *metrics.Counter
	Rounds     *metrics.Counter
	Bytes      *metrics.Counter
	Messages   *metrics.Counter
	Retries    *metrics.Counter
	Poisonings *metrics.Counter
	Forks      *metrics.Counter
}

// NewInstruments registers (or rebinds, idempotently) the MPC counter set on
// a registry.
func NewInstruments(reg *metrics.Registry) *Instruments {
	return &Instruments{
		Compares:   reg.Counter("fedroad_mpc_compares_total", "Fed-SAC secure comparisons executed", nil),
		Rounds:     reg.Counter("fedroad_mpc_rounds_total", "MPC communication rounds (R in the paper's R·(L+S/B) cost model)", nil),
		Bytes:      reg.Counter("fedroad_mpc_bytes_total", "MPC wire bytes across all silos (S, summed over rounds)", nil),
		Messages:   reg.Counter("fedroad_mpc_messages_total", "MPC wire messages across all silos", nil),
		Retries:    reg.Counter("fedroad_mpc_retries_total", "Fed-SAC protocol rounds re-run after transient transport failures", nil),
		Poisonings: reg.Counter("fedroad_mpc_poisonings_total", "engines disabled by unrecoverable transport failures", nil),
		Forks:      reg.Counter("fedroad_mpc_engine_forks_total", "per-session engine forks created", nil),
	}
}

// record mirrors one comparison run's cost into the registry counters.
func (in *Instruments) record(compares, rounds, bytes, msgs int64) {
	if in == nil {
		return
	}
	in.Compares.Add(float64(compares))
	in.Rounds.Add(float64(rounds))
	in.Bytes.Add(float64(bytes))
	in.Messages.Add(float64(msgs))
}

// Stats aggregates the cost of all comparisons executed by an engine.
type Stats struct {
	Compares int64         // secure comparisons executed
	Rounds   int64         // communication rounds, summed over comparisons
	Bytes    int64         // wire bytes, summed over all parties
	Messages int64         // wire messages, summed over all parties
	SimNet   time.Duration // simulated network time per the paper's cost model
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Compares += other.Compares
	s.Rounds += other.Rounds
	s.Bytes += other.Bytes
	s.Messages += other.Messages
	s.SimNet += other.SimNet
}

// Sub returns s minus other.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		Compares: s.Compares - other.Compares,
		Rounds:   s.Rounds - other.Rounds,
		Bytes:    s.Bytes - other.Bytes,
		Messages: s.Messages - other.Messages,
		SimNet:   s.SimNet - other.SimNet,
	}
}

// Engine executes secure comparisons for a fixed set of parties. It is the
// concrete carrier of the Fed-SAC operator: the federation layer feeds it
// per-silo cost differences and receives only the joint comparison bit.
//
// An Engine is not safe for concurrent use, but independent engines run
// concurrently: Fork gives each in-flight query its own engine instance
// (own transport lanes, dealer stream, party randomness and stat counters)
// sharing only its root's immutable configuration and the fork-family
// observed-RTT estimate (a single atomic).
type Engine struct {
	n      int
	mode   Mode
	netm   NetworkModel
	seed   uint64
	dealer *Dealer
	mem    *transport.Mem // nil when conns come from a Dial factory
	conns  []transport.Conn
	stats  Stats

	// dial/drain carry the pluggable endpoint factory (see Params.Dial);
	// dial is inherited by forks, drain belongs to this engine's ConnSet.
	dial  func() (ConnSet, error)
	drain func()

	// noPack switches CompareBatch to the unpacked wire layout; inherited by
	// forks. The analytic cost accounting follows the selected layout.
	noPack bool

	// realDelay mirrors whether mem currently applies netm in real time.
	realDelay bool

	// roundTimeout, retry and wrap carry the failure policy (see Params);
	// inherited by forks.
	roundTimeout time.Duration
	retry        RetryPolicy
	wrap         func(party int, c transport.Conn) transport.Conn

	// poisoned is set after an unrecoverable transport failure: the engine's
	// streams may be desynchronized, so every later comparison fails fast
	// with ErrPoisoned instead of risking a silently wrong bit.
	poisoned bool

	// pool, when attached, serves pre-generated correlated randomness to
	// runProtocol/runBatchProtocol ahead of the dealer.
	pool *Pool

	// cursor is the scalar path's slab set, spent one lane per comparison
	// attempt, lowest lane first; left counts its unspent lanes. own holds
	// the slab sets this engine's dealer fills when the pool is dry or
	// absent: own[0] backs the cursor, own[1+w] word w of a batch.
	cursor []Slab
	left   int
	own    [][]Slab

	// instr, when set, mirrors cost counters into a shared metrics registry;
	// inherited by forks (nil-safe: all methods accept a nil receiver).
	instr *Instruments

	// forkCtr hands out distinct randomness streams to forks; shared by the
	// whole fork family.
	forkCtr *atomic.Uint64

	// analytic per-comparison costs (identical for every comparison: the
	// protocol's communication pattern is input-independent)
	cmpBytes  int64
	cmpMsgs   int64
	cmpSimNet time.Duration

	// rtt is the fork-family-shared EWMA of observed wall time per protocol
	// round, in nanoseconds — the measured component of the cost model
	// (analytic bytes/rounds × observed round time). Zero until the family
	// has completed a protocol-mode run.
	rtt *atomic.Int64
}

// envNoPack reports whether FEDROAD_MPC_NOPACK forces the unpacked batch
// layout, evaluated once per process.
var envNoPack = sync.OnceValue(func() bool {
	v := os.Getenv("FEDROAD_MPC_NOPACK")
	return v != "" && v != "0"
})

// NewEngine creates an engine. Per-comparison wire costs are computed
// analytically (the protocols are data-oblivious), so construction performs
// no protocol run.
func NewEngine(p Params) (*Engine, error) {
	if p.Parties < 2 {
		return nil, fmt.Errorf("mpc: need at least 2 parties, got %d", p.Parties)
	}
	if p.Net.Bandwidth == 0 {
		p.Net = DefaultLAN()
	}
	e := &Engine{
		n: p.Parties, mode: p.Mode, netm: p.Net, seed: p.Seed,
		dealer:       NewDealer(p.Parties, p.Seed),
		forkCtr:      new(atomic.Uint64),
		rtt:          new(atomic.Int64),
		noPack:       p.NoPack || envNoPack(),
		roundTimeout: p.RoundTimeout,
		retry:        p.Retry,
		wrap:         p.Wrap,
		dial:         p.Dial,
		instr:        p.Instr,
	}
	if err := e.installConns(); err != nil {
		return nil, err
	}

	// The scalar protocol always uses the bit-packed frame layout (word
	// packing only pays off across instances), so its cost is the unpacked
	// k=1 batch cost.
	e.cmpBytes, e.cmpMsgs = batchWireCost(e.n, 1, false)
	e.cmpSimNet = e.simNetFor(e.cmpBytes)
	e.SetRealDelay(p.RealDelay)
	return e, nil
}

// Fork returns an independent engine over the same parties and network
// model: fresh transport lanes, a fresh dealer stream and zeroed stats,
// sharing the root's preprocessing pool, wire layout, observed-RTT tracker
// and real-delay setting. Forks may run concurrently with each other and
// with their root; each individual engine remains single-goroutine.
func (e *Engine) Fork() *Engine {
	id := e.forkCtr.Add(1)
	seed := e.seed + id*0xd1342543de82ef95 // distinct odd-multiplier stream per fork
	f := &Engine{
		n: e.n, mode: e.mode, netm: e.netm, seed: e.seed,
		dealer:       NewDealer(e.n, seed),
		forkCtr:      e.forkCtr,
		rtt:          e.rtt,
		noPack:       e.noPack,
		pool:         e.pool,
		instr:        e.instr,
		roundTimeout: e.roundTimeout,
		retry:        e.retry,
		wrap:         e.wrap,
		dial:         e.dial,
		cmpBytes:     e.cmpBytes, cmpMsgs: e.cmpMsgs, cmpSimNet: e.cmpSimNet,
	}
	if e.instr != nil {
		e.instr.Forks.Inc()
	}
	if err := f.installConns(); err != nil {
		// Fork cannot return an error; a fork whose dial failed (e.g. its
		// mesh links are down mid-redial) starts poisoned and fails every
		// comparison fast — the caller's session retry path takes over.
		f.poisoned = true
		if f.instr != nil {
			f.instr.Poisonings.Inc()
		}
		return f
	}
	f.SetRealDelay(e.realDelay)
	return f
}

// installConns builds the engine's party endpoints: from the Dial factory
// when configured, else over a fresh in-process Mem network.
func (e *Engine) installConns() error {
	if e.dial != nil {
		cs, err := e.dial()
		if err != nil {
			return fmt.Errorf("mpc: dial party endpoints: %w", err)
		}
		if len(cs.Conns) != e.n {
			return fmt.Errorf("mpc: dial returned %d conns for %d parties", len(cs.Conns), e.n)
		}
		e.drain = cs.Drain
		e.conns = make([]transport.Conn, e.n)
		for i, c := range cs.Conns {
			if rt, ok := c.(interface{ SetRoundTimeout(time.Duration) }); ok {
				rt.SetRoundTimeout(e.roundTimeout)
			}
			e.conns[i] = e.wrapConn(i, c)
		}
		return nil
	}
	e.mem = transport.NewMem(e.n)
	e.mem.SetRecvTimeout(e.roundTimeout)
	e.conns = make([]transport.Conn, e.n)
	for i := range e.conns {
		e.conns[i] = e.wrapConn(i, e.mem.Conn(i))
	}
	return nil
}

// wrapConn applies the configured transport wrapper (fault injection), if any.
func (e *Engine) wrapConn(party int, c transport.Conn) transport.Conn {
	if e.wrap == nil {
		return c
	}
	return e.wrap(party, c)
}

// Poisoned reports whether the engine has been disabled by an unrecoverable
// transport failure. A poisoned engine fails every comparison fast with
// ErrPoisoned; its owner should close it and fork a fresh one from the root.
func (e *Engine) Poisoned() bool { return e.poisoned }

// Close releases the engine's in-process transport endpoints. Optional: an
// unclosed engine is reclaimed by the garbage collector.
func (e *Engine) Close() {
	for _, c := range e.conns {
		c.Close()
	}
}

// AttachPool directs the engine (and subsequent forks) to draw correlated
// randomness from a shared preprocessing pool, falling back to the local
// dealer when the pool is dry.
func (e *Engine) AttachPool(p *Pool) error {
	if p != nil && p.Parties() != e.n {
		return fmt.Errorf("mpc: pool dealt for %d parties, engine has %d", p.Parties(), e.n)
	}
	e.pool = p
	return nil
}

// Pool returns the attached preprocessing pool, if any.
func (e *Engine) Pool() *Pool { return e.pool }

// SetRealDelay switches real-time simulation of the network model on or off
// for this engine's transport (protocol mode only; ideal-mode comparisons
// exchange no messages).
func (e *Engine) SetRealDelay(on bool) {
	e.realDelay = on
	if e.mem == nil {
		// Dialed endpoints are real sockets: latency is physical, not
		// simulated, so the flag only records intent.
		return
	}
	if on {
		e.mem.SetDelay(e.netm.Latency, e.netm.Bandwidth)
	} else {
		e.mem.SetDelay(0, 0)
	}
}

// slabSet returns a fresh slab set — one slab per party, SlabLanes unspent
// lanes — preferring the preprocessing pool over the engine's dealer. A
// dealer-filled set lives in own[slot], overwriting whatever that slot held,
// so callers give concurrently live sets distinct slots.
func (e *Engine) slabSet(slot int) []Slab {
	if e.pool != nil {
		if set := e.pool.TakeSlabs(); set != nil {
			return set
		}
	}
	for len(e.own) <= slot {
		e.own = append(e.own, nil)
	}
	if e.own[slot] == nil {
		e.own[slot] = make([]Slab, e.n)
	}
	e.dealer.Fill(e.own[slot])
	return e.own[slot]
}

// nextLane spends the next lane of the scalar slab cursor, moving to a fresh
// slab set when the current one is used up. Every call — including each
// retry of a failed attempt — gets a lane no other comparison ever sees.
func (e *Engine) nextLane() ([]Slab, int) {
	if e.left == 0 {
		e.cursor, e.left = e.slabSet(0), SlabLanes
	}
	e.left--
	return e.cursor, SlabLanes - 1 - e.left
}

// batchSlabs returns, per party, the slabs of ⌈k/64⌉ fresh slab sets:
// instance i of the batch spends lane i%64 of word i/64.
func (e *Engine) batchSlabs(k int) [][]*Slab {
	W := wordsFor(k)
	slabs := make([][]*Slab, e.n)
	for p := range slabs {
		slabs[p] = make([]*Slab, W)
	}
	for w := 0; w < W; w++ {
		set := e.slabSet(1 + w)
		for p := range slabs {
			slabs[p][w] = &set[p]
		}
	}
	return slabs
}

// N returns the number of parties.
func (e *Engine) N() int { return e.n }

// Mode returns the execution mode.
func (e *Engine) Mode() Mode { return e.mode }

// PerCompareCost reports the analytic per-comparison cost: total wire
// bytes (all parties), rounds, and simulated network time.
func (e *Engine) PerCompareCost() (bytes int64, rounds int, simNet time.Duration) {
	return e.cmpBytes, RoundsPerCompare, e.cmpSimNet
}

// observeRounds folds one protocol run's wall time into the fork-family
// EWMA of per-round latency (weight 1/8). Protocol paths call it after each
// successful run; the tracker is shared, so any fork's runs inform the
// whole family.
func (e *Engine) observeRounds(elapsed time.Duration, rounds int) {
	if rounds <= 0 {
		return
	}
	sample := int64(elapsed) / int64(rounds)
	prev := e.rtt.Load()
	if prev == 0 {
		e.rtt.Store(sample)
		return
	}
	e.rtt.Store(prev + (sample-prev)/8)
}

// ObservedRoundTime reports the fork-family EWMA of measured wall time per
// protocol round — the empirical counterpart of the network model's
// latency term. Zero when no protocol-mode run has completed yet (e.g. in
// ideal mode, where rounds are only accounted, not executed).
func (e *Engine) ObservedRoundTime() time.Duration {
	return time.Duration(e.rtt.Load())
}

// Compare decides whether Σ diffs < 0, where diffs[p] is party p's private
// difference a_p − b_p. In terms of Fed-SAC: it returns [Σ a_p] < [Σ b_p],
// revealing only that bit. |Σ diffs| must stay below MaxMagnitude.
func (e *Engine) Compare(diffs []int64) (bool, error) {
	if len(diffs) != e.n {
		return false, fmt.Errorf("mpc: %d inputs for %d parties", len(diffs), e.n)
	}
	var result bool
	switch e.mode {
	case ModeIdeal:
		var sum int64
		for _, d := range diffs {
			sum += d
		}
		result = sum < 0
	case ModeProtocol:
		var err error
		result, err = e.runProtocol(diffs)
		if err != nil {
			return false, err
		}
		if e.mem != nil {
			e.mem.ResetStats()
		}
	default:
		return false, fmt.Errorf("mpc: unknown mode %d", e.mode)
	}
	e.stats.Compares++
	e.stats.Rounds += int64(RoundsPerCompare)
	e.stats.Bytes += e.cmpBytes
	e.stats.Messages += e.cmpMsgs
	e.stats.SimNet += e.cmpSimNet
	e.instr.record(1, int64(RoundsPerCompare), e.cmpBytes, e.cmpMsgs)
	return result, nil
}

// CompareSums is Fed-SAC in its natural form: partials a[p] and b[p] are the
// per-party path costs; the result is whether the joint cost of a is
// strictly smaller than the joint cost of b.
func (e *Engine) CompareSums(a, b []int64) (bool, error) {
	if len(a) != e.n || len(b) != e.n {
		return false, fmt.Errorf("mpc: partial vectors sized %d/%d for %d parties", len(a), len(b), e.n)
	}
	diffs := make([]int64, e.n)
	for p := range diffs {
		diffs[p] = a[p] - b[p]
	}
	return e.Compare(diffs)
}

// runProtocol executes a full protocol comparison, retrying transient
// transport failures under the engine's retry policy. A failure that
// survives the retry budget — or is not transient at all — poisons the
// engine.
func (e *Engine) runProtocol(diffs []int64) (bool, error) {
	var result bool
	err := e.retryProtocol(func() error {
		var err error
		result, err = e.runProtocolOnce(diffs)
		return err
	})
	if err != nil {
		return false, err
	}
	return result, nil
}

// retryProtocol runs one protocol execution under the engine's failure
// policy: transient failures (timeouts, injected faults — see
// transport.Transient) are retried with exponential backoff up to the retry
// budget, with the in-process transport drained between attempts so a replay
// never reads stale frames of the aborted round. Any other failure, or a
// transient one that exhausts the budget, poisons the engine: its party
// streams may be desynchronized mid-round, and replaying against them could
// open garbage as a comparison bit.
func (e *Engine) retryProtocol(run func() error) error {
	if e.poisoned {
		return ErrPoisoned
	}
	// Retry requires a drain primitive (Mem.Drain, or the ConnSet's Drain —
	// lane rotation on a mux mesh); without one, a replay could read stale
	// frames of the aborted round, so the first failure poisons instead.
	canDrain := e.mem != nil || e.drain != nil
	var err error
	for attempt := 0; ; attempt++ {
		err = run()
		if err == nil {
			return nil
		}
		if attempt >= e.retry.Attempts || !transport.Transient(err) || !canDrain {
			break
		}
		if e.instr != nil {
			e.instr.Retries.Inc()
		}
		if e.mem != nil {
			e.mem.Drain()
			e.mem.ResetStats()
		} else {
			e.drain()
		}
		if e.retry.Backoff > 0 {
			time.Sleep(e.retry.Backoff << min(attempt, 16))
		}
	}
	e.poisoned = true
	if e.instr != nil {
		e.instr.Poisonings.Inc()
	}
	return fmt.Errorf("%w: %w", ErrPoisoned, err)
}

// runProtocolOnce executes one full protocol comparison across party
// goroutines.
func (e *Engine) runProtocolOnce(diffs []int64) (bool, error) {
	tuples := laneTuples(e.nextLane())
	start := time.Now()
	results := make([]bool, e.n)
	errs := make([]error, e.n)
	var wg sync.WaitGroup
	for p := 0; p < e.n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results[p], errs[p] = compareParty(e.conns[p], uint64(diffs[p]), &tuples[p])
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			return false, fmt.Errorf("mpc: party %d: %w", p, err)
		}
	}
	e.observeRounds(time.Since(start), RoundsPerCompare)
	for p := 1; p < e.n; p++ {
		if results[p] != results[0] {
			return false, fmt.Errorf("mpc: parties disagree on comparison result")
		}
	}
	return results[0], nil
}

// Stats returns the accumulated cost counters.
func (e *Engine) Stats() Stats { return e.stats }

// ResetStats zeroes the accumulated cost counters.
func (e *Engine) ResetStats() { e.stats = Stats{} }
