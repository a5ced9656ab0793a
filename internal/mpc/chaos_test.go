package mpc

import (
	"errors"
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// armedWrap builds a Params.Wrap that leaves endpoints clean until armed is
// set, then wraps the given party's NEXT created endpoint (i.e. the next
// Fork) with a FaultConn on the given plan. Arming after NewEngine keeps the
// calibration run clean; the returned getter exposes the installed wrapper.
func armedWrap(party int, plan transport.FaultPlan) (wrap func(int, transport.Conn) transport.Conn, arm *atomic.Bool, installed *atomic.Pointer[transport.FaultConn]) {
	arm = new(atomic.Bool)
	installed = new(atomic.Pointer[transport.FaultConn])
	wrap = func(p int, c transport.Conn) transport.Conn {
		if !arm.Load() || p != party {
			return c
		}
		fc := transport.NewFaultConn(c, plan)
		installed.Store(fc)
		return fc
	}
	return wrap, arm, installed
}

func TestChaosRetryRecoversTransientFault(t *testing.T) {
	// Party 0's first protocol operation fails with a transient fault; the
	// engine's retry budget must absorb it and still produce the right bit.
	wrap, arm, installed := armedWrap(0, transport.FaultPlan{Script: []transport.FaultKind{transport.FaultError}})
	root, err := NewEngine(Params{
		Parties:      3,
		Mode:         ModeProtocol,
		Seed:         31,
		RoundTimeout: 500 * time.Millisecond,
		Retry:        RetryPolicy{Attempts: 2, Backoff: time.Millisecond},
		Wrap:         wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	arm.Store(true)
	e := root.Fork()
	defer e.Close()

	got, err := e.Compare([]int64{-7, 2, 1}) // sum -4 < 0
	if err != nil {
		t.Fatalf("retry did not absorb the transient fault: %v", err)
	}
	if !got {
		t.Fatal("comparison bit wrong after retry")
	}
	if e.Poisoned() {
		t.Fatal("engine poisoned by a recovered fault")
	}
	if inj := installed.Load().Injected(); len(inj) != 1 || inj[0] != transport.FaultError {
		t.Fatalf("injected log = %v, want one injected error", inj)
	}

	// The engine keeps working after the recovered round.
	if got, err := e.Compare([]int64{5, -2, 1}); err != nil || got {
		t.Fatalf("comparison after recovery = %v, %v", got, err)
	}
}

func TestChaosTimeoutWithoutRetryPoisons(t *testing.T) {
	// Party 0 silently drops a frame. With no retry budget the round times
	// out at the starved peer, and the engine must poison itself: its
	// streams may hold half a round's frames.
	wrap, arm, _ := armedWrap(0, transport.FaultPlan{Script: []transport.FaultKind{transport.FaultDrop}})
	root, err := NewEngine(Params{
		Parties:      3,
		Mode:         ModeProtocol,
		Seed:         32,
		RoundTimeout: 100 * time.Millisecond,
		Wrap:         wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	arm.Store(true)
	e := root.Fork()
	defer e.Close()

	start := time.Now()
	_, err = e.Compare([]int64{-1, 0, 0})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("comparison with a dropped frame succeeded")
	}
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("error does not wrap ErrPoisoned: %v", err)
	}
	if !transport.IsTimeout(err) {
		t.Fatalf("error does not surface the round timeout: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timed-out round took %v, round timeout is 100ms", elapsed)
	}
	if !e.Poisoned() {
		t.Fatal("engine not poisoned after unrecoverable timeout")
	}

	// Poisoned engines fail fast, without touching the transport again.
	start = time.Now()
	if _, err := e.Compare([]int64{-1, 0, 0}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("poisoned compare = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("poisoned compare did not fail fast")
	}

	// The root and fresh forks are unaffected.
	arm.Store(false)
	if got, err := root.Compare([]int64{-1, 0, 0}); err != nil || !got {
		t.Fatalf("root compare after fork poisoning = %v, %v", got, err)
	}
	f := root.Fork()
	defer f.Close()
	if got, err := f.Compare([]int64{-1, 0, 0}); err != nil || !got {
		t.Fatalf("fresh fork compare = %v, %v", got, err)
	}
}

func TestChaosCloseMidRoundPoisonsDespiteRetries(t *testing.T) {
	// A crashed party (closed endpoint mid-round) is not transient: even a
	// generous retry budget must not replay against it, and the failure must
	// surface promptly rather than burning backoff sleeps.
	wrap, arm, _ := armedWrap(1, transport.FaultPlan{After: 2, Script: []transport.FaultKind{transport.FaultClose}})
	root, err := NewEngine(Params{
		Parties:      3,
		Mode:         ModeProtocol,
		Seed:         33,
		RoundTimeout: 100 * time.Millisecond,
		Retry:        RetryPolicy{Attempts: 5, Backoff: time.Second},
		Wrap:         wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	arm.Store(true)
	e := root.Fork()
	defer e.Close()

	start := time.Now()
	_, err = e.Compare([]int64{-1, 0, 0})
	if err == nil {
		t.Fatal("comparison with a crashed party succeeded")
	}
	if !errors.Is(err, ErrPoisoned) || !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("crash error classification: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 900*time.Millisecond {
		t.Fatalf("non-transient failure burned retries: took %v with 1s backoff configured", elapsed)
	}
	if !e.Poisoned() {
		t.Fatal("engine not poisoned after crash")
	}
}

func TestChaosBatchCompare(t *testing.T) {
	// The batched protocol path shares the retry/poison machinery.
	wrap, arm, _ := armedWrap(2, transport.FaultPlan{Script: []transport.FaultKind{transport.FaultError}})
	root, err := NewEngine(Params{
		Parties:      3,
		Mode:         ModeProtocol,
		Seed:         34,
		RoundTimeout: 500 * time.Millisecond,
		Retry:        RetryPolicy{Attempts: 2, Backoff: time.Millisecond},
		Wrap:         wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	diffs := [][]int64{{-3, 1, 1}, {4, -1, -1}, {-9, 4, 4}} // sums -1, 2, -1
	want := []bool{true, false, true}

	arm.Store(true)
	e := root.Fork()
	defer e.Close()
	got, err := e.CompareBatch(diffs)
	if err != nil {
		t.Fatalf("batched retry did not absorb the transient fault: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch bits = %v, want %v", got, want)
		}
	}
	if e.Poisoned() {
		t.Fatal("engine poisoned by a recovered batched fault")
	}

	// A crash mid-batch poisons, exactly like the scalar path.
	arm.Store(false)
	wrap2, arm2, _ := armedWrap(0, transport.FaultPlan{Script: []transport.FaultKind{transport.FaultClose}})
	root2, err := NewEngine(Params{
		Parties: 3, Mode: ModeProtocol, Seed: 35,
		RoundTimeout: 100 * time.Millisecond, Wrap: wrap2,
	})
	if err != nil {
		t.Fatal(err)
	}
	arm2.Store(true)
	e2 := root2.Fork()
	defer e2.Close()
	if _, err := e2.CompareBatch(diffs); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("batched crash error = %v", err)
	}
	if !e2.Poisoned() {
		t.Fatal("engine not poisoned after batched crash")
	}
}

func TestChaosPackedRaggedBatch(t *testing.T) {
	// Word-packed rounds under fault injection: a transient fault mid-batch
	// on a ragged (non-multiple-of-8) lane count must be absorbed by retry
	// with every lane still correct, on both wire layouts.
	rng := rand.New(rand.NewPCG(77, 77))
	diffs, want := randomBatch(rng, 3, 13)
	for _, noPack := range []bool{false, true} {
		wrap, arm, _ := armedWrap(1, transport.FaultPlan{After: 1, Script: []transport.FaultKind{transport.FaultError}})
		root, err := NewEngine(Params{
			Parties:      3,
			Mode:         ModeProtocol,
			Seed:         36,
			NoPack:       noPack,
			RoundTimeout: 500 * time.Millisecond,
			Retry:        RetryPolicy{Attempts: 2, Backoff: time.Millisecond},
			Wrap:         wrap,
		})
		if err != nil {
			t.Fatal(err)
		}
		arm.Store(true)
		e := root.Fork()
		got, err := e.CompareBatch(diffs)
		if err != nil {
			t.Fatalf("noPack=%v: retry did not absorb the fault: %v", noPack, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("noPack=%v: lane %d wrong after retry", noPack, i)
			}
		}
		if e.Poisoned() {
			t.Fatalf("noPack=%v: engine poisoned by a recovered fault", noPack)
		}
		e.Close()
		root.Close()
	}
}

func TestChaosRandomizedSoak(t *testing.T) {
	// Seeded random fault schedules (drops, delays, transient errors and the
	// occasional crash — no duplicates, which desynchronize FIFO streams and
	// are exercised separately) hammer the scalar protocol. The invariants:
	// never a panic or a hang, every error is classified (poisoned or
	// transient-but-recovered), and every successful comparison returns the
	// right bit.
	if testing.Short() {
		t.Skip("soak test")
	}
	for seed := uint64(0); seed < 4; seed++ {
		plan := transport.FaultPlan{
			Seed:   seed,
			PDelay: 0.05, PDrop: 0.02, PError: 0.05, PClose: 0.005,
			Delay: 200 * time.Microsecond,
		}
		wrap, arm, _ := armedWrap(int(seed)%3, plan)
		root, err := NewEngine(Params{
			Parties:      3,
			Mode:         ModeProtocol,
			Seed:         seed + 100,
			RoundTimeout: 50 * time.Millisecond,
			Retry:        RetryPolicy{Attempts: 1, Backoff: time.Millisecond},
			Wrap:         wrap,
		})
		if err != nil {
			t.Fatal(err)
		}
		arm.Store(true)
		e := root.Fork()

		inputs := [][]int64{{-5, 2, 1}, {3, -1, -1}, {0, 0, -1}, {7, -3, -3}}
		wantBits := []bool{true, false, true, false}
		for i := 0; i < 25; i++ {
			in := inputs[i%len(inputs)]
			got, err := e.Compare(in)
			if err != nil {
				if !errors.Is(err, ErrPoisoned) {
					t.Fatalf("seed %d compare %d: unclassified failure: %v", seed, i, err)
				}
				e.Close()
				e = root.Fork() // a poisoned session is discarded, not reused
				continue
			}
			if got != wantBits[i%len(inputs)] {
				t.Fatalf("seed %d compare %d: wrong bit under faults", seed, i)
			}
		}
		e.Close()
	}
}

// TestChaosRetrySpendsFreshLanes: a retried attempt must mask its round-1
// openings with randomness no earlier attempt touched. Party 0's first send
// fails transiently; clean party 1 has by then broadcast the aborted
// attempt's masked openings and starves until the round timeout. Its next
// broadcast opens the retried attempt: every masked word must differ from
// every aborted one, on the scalar and the batched path alike.
func TestChaosRetrySpendsFreshLanes(t *testing.T) {
	diffs, want := randomBatch(rand.New(rand.NewPCG(78, 78)), 3, 13)
	for _, batched := range []bool{false, true} {
		arm := new(atomic.Bool)
		var rec *recordingConn
		wrap := func(p int, c transport.Conn) transport.Conn {
			if !arm.Load() {
				return c
			}
			switch p {
			case 0:
				return transport.NewFaultConn(c, transport.FaultPlan{Script: []transport.FaultKind{transport.FaultError}})
			case 1:
				rec = &recordingConn{Conn: c}
				return rec
			}
			return c
		}
		root, err := NewEngine(Params{
			Parties:      3,
			Mode:         ModeProtocol,
			Seed:         37,
			RoundTimeout: 100 * time.Millisecond,
			Retry:        RetryPolicy{Attempts: 2, Backoff: time.Millisecond},
			Wrap:         wrap,
		})
		if err != nil {
			t.Fatal(err)
		}
		arm.Store(true)
		e := root.Fork()
		arm.Store(false)

		k := 1
		if batched {
			k = len(diffs)
			got, err := e.CompareBatch(diffs)
			if err != nil {
				t.Fatalf("batched: retry did not absorb the fault: %v", err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("batched: lane %d wrong after retry", i)
				}
			}
		} else {
			got, err := e.Compare(diffs[0])
			if err != nil || got != want[0] {
				t.Fatalf("scalar: compare after retry = %v, %v; want %v", got, err, want[0])
			}
		}
		if len(rec.sent) < 4 {
			t.Fatalf("batched=%v: party 1 sent %d frames, want the aborted and retried openings", batched, len(rec.sent))
		}
		aborted, retried := rec.sent[0], rec.sent[2]
		if len(aborted) != 8*k || len(retried) != 8*k {
			t.Fatalf("batched=%v: opening frames of %d and %d bytes, want %d", batched, len(aborted), len(retried), 8*k)
		}
		spent := make(map[uint64]bool, k)
		for i := 0; i < k; i++ {
			spent[getU64(aborted[8*i:])] = true
		}
		for i := 0; i < k; i++ {
			if spent[getU64(retried[8*i:])] {
				t.Fatalf("batched=%v: retried opening %d reuses a mask of the aborted attempt", batched, i)
			}
		}
		e.Close()
		root.Close()
	}
}
