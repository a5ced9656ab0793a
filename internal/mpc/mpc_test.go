package mpc

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func testRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^77))
}

func TestShareAdditiveRoundTrip(t *testing.T) {
	rng := testRNG(1)
	f := func(secret uint64, nRaw uint8) bool {
		n := 2 + int(nRaw%7)
		shares := ShareAdditive(rng, secret, n)
		if len(shares) != n {
			return false
		}
		return ReconstructAdditive(shares) == secret
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestShareAdditiveSharesVary(t *testing.T) {
	rng := testRNG(2)
	a := ShareAdditive(rng, 42, 3)
	b := ShareAdditive(rng, 42, 3)
	if a[0] == b[0] && a[1] == b[1] && a[2] == b[2] {
		t.Fatal("two sharings of the same secret produced identical shares")
	}
}

func TestShareUniformity(t *testing.T) {
	// Any n-1 additive shares of a fixed secret must look uniform: count
	// high-bit frequency of the non-constant shares over many sharings.
	rng := testRNG(4)
	const trials = 4000
	ones := 0
	for i := 0; i < trials; i++ {
		shares := ShareAdditive(rng, 12345, 3)
		if shares[1]>>63 == 1 {
			ones++
		}
	}
	if ones < trials/2-200 || ones > trials/2+200 {
		t.Fatalf("share high bit frequency %d/%d far from uniform", ones, trials)
	}
}

func TestPackUnpackBits(t *testing.T) {
	bits := []Bit{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	buf := make([]byte, (len(bits)+7)/8)
	packBits(buf, bits)
	for i, b := range bits {
		if got := unpackBit(buf, i); got != b {
			t.Fatalf("bit %d: got %d want %d", i, got, b)
		}
	}
}

func TestDealerTupleConsistency(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		d := NewDealer(n, 99)
		for trial := 0; trial < 10; trial++ {
			tuples := d.CmpTuples()
			if len(tuples) != n {
				t.Fatalf("n=%d: got %d tuples", n, len(tuples))
			}
			// Additive shares of R must agree with the XOR-shared bits of R.
			var r uint64
			for _, tp := range tuples {
				r += tp.RShare
			}
			for i := 0; i < K; i++ {
				var bit Bit
				for _, tp := range tuples {
					bit ^= tp.RBits[i]
				}
				if bit != Bit(r>>uint(i))&1 {
					t.Fatalf("n=%d: R bit %d inconsistent with additive sharing", n, i)
				}
			}
			// Every triple must satisfy c = a AND b jointly.
			for idx := 0; idx < TriplesPerCompare; idx++ {
				var a, b, c Bit
				for _, tp := range tuples {
					a ^= tp.Triples[idx].A
					b ^= tp.Triples[idx].B
					c ^= tp.Triples[idx].C
				}
				if c != a&b {
					t.Fatalf("n=%d: triple %d violated: a=%d b=%d c=%d", n, idx, a, b, c)
				}
			}
		}
	}
}

func TestDealerDeterministic(t *testing.T) {
	a := NewDealer(3, 7).CmpTuples()
	b := NewDealer(3, 7).CmpTuples()
	if a[0].RShare != b[0].RShare || a[1].RBits != b[1].RBits {
		t.Fatal("same seed produced different tuples")
	}
	c := NewDealer(3, 8).CmpTuples()
	if a[0].RShare == c[0].RShare && a[0].RBits == c[0].RBits {
		t.Fatal("different seeds produced identical tuples")
	}
}

// combinesFor counts the combine nodes of a binary reduction tree.
func combinesFor(leaves int) int {
	total := 0
	for leaves > 1 {
		total += leaves / 2
		leaves = leaves/2 + leaves%2
	}
	return total
}

func TestCircuitSizeConstants(t *testing.T) {
	if combinesFor(63) != 62 {
		t.Fatalf("combinesFor(63) = %d, want 62", combinesFor(63))
	}
	if circuitLevels(63) != 6 {
		t.Fatalf("circuitLevels(63) = %d, want 6", circuitLevels(63))
	}
	// Fused masked opening + 6 circuit levels + result opening.
	if RoundsPerCompare != 8 {
		t.Fatalf("RoundsPerCompare = %d, want 8", RoundsPerCompare)
	}
	if TriplesPerCompare != 124 || TriplesPerCompare != 2*combinesFor(NumLeaves) {
		t.Fatalf("TriplesPerCompare = %d, want 124", TriplesPerCompare)
	}
}

func newTestEngine(t *testing.T, n int, mode Mode) *Engine {
	t.Helper()
	e, err := NewEngine(Params{Parties: n, Mode: mode, Seed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestProtocolCompareBasic(t *testing.T) {
	e := newTestEngine(t, 3, ModeProtocol)
	cases := []struct {
		diffs []int64
		want  bool
	}{
		{[]int64{-1, 0, 0}, true},
		{[]int64{1, 0, 0}, false},
		{[]int64{0, 0, 0}, false}, // strict comparison: equal is not less
		{[]int64{-100, 50, 49}, true},
		{[]int64{-100, 50, 51}, false},
		{[]int64{1 << 40, -(1 << 40), -1}, true},
		{[]int64{1 << 40, -(1 << 40), 1}, false},
		{[]int64{-(1 << 44), 1 << 40, 1 << 40}, true},
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
}

func TestProtocolCompareRandomAllPartyCounts(t *testing.T) {
	for n := 2; n <= 5; n++ {
		e := newTestEngine(t, n, ModeProtocol)
		rng := testRNG(uint64(n) * 31)
		for trial := 0; trial < 60; trial++ {
			diffs := make([]int64, n)
			var sum int64
			for p := range diffs {
				diffs[p] = rng.Int64N(1<<42) - (1 << 41)
				sum += diffs[p]
			}
			got, err := e.Compare(diffs)
			if err != nil {
				t.Fatal(err)
			}
			if got != (sum < 0) {
				t.Fatalf("n=%d trial %d: Compare(%v) = %v, sum=%d", n, trial, diffs, got, sum)
			}
		}
	}
}

func TestCompareSums(t *testing.T) {
	e := newTestEngine(t, 3, ModeProtocol)
	less, err := e.CompareSums([]int64{10, 20, 30}, []int64{30, 20, 11})
	if err != nil {
		t.Fatal(err)
	}
	if !less {
		t.Fatal("60 < 61 should be true")
	}
	less, err = e.CompareSums([]int64{10, 20, 31}, []int64{30, 20, 11})
	if err != nil {
		t.Fatal(err)
	}
	if less {
		t.Fatal("61 < 61 should be false")
	}
	if _, err := e.CompareSums([]int64{1}, []int64{1, 2, 3}); err == nil {
		t.Fatal("mis-sized partials accepted")
	}
}

func TestIdealMatchesProtocol(t *testing.T) {
	proto := newTestEngine(t, 3, ModeProtocol)
	ideal := newTestEngine(t, 3, ModeIdeal)
	rng := testRNG(5)
	for trial := 0; trial < 100; trial++ {
		diffs := []int64{
			rng.Int64N(1<<40) - (1 << 39),
			rng.Int64N(1<<40) - (1 << 39),
			rng.Int64N(1<<40) - (1 << 39),
		}
		a, err := proto.Compare(diffs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ideal.Compare(diffs)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("trial %d: protocol=%v ideal=%v for %v", trial, a, b, diffs)
		}
	}
}

func TestIdealAccountingMatchesProtocol(t *testing.T) {
	// The whole point of ModeIdeal: identical cost counters without traffic.
	proto := newTestEngine(t, 4, ModeProtocol)
	ideal := newTestEngine(t, 4, ModeIdeal)
	for i := 0; i < 5; i++ {
		if _, err := proto.Compare([]int64{-3, 1, 1, 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := ideal.Compare([]int64{-3, 1, 1, 0}); err != nil {
			t.Fatal(err)
		}
	}
	ps, is := proto.Stats(), ideal.Stats()
	if ps != is {
		t.Fatalf("stats diverge:\nprotocol: %+v\nideal:    %+v", ps, is)
	}
	if ps.Compares != 5 || ps.Rounds != 5*int64(RoundsPerCompare) {
		t.Fatalf("unexpected counts: %+v", ps)
	}
	if ps.Bytes <= 0 || ps.SimNet <= 0 {
		t.Fatalf("cost counters empty: %+v", ps)
	}
}

func TestStatsScaleWithParties(t *testing.T) {
	e2 := newTestEngine(t, 2, ModeIdeal)
	e6 := newTestEngine(t, 6, ModeIdeal)
	e2.Compare([]int64{-1, 0})
	e6.Compare([]int64{-1, 0, 0, 0, 0, 0})
	b2 := e2.Stats().Bytes
	b6 := e6.Stats().Bytes
	// Total bytes grow ~quadratically in parties (every party talks to every
	// other); at minimum they must strictly grow.
	if b6 <= b2 {
		t.Fatalf("bytes did not grow with parties: n=2 %d, n=6 %d", b2, b6)
	}
}

func TestEngineDeterministicResults(t *testing.T) {
	// Same seed, same inputs: protocol-mode comparisons are reproducible.
	e1 := newTestEngine(t, 3, ModeProtocol)
	e2 := newTestEngine(t, 3, ModeProtocol)
	rng := testRNG(6)
	for i := 0; i < 30; i++ {
		diffs := []int64{rng.Int64N(2001) - 1000, rng.Int64N(2001) - 1000, rng.Int64N(2001) - 1000}
		a, err1 := e1.Compare(diffs)
		b, err2 := e2.Compare(diffs)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != b {
			t.Fatalf("engines with same seed disagree on %v", diffs)
		}
	}
}

func TestCompareQuickProperty(t *testing.T) {
	e := newTestEngine(t, 3, ModeProtocol)
	f := func(a0, a1, a2, b0, b1, b2 int32) bool {
		a := []int64{int64(a0), int64(a1), int64(a2)}
		b := []int64{int64(b0), int64(b1), int64(b2)}
		got, err := e.CompareSums(a, b)
		if err != nil {
			return false
		}
		return got == (a[0]+a[1]+a[2] < b[0]+b[1]+b[2])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRejectsBadInput(t *testing.T) {
	e := newTestEngine(t, 3, ModeIdeal)
	if _, err := e.Compare([]int64{1, 2}); err == nil {
		t.Fatal("short input accepted")
	}
	if _, err := NewEngine(Params{Parties: 1}); err == nil {
		t.Fatal("single-party engine accepted")
	}
}

func TestResetStats(t *testing.T) {
	e := newTestEngine(t, 2, ModeIdeal)
	e.Compare([]int64{-1, 0})
	if e.Stats().Compares != 1 {
		t.Fatal("comparison not counted")
	}
	e.ResetStats()
	if e.Stats() != (Stats{}) {
		t.Fatal("reset failed")
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{Compares: 1, Rounds: 9, Bytes: 100, Messages: 10, SimNet: 5}
	b := Stats{Compares: 2, Rounds: 18, Bytes: 200, Messages: 20, SimNet: 10}
	var acc Stats
	acc.Add(a)
	acc.Add(b)
	if acc.Compares != 3 || acc.Bytes != 300 {
		t.Fatalf("Add wrong: %+v", acc)
	}
	d := b.Sub(a)
	if d != a {
		t.Fatalf("Sub wrong: %+v", d)
	}
}
