package mpc

import (
	"math/rand/v2"
	"testing"
)

// checkSlabSet verifies every lane of one dealt slab set: the additive
// shares of R sum to a mask whose bits the XOR shares of RBits reconstruct,
// and every Beaver triple satisfies c = a ∧ b.
func checkSlabSet(t *testing.T, set []Slab) {
	t.Helper()
	for lane := 0; lane < SlabLanes; lane++ {
		var r uint64
		for p := range set {
			r += set[p].RShare[lane]
		}
		for b := 0; b < K; b++ {
			var x uint64
			for p := range set {
				x ^= set[p].RBits[b]
			}
			if x>>uint(lane)&1 != r>>uint(b)&1 {
				t.Fatalf("n=%d lane %d: XOR of RBits[%d] does not match bit %d of R", len(set), lane, b, b)
			}
		}
	}
	for tr := 0; tr < TriplesPerCompare; tr++ {
		var a, b, c uint64
		for p := range set {
			a ^= set[p].Triples[tr].A
			b ^= set[p].Triples[tr].B
			c ^= set[p].Triples[tr].C
		}
		if c != a&b {
			t.Fatalf("n=%d triple %d: c != a∧b in lanes %064b", len(set), tr, c^(a&b))
		}
	}
}

// TestSlabDealerShares checks every lane of several consecutive slab sets
// for 2, 3 and 5 parties, and that consecutive sets carry fresh masks.
func TestSlabDealerShares(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		d := NewDealer(n, uint64(40+n))
		var prev []Slab
		for s := 0; s < 4; s++ {
			set := make([]Slab, n)
			d.Fill(set)
			checkSlabSet(t, set)
			if prev != nil && prev[1].RShare == set[1].RShare {
				t.Fatalf("n=%d: slab sets %d and %d repeat party 1's mask shares", n, s-1, s)
			}
			prev = set
		}
	}
}

// TestCmpTuplesViewCrossesSlabs: the one-lane view stays consistent across
// slab boundaries — lane 63 of one set, lane 0 of the next — and never
// serves the same lane twice.
func TestCmpTuplesViewCrossesSlabs(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		d := NewDealer(n, uint64(50+n))
		seen := make(map[uint64]bool)
		for i := 0; i < 2*SlabLanes+3; i++ {
			tuples := d.CmpTuples()
			var r uint64
			for _, tp := range tuples {
				r += tp.RShare
			}
			for b := 0; b < K; b++ {
				var bit Bit
				for _, tp := range tuples {
					bit ^= tp.RBits[b]
				}
				if bit != Bit(r>>uint(b))&1 {
					t.Fatalf("n=%d comparison %d: R bit %d inconsistent", n, i, b)
				}
			}
			for tr := 0; tr < TriplesPerCompare; tr++ {
				var a, b, c Bit
				for _, tp := range tuples {
					a ^= tp.Triples[tr].A
					b ^= tp.Triples[tr].B
					c ^= tp.Triples[tr].C
				}
				if c != a&b {
					t.Fatalf("n=%d comparison %d: triple %d violated", n, i, tr)
				}
			}
			if seen[tuples[1].RShare] {
				t.Fatalf("n=%d comparison %d: a lane was served twice", n, i)
			}
			seen[tuples[1].RShare] = true
		}
	}
}

func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	var a [64]uint64
	for i := range a {
		a[i] = rng.Uint64()
	}
	orig := a
	transpose64(&a)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			if a[j]>>uint(i)&1 != orig[i]>>uint(j)&1 {
				t.Fatalf("bit (%d,%d) not transposed", i, j)
			}
		}
	}
}

// TestDealerFillAllocatesNothing: filling a caller-owned slab set costs no
// heap allocation.
func TestDealerFillAllocatesNothing(t *testing.T) {
	d := NewDealer(3, 61)
	set := make([]Slab, 3)
	if allocs := testing.AllocsPerRun(20, func() { d.Fill(set) }); allocs != 0 {
		t.Fatalf("Fill allocated %.1f times per slab set, want 0", allocs)
	}
}

// BenchmarkDealer reports the offline cost per comparison at 3 parties: ns/op
// and allocs/op are per comparison.
func BenchmarkDealer(b *testing.B) {
	b.Run("slab", func(b *testing.B) {
		d := NewDealer(3, 1)
		set := make([]Slab, 3)
		b.ReportAllocs()
		for i := 0; i < b.N; i += SlabLanes {
			d.Fill(set)
		}
	})
	b.Run("one-lane-view", func(b *testing.B) {
		d := NewDealer(3, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = d.CmpTuples()
		}
	})
}
