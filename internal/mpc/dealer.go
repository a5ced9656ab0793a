package mpc

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
)

// CmpTuple is one party's slice of the correlated randomness consumed by a
// single secure comparison: an additive share of the mask R, XOR shares of
// R's bits, and this party's shares of the Beaver bit triples the borrow
// circuit consumes. It is the one-lane view of a Slab (see Dealer.CmpTuples)
// for callers that run one comparison at a time over their own transport.
type CmpTuple struct {
	RShare  uint64
	RBits   [K]Bit
	Triples []BitTriple
}

// TriplesPerCompare is the number of Beaver bit triples one comparison
// consumes: two ANDs per carry-combine node of a binary tree over NumLeaves
// leaves, which has NumLeaves−1 combine nodes.
const TriplesPerCompare = 2 * (NumLeaves - 1)

// circuitLevels counts the rounds the borrow circuit needs.
func circuitLevels(leaves int) int {
	levels := 0
	for leaves > 1 {
		leaves = leaves/2 + leaves%2
		levels++
	}
	return levels
}

// RoundsPerCompare is the number of communication rounds of one comparison:
// fused masked opening (the inputs are already an additive sharing, so no
// separate input-sharing round exists), one per circuit level, result
// opening.
var RoundsPerCompare = 2 + circuitLevels(NumLeaves)

// SlabLanes is the number of comparisons one Slab carries: one per bit of a
// machine word.
const SlabLanes = 64

// Slab is one party's share of the correlated randomness for SlabLanes
// comparisons, dealt directly in the word-lane layout the packed protocol
// consumes. Comparison i of the slab is lane i:
//
//   - RShare[i] is the party's additive share of comparison i's mask R;
//   - bit i of RBits[b] is its XOR share of bit b of that R;
//   - bit i of Triples[t].A, .B, .C is its share of that comparison's
//     Beaver triple t.
//
// A slab set is the n slabs (one per party, indexed by party) that one
// Dealer.Fill produces together; the lanes of a set are correlated across
// parties and nowhere else. Every lane is spent on at most one comparison.
type Slab struct {
	RShare  [SlabLanes]uint64
	RBits   [K]uint64
	Triples [TriplesPerCompare]WordTriple
}

// Dealer produces correlated randomness for the online protocol. It models
// the offline/preprocessing phase of the underlying MPC stack (Temi's
// threshold-HE preprocessing in the paper's implementation): a
// non-colluding party that never sees inputs, outputs, or transcripts.
//
// A Dealer is deterministic in its seed, which keeps protocol-mode runs
// reproducible. It is not safe for concurrent use.
type Dealer struct {
	n   int
	rng *rand.Rand

	// view and left back the one-lane CmpTuples view: the slab set being
	// handed out lane by lane, lowest first, and its count of unserved lanes.
	view []Slab
	left int
}

// NewDealer creates a dealer for n parties with a deterministic ChaCha8
// stream derived from seed.
func NewDealer(n int, seed uint64) *Dealer {
	if n < 2 {
		panic("mpc: dealer needs at least 2 parties")
	}
	var key [32]byte
	binary.LittleEndian.PutUint64(key[0:], seed)
	binary.LittleEndian.PutUint64(key[8:], seed^0xa5a5a5a5a5a5a5a5)
	binary.LittleEndian.PutUint64(key[16:], 0x466564526f616421) // "FedRoad!"
	binary.LittleEndian.PutUint64(key[24:], ^seed)
	return &Dealer{n: n, rng: rand.New(rand.NewChaCha8(key))}
}

// Fill deals the next SlabLanes comparisons' randomness into the
// caller-owned slab set, one slab per party, overwriting every word. It
// allocates nothing. Parties 1..n−1 receive whole random words; party 0's
// words are the difference (for RShare) or the XOR (for everything else)
// that makes the shares reconstruct correctly.
func (d *Dealer) Fill(set []Slab) {
	if len(set) != d.n {
		panic(fmt.Sprintf("mpc: slab set for %d parties, dealer has %d", len(set), d.n))
	}
	var r [SlabLanes]uint64
	for i := range r {
		r[i] = d.rng.Uint64()
		s := r[i]
		for p := 1; p < d.n; p++ {
			v := d.rng.Uint64()
			set[p].RShare[i] = v
			s -= v
		}
		set[0].RShare[i] = s
	}
	// After the transpose, word b holds bit b of every lane's mask.
	transpose64(&r)
	for b := range r {
		x := r[b]
		for p := 1; p < d.n; p++ {
			v := d.rng.Uint64()
			set[p].RBits[b] = v
			x ^= v
		}
		set[0].RBits[b] = x
	}
	for t := range set[0].Triples {
		a, b := d.rng.Uint64(), d.rng.Uint64()
		c := a & b
		for p := 1; p < d.n; p++ {
			w := WordTriple{A: d.rng.Uint64(), B: d.rng.Uint64(), C: d.rng.Uint64()}
			set[p].Triples[t] = w
			a, b, c = a^w.A, b^w.B, c^w.C
		}
		set[0].Triples[t] = WordTriple{A: a, B: b, C: c}
	}
}

// transpose64 transposes a 64×64 bit matrix in place: afterwards, bit j of
// a[i] is what bit i of a[j] was. Each step swaps the off-diagonal blocks of
// every 2s×2s sub-matrix, for s = 32, 16, …, 1.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000ffffffff)
	for s := 32; s != 0; s, m = s>>1, m^(m<<(s>>1)) {
		for k := 0; k < 64; k = (k + s + 1) &^ s {
			t := (a[k]>>uint(s) ^ a[k+s]) & m
			a[k] ^= t << uint(s)
			a[k+s] ^= t
		}
	}
}

// CmpTuples generates the per-party randomness for one comparison: one lane
// of the dealer's current slab set, dealt by Fill when the previous set is
// used up. The returned slice has one tuple per party.
func (d *Dealer) CmpTuples() []CmpTuple {
	if d.left == 0 {
		if d.view == nil {
			d.view = make([]Slab, d.n)
		}
		d.Fill(d.view)
		d.left = SlabLanes
	}
	d.left--
	return laneTuples(d.view, SlabLanes-1-d.left)
}

// laneTuples copies lane i of a slab set into one tuple per party.
func laneTuples(set []Slab, i int) []CmpTuple {
	tuples := make([]CmpTuple, len(set))
	triples := make([]BitTriple, len(set)*TriplesPerCompare)
	for p := range tuples {
		s, tp := &set[p], &tuples[p]
		tp.RShare = s.RShare[i]
		for b := range tp.RBits {
			tp.RBits[b] = Bit(s.RBits[b]>>uint(i)) & 1
		}
		tp.Triples = triples[p*TriplesPerCompare : (p+1)*TriplesPerCompare : (p+1)*TriplesPerCompare]
		s.laneTriples(i, tp.Triples)
	}
	return tuples
}

// laneTriples copies lane i of the slab's Beaver triples into dst.
func (s *Slab) laneTriples(i int, dst []BitTriple) {
	for t := range dst {
		w := &s.Triples[t]
		dst[t] = BitTriple{A: Bit(w.A>>uint(i)) & 1, B: Bit(w.B>>uint(i)) & 1, C: Bit(w.C>>uint(i)) & 1}
	}
}
