// Package mpc implements the secure multi-party computation substrate behind
// FedRoad's Fed-SAC operator: additive secret sharing over the ring Z_2^64
// and a semi-honest n-party secure comparison in the preprocessing model.
//
// The paper implements Fed-SAC on MP-SPDZ with the "Temi" protocol and the
// edaBits optimization. This package substitutes a from-scratch protocol with
// the same online structure (see DESIGN.md):
//
//  1. the sum D of the parties' input differences — which already form an
//     additive sharing of D — is opened masked as C = D + R for a random
//     ring element R whose bit decomposition is XOR-shared among the
//     parties (1 round; each party broadcasts d_p + r_p),
//  2. the borrow of the subtraction C − R is evaluated with a log-depth
//     binary tree of carry-combine gates over the shared bits, each level
//     batching its AND gates through Beaver bit triples (log₂(k) rounds),
//  3. the resulting comparison bit — and nothing else — is opened (1 round).
//
// The batched variant (CompareBatch) additionally word-packs the circuits of
// up to 64 comparison instances into shared machine-word lanes (see pack.go),
// so one frame carries a whole frontier's worth of masked bits per round.
//
// The correlated randomness (R, its bit shares, and the bit triples) comes
// from a preprocessing Dealer, modelling MP-SPDZ's offline phase. Inputs and
// all intermediate values stay secret; the transcripts contain only uniformly
// masked openings and the final comparison bit.
package mpc

import (
	"encoding/binary"
	"math/rand/v2"
)

// K is the ring bit width. All arithmetic is mod 2^K with K = 64 so that
// values map directly onto uint64 two's-complement.
const K = 64

// NumLeaves is the number of borrow-circuit leaves: bits 0..K-2 feed the
// borrow into the sign bit K-1.
const NumLeaves = K - 1

// MaxMagnitude bounds |input difference| for a sound comparison: the sign bit
// of D = Σ diffs must be meaningful, so |D| must stay below 2^(K-1). FedRoad
// path costs are < 2^40 and silo counts ≤ 64, leaving huge headroom.
const MaxMagnitude = int64(1) << 50

// Bit is a single XOR-share of a secret bit; only the low bit is meaningful.
type Bit = byte

// BitTriple is one party's share of a Beaver bit triple (a, b, c) with
// c = a AND b jointly.
type BitTriple struct {
	A, B, C Bit
}

// ShareAdditive splits secret into n uniformly random additive shares over
// Z_2^64 using the given source of randomness.
func ShareAdditive(rng *rand.Rand, secret uint64, n int) []uint64 {
	shares := make([]uint64, n)
	var sum uint64
	for i := 1; i < n; i++ {
		shares[i] = rng.Uint64()
		sum += shares[i]
	}
	shares[0] = secret - sum
	return shares
}

// ReconstructAdditive recombines additive shares.
func ReconstructAdditive(shares []uint64) uint64 {
	var sum uint64
	for _, s := range shares {
		sum += s
	}
	return sum
}

// packBits stores bits (low bit of each byte) into dst, little-endian within
// bytes. dst must have length ≥ ceil(len(bits)/8).
func packBits(dst []byte, bits []Bit) {
	for i := range dst {
		dst[i] = 0
	}
	for i, b := range bits {
		dst[i>>3] |= (b & 1) << (i & 7)
	}
}

// unpackBit extracts bit i from a packed buffer.
func unpackBit(src []byte, i int) Bit {
	return (src[i>>3] >> (i & 7)) & 1
}

func putU64(dst []byte, v uint64) { binary.LittleEndian.PutUint64(dst, v) }
func getU64(src []byte) uint64    { return binary.LittleEndian.Uint64(src) }
