package mpc

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/transport"
)

// runBatchDirect executes one batched comparison at the party-protocol level
// over a fresh in-process mesh, returning the joint result bits and the
// measured transport stats. diffs is [instance][party]; the dealer seed
// fixes the correlated randomness, so two runs with the same seed consume
// identical slab lanes regardless of wire layout.
func runBatchDirect(t *testing.T, n int, seed uint64, diffs [][]int64, packed bool) ([]bool, transport.Stats) {
	t.Helper()
	out, st, _ := runBatchRecorded(t, n, seed, diffs, packed)
	return out, st
}

// runBatchRecorded is runBatchDirect that also returns the frames party 0
// sent to party 1, one per round.
func runBatchRecorded(t *testing.T, n int, seed uint64, diffs [][]int64, packed bool) ([]bool, transport.Stats, [][]byte) {
	t.Helper()
	k := len(diffs)
	mem := transport.NewMem(n)
	dealer := NewDealer(n, seed)
	slabs := make([][]*Slab, n) // [party][word]
	for w := 0; w < wordsFor(k); w++ {
		set := make([]Slab, n)
		dealer.Fill(set)
		for p := range slabs {
			slabs[p] = append(slabs[p], &set[p])
		}
	}
	party := compareBatchParty
	if packed {
		party = compareBatchPackedParty
	}
	rec := &recordingConn{Conn: mem.Conn(0)}
	outs := make([][]bool, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ud := make([]uint64, k)
			for i := range ud {
				ud[i] = uint64(diffs[i][p])
			}
			conn := transport.Conn(mem.Conn(p))
			if p == 0 {
				conn = rec
			}
			outs[p], errs[p] = party(conn, ud, slabs[p])
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", p, err)
		}
	}
	for p := 1; p < n; p++ {
		for i := 0; i < k; i++ {
			if outs[p][i] != outs[0][i] {
				t.Fatalf("parties disagree on instance %d", i)
			}
		}
	}
	toParty1 := make([][]byte, 0, len(rec.sent)/(n-1))
	for f := 0; f < len(rec.sent); f += n - 1 {
		toParty1 = append(toParty1, rec.sent[f])
	}
	return outs[0], mem.Stats(), toParty1
}

func randomBatch(rng *rand.Rand, n, k int) ([][]int64, []bool) {
	diffs := make([][]int64, k)
	want := make([]bool, k)
	for i := range diffs {
		diffs[i] = make([]int64, n)
		var sum int64
		for p := range diffs[i] {
			diffs[i][p] = rng.Int64N(1<<40) - (1 << 39)
			sum += diffs[i][p]
		}
		want[i] = sum < 0
	}
	return diffs, want
}

// TestPackedBatchMatchesUnpackedAllLaneCounts: for every lane count 1..64
// and a set of ragged multi-word sizes, the word-packed protocol and the
// unpacked protocol — consuming identical dealer randomness — must produce
// the plaintext-correct bits. This is the lane-level differential oracle
// for the packed circuit (full-word, partial-word and multi-word shapes,
// including the in-place combine and the odd most-significant leftovers).
func TestPackedBatchMatchesUnpackedAllLaneCounts(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	sizes := make([]int, 0, 70)
	for k := 1; k <= 64; k++ {
		sizes = append(sizes, k)
	}
	sizes = append(sizes, 65, 67, 100, 128)
	for _, k := range sizes {
		diffs, want := randomBatch(rng, 3, k)
		seed := uint64(1000 + k)
		packed, _ := runBatchDirect(t, 3, seed, diffs, true)
		unpacked, _ := runBatchDirect(t, 3, seed, diffs, false)
		for i := 0; i < k; i++ {
			if packed[i] != want[i] {
				t.Fatalf("k=%d: packed[%d] = %v, plaintext %v", k, i, packed[i], want[i])
			}
			if unpacked[i] != want[i] {
				t.Fatalf("k=%d: unpacked[%d] = %v, plaintext %v", k, i, unpacked[i], want[i])
			}
		}
	}
}

// TestPackedAndUnpackedSpendSameTriples: both layouts spend the same lane
// and the same Beaver triple on every gate of every instance, so every
// masked bit party 0 opens is identical and only the frame layout differs.
// (A wrong triple still yields correct ANDs, so the result-level twin
// tests cannot see a triple spent on the wrong gate.)
func TestPackedAndUnpackedSpendSameTriples(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 15))
	for _, k := range []int{1, 13, 64, 70} {
		diffs, _ := randomBatch(rng, 3, k)
		_, _, packed := runBatchRecorded(t, 3, uint64(2000+k), diffs, true)
		_, _, unpacked := runBatchRecorded(t, 3, uint64(2000+k), diffs, false)
		last := RoundsPerCompare - 1
		if len(packed) != RoundsPerCompare || len(unpacked) != RoundsPerCompare {
			t.Fatalf("k=%d: %d packed and %d unpacked rounds, want %d", k, len(packed), len(unpacked), RoundsPerCompare)
		}
		if string(packed[0]) != string(unpacked[0]) || string(packed[last]) != string(unpacked[last]) {
			t.Fatalf("k=%d: masked openings or result bits differ between layouts", k)
		}
		vb := packedVecBytes(k)
		leaves := NumLeaves
		for r := 1; leaves > 1; r++ {
			gates := 2 * (leaves / 2)
			for i := 0; i < k; i++ {
				for j := 0; j < gates; j++ {
					for ef := 0; ef < 2; ef++ {
						if unpackBit(packed[r][(2*j+ef)*vb:], i) != unpackBit(unpacked[r], 2*(i*gates+j)+ef) {
							t.Fatalf("k=%d round %d instance %d gate %d: masked bits differ between layouts", k, r, i, j)
						}
					}
				}
			}
			leaves = leaves/2 + leaves%2
		}
	}
}

// TestPackedBatchMatchesScalarCompare: a packed CompareBatch and k scalar
// Compares over the same engine-level inputs return identical bits.
func TestPackedBatchMatchesScalarCompare(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	for _, k := range []int{1, 5, 64, 70} {
		batchEng := newTestEngine(t, 3, ModeProtocol)
		scalarEng := newTestEngine(t, 3, ModeProtocol)
		diffs, _ := randomBatch(rng, 3, k)
		got, err := batchEng.CompareBatch(diffs)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range diffs {
			single, err := scalarEng.Compare(d)
			if err != nil {
				t.Fatal(err)
			}
			if single != got[i] {
				t.Fatalf("k=%d: batch[%d]=%v, scalar=%v", k, i, got[i], single)
			}
		}
	}
}

// TestBatchWireCostMatchesMeasured pins the analytic cost model to reality:
// for both layouts, several lane counts (full, ragged, multi-word) and
// party counts, batchWireCost must equal the byte/message totals the
// transport actually accounted. The engine's ideal-mode accounting — and
// the monotone batching guarantee built on it — is exactly as trustworthy
// as this equality.
func TestBatchWireCostMatchesMeasured(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	for _, n := range []int{2, 3} {
		for _, k := range []int{1, 3, 8, 16, 33, 64, 65, 100} {
			for _, packed := range []bool{true, false} {
				diffs, _ := randomBatch(rng, n, k)
				_, st := runBatchDirect(t, n, uint64(n*1000+k), diffs, packed)
				wantBytes, wantMsgs := batchWireCost(n, k, packed)
				if st.Bytes != wantBytes || st.Messages != wantMsgs {
					t.Fatalf("n=%d k=%d packed=%v: measured %d B / %d msgs, model %d B / %d msgs",
						n, k, packed, st.Bytes, st.Messages, wantBytes, wantMsgs)
				}
			}
		}
	}
}

// TestPackedBatchNeverCostsMoreThanSequential: the analytic model makes
// batching monotone in the round-dominated costs — a packed k-batch always
// pays RoundsPerCompare rounds once (strictly fewer messages than k scalar
// comparisons), and at full byte lanes (k ≡ 0 mod 8, 16 ≤ k) it also costs
// no more bytes. Ragged tails waste up to 7 lanes per gate vector, so their
// byte totals can exceed the scalar layout's global bit-packing — but
// rounds, the term latency multiplies, never regress at any size. This is
// the "batching can never regress" invariant the engine's cost accounting
// promises.
func TestPackedBatchNeverCostsMoreThanSequential(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		scalarBytes, scalarMsgs := batchWireCost(n, 1, false)
		for k := 2; k <= 256; k++ {
			bytes, msgs := batchWireCost(n, k, true)
			if msgs >= scalarMsgs*int64(k) {
				t.Fatalf("n=%d k=%d: packed batch %d msgs, sequential %d", n, k, msgs, scalarMsgs*int64(k))
			}
			if k >= 16 && k%8 == 0 && bytes > scalarBytes*int64(k) {
				t.Fatalf("n=%d k=%d: packed batch %d B > %d sequential B", n, k, bytes, scalarBytes*int64(k))
			}
		}
	}
}

// TestPackedVecRoundTrip: serialize/deserialize of lane vectors is lossless
// on the live lanes and zeroes the padding.
func TestPackedVecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 14))
	for _, k := range []int{1, 7, 8, 9, 63, 64, 65, 100, 128, 200} {
		W := wordsFor(k)
		src := make([]uint64, W)
		for w := range src {
			src[w] = rng.Uint64()
		}
		// Mask source to live lanes: that is the contract packWordVec keeps.
		if k&63 != 0 {
			src[W-1] &= ^uint64(0) >> (64 - k&63)
		}
		buf := make([]byte, packedVecBytes(k))
		packWordVec(buf, src, k)
		back := make([]uint64, W)
		unpackWordVec(back, buf, k)
		for w := range src {
			if back[w] != src[w] {
				t.Fatalf("k=%d word %d: %x != %x", k, w, back[w], src[w])
			}
		}
		// XOR-accumulate twice must cancel.
		acc := make([]uint64, W)
		xorWordVec(acc, buf, k)
		xorWordVec(acc, buf, k)
		for w := range acc {
			if acc[w] != 0 {
				t.Fatalf("k=%d: xorWordVec does not self-cancel", k)
			}
		}
	}
}

// packRBitLanes transposes the k instances' R-bit shares into word lanes:
// the returned slab holds K vectors of W words each; vector b is the packed
// XOR share of bit b of every instance's mask R.
func packRBitLanes(tups []CmpTuple, W int) []uint64 {
	out := make([]uint64, K*W)
	for i := range tups {
		wi, bit := i>>6, uint(i&63)
		for b := 0; b < K; b++ {
			if tups[i].RBits[b]&1 == 1 {
				out[b*W+wi] |= 1 << bit
			}
		}
	}
	return out
}

// packTripleLanes transposes the k instances' Beaver bit triples into word
// triples: entry t*W+w packs lane shares of triple t for instances
// 64w..64w+63.
func packTripleLanes(tups []CmpTuple, W int) []WordTriple {
	out := make([]WordTriple, TriplesPerCompare*W)
	for i := range tups {
		wi, bit := i>>6, uint(i&63)
		for t := 0; t < TriplesPerCompare; t++ {
			tr := &tups[i].Triples[t]
			wt := &out[t*W+wi]
			if tr.A&1 == 1 {
				wt.A |= 1 << bit
			}
			if tr.B&1 == 1 {
				wt.B |= 1 << bit
			}
			if tr.C&1 == 1 {
				wt.C |= 1 << bit
			}
		}
	}
	return out
}

// TestPackedTransposeMatchesScalarTuples: the one-lane CmpTuples view and
// the dealt slab words agree bit for bit — transposing k consecutive
// one-lane tuples back into word lanes rebuilds the slabs the same seed's
// Fill deals, across a slab boundary.
func TestPackedTransposeMatchesScalarTuples(t *testing.T) {
	dealer := NewDealer(3, 21)
	const k = 70
	tups := make([]CmpTuple, k)
	for i := range tups {
		tups[i] = dealer.CmpTuples()[1]
	}
	W := wordsFor(k)
	rb := packRBitLanes(tups, W)
	wt := packTripleLanes(tups, W)
	for i := 0; i < k; i++ {
		for b := 0; b < K; b++ {
			want := uint64(tups[i].RBits[b] & 1)
			if rb[b*W+i>>6]>>(uint(i)&63)&1 != want {
				t.Fatalf("RBits lane mismatch at instance %d bit %d", i, b)
			}
		}
		for tr := 0; tr < TriplesPerCompare; tr++ {
			w := &wt[tr*W+i>>6]
			bit := uint(i) & 63
			if w.A>>bit&1 != uint64(tups[i].Triples[tr].A&1) ||
				w.B>>bit&1 != uint64(tups[i].Triples[tr].B&1) ||
				w.C>>bit&1 != uint64(tups[i].Triples[tr].C&1) {
				t.Fatalf("triple lane mismatch at instance %d triple %d", i, tr)
			}
		}
	}
	slabDealer := NewDealer(3, 21)
	for w := 0; w < W; w++ {
		set := make([]Slab, 3)
		slabDealer.Fill(set)
		live := ^uint64(0)
		if lanes := k - 64*w; lanes < 64 {
			live >>= 64 - lanes
		}
		s := &set[1]
		for b := 0; b < K; b++ {
			if s.RBits[b]&live != rb[b*W+w] {
				t.Fatalf("word %d: slab RBits[%d] differs from the one-lane view", w, b)
			}
		}
		for tr := 0; tr < TriplesPerCompare; tr++ {
			got, want := s.Triples[tr], wt[tr*W+w]
			if got.A&live != want.A || got.B&live != want.B || got.C&live != want.C {
				t.Fatalf("word %d: slab triple %d differs from the one-lane view", w, tr)
			}
		}
		for l := 0; l < 64 && 64*w+l < k; l++ {
			if s.RShare[l] != tups[64*w+l].RShare {
				t.Fatalf("word %d lane %d: slab RShare differs from the one-lane view", w, l)
			}
		}
	}
}

// FuzzPackedVecCodec fuzzes the packed share codec: any byte string,
// interpreted as a k-lane vector, must survive unpack→pack with its live
// lanes intact and its padding bits zeroed.
func FuzzPackedVecCodec(f *testing.F) {
	f.Add([]byte{0xff}, uint16(1))
	f.Add([]byte{0xab, 0xcd}, uint16(13))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(65))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint16) {
		k := 1 + int(kRaw%256)
		vb := packedVecBytes(k)
		in := make([]byte, vb)
		copy(in, data)
		words := make([]uint64, wordsFor(k))
		unpackWordVec(words, in, k)
		out := make([]byte, vb)
		packWordVec(out, words, k)
		// out must equal in with padding bits of the last byte masked off.
		mask := byte(0xff)
		if k&7 != 0 {
			mask = 0xff >> (8 - k&7)
		}
		for i := range in {
			want := in[i]
			if i == vb-1 {
				want &= mask
			}
			if out[i] != want {
				t.Fatalf("k=%d byte %d: %02x != %02x", k, i, out[i], want)
			}
		}
		// Lanes beyond k must be zero in the unpacked words.
		if k&63 != 0 {
			if words[len(words)-1]&^(^uint64(0)>>(64-k&63)) != 0 {
				t.Fatalf("k=%d: padding lanes nonzero", k)
			}
		}
	})
}
