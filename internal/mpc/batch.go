package mpc

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/transport"
)

// The batched comparison runs k independent comparisons inside ONE
// RoundsPerCompare-round protocol instance: masked openings, circuit-level
// AND openings and result bits of all k instances travel in the same frames.
// Communication rounds — the latency-dominated cost on real networks — are
// paid once per batch instead of once per comparison.
//
// The default path is word-packed (see pack.go): each circuit wire holds one
// bit of every instance in machine-word lanes, so the level-synchronous
// Beaver evaluation is 64-way SIMD in plain uint64 arithmetic and each
// gate's masked bits serialize as a dense ⌈k/8⌉-byte vector. The unpacked
// byte-per-bit path is retained (Params.NoPack / FEDROAD_MPC_NOPACK) as a
// differential oracle for the packed one; both produce bit-identical
// results and round counts, differing only in frame layout and CPU cost.
//
// FedRoad uses batching for the TM-tree's tournament build, the SPSP
// frontier's μ-updates and the CH builder's witness searches, whose
// level-wise comparisons are independent by construction (§VI).

// compareBatchPackedParty is the word-packed batched comparison protocol.
// Its transcript carries, per round, one dense bit-vector per circuit gate
// (lane i = instance i); its round count and comparison results are
// identical to the unpacked path's. Instance i spends lane i%64 of
// slabs[i/64], so the dealt word lanes feed the circuit as they are.
func compareBatchPackedParty(conn transport.Conn, diffs []uint64, slabs []*Slab) ([]bool, error) {
	me, n := conn.Party(), conn.N()
	k := len(diffs)
	W := wordsFor(k)
	if len(slabs) != W {
		return nil, fmt.Errorf("mpc: %d slabs for %d comparisons", len(slabs), k)
	}
	if k == 0 {
		return nil, nil
	}
	vb := packedVecBytes(k)

	// Round 1 — fused masked openings C_i = D_i + R_i, all in one frame.
	// As in the scalar protocol, the inputs d_p already form an additive
	// sharing of each D_i, so each party broadcasts d_p + r_p directly.
	frame := getFrame(8 * k)
	for i, d := range diffs {
		putU64(frame[8*i:], d+slabs[i>>6].RShare[i&63])
	}
	opened, err := broadcast(conn, frame)
	if err != nil {
		putFrame(frame)
		return nil, err
	}
	cs := make([]uint64, k)
	for q := 0; q < n; q++ {
		for i := 0; i < k; i++ {
			cs[i] += getU64(opened[q][8*i:])
		}
	}
	putFrame(frame)

	// Transpose the public C bits into word lanes: cb[b*W+w] holds bit b of
	// C across instances 64w..64w+63, matching slabs[w].RBits[b], this
	// party's packed XOR share of bit b of R.
	cb := getWords(K * W)
	defer putWords(cb)
	for i, c := range cs {
		wi, bit := i>>6, uint(i&63)
		for b := 0; b < K; b++ {
			if c>>uint(b)&1 == 1 {
				cb[b*W+wi] |= 1 << bit
			}
		}
	}

	// Leaf shares, word-parallel over instances:
	//
	//	g_b = ¬c_b ∧ r_b          (borrow generated at bit b)
	//	p_b = ¬(c_b ⊕ r_b)        (borrow propagated through bit b)
	//
	// Constants fold into party 0's share. Lanes ≥ k of the last word
	// compute on the last slab's unspent lanes; serialization truncates
	// every vector to k lanes, so they never reach the wire.
	g := getWords(NumLeaves * W)
	p := getWords(NumLeaves * W)
	defer putWords(g)
	defer putWords(p)
	for b := 0; b < NumLeaves; b++ {
		for w := 0; w < W; w++ {
			cw := cb[b*W+w]
			rw := slabs[w].RBits[b]
			g[b*W+w] = rw &^ cw
			pv := rw
			if me == 0 {
				pv ^= ^cw
			}
			p[b*W+w] = pv
		}
	}

	// Log-depth tree reduction of (g, p) segments, ascending significance:
	// (G, P) = (g_hi ⊕ (p_hi ∧ g_lo), p_hi ∧ p_lo). Each level opens all its
	// gates' masked vectors in one frame; gate t consumes word triple t, the
	// same triple the unpacked path spends on that gate of every instance.
	ew := getWords(W)
	fw := getWords(W)
	zw := getWords(2 * W) // z of the pair's two gates
	defer putWords(ew)
	defer putWords(fw)
	defer putWords(zw)
	triplesUsed := 0
	leaves := NumLeaves
	for leaves > 1 {
		half := leaves / 2
		gates := 2 * half
		frame := getFrame(gates * 2 * vb)
		for pr := 0; pr < half; pr++ {
			lo, hi := 2*pr, 2*pr+1
			for sub := 0; sub < 2; sub++ {
				// Gate 2pr: (p_hi ∧ g_lo); gate 2pr+1: (p_hi ∧ p_lo).
				t := triplesUsed + 2*pr + sub
				y := g
				if sub == 1 {
					y = p
				}
				off := (2*pr + sub) * 2 * vb
				for w := 0; w < W; w++ {
					tr := &slabs[w].Triples[t]
					ew[w] = p[hi*W+w] ^ tr.A
					fw[w] = y[lo*W+w] ^ tr.B
				}
				packWordVec(frame[off:], ew, k)
				packWordVec(frame[off+vb:], fw, k)
			}
		}
		opened, err := broadcast(conn, frame)
		if err != nil {
			putFrame(frame)
			return nil, err
		}
		for pr := 0; pr < half; pr++ {
			for sub := 0; sub < 2; sub++ {
				t := triplesUsed + 2*pr + sub
				off := (2*pr + sub) * 2 * vb
				for w := 0; w < W; w++ {
					ew[w], fw[w] = 0, 0
				}
				for q := 0; q < n; q++ {
					xorWordVec(ew, opened[q][off:off+vb], k)
					xorWordVec(fw, opened[q][off+vb:off+2*vb], k)
				}
				for w := 0; w < W; w++ {
					tr := &slabs[w].Triples[t]
					z := tr.C ^ (fw[w] & tr.A) ^ (ew[w] & tr.B)
					if me == 0 {
						z ^= ew[w] & fw[w]
					}
					zw[sub*W+w] = z
				}
			}
			// Combine in place: pair pr writes index pr, reads 2pr/2pr+1 —
			// always at or beyond the write cursor.
			hi := 2*pr + 1
			for w := 0; w < W; w++ {
				g[pr*W+w] = g[hi*W+w] ^ zw[w]
				p[pr*W+w] = zw[W+w]
			}
		}
		if leaves%2 == 1 { // odd element is most significant: stays last
			copy(g[half*W:(half+1)*W], g[(leaves-1)*W:leaves*W])
			copy(p[half*W:(half+1)*W], p[(leaves-1)*W:leaves*W])
		}
		putFrame(frame)
		triplesUsed += gates
		leaves = half + leaves%2
	}

	// Final round — open all k result bits in one packed vector:
	// d_{K-1} = c_{K-1} ⊕ r_{K-1} ⊕ G.
	res := getWords(W)
	defer putWords(res)
	for w := 0; w < W; w++ {
		res[w] = slabs[w].RBits[K-1] ^ g[w]
		if me == 0 {
			res[w] ^= cb[(K-1)*W+w]
		}
	}
	resFrame := getFrame(vb)
	packWordVec(resFrame, res, k)
	openedBits, err := broadcast(conn, resFrame)
	if err != nil {
		putFrame(resFrame)
		return nil, err
	}
	for w := 0; w < W; w++ {
		res[w] = 0
	}
	for q := 0; q < n; q++ {
		xorWordVec(res, openedBits[q], k)
	}
	putFrame(resFrame)
	out := make([]bool, k)
	for i := 0; i < k; i++ {
		out[i] = res[i>>6]>>(uint(i)&63)&1 == 1
	}
	return out, nil
}

// compareBatchParty is the unpacked (byte-per-bit) batched comparison,
// retained as the differential twin of the packed path: same rounds, same
// triple consumption, same results, different frame layout. It reads the
// slabs one lane at a time.
func compareBatchParty(conn transport.Conn, diffs []uint64, slabs []*Slab) ([]bool, error) {
	me, n := conn.Party(), conn.N()
	k := len(diffs)
	if len(slabs) != wordsFor(k) {
		return nil, fmt.Errorf("mpc: %d slabs for %d comparisons", len(slabs), k)
	}
	if k == 0 {
		return nil, nil
	}
	lane := func(i int) (*Slab, int) { return slabs[i>>6], i & 63 }

	// Round 1 — fused masked openings C_i = D_i + R_i, all in one frame.
	frame := make([]byte, 8*k)
	for i, d := range diffs {
		sl, l := lane(i)
		putU64(frame[8*i:], d+sl.RShare[l])
	}
	opened, err := broadcast(conn, frame)
	if err != nil {
		return nil, err
	}
	cs := make([]uint64, k)
	for q := 0; q < n; q++ {
		for i := 0; i < k; i++ {
			cs[i] += getU64(opened[q][8*i:])
		}
	}

	// Borrow circuits of all instances evaluated level-synchronously; the
	// AND gates of a level are opened in one frame across instances.
	gs := make([][]Bit, k)
	ps := make([][]Bit, k)
	trips := make([]BitTriple, k*TriplesPerCompare) // instance i's at i*TriplesPerCompare
	for i := 0; i < k; i++ {
		sl, l := lane(i)
		sl.laneTriples(l, trips[i*TriplesPerCompare:(i+1)*TriplesPerCompare])
		g := make([]Bit, NumLeaves)
		p := make([]Bit, NumLeaves)
		for b := 0; b < NumLeaves; b++ {
			cb := Bit(cs[i]>>uint(b)) & 1
			rb := Bit(sl.RBits[b]>>uint(l)) & 1
			if cb == 0 {
				g[b] = rb
			}
			p[b] = rb
			if me == 0 {
				p[b] ^= 1 ^ cb
			}
		}
		gs[i], ps[i] = g, p
	}
	triplesUsed := 0
	for len(gs[0]) > 1 {
		half := len(gs[0]) / 2
		var xs, ys []Bit
		var trip []BitTriple
		for i := 0; i < k; i++ {
			for pr := 0; pr < half; pr++ {
				lo, hi := 2*pr, 2*pr+1
				xs = append(xs, ps[i][hi], ps[i][hi])
				ys = append(ys, gs[i][lo], ps[i][lo])
			}
			from := i*TriplesPerCompare + triplesUsed
			trip = append(trip, trips[from:from+2*half]...)
		}
		zs, err := andBatch(conn, me, xs, ys, trip)
		if err != nil {
			return nil, err
		}
		triplesUsed += 2 * half
		off := 0
		for i := 0; i < k; i++ {
			ng := make([]Bit, 0, half+1)
			np := make([]Bit, 0, half+1)
			for pr := 0; pr < half; pr++ {
				ng = append(ng, gs[i][2*pr+1]^zs[off+2*pr])
				np = append(np, zs[off+2*pr+1])
			}
			if len(gs[i])%2 == 1 {
				ng = append(ng, gs[i][len(gs[i])-1])
				np = append(np, ps[i][len(ps[i])-1])
			}
			gs[i], ps[i] = ng, np
			off += 2 * half
		}
	}

	// Final round — open all k result bits in one packed frame.
	resShares := make([]Bit, k)
	for i := 0; i < k; i++ {
		sl, l := lane(i)
		resShares[i] = Bit(sl.RBits[K-1]>>uint(l))&1 ^ gs[i][0]
		if me == 0 {
			resShares[i] ^= Bit(cs[i]>>(K-1)) & 1
		}
	}
	resFrame := make([]byte, (k+7)/8)
	packBits(resFrame, resShares)
	openedBits, err := broadcast(conn, resFrame)
	if err != nil {
		return nil, err
	}
	out := make([]bool, k)
	for i := 0; i < k; i++ {
		var bit Bit
		for q := 0; q < n; q++ {
			bit ^= unpackBit(openedBits[q], i)
		}
		out[i] = bit == 1
	}
	return out, nil
}

// batchWireCost is the analytic wire cost of one k-batch comparison among n
// parties: exact payload bytes and message count as transport.Mem would
// account them (every byte counted once, at its sender). Both protocol paths
// are data-oblivious, so the cost is a pure function of (n, k, layout):
//
//	masked open   n(n−1) frames of 8k bytes
//	circuit level n(n−1) frames of gates·2·⌈k/8⌉ (packed) or
//	              ⌈gates·2·k/8⌉ (unpacked global bit-packing)
//	result open   n(n−1) frames of ⌈k/8⌉ bytes
//
// This replaces the old per-size protocol-run calibration: the model is
// exact by construction (validated against measured transport stats in
// pack_test.go), costs nothing at query time, and makes the batching
// decision monotone — a k-batch never costs more rounds than k sequential
// comparisons, so batching can no longer regress below unbatched.
func batchWireCost(n, k int, packed bool) (bytes, msgs int64) {
	if k == 0 {
		return 0, 0
	}
	per := 8 * k // masked open
	vb := packedVecBytes(k)
	leaves := NumLeaves
	for leaves > 1 {
		half := leaves / 2
		gates := 2 * half
		if packed {
			per += gates * 2 * vb
		} else {
			per += (gates*2*k + 7) / 8
		}
		leaves = half + leaves%2
	}
	per += vb // result open
	pairs := int64(n) * int64(n-1)
	return pairs * int64(per), pairs * int64(RoundsPerCompare)
}

// CompareBatch decides, for each instance i, whether Σ_p diffs[i][p] < 0 —
// k secure comparisons in a single RoundsPerCompare-round protocol run.
// Wire costs are accounted analytically via batchWireCost.
func (e *Engine) CompareBatch(diffs [][]int64) ([]bool, error) {
	k := len(diffs)
	if k == 0 {
		return nil, nil
	}
	for i, d := range diffs {
		if len(d) != e.n {
			return nil, fmt.Errorf("mpc: instance %d has %d inputs for %d parties", i, len(d), e.n)
		}
	}
	bytes, msgs := batchWireCost(e.n, k, !e.noPack)
	var out []bool
	var err error
	switch e.mode {
	case ModeIdeal:
		out = make([]bool, k)
		for i, d := range diffs {
			var sum int64
			for _, v := range d {
				sum += v
			}
			out[i] = sum < 0
		}
	case ModeProtocol:
		out, err = e.runBatchProtocol(diffs)
		if err != nil {
			return nil, err
		}
		if e.mem != nil {
			e.mem.ResetStats()
		}
	default:
		return nil, fmt.Errorf("mpc: unknown mode %d", e.mode)
	}
	e.stats.Compares += int64(k)
	e.stats.Rounds += int64(RoundsPerCompare)
	e.stats.Bytes += bytes
	e.stats.Messages += msgs
	e.stats.SimNet += e.simNetFor(bytes)
	e.instr.record(int64(k), int64(RoundsPerCompare), bytes, msgs)
	return out, nil
}

// simNetFor applies the paper's cost model to a protocol run's total bytes.
func (e *Engine) simNetFor(totalBytes int64) time.Duration {
	perParty := float64(totalBytes) / float64(e.n)
	return time.Duration(float64(RoundsPerCompare)*float64(e.netm.Latency) +
		perParty/e.netm.Bandwidth*float64(time.Second))
}

// runBatchProtocol executes a batched comparison under the engine's failure
// policy (transient-failure retry with drained transport, poisoning on
// unrecoverable errors — see retryProtocol).
func (e *Engine) runBatchProtocol(diffs [][]int64) ([]bool, error) {
	var result []bool
	err := e.retryProtocol(func() error {
		var err error
		result, err = e.runBatchProtocolOnce(diffs)
		return err
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}

// runBatchProtocolOnce executes one batched comparison across party
// goroutines, on the packed or unpacked path per the engine's config.
func (e *Engine) runBatchProtocolOnce(diffs [][]int64) ([]bool, error) {
	k := len(diffs)
	slabs := e.batchSlabs(k) // [party][word]
	party := compareBatchPackedParty
	if e.noPack {
		party = compareBatchParty
	}
	start := time.Now()
	results := make([][]bool, e.n)
	errs := make([]error, e.n)
	var wg sync.WaitGroup
	for p := 0; p < e.n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ud := make([]uint64, k)
			for i := 0; i < k; i++ {
				ud[i] = uint64(diffs[i][p])
			}
			results[p], errs[p] = party(e.conns[p], ud, slabs[p])
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mpc: party %d: %w", p, err)
		}
	}
	e.observeRounds(time.Since(start), RoundsPerCompare)
	for p := 1; p < e.n; p++ {
		for i := 0; i < k; i++ {
			if results[p][i] != results[0][i] {
				return nil, fmt.Errorf("mpc: parties disagree on batch instance %d", i)
			}
		}
	}
	return results[0], nil
}
